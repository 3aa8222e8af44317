"""Per-layer spans for the traced run, recorded from outside the program.

``Tracer.install`` wraps the public functions of each abelmod module at
its boundary: the name is replaced in its defining module and in every
abelmod module that imported it, methods are replaced on their class,
and ``Matrix.__matmul__`` is replaced on ``Matrix``.  A wrapper records a
span (name, start, end, parent) in memory while the tracer is active and
calls straight through otherwise, so the benchmark's own checks leave no
spans.  A layer's self time is its spans' durations minus the time their
child spans cover.

Exact results of the ``linalg`` calls are scanned for their largest
numerator or denominator bit length; the scan is recorded as a
``trace.bits`` span so that it is not charged to any layer.
"""

from __future__ import annotations

import json
import sys
import time

import abelmod  # noqa: F401  (the package namespace re-exports wrapped names)
from abelmod import adhm, checks, cli, dalgebra, linalg, moduli, torus

EXACT = linalg.EXACT
MODULES = [m for name, m in sys.modules.items() if name == "abelmod" or name.startswith("abelmod.")]

_ELIM = ("rank", "kernel_basis", "solve", "solve_matrix", "inverse")


def _elim_name(args):
    return "linalg.elim_exact" if args[0].mode == EXACT else "linalg.float"


def _matmul_name(args):
    # float products are numpy calls inside other layers; only exact
    # matmul is a layer of its own
    return "linalg.matmul_exact" if args[0].mode == EXACT else None


FUNCTIONS = [
    (linalg, _ELIM, _elim_name),
    (linalg, ("char_poly",), "linalg.char_poly"),
    (linalg, ("exact_roots",), "linalg.exact_roots"),
    (adhm, ("krylov_span",), "adhm.krylov_span"),
    (adhm, ("ideal_normal_form",), "adhm.ideal_normal_form"),
    (adhm, ("triangularize",), "adhm.triangularize"),
    (adhm, ("joint_spectrum", "spectrum_support"), "adhm.spectrum"),
    (adhm, ("decompose_punctual",), "adhm.decompose_punctual"),
    (adhm, ("rees_family", "rees_limit"), "adhm.rees"),
    (moduli, ("betti_marked", "betti_unmarked", "betti_assemble"), "moduli.betti"),
    (moduli, ("rh_to_derham", "rh_to_betti"), "moduli.rh"),
    (moduli, ("hodge_deform", "hodge_undeform", "hodge_rescale"), "moduli.hodge"),
    (moduli, ("diagram_check",), "moduli.diagram_check"),
    (dalgebra, ("gl_act",), "dalgebra.gl_act"),
    (dalgebra, ("orbit_invariants",), "dalgebra.orbit_invariants"),
    (dalgebra, ("classify",), "dalgebra.classify"),
    (dalgebra, ("jacobi_check",), "dalgebra.jacobi_check"),
    (torus, tuple(n for n in torus.__all__ if callable(getattr(torus, n)) and not isinstance(getattr(torus, n), type)), "torus"),
    (cli, ("main",), "cli"),
    (checks, tuple(n for n in checks.__all__ if n.startswith("run_")), "checks"),
]

# the schema classes behind the JSON boundary
SCHEMA_CLASSES = [
    linalg.Matrix,
    adhm.CommutingTuple,
    adhm.MarkedTuple,
    adhm.IdealNormalForm,
    adhm.PunctualData,
    dalgebra.UtaiTriple,
    dalgebra.DAlgebraLabel,
    moduli.FiberSpace,
    moduli.SymPoint,
    moduli.HilbPoint,
]

METHODS = [
    (linalg.Matrix, "__matmul__", _matmul_name),
    (adhm.CommutingTuple, "__init__", "adhm.commute_check"),
    (adhm.CommutingTuple, "conjugate", "adhm.conjugate"),
] + [
    (cls, meth, "cli." + meth)
    for cls in SCHEMA_CLASSES
    for meth in ("from_json", "to_json")
    if meth in cls.__dict__
]

_BITS_OF = ("linalg.matmul_exact", "linalg.elim_exact")


def _max_bits(out) -> int:
    mats = out if isinstance(out, list) else [out]
    best = 0
    for M in mats:
        if not isinstance(M, linalg.Matrix) or M.mode != EXACT:
            continue
        for i in range(M.rows):
            for j in range(M.cols):
                s = M[i, j]
                for q in (s.re, s.im):
                    best = max(best, int(q.numerator).bit_length(), int(q.denominator).bit_length())
    return best


class Tracer:
    """Spans kept in memory as [name, start, end, parent index]."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.active = False
        self.max_bits = 0

    # ------------------------------------------------------------------

    def _open(self, name):
        rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        return rec

    def _close(self, rec):
        rec[2] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, fn, name_of):
        tracer = self
        named = isinstance(name_of, str)

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            name = name_of if named else name_of(args)
            if name is None:
                return fn(*args, **kwargs)
            rec = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(rec)
            if name in _BITS_OF:
                bits = tracer._open("trace.bits")
                tracer.max_bits = max(tracer.max_bits, _max_bits(out))
                tracer._close(bits)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapped")
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def install(self):
        for module, names, name_of in FUNCTIONS:
            for attr in names:
                orig = getattr(module, attr)
                w = self._wrap(orig, name_of)
                for mod in MODULES:
                    for key, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, key, w)
        for cls, meth, name_of in METHODS:
            raw = cls.__dict__[meth]
            if isinstance(raw, staticmethod):
                setattr(cls, meth, staticmethod(self._wrap(raw.__func__, name_of)))
            else:
                setattr(cls, meth, self._wrap(raw, name_of))

    def tick(self, start, end):
        """Record an interruption (the pacer's handler) as a child of the
        open span, so no layer is charged for it."""
        if self.active:
            self.spans.append(["trace.pace", start, end, self.stack[-1] if self.stack else -1])

    def root(self, name, fn):
        """Run fn under a root span (one benchmark op): every span it
        causes descends from this one."""
        self.active = True
        try:
            return self._wrap(fn, name)()
        finally:
            self.active = False

    # ------------------------------------------------------------------

    def totals(self):
        """name -> [calls, self seconds].

        The pacer's handler runs at the interpreter's next check after the
        signal, which can fall between a span's clock reading and its push
        or pop; such a tick lies outside the span that was open when it was
        recorded.  Each tick is therefore charged to the innermost of those
        spans' ancestors whose interval holds it."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if name == "trace.pace":
                while parent >= 0 and not (spans[parent][1] <= start and end <= spans[parent][2]):
                    parent = spans[parent][3]
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, list] = {}
        for k, (name, start, end, _) in enumerate(self.spans):
            acc = out.setdefault(name, [0, 0.0])
            acc[0] += 1
            acc[1] += end - start - child[k]
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent}) + "\n")

