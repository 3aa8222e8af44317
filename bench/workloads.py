"""The four benchmark workloads: program-side inputs, timed ops, checks.

A workload turns the planted data of ``gen.py`` into program objects
(``build``, part of set-up), exposes one round of ops (``ops``), and
checks each op's output (``check``) outside the timed region.  Every op
calls the program through module attributes (``adhm.ideal_normal_form``,
not a name bound at import), so the traced run sees the wrapped
functions.

``check`` returns one of ``OK``, ``FAILED`` (the op carries a named fault
of the program and the fault showed) or ``WRONG`` (an op that must
succeed gave a wrong answer or raised).  ``signature`` gives the bytes
of an output the program promises to reproduce exactly (exact mode), or
None: ops that share a ``key`` must give equal signatures (a conjugation
orbit), and every round must repeat the first round's signatures.
"""

from __future__ import annotations

import cmath
import io
import json
import math
import sys
from fractions import Fraction

import numpy as np

import gen
from abelmod import adhm, cli, dalgebra, linalg, moduli
from abelmod.errors import NonSplitCharPolyError

OK, FAILED, WRONG = "ok", "failed", "wrong"


class Op:
    """One timed call.  ``key`` groups ops whose outputs must agree (a
    conjugation orbit); ``fault`` marks the ops that carry a named fault."""

    __slots__ = ("run", "ref", "key", "fault")

    def __init__(self, run, ref, key=None, fault=False):
        self.run = run
        self.ref = ref
        self.key = key
        self.fault = fault


def _dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


# ----------------------------------------------------------------------
# exact-orbit


def _orbit_op(T, g, v):
    T2 = T.conjugate(g)
    v2 = linalg.solve(g, v)
    F = adhm.ideal_normal_form(adhm.MarkedTuple(T2, v2))
    F.support  # noqa: B018  (computed and cached; raises on a non-split spectrum)
    return F


def _column(entries, mode):
    return linalg.Matrix.from_json([[x] for x in entries], mode)


def _divisor_closed(stairs) -> bool:
    s = set(stairs)
    for e in s:
        for k, ek in enumerate(e):
            if ek and e[:k] + (ek - 1,) + e[k + 1 :] not in s:
                return False
    return True


def _monomial_image(B, v, e):
    w = v
    for j, ej in enumerate(e):
        for _ in range(ej):
            w = gen.g_matmul(B[j], w)
    return w


class ExactOrbit:
    """Exact stable marked tuples, each taken through a conjugation orbit
    of unimodular shears; one op is conjugate + solve for the marking +
    ideal normal form + its support."""

    name = "exact-orbit"

    def __init__(self, seed):
        self.bases = gen.exact_orbit(seed)

    def build(self):
        self._ops = []
        for b, base in enumerate(self.bases):
            doc = gen.tuple_json(base, exact=True)
            T = adhm.CommutingTuple.from_json(doc)
            v = _column(doc["v"], linalg.EXACT)
            for g in base["shears"]:
                gm = linalg.Matrix.from_json(gen.gm_json(g), linalg.EXACT)
                self._ops.append(Op(lambda T=T, g=gm, v=v: _orbit_op(T, g, v), base, b, base["fault"]))

    def ops(self):
        return self._ops

    def signature(self, op, out):
        return _dumps(out.to_json())

    def check(self, op, out):
        base = op.ref
        doc = out.to_json()
        n, B = base["n"], base["B"]
        stairs = [tuple(e) for e in doc["staircase"]]
        if len(stairs) != n or len(set(stairs)) != n or not _divisor_closed(stairs):
            return WRONG
        # B_j P = P M_j in the planted basis, and the M_j commute
        cols = [_monomial_image(B, base["v"], e) for e in stairs]
        P = [[cols[c][r][0] for c in range(n)] for r in range(n)]
        mats = [[[gen.g_parse(z) for z in row] for row in Mj] for Mj in doc["mult_matrices"]]
        if len(mats) != base["m"]:
            return WRONG
        for Bj, Mj in zip(B, mats):
            if gen.g_matmul(Bj, P) != gen.g_matmul(P, Mj):
                return WRONG
        for i in range(len(mats)):
            for j in range(i + 1, len(mats)):
                if gen.g_matmul(mats[i], mats[j]) != gen.g_matmul(mats[j], mats[i]):
                    return WRONG
        if doc["support"] is None:
            return FAILED if op.fault else WRONG
        got = sorted(
            (tuple(gen.g_parse(c) for c in s["point"]), s["multiplicity"]) for s in doc["support"]
        )
        if got != base["support"]:
            return FAILED if op.fault else WRONG
        return OK

    def expected_error(self, op, exc):
        return op.fault and isinstance(exc, NonSplitCharPolyError)


# ----------------------------------------------------------------------
# float-spectral


def _spectrum_op(M):
    T = M.tuple
    _, _, upper = adhm.triangularize(T)
    js = adhm.joint_spectrum(T)
    sup = adhm.spectrum_support(T)
    pieces = adhm.decompose_punctual(M)
    return upper, js, sup, pieces


def _diagram_op(M):
    return moduli.diagram_check(M, tol=1e-8)


def _match(got, want, tol) -> bool:
    """Multiset match of points (tuples of complex) within tol."""
    if len(got) != len(want):
        return False
    used = [False] * len(got)
    for w in want:
        for i, g in enumerate(got):
            if not used[i] and all(abs(a - b) <= tol for a, b in zip(g, w)):
                used[i] = True
                break
        else:
            return False
    return True


# Tolerances relative to the tuple norm.  Computed eigenvalues of a Jordan
# block of length 3 carry eps^(1/3) fuzz, so the joint spectrum gets the
# loose one; the support is refined to working precision.
JOINT_TOL = 1e-4
SUPPORT_TOL = 1e-8
UPPER_TOL = 1e-8


class FloatSpectral:
    """Float tuples with planted spectra (separated and defective),
    conjugated by well-conditioned matrices; one op is either the spectral
    chain or a marked Betti diagram check."""

    name = "float-spectral"

    def __init__(self, seed):
        self.insts = gen.float_spectral(seed)

    def build(self):
        self._ops = []
        for k, inst in enumerate(self.insts):
            M = adhm.MarkedTuple.from_json(gen.tuple_json(inst, exact=False))
            run = _spectrum_op if inst["op"] == "spectrum" else _diagram_op
            self._ops.append(Op(lambda M=M, run=run: run(M), inst, k, inst["fault"]))

    def ops(self):
        return self._ops

    def signature(self, op, out):
        return None

    def check(self, op, out):
        inst = op.ref
        bad = FAILED if op.fault else WRONG
        if inst["op"] == "diagram":
            return OK if out is True else bad
        upper, js, sup, pieces = out
        norm = max(float(np.linalg.norm(A)) for A in inst["B"])
        for U in upper:
            a = U.to_numpy()
            if np.abs(np.tril(a, -1)).max(initial=0.0) > UPPER_TOL * norm:
                return bad
        if not _match([tuple(c.cx for c in t) for t in js], inst["joint"], JOINT_TOL * norm):
            return bad
        want = inst["support"]
        got = [(tuple(c.cx for c in pt), k) for pt, k in sup]
        if sorted(k for _, k in got) != sorted(k for _, k in want):
            return bad
        if not _match([p for p, _ in got], [p for p, _ in want], SUPPORT_TOL * norm):
            return bad
        pts = [tuple(c.cx for c in P.point) for P in pieces]
        if sorted(P.length for P in pieces) != sorted(k for _, k in want):
            return bad
        if not _match(pts, [p for p, _ in want], SUPPORT_TOL * norm):
            return bad
        return OK

    def expected_error(self, op, exc):
        return op.fault


# ----------------------------------------------------------------------
# cli-batch


def _cli_op(argv, text):
    old_in, old_out = sys.stdin, sys.stdout
    sys.stdin, sys.stdout = io.StringIO(text), io.StringIO()
    try:
        rc = cli.main(argv)
        return rc, sys.stdout.getvalue()
    finally:
        sys.stdin, sys.stdout = old_in, old_out


def _cx(obj):
    return complex(float(obj["re"]), float(obj["im"]))


def _close(a, b, tol=1e-9):
    return abs(a - b) <= tol * max(1.0, abs(b))


def _gm_close(got_json, want, tol=1e-9):
    """Float JSON matrix against a numpy or Gaussian reference."""
    want = np.asarray(want if isinstance(want, np.ndarray) else [[gen.g_complex(z) for z in r] for r in want])
    got = np.array([[_cx(z) for z in row] for row in got_json])
    return got.shape == want.shape and bool(np.abs(got - want).max(initial=0.0) <= tol * max(1.0, np.abs(want).max(initial=0.0)))


def _g_pow_series(N, coeffs):
    """sum_k coeffs[k] N^k for k >= 1, exact (N nilpotent)."""
    n = len(N)
    out = [[gen.G0] * n for _ in range(n)]
    P = gen.g_eye(n)
    for c in coeffs:
        P = gen.g_matmul(P, N)
        out = gen.g_lin([(gen.G1, out), ((c, gen.Q0), P)], n)
    return out


class CliBatch:
    """In-process ``abelmod`` invocations on pre-written JSON batches of
    small instances, both modes, all eight subcommands."""

    name = "cli-batch"

    def __init__(self, seed):
        self.specs = gen.cli_batch(seed)

    def build(self):
        self._ops = []
        for k, spec in enumerate(self.specs):
            text = json.dumps(spec["doc"])
            argv = spec["cmd"] + ["--in", "-", "--out", "-"]
            self._ops.append(Op(lambda argv=argv, text=text: _cli_op(argv, text), spec, k))

    def ops(self):
        return self._ops

    def signature(self, op, out):
        return out[1] if op.ref["exact"] else None

    def expected_error(self, op, exc):
        return False

    def check(self, op, out):
        spec = op.ref
        rc, text = out
        if rc != 0:
            return WRONG
        doc = json.loads(text)
        if doc.get("schema") != "abelmod/1" or len(doc.get("results", ())) != len(spec["doc"]):
            return WRONG
        results = doc["results"]
        if any("error" in r for r in results):
            return WRONG
        ok = getattr(self, "_check_" + spec["check"].replace("-", "_"))(spec, results)
        return OK if ok else WRONG

    # one checker per output kind; each re-parses the output under the
    # abelmod/1 schema and compares with the planted reference

    def _check_classify(self, spec, results):
        exact = spec["exact"]
        for r, (label, (alpha, beta, gamma), tau) in zip(results, spec["ref"]):
            if r["label"] != label or r["invariants"]["d"] != len(alpha) or r["invariants"]["v"] != len(alpha[0]):
                return False
            abelian = all(z == gen.G0 for row in alpha + gamma for z in row)
            if r["abelian"] is not abelian:
                return False
            dalgebra.UtaiTriple.from_json(r["fm_dual"])
            neg_beta = [[gen.g_sub(gen.G0, z) for z in row] for row in beta]
            if exact:
                if r["fm_dual"]["alpha"] != gen.gm_json(neg_beta) or r["fm_dual"]["beta"] != gen.gm_json(alpha):
                    return False
                if (tau is None) != ("tau" not in r) or (tau is not None and r["tau"] != gen.g_json(tau)):
                    return False
            else:
                if not (_gm_close(r["fm_dual"]["alpha"], neg_beta) and _gm_close(r["fm_dual"]["beta"], alpha)):
                    return False
                if (tau is None) != ("tau" not in r) or (tau is not None and not _close(_cx(r["tau"]), gen.g_complex(tau))):
                    return False
        return True

    def _check_stability(self, spec, results):
        for r, stable in zip(results, spec["ref"]):
            if r["stable"] is not stable:
                return False
            if stable:
                if r["witness_subspace"] is not None:
                    return False
                continue
            mode = linalg.EXACT if spec["exact"] else linalg.FLOAT
            W = linalg.Matrix.from_json(r["witness_subspace"], mode).to_numpy()
            # the marking e_1 spans an invariant line of a diagonal tuple
            e1 = np.zeros((W.shape[0], 1))
            e1[0, 0] = 1.0
            if W.shape[1] != 1 or np.abs(W - e1 * W[0, 0]).max() > 1e-12 or abs(W[0, 0]) == 0:
                return False
        return True

    def _support_of(self, spec, r):
        if spec["exact"]:
            return sorted(
                (tuple(gen.g_parse(c) for c in s["point"]), s["multiplicity"]) for s in r["support"]
            )
        return [(tuple(_cx(c) for c in s["point"]), s["multiplicity"]) for s in r["support"]]

    def _check_planted_support(self, spec, results):
        """Each batch is one conjugation orbit of a planted tuple."""
        for r, ref in zip(results, spec["ref"]):
            got = self._support_of(spec, r)
            want = ref["support"]
            if spec["exact"]:
                if got != want:
                    return False
                continue
            wantf = [(tuple(gen.g_complex(c) for c in pt), k) for pt, k in want]
            if sorted(k for _, k in got) != sorted(k for _, k in wantf):
                return False
            if not _match([p for p, _ in got], [p for p, _ in wantf], 1e-7):
                return False
        return not spec["exact"] or len({_dumps(r) for r in results}) == 1

    def _check_spectrum(self, spec, results):
        if any(len(r["joint_spectrum"]) != ref["n"] for r, ref in zip(results, spec["ref"])):
            return False
        return self._check_planted_support(spec, results)

    def _check_canonicalize(self, spec, results):
        mode = linalg.EXACT if spec["exact"] else linalg.FLOAT
        for r, ref in zip(results, spec["ref"]):
            stairs = [tuple(e) for e in r["staircase"]]
            if len(stairs) != ref["n"] or not _divisor_closed(stairs):
                return False
            for Mj in r["mult_matrices"]:
                linalg.Matrix.from_json(Mj, mode)
        return self._check_planted_support(spec, results)

    def _check_rees(self, spec, results):
        w = spec["weights"]
        t = spec["t"]
        for r, members in zip(results, spec["ref"]):
            T = adhm.CommutingTuple.from_json(r)
            if T.n != 3 or T.mode != (linalg.EXACT if spec["exact"] else linalg.FLOAT):
                return False
            want = []
            for A in members:
                n = len(A)
                rows = []
                for i in range(n):
                    row = []
                    for j in range(n):
                        e = w[i] - w[j]
                        if t is None:
                            row.append(A[i][j] if e == 0 else gen.G0)
                        else:
                            row.append(gen.g_mul(A[i][j], (Fraction(1, 2) ** e, gen.Q0)))
                    rows.append(row)
                want.append(rows)
            if spec["exact"]:
                if r["B"] != [gen.gm_json(A) for A in want]:
                    return False
            elif not all(_gm_close(g, A, 1e-9) for g, A in zip(r["B"], want)):
                return False
        return True

    def _check_hilbert_chow(self, spec, results):
        for r, pieces in zip(results, spec["ref"]):
            moduli.SymPoint.from_json(r)
            if spec["exact"]:
                got = sorted((tuple(gen.g_parse(c) for c in s["point"]["coords"]), s["multiplicity"]) for s in r["support"])
                want = sorted((tuple(pt), len(N[0])) for pt, N, _ in pieces)
                if got != want:
                    return False
            else:
                got = [(tuple(_cx(c) for c in s["point"]["coords"]), s["multiplicity"]) for s in r["support"]]
                want = [(tuple(gen.g_complex(c) for c in pt), len(N[0])) for pt, N, _ in pieces]
                if sorted(k for _, k in got) != sorted(k for _, k in want):
                    return False
                if not _match([p for p, _ in got], [p for p, _ in want], 1e-12):
                    return False
        return True

    def _pieces_match(self, r, want_pieces, exact_n):
        """want_pieces: (point as complex tuple, N reference, marking)."""
        got = r["pieces"]
        if len(got) != len(want_pieces):
            return False
        for pt, N, v in want_pieces:
            hit = None
            for P in got:
                coords = [_cx(c) for c in P["point"]["coords"]]
                if len(coords) == len(pt) and all(_close(a, b, 1e-12) for a, b in zip(coords, pt)):
                    hit = P
                    break
            if hit is None:
                return False
            pd = hit["punctual"]
            if exact_n:
                if pd["N"] != [gen.gm_json(A) for A in N] or pd["v"] != [gen.g_json(x[0]) for x in v]:
                    return False
            elif not all(_gm_close(g, A, 1e-12) for g, A in zip(pd["N"], N)):
                return False
        return True

    def _check_rh_derham(self, spec, results):
        log_coeffs = [Fraction((-1) ** (k + 1), k) for k in range(1, 4)]
        for r, pieces in zip(results, spec["ref"]):
            h = moduli.HilbPoint.from_json(r)
            if h.space.kind != "natural":
                return False
            want = [
                (tuple(cmath.log(gen.g_complex(z)) for z in pt), [_g_pow_series(A, log_coeffs) for A in N], v)
                for pt, N, v in pieces
            ]
            if not self._pieces_match(r, want, True):
                return False
        return True

    def _check_rh_betti(self, spec, results):
        for r, pieces in zip(results, spec["ref"]):
            h = moduli.HilbPoint.from_json(r)
            if h.space.kind != "betti":
                return False
            want = []
            for pt, N, v in pieces:
                E = [sum(np.linalg.matrix_power(A, k) / math.factorial(k) for k in range(1, len(A) + 1)) for A in N]
                want.append((tuple(cmath.exp(z) for z in pt), E, v))
            if not self._pieces_match(r, want, False):
                return False
        return True

    def _check_hodge(self, spec, results):
        for r, pieces in zip(results, spec["ref"]):
            h = moduli.HilbPoint.from_json(r)
            if h.space.kind != "hodge" or r["space"]["tau"] != {"re": "1/2", "im": "0"}:
                return False
            # square model, d = 1: a = (u + w, i u - i w), fiber u scaled by tau
            want = []
            for (a1, a2), (N1, N2), v in pieces:
                u, w = (a1 - 1j * a2) / 2, (a1 + 1j * a2) / 2
                Nu, Nw = (N1 - 1j * N2) / 2, (N1 + 1j * N2) / 2
                want.append(((0.5 * u, w), [0.5 * Nu, Nw], v))
            if not self._pieces_match(r, want, False):
                return False
        return True


# ----------------------------------------------------------------------
# check-battery


class CheckBattery:
    """``abelmod check`` at a fixed reduced scale; one op is one battery
    pass."""

    name = "check-battery"

    def __init__(self, seed):
        self.argv = list(gen.CHECK_ARGV) + ["--out", "-"]

    def build(self):
        self._ops = [Op(lambda: _cli_op(self.argv, ""), None, 0)]

    def ops(self):
        return self._ops

    def signature(self, op, out):
        return out[1]

    def expected_error(self, op, exc):
        return False

    def check(self, op, out):
        rc, text = out
        if rc != 0:
            return WRONG
        doc = json.loads(text)
        ok = doc.get("schema") == "abelmod/1" and doc.get("pass") is True and len(doc.get("criteria", ())) == 9
        return OK if ok else WRONG


WORKLOADS = {w.name: w for w in (ExactOrbit, FloatSpectral, CliBatch, CheckBattery)}
