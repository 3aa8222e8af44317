"""Batch JSON front end.

Every subcommand reads one JSON document (a single instance, or an array
of instances processed in input order), dispatches to the library, and
writes canonical JSON: sorted keys, compact separators, one trailing
newline.  Exact-mode runs are byte-identical across invocations.
``classify-dalgebra`` writes the kind that ``dalgebra.classify`` names as
its label: title case with the hyphens dropped ("de-rham" is "DeRham",
"co-higgs" is "CoHiggs").

Exit status: 0 success; 1 malformed input or usage error; 2 domain error,
reported as {"error": <stable code>, "detail": <text>}.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from fractions import Fraction

from .adhm import (
    CommutingTuple,
    InvariantFlag,
    MarkedTuple,
    ideal_normal_form,
    krylov_span,
    rees_family,
    rees_limit,
    spectrum_support,
    triangularize,
)
from .checks import SCHEMA, run_all
from .dalgebra import UtaiTriple, classify, fm_dual, orbit_invariants
from .errors import AbelmodError, SchemaError
from .linalg import DEFAULT_FRAME, EXACT, FLOAT, Matrix, Scalar, ToleranceFrame
from .moduli import BETTI, NATURAL, HilbPoint, hilbert_chow, hodge_deform, rh_to_betti, rh_to_derham
from .torus import square_model

# an unsigned 'p/q' or decimal, read exactly by Fraction; the exponent is
# capped so an exact parse cannot build an enormous power of ten
_NUM = r"(?:\d+/\d+|(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d{1,3})?)"
_RAT = rf"[+-]?{_NUM}"


def _parse_scalar(text: str, mode: str) -> Scalar:
    """Parse 'p/q', decimals, 'a+b/qi', 'i', '-2i', or any finite float
    complex literal.  Rational and decimal forms stay exact when mode is
    exact; nan, inf and literals beyond double range are SchemaErrors."""
    s = text.strip().replace(" ", "")
    mre = re.fullmatch(_RAT, s)
    mim = re.fullmatch(rf"([+-]?)({_NUM})?[ij]", s)
    mboth = re.fullmatch(rf"({_RAT})([+-]{_NUM}?)[ij]", s)
    parts = None
    try:
        if mre:
            parts = Fraction(s), Fraction(0)
        elif mim:
            parts = Fraction(0), Fraction(mim.group(1) + (mim.group(2) or "1"))
        elif mboth:
            tail = mboth.group(2)
            parts = Fraction(mboth.group(1)), Fraction(tail if len(tail) > 1 else tail + "1")
    except ZeroDivisionError:
        raise SchemaError(f"scalar {text!r} has a zero denominator") from None
    if parts is not None:
        if mode == EXACT:
            return Scalar.exact(*parts)
        try:
            return Scalar.flt(float(parts[0]), float(parts[1]))
        except OverflowError:
            pass  # beyond double range: complex() below gives inf
    try:
        z = complex(s.replace("i", "j"))
    except ValueError:
        raise SchemaError(f"cannot parse scalar {text!r}") from None
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise SchemaError(f"scalar {text!r} is not finite")
    return Scalar.flt(z.real, z.imag)


def _frame(args) -> ToleranceFrame | None:
    given = (args.eps_rank, args.eps_eq, args.eps_lattice)
    if all(x is None for x in given):
        return None
    return ToleranceFrame(
        eps_rank=args.eps_rank if args.eps_rank is not None else DEFAULT_FRAME.eps_rank,
        eps_eq=args.eps_eq if args.eps_eq is not None else DEFAULT_FRAME.eps_eq,
        eps_lattice=args.eps_lattice if args.eps_lattice is not None else DEFAULT_FRAME.eps_lattice,
    )


class _Ctx:
    __slots__ = ("args", "frame")

    def __init__(self, args):
        self.args = args
        self.frame = _frame(args) if hasattr(args, "eps_rank") else None


def _in_mode(data, ctx: _Ctx, to_float):
    """data in the mode --mode asks for: kept as it is without --mode or
    in its own mode, to_float(frame) under --mode float; float data is
    never promoted to exact."""
    want = ctx.args.mode
    if want is None or want == data.mode:
        return data
    if want == FLOAT:
        return to_float(ctx.frame)
    raise SchemaError("cannot promote float data to exact mode")


def _tuple(obj, ctx: _Ctx) -> CommutingTuple:
    T = CommutingTuple.from_json(obj, ctx.frame)
    return _in_mode(T, ctx, T.to_float)


def _marked(obj, ctx: _Ctx) -> MarkedTuple:
    if "v" not in obj:
        raise SchemaError("instance carries no marking vector 'v'")
    M = MarkedTuple.from_json(obj, ctx.frame)
    return _in_mode(M, ctx, lambda frame: MarkedTuple(M.tuple.to_float(frame), M.v.to_float(frame)))


# ----------------------------------------------------------------------
# one handler per subcommand; each returns the result body as a dict


def _cmd_classify(obj, ctx: _Ctx):
    t = UtaiTriple.from_json(obj, ctx.frame)
    t = _in_mode(t, ctx, lambda frame: UtaiTriple(*(X.to_float(frame) for X in (t.alpha, t.beta, t.gamma))))
    lab = classify(t)
    body = {
        "label": lab.kind.title().replace("-", ""),
        "abelian": lab.abelian,
        "invariants": orbit_invariants(t),
        "fm_dual": fm_dual(t).to_json(),
    }
    if lab.tau is not None:
        body["tau"] = lab.tau.to_json()
    return body


def _cmd_stability(obj, ctx: _Ctx):
    # one walk: the marking is cyclic iff its Krylov span has n columns
    M = _marked(obj, ctx)
    K = krylov_span(M)
    if K.cols == M.n:
        return {"stable": True, "witness_subspace": None}
    return {"stable": False, "witness_subspace": K.to_json()}


def _cmd_spectrum(obj, ctx: _Ctx):
    # the joint spectrum is the support with each point repeated by its
    # multiplicity (adhm.joint_spectrum), so the support is computed once
    support = [([c.to_json() for c in p], k) for p, k in spectrum_support(_tuple(obj, ctx))]
    return {
        "joint_spectrum": [p for p, k in support for _ in range(k)],
        "support": [{"point": p, "multiplicity": k} for p, k in support],
    }


def _cmd_canonicalize(obj, ctx: _Ctx):
    return ideal_normal_form(_marked(obj, ctx)).to_json()


def _cmd_rees(obj, ctx: _Ctx):
    T = _tuple(obj, ctx)
    if "g" in obj:
        F = InvariantFlag(Matrix.from_json(obj["g"], T.mode, ctx.frame))
    else:
        _, F, _ = triangularize(T)
    try:
        weights = [int(x) for x in ctx.args.weights.split(",")]
    except ValueError:
        raise SchemaError("weights must be a comma-separated integer list") from None
    if ctx.args.t is not None:
        t = _parse_scalar(ctx.args.t, T.mode)
        return rees_family(T, F, weights, t).to_json()
    return rees_limit(T, F, weights).to_json()


def _cmd_hilbert_chow(obj, ctx: _Ctx):
    return hilbert_chow(HilbPoint.from_json(obj)).to_json()


def _cmd_rh(obj, ctx: _Ctx):
    h = HilbPoint.from_json(obj)
    pair = (ctx.args.src, ctx.args.dst)
    if pair == ("betti", "derham"):
        if h.space.kind != BETTI:
            raise SchemaError(f"input chart is {h.space.kind!r}, expected 'betti'")
        model = square_model(h.space.d, ctx.frame)
        return rh_to_derham(h, model).to_json()
    if pair == ("derham", "betti"):
        if h.space.kind != NATURAL:
            raise SchemaError(f"input chart is {h.space.kind!r}, expected 'natural'")
        return rh_to_betti(h).to_json()
    raise SchemaError(f"unsupported transform {pair[0]} -> {pair[1]}")


def _cmd_hodge_deform(obj, ctx: _Ctx):
    h = HilbPoint.from_json(obj)
    tau = _parse_scalar(ctx.args.tau, EXACT)
    return hodge_deform(h, tau).to_json()


_HANDLERS = {
    "classify-dalgebra": _cmd_classify,
    "stability": _cmd_stability,
    "spectrum": _cmd_spectrum,
    "canonicalize": _cmd_canonicalize,
    "rees": _cmd_rees,
    "hilbert-chow": _cmd_hilbert_chow,
    "rh-transform": _cmd_rh,
    "hodge-deform": _cmd_hodge_deform,
}


# ----------------------------------------------------------------------
# plumbing


def _load(path: str):
    try:
        if path in (None, "-"):
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except OSError as exc:
        raise SchemaError(f"cannot read input: {exc}") from None
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"input is not JSON: {exc}") from None
    return obj


def _check_schema_tag(obj):
    if isinstance(obj, dict) and "schema" in obj and obj["schema"] != SCHEMA:
        raise SchemaError(f"unsupported schema {obj['schema']!r} (expected {SCHEMA!r})")


def _emit(doc, path: str) -> None:
    text = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first main() call and reused
    by every later one: parse_args leaves it unchanged, and argparse looks
    up sys.stdout, sys.stderr and the terminal width only when it prints."""
    p = argparse.ArgumentParser(
        prog="abelmod",
        allow_abbrev=False,
        description="Commuting-matrix models for moduli of modules over "
        "differential algebras on complex tori.",
    )
    sub = p.add_subparsers(dest="command", required=True)
    # each subcommand takes only the flags it reads: a Hilbert point keeps
    # its pieces' modes and its chart's tolerances, and rh-transform reads
    # the eps flags only for the model it builds
    io = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    io.add_argument("--in", dest="inp", default="-", metavar="PATH", help="input JSON (default stdin)")
    io.add_argument("--out", dest="out", default="-", metavar="PATH", help="output JSON (default stdout)")
    eps = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    eps.add_argument("--eps-rank", type=float, help="float-mode rank threshold")
    eps.add_argument("--eps-eq", type=float, help="float-mode equality threshold")
    eps.add_argument("--eps-lattice", type=float, help="float-mode lattice-membership threshold")
    mode = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    mode.add_argument("--mode", choices=(EXACT, FLOAT), help="coerce exact input to float")
    moded = [io, mode, eps]

    for name in ("classify-dalgebra", "stability", "spectrum", "canonicalize"):
        sub.add_parser(name, parents=moded, allow_abbrev=False)
    sub.add_parser("hilbert-chow", parents=[io], allow_abbrev=False)
    sp = sub.add_parser("rees", parents=moded, allow_abbrev=False)
    sp.add_argument("--weights", required=True, help="nonincreasing integers, comma separated")
    sp.add_argument("--t", help="family parameter; omit for the limit member")
    sp = sub.add_parser("rh-transform", parents=[io, eps], allow_abbrev=False)
    sp.add_argument("--from", dest="src", required=True, choices=("betti", "derham"))
    sp.add_argument("--to", dest="dst", required=True, choices=("betti", "derham"))
    sp = sub.add_parser("hodge-deform", parents=[io], allow_abbrev=False)
    sp.add_argument("--tau", required=True, help="deformation parameter, nonzero")
    sp = sub.add_parser("check", allow_abbrev=False)
    sp.add_argument("--out", dest="out", default="-", metavar="PATH")
    sp.add_argument("--samples", type=int, default=500, help="scale of the property battery, at least 1")
    sp.add_argument("--n-max", type=int, default=6, help="largest matrix size, at least 2")
    sp.add_argument("--d-max", type=int, default=2, help="largest torus dimension, at least 1")
    sp.add_argument("--seed", type=int, default=0)
    return p


def _run_check(args) -> int:
    rep = run_all(samples=args.samples, seed=args.seed, n_max=args.n_max, d_max=args.d_max)
    if rep["pass"]:
        _emit(rep, args.out)
        return 0
    _emit({"schema": SCHEMA, "error": "CheckFailed", "detail": rep}, args.out)
    return 2


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1

    if args.command == "check":
        if args.n_max < 2 or args.d_max < 1 or args.samples < 1:
            print(
                "abelmod check: --n-max must be at least 2, --d-max and --samples at least 1",
                file=sys.stderr,
            )
            return 1
        out = getattr(args, "out", "-")
        try:
            return _run_check(args)
        except AbelmodError as exc:
            _emit({"schema": SCHEMA, "error": exc.code, "detail": exc.detail}, out)
            return 2

    handler = _HANDLERS[args.command]
    out = args.out
    try:
        ctx = _Ctx(args)
        payload = _load(args.inp)
        _check_schema_tag(payload)
        if isinstance(payload, list):
            results = []
            failed = False
            for entry in payload:
                if not isinstance(entry, dict):
                    raise SchemaError("batch entries must be JSON objects")
                _check_schema_tag(entry)
                try:
                    results.append(handler(entry, ctx))
                except AbelmodError as exc:
                    results.append({"error": exc.code, "detail": exc.detail})
                    failed = True
            _emit({"schema": SCHEMA, "results": results}, out)
            return 2 if failed else 0
        if not isinstance(payload, dict):
            raise SchemaError("input must be a JSON object or array of objects")
        body = handler(payload, ctx)
        body["schema"] = SCHEMA
        _emit(body, out)
        return 0
    except AbelmodError as exc:
        _emit({"schema": SCHEMA, "error": exc.code, "detail": exc.detail}, out)
        return 2
    except SchemaError as exc:
        _emit({"schema": SCHEMA, "error": "Malformed", "detail": str(exc)}, out)
        return 1
    except (KeyError, TypeError, ValueError) as exc:
        _emit({"schema": SCHEMA, "error": "Malformed", "detail": f"{type(exc).__name__}: {exc}"}, out)
        return 1


if __name__ == "__main__":
    sys.exit(main())
