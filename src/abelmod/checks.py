"""Seeded property battery behind the ``check`` subcommand.

Each driver generates its own instances from an explicit seed and sample
count, exercises one library guarantee end to end, and reports a row of
counts and worst-case metrics.  ``run_all`` executes the whole battery;
sample counts scale proportionally, so the same code runs the full desk
scale and the reduced scale used by the determinism driver.  Rows carry
no timing data: the report for a fixed seed and scale is reproducible
byte for byte.
"""

from __future__ import annotations

import cmath
import json
import math
import random
from fractions import Fraction

import numpy as np

from .adhm import (
    CommutingTuple,
    InvariantFlag,
    MarkedTuple,
    PunctualData,
    ideal_normal_form,
    is_stable,
    joint_spectrum,
    marked_automorphisms_trivial,
    rees_family,
    rees_limit,
    sequiv_normal_form,
    spectrum_support,
    triangularize,
)
from .dalgebra import (
    Poly,
    UtaiTriple,
    cohomology_dim,
    fm_dual,
    gl_act,
    jacobi_check,
    orbit_invariants,
)
from .linalg import EXACT, FLOAT, Matrix, Scalar, rank, solve
from .moduli import (
    FiberSpace,
    HilbPoint,
    betti_assemble,
    diagram_check,
    hodge_deform,
    hodge_rescale,
    hodge_undeform,
    rh_to_betti,
    rh_to_derham,
)
from .torus import fold_imag, square_model

__all__ = [
    "SCHEMA",
    "run_all",
    "run_triangularization",
    "run_stability",
    "run_hilb_canonical",
    "run_rees",
    "run_marked_diagram",
    "run_rh_roundtrip",
    "run_hodge",
    "run_dalgebra",
    "run_determinism",
]

SCHEMA = "abelmod/1"

# Reference sample count the per-criterion desk scales are quoted against.
_REF = 500


def _count(samples: int, full: int) -> int:
    return max(2, round(full * samples / _REF))


def _row(criterion: int, name: str, ok: bool, **detail) -> dict:
    """One criterion's report row; detail keeps its keyword order."""
    return {"criterion": criterion, "name": name, "pass": ok, "detail": detail}


# ----------------------------------------------------------------------
# instance generators


def _frac(rng, lo: int = -3, hi: int = 3, den: int = 4) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, den))


def _gauss(rng) -> Scalar:
    return Scalar.exact(_frac(rng), _frac(rng))


def _cx(rng, r: float = 1.0) -> complex:
    return complex(rng.uniform(-r, r), rng.uniform(-r, r))


def _annulus(rng, lo: float, hi: float) -> complex:
    rad = rng.uniform(lo, hi)
    th = rng.uniform(-math.pi, math.pi)
    return complex(rad * math.cos(th), rad * math.sin(th))


def _spread(count: int, draw, gap: float) -> list[complex]:
    """count values of draw(), redrawing each that falls within gap of
    one already kept."""
    out: list[complex] = []
    while len(out) < count:
        z = draw()
        if all(abs(z - w) >= gap for w in out):
            out.append(z)
    return out


def _composition(rng, n: int) -> list[int]:
    out = []
    left = n
    while left:
        k = rng.randint(1, left)
        out.append(k)
        left -= k
    return out


def _unit_column(n: int, k: int, mode: str) -> Matrix:
    vals = [Scalar.one(mode) if i == k else Scalar.zero(mode) for i in range(n)]
    return Matrix.column(vals)


def _shear(rng, n: int, steps: int | None = None) -> Matrix:
    """Product of elementary transvections: exact and unimodular."""
    g = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(n + 2 if steps is None else steps):
        i = rng.randrange(n)
        j = rng.randrange(n)
        if i == j:
            continue
        c = rng.choice([-2, -1, 1, 2])
        for k in range(n):
            g[i][k] += c * g[j][k]
    return Matrix.exact(g)


def _exact_upper(rng, n: int) -> Matrix:
    """Bidiagonal seed: rational diagonal, unit superdiagonal, nothing
    else.  Entries above the superdiagonal would let a power reach a low
    coordinate early and break the triangular Krylov argument, so they
    stay zero; this way B^k e_n has support in e_{n-k}..e_n with leading
    coefficient 1, making the last coordinate vector cyclic for any
    polynomial family in the seed."""
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = _frac(rng)
        if i + 1 < n:
            rows[i][i + 1] = Fraction(1)
    return Matrix.exact(rows)


def _exact_commuting(rng, n: int, m: int) -> CommutingTuple:
    B1 = _exact_upper(rng, n)
    members = [B1]
    eye = Matrix.identity(n, EXACT)
    sq = B1 @ B1
    for _ in range(m - 1):
        members.append(
            eye.scale(Scalar.exact(_frac(rng, -2, 2, 3)))
            + B1.scale(Scalar.exact(_frac(rng, -2, 2, 3)))
            + sq.scale(Scalar.exact(_frac(rng, -2, 2, 3)))
        )
    return CommutingTuple(members)


def _float_conjugator(rng, n: int) -> np.ndarray:
    R = np.array([[_cx(rng) for _ in range(n)] for _ in range(n)])
    nr = np.linalg.norm(R)
    if nr > 0:
        R *= 0.8 / max(1.0, nr)
    return np.eye(n) + R


def _float_family(rng, n: int, m: int, defective: bool):
    """Conjugated polynomials in one upper-triangular seed.  With
    ``defective`` the diagonal repeats values under unit couplings, which
    produces nontrivial Jordan type; without it the spectrum stays
    separated so rank decisions are unambiguous.  Returns the members as
    numpy arrays together with the conjugator."""
    U = np.zeros((n, n), dtype=np.complex128)
    if defective:
        palette = [_cx(rng, 2.0) for _ in range(max(1, n - 1))]
        for i in range(n):
            U[i, i] = rng.choice(palette)
    else:
        vals = _spread(n, lambda: _cx(rng, 2.0), 0.05)
        for i in range(n):
            U[i, i] = vals[i]
    for i in range(n - 1):
        if rng.random() < 0.7:
            U[i, i + 1] = 1.0
    for i in range(n):
        for j in range(i + 2, n):
            if rng.random() < 0.3:
                U[i, j] = _cx(rng)
    g = _float_conjugator(rng, n)
    B1 = g @ U @ np.linalg.inv(g)
    mats = [B1]
    for _ in range(m - 1):
        mats.append(_cx(rng, 1.5) * np.eye(n) + _cx(rng, 1.5) * B1 + _cx(rng, 0.8) * (B1 @ B1))
    return mats, g


def _float_commuting(rng, n: int, m: int, defective: bool = True) -> CommutingTuple:
    mats, _ = _float_family(rng, n, m, defective)
    return CommutingTuple([Matrix.flt(A) for A in mats])


def _punctual_nilpotent(rng, ell: int, m: int, mode: str) -> CommutingTuple:
    """Shift block plus polynomials in it: cyclic for the first unit
    vector."""
    if mode == EXACT:
        rows = [[Fraction(0)] * ell for _ in range(ell)]
        for i in range(ell - 1):
            rows[i + 1][i] = Fraction(1)
        J = Matrix.exact(rows)
        sq = J @ J
        mats = [J]
        for _ in range(m - 1):
            mats.append(
                J.scale(Scalar.exact(_frac(rng, -2, 2, 3)))
                + sq.scale(Scalar.exact(_frac(rng, -2, 2, 3)))
            )
        return CommutingTuple(mats)
    J = np.zeros((ell, ell), dtype=np.complex128)
    for i in range(ell - 1):
        J[i + 1, i] = 1.0
    arrs = [J]
    for _ in range(m - 1):
        arrs.append(_cx(rng) * J + _cx(rng, 0.6) * (J @ J))
    return CommutingTuple([Matrix.flt(A) for A in arrs])


def _hilb(rng, space: FiberSpace, n: int, draw, mode: str = FLOAT) -> HilbPoint:
    """Length-n point of space: coordinates from draw(), first
    coordinates at least 0.08 apart, shift-type nilpotents and
    first-vector markings."""
    m = 2 * space.d
    lengths = _composition(rng, n)
    firsts = _spread(len(lengths), draw, 0.08)
    pieces = []
    for ell, z0 in zip(lengths, firsts):
        coords = [z0] + [draw() for _ in range(m - 1)]
        if mode == EXACT:
            # exact dyadic image of the sampled doubles: .cx returns the
            # original bits, so log/exp legs see the same values
            pt = [Scalar.exact(Fraction(z.real), Fraction(z.imag)) for z in coords]
        else:
            pt = [Scalar.flt(z.real, z.imag) for z in coords]
        N = _punctual_nilpotent(rng, ell, m, mode)
        pieces.append(PunctualData(pt, N, _unit_column(ell, 0, mode)))
    return HilbPoint(space, pieces)


def _nonzero_frac(rng) -> Fraction:
    return Fraction(rng.choice([-2, -1, 1, 2]), rng.randint(1, 3))


def _hodge_hilb_exact(rng, model) -> HilbPoint:
    """Split-chart point with exact coordinates and exact tau."""
    m = 2 * model.d
    lengths = _composition(rng, rng.randint(1, 3))
    used: list[Scalar] = []
    pieces = []
    for ell in lengths:
        while True:
            first = Scalar.exact(Fraction(rng.randint(-6, 6), 2), Fraction(rng.randint(-6, 6), 3))
            if all(first != u for u in used):
                break
        used.append(first)
        pt = [first] + [_gauss(rng) for _ in range(m - 1)]
        N = _punctual_nilpotent(rng, ell, m, EXACT)
        pieces.append(PunctualData(pt, N, _unit_column(ell, 0, EXACT)))
    tau0 = Scalar.exact(_nonzero_frac(rng), _frac(rng))
    return HilbPoint(FiberSpace.hodge(model, tau0), pieces)


# ----------------------------------------------------------------------
# residual measurements


def _upper_residual(upper: CommutingTuple) -> float:
    """Worst relative strict-lower entry and pairwise commutator."""
    worst = _commutator_residual(upper)
    for M in upper.B:
        A = M.to_numpy()
        worst = max(worst, np.linalg.norm(np.tril(A, -1)) / max(1.0, np.linalg.norm(A)))
    return worst


def _commutator_residual(T: CommutingTuple) -> float:
    mats = [M.to_numpy() for M in T.B]
    worst = 0.0
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            C = mats[i] @ mats[j] - mats[j] @ mats[i]
            den = max(1.0, np.linalg.norm(mats[i]) * np.linalg.norm(mats[j]))
            worst = max(worst, np.linalg.norm(C) / den)
    return worst


def _spectrum_drift(a, b) -> float:
    scale = 1.0 + max((abs(s) for t in a for s in t), default=0.0)
    worst = 0.0
    for ta, tb in zip(a, b):
        for sa, sb in zip(ta, tb):
            worst = max(worst, abs(sa.cx - sb.cx) / scale)
    return worst


def _tuple_gap(a: CommutingTuple, b: CommutingTuple) -> float:
    worst = 0.0
    for A, B in zip(a.B, b.B):
        aa, bb = A.to_numpy(), B.to_numpy()
        worst = max(worst, np.abs(aa - bb).max() / max(1.0, np.abs(aa).max()))
    return worst


# ----------------------------------------------------------------------
# criterion 1: triangularization completeness


def run_triangularization(count: int = 1000, n_max: int = 6, m_max: int = 4, seed: int = 101) -> dict:
    rng = random.Random(seed)
    worst = 0.0
    failures = 0
    for _ in range(count):
        n = rng.randint(1, n_max)
        m = rng.randint(1, m_max)
        T = _float_commuting(rng, n, m)
        _, _, upper = triangularize(T)
        res = _upper_residual(upper)
        worst = max(worst, res)
        if res > 1e-8:
            failures += 1
    return _row(
        1,
        "triangularization-completeness",
        failures == 0,
        count=count,
        n_max=n_max,
        failures=failures,
        worst_residual=float(worst),
    )


# ----------------------------------------------------------------------
# criterion 2: stability equivalences


def _brute_unstable(M: MarkedTuple) -> bool:
    """Invariant-subspace search by enumeration: a maximal proper
    invariant subspace is the kernel of a simultaneous left eigenvector,
    so the marking sits in one iff some joint left eigenvector kills it.
    The eigenvalue tuple of a joint left eigenvector is a support point,
    so the search runs over spectrum_support."""
    T = M.tuple
    n = T.n
    vt = M.v.transpose()
    eye = Matrix.identity(n, T.mode, T.frame)
    for p, _ in spectrum_support(T):
        A = vt.vstack(*(Bj.transpose() - eye.scale(c) for Bj, c in zip(T.B, p)))
        if rank(A) < n:
            return True
    return False


def _stability_instance(rng, n_max: int) -> MarkedTuple:
    n = rng.randint(1, n_max)
    m = rng.randint(1, 3)
    kind = rng.randrange(6)
    if kind == 0 or n == 1:
        T = _exact_commuting(rng, n, m)
        return MarkedTuple(T, _unit_column(n, n - 1, EXACT))
    if kind == 1:
        # e_1 spans a joint eigenline of an upper-triangular family
        T = _exact_commuting(rng, n, m)
        return MarkedTuple(T, _unit_column(n, 0, EXACT))
    if kind == 2:
        T = _exact_commuting(rng, n, m)
        vals = [Scalar.exact(rng.randint(-2, 2)) for _ in range(n)]
        if all(v.is_zero() for v in vals):
            vals[rng.randrange(n)] = Scalar.exact(1)
        return MarkedTuple(T, Matrix.column(vals))
    if kind == 3:
        # doubled block: the minimal polynomial is too small for any
        # marking to be cyclic
        k = max(1, n // 2)
        S = _exact_commuting(rng, k, m)
        z = Matrix.zeros(k, k, EXACT)
        mats = [Bj.hstack(z).vstack(z.hstack(Bj)) for Bj in S.B]
        vals = [Scalar.exact(rng.randint(-2, 2), rng.randint(-1, 1)) for _ in range(2 * k)]
        if all(v.is_zero() for v in vals):
            vals[0] = Scalar.exact(1)
        return MarkedTuple(CommutingTuple(mats), Matrix.column(vals))
    arrs, g = _float_family(rng, n, m, defective=False)
    T = CommutingTuple([Matrix.flt(A) for A in arrs])
    if kind == 4:
        v = np.array([[_cx(rng)] for _ in range(n)])
        if np.abs(v).max() < 0.1:
            v[0, 0] = 1.0
        return MarkedTuple(T, Matrix.flt(v))
    # image of the top eigenline under the conjugator: unstable
    return MarkedTuple(T, Matrix.flt(g[:, :1]))


def run_stability(count: int = 500, n_max: int = 6, seed: int = 102) -> dict:
    rng = random.Random(seed)
    equiv_mism = oracle_mism = oracle_checked = 0
    stable_seen = unstable_seen = 0
    for _ in range(count):
        M = _stability_instance(rng, n_max)
        s = is_stable(M)
        if s != marked_automorphisms_trivial(M):
            equiv_mism += 1
        if M.n <= 4:
            oracle_checked += 1
            if s != (not _brute_unstable(M)):
                oracle_mism += 1
        if s:
            stable_seen += 1
        else:
            unstable_seen += 1
    ok = equiv_mism == 0 and oracle_mism == 0 and stable_seen > 0 and unstable_seen > 0
    return _row(
        2,
        "stability-equivalence",
        ok,
        count=count,
        stable=stable_seen,
        unstable=unstable_seen,
        equivalence_mismatches=equiv_mism,
        oracle_checked=oracle_checked,
        oracle_mismatches=oracle_mism,
    )


# ----------------------------------------------------------------------
# criterion 3: normal form constant on conjugation orbits


def _inf_signature(f) -> str:
    doc = {
        "staircase": [list(e) for e in f.staircase],
        "mult": [A.to_json() for A in f.mult_matrices],
    }
    return json.dumps(doc, sort_keys=True)


def run_hilb_canonical(count: int = 300, conj: int = 50, seed: int = 103) -> dict:
    rng = random.Random(seed)
    orbit_mism = shape_fail = 0
    for _ in range(count):
        n = rng.randint(2, 4)
        m = rng.randint(2, 3)
        T = _exact_commuting(rng, n, m)
        M = MarkedTuple(T, _unit_column(n, n - 1, EXACT))
        base = ideal_normal_form(M)
        sig = _inf_signature(base)
        if len(base.staircase) != n or not base.divisor_closed():
            shape_fail += 1
        for _ in range(conj):
            g = _shear(rng, n)
            M2 = MarkedTuple(T.conjugate(g), solve(g, M.v))
            if _inf_signature(ideal_normal_form(M2)) != sig:
                orbit_mism += 1
    ok = orbit_mism == 0 and shape_fail == 0
    return _row(
        3,
        "hilb-canonical-form",
        ok,
        count=count,
        conjugations=conj,
        orbit_mismatches=orbit_mism,
        shape_failures=shape_fail,
    )


# ----------------------------------------------------------------------
# criterion 4: Rees degenerations


def _flagged_instance(rng, n: int, m: int):
    """Float tuple upper-triangular in a conjugated basis, returned with
    the invariant complete flag spanned by the conjugator's columns.  The
    leading member's diagonal stays separated so spectra compare
    elementwise."""
    vals = _spread(n, lambda: _cx(rng, 2.0), 0.05)
    U = np.diag(np.array(vals, dtype=np.complex128))
    for i in range(n - 1):
        if rng.random() < 0.6:
            U[i, i + 1] = 1.0
    for i in range(n):
        for j in range(i + 2, n):
            if rng.random() < 0.3:
                U[i, j] = _cx(rng)
    mats = [U]
    for _ in range(m - 1):
        mats.append(_cx(rng, 1.5) * np.eye(n) + _cx(rng, 1.5) * U + _cx(rng, 0.6) * (U @ U))
    h = _float_conjugator(rng, n)
    hi = np.linalg.inv(h)
    T = CommutingTuple([Matrix.flt(h @ A @ hi) for A in mats])
    return T, InvariantFlag(Matrix.flt(h))


def _weights(rng, n: int) -> list[int]:
    w = [rng.randint(1, 3)]
    for _ in range(n - 1):
        w.append(max(w[-1] - rng.choice([0, 0, 1]), w[0] - 3))
    return w


def run_rees(count: int = 300, n_max: int = 6, seed: int = 104) -> dict:
    rng = random.Random(seed)
    failures = 0
    worst_comm = worst_drift = worst_gap = 0.0
    for _ in range(count):
        n = rng.randint(2, n_max)
        m = rng.randint(1, 3)
        T, F = _flagged_instance(rng, n, m)
        w = _weights(rng, n)
        spec = joint_spectrum(T)
        ok = True
        for _ in range(5):
            t = Scalar.from_complex(_annulus(rng, 0.6, 1.7))
            R = rees_family(T, F, w, t)
            comm = _commutator_residual(R)
            drift = _spectrum_drift(spec, joint_spectrum(R))
            worst_comm = max(worst_comm, comm)
            worst_drift = max(worst_drift, drift)
            if comm > 1e-8 or drift > 1e-8:
                ok = False
        gap = _tuple_gap(sequiv_normal_form(rees_limit(T, F, w)), sequiv_normal_form(T))
        worst_gap = max(worst_gap, gap)
        if gap > 1e-8:
            ok = False
        if not ok:
            failures += 1
    return _row(
        4,
        "rees-degeneration",
        failures == 0,
        count=count,
        failures=failures,
        worst_commutator=float(worst_comm),
        worst_drift=float(worst_drift),
        worst_limit_gap=float(worst_gap),
    )


# ----------------------------------------------------------------------
# criterion 5: marked diagram


def run_marked_diagram(count: int = 500, n_max: int = 5, d_max: int = 2, seed: int = 105) -> dict:
    rng = random.Random(seed)
    failures = 0
    for _ in range(count):
        d = rng.randint(1, d_max)
        n = rng.randint(1, n_max)
        h = _hilb(rng, FiberSpace.betti(d), n, lambda: _annulus(rng, 0.45, 2.0))
        M = betti_assemble(h)
        g = Matrix.flt(_float_conjugator(rng, M.n))
        M = MarkedTuple(M.tuple.conjugate(g), solve(g, M.v))
        if not diagram_check(M, tol=1e-8):
            failures += 1
    return _row(5, "marked-diagram", failures == 0, count=count, d_max=d_max, failures=failures)


# ----------------------------------------------------------------------
# criterion 6: Riemann-Hilbert roundtrip


def run_rh_roundtrip(count: int = 200, n_max: int = 5, seed: int = 106) -> dict:
    rng = random.Random(seed)
    nilpotent_mism = rank1_mism = base_fail = 0
    worst_base = 0.0
    for _ in range(count):
        d = rng.randint(1, 2)
        n = rng.randint(1, n_max)
        h = _hilb(rng, FiberSpace.betti(d), n, lambda: _annulus(rng, 0.45, 2.0), EXACT)
        model = square_model(d)
        mid = rh_to_derham(h, model)
        back = rh_to_betti(mid)
        # the exponent chart sorts pieces by log coordinates, so compare
        # the roundtrip positionally but the middle leg by membership
        for P, Q in zip(h.pieces, back.pieces):
            if P.N != Q.N or P.marking != Q.marking:
                nilpotent_mism += 1
            for a, b in zip(P.point, Q.point):
                drift = abs(a.cx - b.cx)
                worst_base = max(worst_base, drift)
                if drift > 1e-10:
                    base_fail += 1
            if P.length == 1:
                # reference for a rank-1 piece, independent of moduli:
                # the principal log on its canonical branch, then exp
                want = [fold_imag(cmath.log(c.cx)) for c in P.point]
                if not any(
                    D.length == 1 and all(D.point[k].cx == want[k] for k in range(2 * d))
                    for D in mid.pieces
                ):
                    rank1_mism += 1
                z = [cmath.exp(a) for a in want]
                if not any(
                    R.length == 1 and all(R.point[k].cx == z[k] for k in range(2 * d))
                    for R in back.pieces
                ):
                    rank1_mism += 1
    ok = nilpotent_mism == 0 and rank1_mism == 0 and base_fail == 0
    return _row(
        6,
        "rh-roundtrip",
        ok,
        count=count,
        nilpotent_mismatches=nilpotent_mism,
        rank1_mismatches=rank1_mism,
        base_failures=base_fail,
        worst_base_drift=float(worst_base),
    )


# ----------------------------------------------------------------------
# criterion 7: Hodge deformation


def run_hodge(count: int = 100, seed: int = 107) -> dict:
    rng = random.Random(seed)
    roundtrip_fail = 0
    for _ in range(count):
        d = rng.randint(1, 2)
        n = rng.randint(1, 4)
        model = square_model(d)
        # imaginary parts clear of the branch seam
        h = _hilb(
            rng, FiberSpace.natural(model), n, lambda: complex(rng.uniform(-1.2, 1.2), rng.uniform(-2.6, 2.6))
        )
        for tz in (1.0, 2.0, 0.5, 1j):
            if not hodge_undeform(hodge_deform(h, tz)).close_to(h, 1e-8):
                roundtrip_fail += 1
    comp = max(2, count // 5)
    comp_fail = 0
    for _ in range(comp):
        d = rng.randint(1, 2)
        h = _hodge_hilb_exact(rng, square_model(d))
        f1 = Scalar.exact(_nonzero_frac(rng), _frac(rng))
        f2 = Scalar.exact(_nonzero_frac(rng), _frac(rng))
        twice = hodge_rescale(hodge_rescale(h, f1), f2)
        once = hodge_rescale(h, f1 * f2)
        if json.dumps(twice.to_json(), sort_keys=True) != json.dumps(once.to_json(), sort_keys=True):
            comp_fail += 1
    ok = roundtrip_fail == 0 and comp_fail == 0
    return _row(
        7,
        "hodge-deformation",
        ok,
        count=count,
        roundtrip_failures=roundtrip_fail,
        composition_checked=comp,
        composition_failures=comp_fail,
    )


# ----------------------------------------------------------------------
# criterion 8: D-algebra calculus


def _exact_rand(rng, r: int, c: int) -> Matrix:
    return Matrix.exact(
        [[(_frac(rng, -2, 2, 3), _frac(rng, -1, 1, 2)) for _ in range(c)] for _ in range(r)]
    )


def _alternating(rng, v: int) -> Matrix:
    rows = [[Fraction(0)] * v for _ in range(v)]
    for i in range(v):
        for j in range(i + 1, v):
            c = _frac(rng, -2, 2, 3)
            rows[i][j] = c
            rows[j][i] = -c
    return Matrix.exact(rows)


def _triple(rng, dv_max: int) -> UtaiTriple:
    d = rng.randint(1, dv_max)
    v = rng.randint(1, dv_max)
    return UtaiTriple(_exact_rand(rng, d, v), _exact_rand(rng, d, v), _alternating(rng, v))


def _glv(rng, v: int) -> Matrix:
    units = [Scalar.exact(rng.choice([1, -1, 2, Fraction(1, 2)])) for _ in range(v)]
    return _shear(rng, v) @ Matrix.diag(units) @ _shear(rng, v)


def _jacobi_algebroids() -> tuple[UtaiTriple, ...]:
    eye2 = Matrix.identity(2, EXACT)
    z22 = Matrix.zeros(2, 2, EXACT)
    connection_like = UtaiTriple(eye2, z22, z22)
    anchor_free = UtaiTriple(z22, eye2, Matrix.exact([[0, 1], [-1, 0]]))
    generic = UtaiTriple(
        Matrix.exact([[1, 0, 2], [0, 1, -1]]),
        Matrix.exact([[0, 1, 1], [1, 0, 0]]),
        Matrix.exact([[0, 1, -2], [-1, 0, 1], [2, -1, 0]]),
    )
    return (connection_like, anchor_free, generic)


def _section(rng, t: UtaiTriple) -> dict:
    out: dict = {}
    for u in rng.sample(range(t.v), rng.randint(1, min(2, t.v))):
        terms = {}
        for _ in range(rng.randint(1, 3)):
            e = tuple(rng.randint(0, 2) if rng.random() < 0.6 else 0 for _ in range(t.d))
            terms[e] = Scalar.exact(_frac(rng, -2, 2, 3))
        out[u] = Poly(t.d, EXACT, terms)
    return {u: p for u, p in out.items() if not p.is_zero()}


def run_dalgebra(
    count: int = 200, group: int = 50, jac: int = 100, dv_max: int = 4, seed: int = 108
) -> dict:
    rng = random.Random(seed)
    fm_fail = orbit_fail = 0
    for _ in range(count):
        t = _triple(rng, dv_max)
        minus = Matrix.identity(t.v, EXACT).scale(Scalar.exact(-1))
        if fm_dual(fm_dual(t)) != gl_act(t, minus):
            fm_fail += 1
        ref = orbit_invariants(t)
        for _ in range(group):
            if orbit_invariants(gl_act(t, _glv(rng, t.v))) != ref:
                orbit_fail += 1
                break
    jac_fail = 0
    algebroids = _jacobi_algebroids()
    for t in algebroids:
        triples = [(_section(rng, t), _section(rng, t), _section(rng, t)) for _ in range(jac)]
        if not jacobi_check(t, triples):
            jac_fail += 1
    coh_fail = 0
    for d in range(7):
        for v in range(7):
            for k in range(d + v + 1):
                if cohomology_dim(d, v, k) != math.comb(d + v, k):
                    coh_fail += 1
    ok = fm_fail == 0 and orbit_fail == 0 and jac_fail == 0 and coh_fail == 0
    return _row(
        8,
        "dalgebra-calculus",
        ok,
        count=count,
        group_orbit=group,
        fm_failures=fm_fail,
        orbit_failures=orbit_fail,
        jacobi_algebroids=len(algebroids),
        jacobi_triples=jac,
        jacobi_failures=jac_fail,
        cohomology_failures=coh_fail,
    )


# ----------------------------------------------------------------------
# criterion 9: determinism, and the assembled battery


def _battery(samples: int, seed: int, n_max: int, d_max: int) -> list[dict]:
    base = seed * 1000
    return [
        run_triangularization(count=_count(samples, 1000), n_max=n_max, seed=base + 101),
        run_stability(count=_count(samples, 500), n_max=n_max, seed=base + 102),
        run_hilb_canonical(count=_count(samples, 300), conj=_count(samples, 50), seed=base + 103),
        run_rees(count=_count(samples, 300), n_max=n_max, seed=base + 104),
        run_marked_diagram(
            count=_count(samples, 500), n_max=min(n_max, 5), d_max=d_max, seed=base + 105
        ),
        run_rh_roundtrip(count=_count(samples, 200), n_max=min(n_max, 5), seed=base + 106),
        run_hodge(count=_count(samples, 100), seed=base + 107),
        run_dalgebra(
            count=_count(samples, 200),
            group=_count(samples, 50),
            jac=_count(samples, 100),
            seed=base + 108,
        ),
    ]


def run_determinism(samples: int = 10, seed: int = 0, n_max: int = 6, d_max: int = 2) -> dict:
    """Run the reduced battery twice in one process and compare bytes."""
    first = json.dumps(_battery(samples, seed, n_max, d_max), sort_keys=True)
    second = json.dumps(_battery(samples, seed, n_max, d_max), sort_keys=True)
    ok = first == second
    return _row(9, "determinism", ok, samples=samples, bytes=len(first), identical=ok)


def run_all(samples: int = 500, seed: int = 0, n_max: int = 6, d_max: int = 2) -> dict:
    """The full acceptance battery at a configurable scale.

    ``samples = 500`` reproduces the desk scales the criteria are stated
    at; smaller values shrink every driver proportionally (two instances
    minimum).  The report is deterministic for fixed arguments."""
    rows = _battery(samples, seed, n_max, d_max)
    rows.append(
        run_determinism(samples=max(4, samples // 50), seed=seed, n_max=n_max, d_max=d_max)
    )
    return {
        "schema": SCHEMA,
        "samples": samples,
        "seed": seed,
        "n_max": n_max,
        "d_max": d_max,
        "criteria": rows,
        "pass": all(r["pass"] for r in rows),
    }
