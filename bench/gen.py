"""Planted instances for the benchmark workloads.

Only the standard library (``fractions``, ``random``, ``cmath``) and numpy
are used here; abelmod is never imported.  Every instance is built from a
planted structure whose answer is known in advance (a joint spectrum, a
staircase length, a classification label, a chart image), so the checks
in ``workloads.py`` compare the program's output against references that
were computed apart from the program.

Each generator takes the workload seed and returns plain data: the JSON
documents the program receives, and the references the checks use.  The
make-up of every workload (sizes, modes, op kinds and their counts) is
fixed; the seed only moves the values.  The fault-carrying instances do
not depend on the seed at all.
"""

from __future__ import annotations

import cmath
import math
import random
from fractions import Fraction

import numpy as np

# ----------------------------------------------------------------------
# Gaussian rationals as (re, im) pairs of Fractions


Q0 = Fraction(0)
Q1 = Fraction(1)
G0 = (Q0, Q0)
G1 = (Q1, Q0)


def g_add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def g_sub(a, b):
    return (a[0] - b[0], a[1] - b[1])


def g_mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def g_matmul(A, B):
    inner = len(B)
    return [
        [
            _g_sum(g_mul(A[i][k], B[k][j]) for k in range(inner))
            for j in range(len(B[0]))
        ]
        for i in range(len(A))
    ]


def _g_sum(terms):
    re = im = Q0
    for a, b in terms:
        re += a
        im += b
    return (re, im)


def g_eye(n):
    return [[G1 if i == j else G0 for j in range(n)] for i in range(n)]


def g_lin(terms, n):
    """sum of c * A over (c, A) pairs, n x n."""
    out = [[G0] * n for _ in range(n)]
    for c, A in terms:
        out = [[g_add(out[i][j], g_mul(c, A[i][j])) for j in range(n)] for i in range(n)]
    return out


def g_parse(obj):
    """A JSON scalar {"re": "p/q", "im": "p/q"} as a Gaussian rational."""
    return (Fraction(obj["re"]), Fraction(obj["im"]))


def g_json(z):
    return {"re": str(z[0]), "im": str(z[1])}


def gm_json(A):
    return [[g_json(z) for z in row] for row in A]


def f_json(z):
    z = complex(z)
    return {"re": z.real, "im": z.imag}


def fm_json(A):
    return [[f_json(z) for z in row] for row in np.asarray(A)]


def g_complex(z):
    return complex(float(z[0]), float(z[1]))


# ----------------------------------------------------------------------
# shared planted pieces


def _frac(rng, lo=-3, hi=3, den=4):
    return Fraction(rng.randint(lo, hi), rng.randint(1, den))


# The denominators of planted values and polynomial coefficients are fixed
# by position and only the numerators are drawn: the exact root search
# tries growing denominators, so its work then does not move with the seed.
VALUE_DENS = (1, 2, 3, 4)
POLY_DENS = (2, 1, 3)  # of a, b, c in a + b x + c x^2


def _q(rng, den, top=3):
    """num / den in lowest terms with 0 < |num| <= top."""
    while True:
        num = rng.choice([k for k in range(-top, top + 1) if k])
        if math.gcd(num, den) == 1:
            return Fraction(num, den)


def _distinct_values(rng, count, imag):
    out = []
    while len(out) < count:
        k = len(out)
        z = (_q(rng, VALUE_DENS[k % 4]), _q(rng, VALUE_DENS[(k + 1) % 4]) if imag else Q0)
        if z not in out:
            out.append(z)
    return out


def _bidiagonal(values):
    """Planted diagonal, unit superdiagonal: the last coordinate vector is
    cyclic, and equal adjacent values form one Jordan chain."""
    n = len(values)
    return [
        [values[i] if i == j else (G1 if j == i + 1 else G0) for j in range(n)]
        for i in range(n)
    ]


def _poly_members(rng, U, m):
    """U together with m - 1 quadratic polynomials in U; returns the
    members and the coefficient triples (a, b, c) of a + b x + c x^2."""
    n = len(U)
    U2 = g_matmul(U, U)
    eye = g_eye(n)
    members, polys = [U], []
    for _ in range(m - 1):
        a, b, c = ((_q(rng, den, top=2), Q0) for den in POLY_DENS)
        polys.append((a, b, c))
        members.append(g_lin([(a, eye), (b, U), (c, U2)], n))
    return members, polys


def _joint_point(x, polys):
    pt = [x]
    for a, b, c in polys:
        pt.append(g_add(g_add(a, g_mul(b, x)), g_mul(c, g_mul(x, x))))
    return tuple(pt)


def _support(values, polys):
    """Distinct joint points with multiplicities, as a sorted list."""
    counts: dict = {}
    for x in values:
        pt = _joint_point(x, polys)
        counts[pt] = counts.get(pt, 0) + 1
    return sorted(counts.items())


def _shear(rng, n):
    """Unimodular product of n + 2 transvections, with its exact inverse."""
    g, gi = g_eye(n), g_eye(n)
    for _ in range(n + 2):
        i, j = rng.sample(range(n), 2)
        c = (Fraction(rng.choice([-2, -1, 1, 2])), Q0)
        # g <- E g with E = Id + c e_i e_j^T; gi <- gi E^{-1}
        g[i] = [g_add(g[i][k], g_mul(c, g[j][k])) for k in range(n)]
        for r in range(n):
            gi[r][j] = g_sub(gi[r][j], g_mul(c, gi[r][i]))
    return g, gi


def _unit(n, k):
    return [[G1] if i == k else [G0] for i in range(n)]


# ----------------------------------------------------------------------
# exact-orbit

# (n, m, repeated diagonal value, Gaussian entries, base tuples).  Each
# class is one shape, so its ops cost about the same; the counts put the
# median op among the n = 3 and (4, 2) classes and the 90th percentile
# inside the (5, 3) class, away from the jumps between class costs.
EXACT_CLASSES = [
    (2, 2, False, False, 1),
    (2, 3, True, True, 1),
    (3, 2, False, True, 1),
    (3, 3, True, False, 2),
    (4, 2, False, False, 5),
    (4, 3, True, True, 1),
    (5, 2, False, True, 1),
    (5, 3, True, False, 5),
]
EXACT_SHEARS = 3  # conjugations per base: one orbit


def _exact_base(rng, n, m, repeated, imag):
    if repeated and n >= 2:
        vals = _distinct_values(rng, n - 1, imag)
        k = rng.randrange(n - 1)
        values = vals[: k + 1] + [vals[k]] + vals[k + 1 :]
    else:
        values = _distinct_values(rng, n, imag)
    U = _bidiagonal(values)
    members, polys = _poly_members(rng, U, m)
    return {
        "n": n,
        "m": m,
        "B": members,
        "v": _unit(n, n - 1),
        "support": _support(values, polys),
    }


def _exact_fault():
    """Planted denominators above 10**6: the characteristic polynomial
    splits over the Gaussian rationals, yet the root search gives up."""
    x, y = (Fraction(1, 2**30), Q0), (Fraction(1, 3), Q0)
    U = _bidiagonal([x, y])
    half = (Fraction(1, 2), Q0)
    polys = [(half, G1, G0)]
    members = [U, g_lin([(half, g_eye(2)), (G1, U)], 2)]
    g = [[G1, G1], [G0, G1]]
    return {
        "n": 2,
        "m": 2,
        "B": members,
        "v": _unit(2, 1),
        "support": _support([x, y], polys),
        "shears": [g],
        "fault": True,
    }


def exact_orbit(seed: int) -> list[dict]:
    """One entry per base tuple: members, marking, planted support and the
    shears of its conjugation orbit.  The last entry carries the fault."""
    rng = random.Random(f"exact-orbit/{seed}")
    bases = []
    for n, m, repeated, imag, count in EXACT_CLASSES:
        for _ in range(count):
            base = _exact_base(rng, n, m, repeated, imag)
            base["shears"] = [_shear(rng, n)[0] for _ in range(EXACT_SHEARS)]
            base["fault"] = False
            bases.append(base)
    bases.append(_exact_fault())
    return bases


# ----------------------------------------------------------------------
# float-spectral

SPECTRAL_SIZES = (3, 4, 5, 6, 7, 8)
SPECTRAL_PER_KIND = 2
DIAGRAM_SIZES = (3, 4, 5, 6)
DIAGRAM_DIMS = (1, 2)
KINDS = ("separated", "defective")
# Jordan block lengths of the defective diagonals; at most 3 long, so the
# eps^(1/3) eigenvalue fuzz stays far inside the planted gaps.
BLOCKS = {3: (2, 1), 4: (2, 2), 5: (3, 2), 6: (3, 2, 1), 7: (3, 2, 2), 8: (3, 3, 2)}
GAP = 0.5


def _cx(rng, r):
    return complex(rng.uniform(-r, r), rng.uniform(-r, r))


def _spread_points(rng, count, lo, hi):
    """count points in the annulus lo <= |z| <= hi, pairwise GAP apart."""
    out = []
    while len(out) < count:
        rad = rng.uniform(lo, hi)
        z = cmath.rect(rad, rng.uniform(-cmath.pi, cmath.pi))
        if all(abs(z - w) >= GAP for w in out):
            out.append(z)
    return out


def _float_instance(rng, n, m, kind, lo, hi):
    """Conjugated polynomial family in a planted bidiagonal seed.  For the
    diagram (invertible) instances every member's spectrum keeps clear of
    zero."""
    lengths = BLOCKS[n] if kind == "defective" else (1,) * n
    while True:
        pts = _spread_points(rng, len(lengths), lo, hi)
        values = [z for z, ell in zip(pts, lengths) for _ in range(ell)]
        polys = [(_cx(rng, 1.5), _cx(rng, 1.5), _cx(rng, 0.8)) for _ in range(m - 1)]
        joint = [
            (z,) + tuple(a + b * z + c * z * z for a, b, c in polys) for z in values
        ]
        if lo == 0.0 or all(abs(x) >= 0.4 for pt in joint for x in pt):
            break
    U = np.diag(np.array(values, dtype=np.complex128)) + np.diag(np.ones(n - 1), 1)
    R = np.array([[_cx(rng, 1.0) for _ in range(n)] for _ in range(n)])
    R *= 0.8 / max(1.0, float(np.linalg.norm(R)))
    g = np.eye(n) + R
    B1 = g @ U @ np.linalg.inv(g)
    members = [B1] + [a * np.eye(n) + b * B1 + c * (B1 @ B1) for a, b, c in polys]
    support = [(joint[sum(lengths[:k])], ell) for k, ell in enumerate(lengths)]
    return {
        "n": n,
        "m": m,
        "kind": kind,
        "B": members,
        "v": g[:, n - 1 : n].copy(),
        "joint": joint,
        "support": support,
    }


def _float_fault():
    """diag(1, 2, 3) scaled by 1e-6: three separated points at a small
    scale."""
    vals = [1e-6, 2e-6, 3e-6]
    return {
        "n": 3,
        "m": 1,
        "kind": "scaled",
        "B": [np.diag(np.array(vals, dtype=np.complex128))],
        "v": np.ones((3, 1), dtype=np.complex128),
        "joint": [(complex(x),) for x in vals],
        "support": [((complex(x),), 1) for x in vals],
    }


def float_spectral(seed: int) -> list[dict]:
    """Spectrum ops (op "spectrum") then marked Betti diagram ops (op
    "diagram"); the last entry carries the fault."""
    rng = random.Random(f"float-spectral/{seed}")
    out = []
    for n in SPECTRAL_SIZES:
        m = 1 + n % 3
        for kind in KINDS:
            for _ in range(SPECTRAL_PER_KIND):
                inst = _float_instance(rng, n, m, kind, 0.0, 2.0)
                inst.update(op="spectrum", fault=False)
                out.append(inst)
    for n in DIAGRAM_SIZES:
        for d in DIAGRAM_DIMS:
            for kind in KINDS:
                inst = _float_instance(rng, n, 2 * d, kind, 0.5, 2.0)
                inst.update(op="diagram", fault=False)
                out.append(inst)
    fault = _float_fault()
    fault.update(op="spectrum", fault=True)
    out.append(fault)
    return out


def tuple_json(inst, exact: bool) -> dict:
    enc = gm_json if exact else fm_json
    doc = {
        "m": inst["m"],
        "n": inst["n"],
        "mode": "exact" if exact else "float",
        "B": [enc(A) for A in inst["B"]],
    }
    if "v" in inst:
        doc["v"] = [row[0] for row in enc(inst["v"])]
    return doc


# ----------------------------------------------------------------------
# cli-batch


def _triple_doc(alpha, beta, gamma, exact):
    def enc(A):
        return gm_json(A) if exact else fm_json(_float_array(A))

    return {
        "d": len(alpha),
        "v": len(alpha[0]),
        "mode": "exact" if exact else "float",
        "alpha": enc(alpha),
        "beta": enc(beta),
        "gamma": enc(gamma),
    }


def _zeros(r, c):
    return [[G0] * c for _ in range(r)]


def _nonzero(rng):
    return (Fraction(rng.choice([-2, -1, 1, 2]), rng.randint(1, 3)), Q0)


def _triples(rng):
    """(kind label, triple) pairs; the label is fixed by construction."""
    d = 2
    eye = g_eye(d)
    tau = (Fraction(rng.choice([2, 3, -1, -2]), rng.choice([5, 7])), Q0)
    def rand(r, c):
        return [[_nonzero(rng) for _ in range(c)] for _ in range(r)]

    gam = _nonzero(rng)
    alt = [[G0, gam], [g_sub(G0, gam), G0]]
    fol = [[G1], [_nonzero(rng)]]
    gen_alpha = rand(3, 2)
    gen_alpha[0] = [G1, G0]
    return [
        ("DeRham", (eye, _zeros(d, d), _zeros(d, d)), G1),
        ("Dolbeault", (_zeros(d, d), _zeros(d, d), _zeros(d, d)), G0),
        ("TauConnection", ([[tau if i == j else G0 for j in range(d)] for i in range(d)], _zeros(d, d), _zeros(d, d)), tau),
        ("Foliation", (fol, _zeros(d, 1), _zeros(1, 1)), None),
        ("TwistedDifferentialOperators", (eye, rand(d, d), alt), None),
        ("Generic", (gen_alpha, rand(3, 2), alt), None),
    ]


def _small_exact(rng, n, m, imag):
    vals = _distinct_values(rng, n, imag)
    U = _bidiagonal(vals)
    members, polys = _poly_members(rng, U, m)
    return U, members, polys, vals


def _conj(members, g, gi):
    return [g_matmul(gi, g_matmul(A, g)) for A in members]


def _float_array(A):
    return np.array([[g_complex(z) for z in row] for row in A], dtype=np.complex128)


def _hilb_exact_betti(rng, lengths, m):
    """Betti-chart point with exact base points and shift nilpotents."""
    used = []
    pieces = []
    for ell in lengths:
        while True:
            first = (Fraction(rng.choice([1, 2, 3, -1, -2]), rng.randint(1, 3)), _frac(rng, -1, 1, 2))
            if first not in used:
                used.append(first)
                break
        pt = [first] + [_nonzero(rng) for _ in range(m - 1)]
        shift = [[G1 if r == c + 1 else G0 for c in range(ell)] for r in range(ell)]
        N = [shift] + [
            g_lin([(_nonzero(rng), shift)], ell) for _ in range(m - 1)
        ]
        pieces.append((pt, N, _unit(ell, 0)))
    return pieces


def _hilb_doc(kind, pieces, exact, model_d=None):
    space = {"kind": kind, "d": model_d}
    if kind == "natural":
        space["model"] = _square_model_json(model_d)
    out = {"space": space, "pieces": []}
    for pt, N, v in pieces:
        if exact:
            pj = [g_json(z) for z in pt]
            nj = {"mode": "exact", "N": [gm_json(A) for A in N], "v": [g_json(r[0]) for r in v]}
        else:
            pj = [f_json(z) for z in pt]
            nj = {"mode": "float", "N": [fm_json(A) for A in N], "v": [f_json(r[0]) for r in v]}
        out["pieces"].append({"point": {"coords": pj}, "punctual": nj})
    return out


def _square_model_json(d):
    """The period matrix [Id | i Id] as (re, im) pairs."""
    ones = [[1.0 if i == j else 0.0 for j in range(d)] for i in range(d)]
    period = [[[x, 0.0] for x in row] + [[0.0, x] for x in row] for row in ones]
    return {"d": d, "period": period}


def _float_pieces(pieces):
    return [
        ([g_complex(z) for z in pt], [_float_array(A) for A in N], _float_array(v))
        for pt, N, v in pieces
    ]


def _natural_pieces(rng, lengths, m):
    """Exponent-chart pieces clear of the branch seam, float data."""
    firsts = []
    while len(firsts) < len(lengths):
        z = complex(rng.uniform(-1.2, 1.2), rng.uniform(-2.6, 2.6))
        if all(abs(z - w) >= 0.3 for w in firsts):
            firsts.append(z)
    pieces = []
    for ell, z0 in zip(lengths, firsts):
        pt = [z0] + [complex(rng.uniform(-1.2, 1.2), rng.uniform(-2.6, 2.6)) for _ in range(m - 1)]
        shift = np.diag(np.ones(ell - 1), -1).astype(np.complex128)
        N = [shift] + [_cx(rng, 1.0) * shift + _cx(rng, 0.6) * (shift @ shift) for _ in range(m - 1)]
        v = np.zeros((ell, 1), dtype=np.complex128)
        v[0, 0] = 1.0
        pieces.append((pt, N, v))
    return pieces


REES_WEIGHTS = ("2,1,0", "1,1,0")
# Draws of the 23-invocation list per round: the costs of the invocations
# near the median and the 90th percentile move with the drawn values, and
# more draws average that out.
CLI_DRAWS = 4


def cli_batch(seed: int) -> list[dict]:
    """One entry per CLI invocation: argv tail, the batch document, the
    planted references and the check to apply.  CLI_DRAWS independent
    draws of the same invocation list."""
    rng = random.Random(f"cli-batch/{seed}")
    return [op for _ in range(CLI_DRAWS) for op in _cli_ops(rng)]


def _cli_ops(rng) -> list[dict]:
    ops = []

    # classify-dalgebra, both modes
    triples = _triples(rng)
    for exact in (True, False):
        ops.append({
            "cmd": ["classify-dalgebra"],
            "check": "classify",
            "exact": exact,
            "doc": [_triple_doc(*t, exact) for _, t, _ in triples],
            "ref": [(label, t, tau) for label, t, tau in triples],
        })

    # stability: two stable bidiagonal tuples, two diagonal ones marked
    # on an invariant line
    stab = []
    for n in (2, 3):
        _, members, _, _ = _small_exact(rng, n, 2, imag=n == 3)
        stab.append(({"n": n, "m": 2, "B": members, "v": _unit(n, n - 1)}, True))
        vals = _distinct_values(rng, n, False)
        D = [[vals[i] if i == j else G0 for j in range(n)] for i in range(n)]
        stab.append(({"n": n, "m": 1, "B": [D], "v": _unit(n, 0)}, False))
    for exact in (True, False):
        docs = [tuple_json(_as_mode(inst, exact), exact) for inst, _ in stab]
        ops.append({"cmd": ["stability"], "check": "stability", "exact": exact, "doc": docs,
                    "ref": [s for _, s in stab]})

    # spectrum and canonicalize: one invocation per orbit, base plus two
    # shears
    for exact in (True, False):
        for cmd in ("spectrum", "canonicalize"):
            for n, m in ((2, 2), (2, 3)):
                docs, refs = [], []
                _, members, polys, vals = _small_exact(rng, n, m, imag=m == 3)
                sup = _support(vals, polys)
                orbit = [(members, _unit(n, n - 1))]
                for _ in range(2):
                    g, gi = _shear(rng, n)
                    orbit.append((_conj(members, g, gi), g_matmul(gi, _unit(n, n - 1))))
                for Bs, v in orbit:
                    inst = {"n": n, "m": m, "B": Bs, "v": v}
                    docs.append(tuple_json(_as_mode(inst, exact), exact))
                    refs.append({"support": sup, "n": n})
                ops.append({"cmd": [cmd], "check": cmd, "exact": exact, "doc": docs, "ref": refs})

    # rees: flag basis g given, family at t = 1/2 and the limit
    rees_inst = []
    for k in range(3):
        U, members, _, _ = _small_exact(rng, 3, 2, imag=k == 1)
        g, gi = _shear(rng, 3)
        rees_inst.append((U, members, g, gi))
    for exact in (True, False):
        for weights in REES_WEIGHTS:
            # the float limit is left out: light ops at the median's edge
            for t in ("1/2", None) if exact else ("0.5",):
                docs, refs = [], []
                for U, members, g, gi in rees_inst:
                    inst = {"n": 3, "m": 2, "B": _conj(members, gi, g)}
                    doc = tuple_json(_as_mode(inst, exact), exact)
                    doc["g"] = gm_json(g) if exact else fm_json(_float_array(g))
                    docs.append(doc)
                    refs.append(members)
                cmd = ["rees", "--weights", weights] + (["--t", t] if t else [])
                ops.append({"cmd": cmd, "check": "rees", "exact": exact, "doc": docs, "ref": refs,
                            "weights": [int(x) for x in weights.split(",")], "t": t})

    # hilbert-chow on betti points, both modes
    betti = [_hilb_exact_betti(rng, lengths, 2) for lengths in ((2, 1), (1, 1, 1), (3,))]
    for exact in (True, False):
        docs = [_hilb_doc("betti", p if exact else _float_pieces(p), exact, 1) for p in betti]
        ops.append({"cmd": ["hilbert-chow"], "check": "hilbert-chow", "exact": exact,
                    "doc": docs, "ref": betti})

    # rh-transform betti -> derham on exact points
    ops.append({"cmd": ["rh-transform", "--from", "betti", "--to", "derham"], "check": "rh-derham",
                "exact": True, "doc": [_hilb_doc("betti", p, True, 1) for p in betti], "ref": betti})

    # rh-transform derham -> betti and hodge-deform on float exponent points
    natural = [_natural_pieces(rng, lengths, 2) for lengths in ((2, 1), (1, 1), (3,))]
    nat_docs = [_hilb_doc("natural", p, False, 1) for p in natural]
    ops.append({"cmd": ["rh-transform", "--from", "derham", "--to", "betti"], "check": "rh-betti",
                "exact": False, "doc": nat_docs, "ref": natural})
    ops.append({"cmd": ["hodge-deform", "--tau", "1/2"], "check": "hodge", "exact": False,
                "doc": nat_docs, "ref": natural})
    return ops


def _as_mode(inst, exact):
    if exact:
        return inst
    out = dict(inst)
    out["B"] = [_float_array(A) for A in inst["B"]]
    if "v" in inst:
        out["v"] = _float_array(inst["v"])
    return out


# ----------------------------------------------------------------------
# check-battery

# One reduced battery pass.  The battery seeds its own generators, so the
# arguments are fixed and do not depend on the workload seed.
CHECK_ARGV = ["check", "--samples", "1", "--seed", "0"]
