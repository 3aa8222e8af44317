"""The float spectral chain on stacks against one-at-a-time references.

Float ``triangularize`` deflates on one (m, k, k) stack per step,
``_float_pieces`` grows, restricts and tests the pieces of one length
together,
and the float ``Span`` re-orthogonalizes against all accepted directions
in one block pass.  Each is checked here against the plain version kept
below: the per-step ``Matrix`` deflation, the per-piece restriction and
one-point test, and per-vector Gram-Schmidt.  The outputs must agree to
the bit (g, upper, every point, E and R), and so must every refusal and
every stability decision and staircase.

The tuples are seeded and planted: n from 2 to 8 and m from 1 to 4,
joint points on a small Gaussian-integer grid (so coordinates repeat),
simple or in Jordan blocks of length up to 3, each member a polynomial
in the block's shift, conjugated by g = I + X with |X| small.
"""

import numpy as np
import pytest

from abelmod import adhm, linalg
from abelmod.adhm import CommutingTuple, MarkedTuple, decompose_punctual, joint_spectrum, triangularize
from abelmod.errors import AbelmodError
from abelmod.linalg import (
    FLOAT,
    INVARIANCE_SLACK,
    Matrix,
    Scalar,
    Span,
    complete_basis,
    null_vector,
    primary_decomposition,
)

# ----------------------------------------------------------------------
# references: one step, one piece, one vector at a time


def _reference_triangularize(T):
    """(g, upper) by the per-step Matrix deflation along joint_spectrum."""
    n = T.n
    spectrum = joint_spectrum(T)
    g = Matrix.identity(n, T.mode, T.frame)
    current = list(T.B)
    for offset in range(n - 1):
        k = n - offset
        eye = Matrix.identity(k, T.mode, T.frame)
        shifted = [M - eye.scale(c) for M, c in zip(current, spectrum[offset])]
        P = complete_basis(null_vector(shifted[0].vstack(*shifted[1:])))
        current = CommutingTuple._unchecked(current).conjugate(P).B
        if offset:
            P = Matrix.block_diag([Matrix.identity(offset, T.mode, T.frame), P])
        g = g @ P
        current = [M.submatrix(1, k, 1, k) for M in current]
    return g, T.conjugate(g)


def _reference_restrict(S, sizes, E, eps_eq):
    n, k = E.shape
    BE = S @ E
    R = (E if k == n else E.conj().T.copy()) @ BE
    res = linalg._norms(BE - E @ R)
    if any(e > eps_eq * (INVARIANCE_SLACK * s) for e, s in zip(res, sizes)):
        return None
    return R, [linalg._EPS * s + e for e, s in zip(res, sizes)]


def _reference_float_pieces(S, L, sizes, radii, size, frame):
    """linalg._float_pieces with one restriction and one eigenvalue
    grouping per piece."""
    n, eps_eq = L.shape[0], frame.eps_eq
    eye = np.eye(n, dtype=np.complex128)
    (groups,) = linalg._eigen_groups(
        L[None], linalg._radius(L[None], [size], [eps_eq]), [size], [linalg._EPS * size], eps_eq
    )
    simple = [g[0] for g in groups if len(g) == 1 < n]
    vhs = iter(np.linalg.svd(L - np.reshape(simple, (-1, 1, 1)) * eye)[2] if simple else ())
    pieces = []
    for group in groups:
        k = len(group)
        if k == n:
            E = eye
        elif k == 1:
            E = next(vhs)[n - 1 :].conj().T
        else:
            V, Q = np.zeros((n, 0), dtype=np.complex128), eye
            for w in group[:-1]:
                A = L - w * eye
                vh = np.linalg.svd((A - V @ (V.conj().T @ A)) @ Q)[2]
                V = np.column_stack([V, Q @ vh[-1].conj()])
                Q = Q @ vh[:-1].conj().T
            A = L - group[-1] * eye
            E = np.linalg.svd(A - V @ (V.conj().T @ A))[2][n - k :].conj().T
        piece = _reference_restrict(S, sizes, E, eps_eq)
        if piece is None:
            return None
        R, errors = piece
        if k > 1 and any(len(g) > 1 for g in linalg._eigen_groups(R, radii, sizes, errors, eps_eq)):
            return None
        pieces.append((k, E, R))
    return [
        (
            tuple(Scalar.from_complex(z) / Scalar.flt(k) for z in np.trace(R, axis1=1, axis2=2).tolist()),
            k,
            Matrix.flt(E, frame),
            [Matrix.flt(Rj, frame) for Rj in R],
        )
        for k, E, R in pieces
    ]


class _ReferenceSpan(Span):
    """Span whose float add re-orthogonalizes one vector at a time."""

    def __init__(self, B, v):
        super().__init__(B, v)
        self._vectors = []

    def add(self, parent=None, j=0):
        if self.v.mode != FLOAT:
            return super().add(parent, j)
        if len(self._images) == self.n:
            return False
        img = self.v._a if parent is None else self.B[j]._a @ self._images[parent]
        r = img.reshape(-1)
        nrm = linalg._frobenius(r)
        if nrm == 0.0:
            return False
        for _ in range(2):
            for q in self._vectors:
                r = r - (q.conj() @ r) * q
        rn = linalg._frobenius(r)
        if rn <= self.frame.eps_rank * nrm:
            return False
        self._vectors.append(r / rn)
        self._images.append(img)
        return True


# ----------------------------------------------------------------------
# planted tuples


def _planted(seed: int, n: int, m: int, defective: bool):
    """m commuting float n x n members with planted joint points, and a
    marking: a random one, or (every fourth seed) one inside the
    generalized eigenspace of the first block, which is not cyclic."""
    rng = np.random.default_rng(seed)
    lengths = []
    while sum(lengths) < n:
        lengths.append(min(int(rng.integers(1, 4)) if defective else 1, n - sum(lengths)))
    grid = [complex(a, b) for a in range(-2, 3) for b in range(-1, 2)]
    points = []
    while len(points) < len(lengths):
        p = tuple(grid[i] for i in rng.integers(0, len(grid), m))
        if p not in points:
            points.append(p)
    members = []
    for j in range(m):
        D = np.zeros((n, n), dtype=complex)
        off = 0
        for p, ell in zip(points, lengths):
            a, b = rng.integers(-2, 3, 2)
            block = p[j] * np.eye(ell) + (a or 1) * np.eye(ell, k=1) + b * np.eye(ell, k=2)
            D[off : off + ell, off : off + ell] = block
            off += ell
        members.append(D)
    g = np.eye(n) + (0.3 / n) * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    gi = np.linalg.inv(g)
    B = [Matrix.flt(gi @ D @ g) for D in members]
    if seed % 4:
        v = rng.standard_normal((n, 1)) + 1j * rng.standard_normal((n, 1))
    else:
        v = (gi[:, : lengths[0]] @ (1 + rng.standard_normal((lengths[0], 1)))).astype(complex)
    return B, Matrix.flt(v)


_SHEARED = [
    [-7979841 / 46015 + 63j, -2659947 / 46015 + 20j, 9332822 / 46015 - 70j],
    [-11515473 / 230075 + 36j, -3838491 / 230075 + 15j, 13089606 / 230075 - 42j],
    [-7289616 / 46015 + 60j, -2429872 / 46015 + 20j, 8504552 / 46015 - 67j],
]


def _nilpotent_beside(s):
    """diag(-i) beside a 5 x 5 nilpotent block with superdiagonal s."""
    A = np.zeros((6, 6), dtype=complex)
    A[0, 0] = -1j
    for i in range(1, 5):
        A[i, i + 1] = s
    return A


def _named():
    g = np.array([[1 + 0.5j, 0.3, 0], [0.1, 0.9 - 0.4j, 0.2], [0, 0.3j, 1]])
    B = Matrix.flt(np.linalg.inv(g) @ np.array([[1, 1, 0], [0, 1, 0], [0, 0, 3]]) @ g)
    v = Matrix.flt([[1.0], [0.5j], [-0.25]])
    out = {
        "B-0-2I": ([B, Matrix.zeros(3, 3, FLOAT), Matrix.identity(3, FLOAT).scale(Scalar.flt(2.0))], v),
        "zero": ([Matrix.zeros(3, 3, FLOAT)], v),
        "zero-beside-B": ([Matrix.zeros(3, 3, FLOAT), B], v),
        "sheared": ([Matrix.flt(_SHEARED)], v),
    }
    for s in (50, 100, 1000):
        out[f"nilpotent-{s}"] = ([Matrix.flt(_nilpotent_beside(s))], Matrix.flt(np.ones((6, 1))))
    return out


_CASES = [(seed, n, m, d) for n in range(2, 9) for m in range(1, 5) for d in (False, True) for seed in (n * 100 + m * 10 + d,)]
_CASE_IDS = [f"n{n}-m{m}-{'defective' if d else 'separated'}" for _, n, m, d in _CASES]


def _cases():
    for (seed, n, m, d), name in zip(_CASES, _CASE_IDS):
        yield name, _planted(seed, n, m, d)
    yield from _named().items()


def _bits(M: Matrix) -> bytes:
    return M.to_numpy().tobytes()


def _points(p) -> bytes:
    return np.array([c.cx for c in p]).tobytes()


def _outcome(call):
    """call()'s result, or the type and text of what it raised."""
    try:
        return call()
    except (AbelmodError, ValueError) as exc:
        return (type(exc).__name__, str(exc))


def _decomposition(B):
    out = _outcome(lambda: primary_decomposition(B))
    if isinstance(out, tuple):
        return out
    return [(_points(p), k, _bits(E), [_bits(Rj) for Rj in R]) for p, k, E, R in out]


# ----------------------------------------------------------------------
# the checks


@pytest.mark.parametrize(("name", "case"), list(_cases()), ids=[name for name, _ in _cases()])
def test_stacks_match_the_one_at_a_time_references(monkeypatch, name, case):
    B, v = case
    T = CommutingTuple._unchecked(B)
    got = _decomposition(B)
    with monkeypatch.context() as mp:
        mp.setattr(linalg, "_float_pieces", _reference_float_pieces)
        want = _decomposition(B)
    assert got == want

    tri = _outcome(lambda: triangularize(T))
    ref = _outcome(lambda: _reference_triangularize(T))
    if isinstance(ref, tuple) and isinstance(ref[0], str):
        assert tri == ref
    else:
        g, _, upper = tri
        assert _bits(g) == _bits(ref[0])
        assert [_bits(U) for U in upper.B] == [_bits(U) for U in ref[1].B]

    M = MarkedTuple(T, v)
    walk = adhm._staircase_walk(M, border=True)[0]
    stable = adhm.is_stable(M)
    pieces = _outcome(lambda: [(_points(P.point), [_bits(N) for N in P.N.B]) for P in decompose_punctual(M)])
    with monkeypatch.context() as mp:
        mp.setattr(adhm, "Span", _ReferenceSpan)
        mp.setattr(linalg, "_float_pieces", _reference_float_pieces)
        assert adhm._staircase_walk(M, border=True)[0] == walk
        assert adhm.is_stable(M) == stable
        assert _outcome(lambda: [(_points(P.point), [_bits(N) for N in P.N.B]) for P in decompose_punctual(M)]) == pieces


def test_the_cases_cover_refusals_and_both_stability_answers():
    """The planted set holds refused decompositions, unstable markings and
    pieces of repeated length, so each path of the comparison runs."""
    refused = stable = unstable = repeated = 0
    for _, (B, v) in _cases():
        out = _decomposition(B)
        if isinstance(out, tuple):
            refused += 1
        else:
            lengths = [k for _, k, _, _ in out]
            repeated += any(lengths.count(k) > 1 and k > 1 for k in lengths)
        if adhm.is_stable(MarkedTuple(CommutingTuple._unchecked(B), v)):
            stable += 1
        else:
            unstable += 1
    assert refused and repeated and stable and unstable


def test_float_triangularize_inverts_once(monkeypatch):
    """Float triangularize calls linalg.inverse once, for the final
    T.conjugate(g): each deflation step inverts its unitary basis on the
    stack, with inverse's rank test."""
    calls = []
    for module in (linalg, adhm):
        fn = getattr(module, "inverse")
        monkeypatch.setattr(module, "inverse", lambda M, _fn=fn: (calls.append(M.rows), _fn(M))[1])
    B, _ = _planted(7, 6, 2, True)
    triangularize(CommutingTuple._unchecked(B))
    assert calls == [6]
