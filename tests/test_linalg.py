"""Scalar and matrix layer: exact arithmetic, float tolerances, solvers."""

import math
import warnings
from fractions import Fraction
from math import lcm

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from abelmod.linalg import (
    EXACT,
    FLOAT,
    DEFAULT_FRAME,
    Matrix,
    Scalar,
    Span,
    ToleranceFrame,
    char_poly,
    complete_basis,
    exact_roots,
    inverse,
    kernel_basis,
    primary_decomposition,
    rank,
    solve,
    solve_matrix,
)
from abelmod import linalg
from abelmod.linalg import _q_pair
from abelmod.adhm import CommutingTuple, spectrum_support, triangularize
from abelmod.errors import NonSplitCharPolyError, NoSolutionError


class TestScalar:
    def test_exact_forms(self):
        assert Scalar.exact(2) == Scalar.exact("2")
        assert Scalar.exact("1/3") + Scalar.exact("2/3") == Scalar.one(EXACT)
        assert Scalar.exact(Fraction(3, 4)).cx == 0.75

    def test_gaussian_arithmetic(self):
        i = Scalar.exact(0, 1)
        assert i * i == Scalar.exact(-1)
        z = Scalar.exact("1/2", "-3")
        assert z * Scalar.exact("1/2", "3") == Scalar.exact("37/4")
        assert (Scalar.one(EXACT) / z) * z == Scalar.one(EXACT)

    def test_refuses_nonintegral_floats(self):
        with pytest.raises(ValueError):
            Scalar.exact(0.3)
        # integral floats and explicit Fractions are fine
        assert Scalar.exact(2.0) == Scalar.exact(2)
        assert Scalar.exact(Fraction(0.5)) == Scalar.exact("1/2")

    def test_json_roundtrip(self):
        z = Scalar.exact("-7/3", "1/6")
        assert Scalar.from_json(z.to_json(), EXACT) == z
        w = Scalar.flt(0.25, -1.5)
        back = Scalar.from_json(w.to_json(), FLOAT)
        assert back.cx == w.cx

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            Scalar.one(EXACT) / Scalar.zero(EXACT)

    def test_exp_and_log_stay_exact_where_they_can(self):
        assert Scalar.zero(EXACT).exp() == Scalar.one(EXACT)
        assert Scalar.one(EXACT).log() == Scalar.zero(EXACT)
        for z in (Scalar.exact("1/2", 1), Scalar.flt(1.0), Scalar.flt(0.5, -2.0)):
            assert z.exp().mode == z.log().mode == FLOAT
            assert z.exp().log().cx == pytest.approx(z.cx, abs=1e-15)

    def test_equal_within_decides_each_pair_on_its_own(self):
        one, tiny = Scalar.exact(1), Scalar.exact(Fraction(1, 10**12))
        # an exact pair only when identical, whatever the tolerance,
        # and past the double range without converting to float
        assert not one.equal_within(one + tiny, 1.0)
        assert Scalar.exact(10**400).equal_within(Scalar.exact(10**400), 0.0)
        # any other pair within tol as complex numbers
        assert one.equal_within(Scalar.flt(1.0 + 1e-12), 1e-9)
        assert not Scalar.flt(0.0).equal_within(Scalar.flt(0.8e-9, 0.8e-9), 1e-9)


class TestMatrix:
    def test_shapes_and_products(self):
        A = Matrix.exact([[1, 2], [3, 4]])
        B = Matrix.exact([["1/2", 0], [0, "1/2"]])
        assert (A @ B).to_json() == A.scale(Scalar.exact("1/2")).to_json()
        assert A.transpose().transpose() == A
        assert (A - A).is_zero()

    def test_mixed_entry_forms(self):
        A = Matrix.exact([[(1, 2), "3/4"], [0, 1j]])
        assert A[0, 0] == Scalar.exact(1, 2)
        assert A[1, 1] == Scalar.exact(0, 1)

    def test_rank_exact(self):
        A = Matrix.exact([[1, 2, 3], [2, 4, 6], [0, 0, 1]])
        assert rank(A) == 2

    def test_rank_float_threshold(self):
        loose = ToleranceFrame(eps_rank=1e-3)
        A = Matrix.flt([[1.0, 0.0], [0.0, 1e-6]], loose)
        assert rank(A) == 1
        assert rank(Matrix.flt([[1.0, 0.0], [0.0, 1e-6]])) == 2

    def test_kernel_exact_canonical(self):
        A = Matrix.exact([[1, 2, 3]])
        ker = kernel_basis(A)
        assert len(ker) == 2
        for v in ker:
            assert (A @ v).is_zero()

    def test_solve_and_inverse(self):
        A = Matrix.exact([[2, 1], [1, 1]])
        b = Matrix.column([Scalar.exact(1), Scalar.exact(0)])
        x = solve(A, b)
        assert (A @ x - b).is_zero()
        assert (inverse(A) @ A) == Matrix.identity(2, EXACT)

    def test_solve_inconsistent(self):
        A = Matrix.exact([[1, 1], [1, 1]])
        b = Matrix.column([Scalar.exact(0), Scalar.exact(1)])
        with pytest.raises(NoSolutionError):
            solve(A, b)

    def test_solve_matrix_blocks(self):
        A = Matrix.exact([[1, 1], [0, 1]])
        B = Matrix.exact([[3, 0], [1, 2]])
        X = solve_matrix(A, B)
        assert (A @ X - B).is_zero()

    def test_power_and_trace(self):
        N = Matrix.exact([[0, 1], [0, 0]])
        assert N.power(2).is_zero()

    def test_commutes_with(self):
        A = Matrix.exact([[1, "1/2"], [0, 3]])
        S = Matrix.exact([[0, 1], [0, 0]])
        assert A.commutes_with(A @ A) and not A.commutes_with(S)
        # float: the commutator against the product of the norms, at any scale
        for c in (1e-20, 1.0, 1e20):
            F, G = Matrix.flt([[c, c], [0.0, 3 * c]]), Matrix.flt([[0.0, c], [0.0, 0.0]])
            assert F.commutes_with(F @ F) and not F.commutes_with(G)

    def test_is_nilpotent(self):
        assert Matrix.exact([[0, 1, 2], [0, 0, "1/3"], [0, 0, 0]]).is_nilpotent()
        assert not Matrix.exact([[0, 1], [1, 0]]).is_nilpotent()
        assert Matrix.flt([[0.0, 1e6], [0.0, 0.0]]).is_nilpotent()
        assert not Matrix.flt([[0.0, 1.0], [1.0, 0.0]]).is_nilpotent()

    @pytest.mark.parametrize("c", [1e160, 1e200, 1e300])
    def test_float_is_nilpotent_past_the_double_range(self, c):
        """|M|^n past the double range: the test answers, with no warning,
        on M scaled by a power of two, c J_2 and c J_3 nilpotent and c Id
        not."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert Matrix.flt([[0.0, c], [0.0, 0.0]]).is_nilpotent()
            assert Matrix.flt([[0.0, c, 0.0], [0.0, 0.0, 1j * c], [0.0, 0.0, 0.0]]).is_nilpotent()
            assert not Matrix.flt([[c, 0.0], [0.0, c]]).is_nilpotent()
            assert not linalg.all_nilpotent([Matrix.flt([[0.0, c], [0.0, 0.0]]), Matrix.flt([[c, 0.0], [0.0, c]])])

    @pytest.mark.parametrize("c", [1e-310, 1e-300, 1e-200, 1e-160, 1e-150, 1.0, 1e150, 1e154, 1e200, 1e300])
    def test_float_norm_past_the_squared_range(self, c):
        # the squares of the entries overflow above about 1.3e154 and
        # leave the normal range below about 1.5e-154, the norm itself
        # only past the double range (at 1e-310 the entries are subnormal)
        a = c * np.diag([1.0, 2.0, 3.0]).astype(complex)
        assert Matrix.flt(a).norm() == pytest.approx(math.hypot(*np.abs(a).ravel()), rel=1e-15, abs=0)
        if 1e-150 <= c <= 1e150:
            assert Matrix.flt(a).norm() == np.linalg.norm(a)

    def test_float_norm_past_the_squared_range_warns_nothing(self):
        # the plain first attempt overflows; numpy must not warn before the
        # rescaled one
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            norm = Matrix.flt(1e200 * np.diag([1.0, 2.0, 3.0])).norm()
        assert norm == pytest.approx(1e200 * 14**0.5, rel=1e-15)

    def test_json_roundtrip_both_modes(self):
        A = Matrix.exact([["1/3", (0, 2)], [5, 0]])
        assert Matrix.from_json(A.to_json(), EXACT) == A
        F = Matrix.flt([[0.5, 1.25], [-2.0, 0.0]])
        G = Matrix.from_json(F.to_json(), FLOAT)
        assert F.close_to(G, 0.0)


class TestCharPoly:
    def test_triangular_spectrum(self):
        B = Matrix.exact([[2, 5], [0, 3]])
        roots = exact_roots(char_poly(B))
        assert roots == [(Scalar.exact(2), 1), (Scalar.exact(3), 1)]

    def test_multiplicity(self):
        B = Matrix.exact([["1/2", 1, 0], [0, "1/2", 0], [0, 0, 2]])
        roots = dict(exact_roots(char_poly(B)))
        assert roots[Scalar.exact("1/2")] == 2
        assert roots[Scalar.exact(2)] == 1

    def test_gaussian_roots(self):
        B = Matrix.exact([[0, -1], [1, 0]])
        roots = {lam for lam, _ in exact_roots(char_poly(B))}
        assert roots == {Scalar.exact(0, 1), Scalar.exact(0, -1)}

    def test_large_denominators_split(self):
        q = Scalar.exact(Fraction(1, 2**30))
        assert exact_roots(char_poly(Matrix.exact([[q]]))) == [(q, 1)]
        a, b = Scalar.exact("1/3"), Scalar.exact(Fraction(1, 3) + Fraction(1, 10**6))
        assert exact_roots(char_poly(Matrix.diag([a, b]))) == [(a, 1), (b, 1)]
        # the benchmark's fault instance: the bidiagonal member with
        # diagonal (1/2^30, 1/3), conjugated by a shear
        U = Matrix.exact([[q, 1], [0, a]])
        g = Matrix.exact([[1, 1], [0, 1]])
        assert exact_roots(char_poly(inverse(g) @ U @ g)) == [(q, 1), (a, 1)]

    @pytest.mark.parametrize(
        "values",
        [
            [11478514133291, 11478514133294],
            # float roots of this pair come out as a complex-conjugate pair
            [2199023206395, 2199023304699],
            [(-109700, -1), -109700, (-109700, 2)],
            [(0, 81), (0, 81), ("1/146", 81), ("1/146", 81)],
            # two pairs 2^-60 apart, near 1.9e11 and -2.9e11: seen from where
            # the first walks stop, the far pair swamps the float roots of the
            # near one
            [188053100318, f"{188053100318 * 2**60 + 1}/{2**60}", -286431124890, f"{-286431124890 * 2**60 + 1}/{2**60}"],
        ],
        ids=["close-pair", "conjugate-seeds", "lattice-cluster", "double-pair", "far-pairs"],
    )
    def test_tight_clusters_split(self, values):
        """Roots too close for the float seeds: a walk stops between
        them, and seeding again from there separates them."""
        lams = [Scalar.exact(*v) if isinstance(v, tuple) else Scalar.exact(v) for v in values]
        want = sorted(((lam, lams.count(lam)) for lam in set(lams)), key=lambda t: (t[0].re, t[0].im))
        assert exact_roots(char_poly(Matrix.diag(lams))) == want

    @pytest.mark.parametrize("coeffs", [(-2, 0, 1), (1, 1, 1)], ids=["x^2-2", "x^2+x+1"])
    def test_irrational_roots_do_not_split(self, coeffs):
        with pytest.raises(NonSplitCharPolyError):
            exact_roots([Scalar.exact(c) for c in coeffs])


def _points(M):
    """The distinct eigenvalues of M, in order: the support of (M,)."""
    return [p for (p,), _ in spectrum_support(CommutingTuple([M]))]


class TestSeam:
    def test_negligible_both_modes(self):
        assert not Scalar.exact("1/1000000000000").negligible(1.0)
        assert Scalar.flt(1e-12).negligible(1e-9)
        tiny = Matrix.flt([[1e-12, 0.0], [0.0, 0.0]])
        assert tiny.negligible(1.0) and not tiny.negligible(1e-4)
        assert not Matrix.exact([[0, "1/1000000000000"]]).negligible(1e9)

    def test_flag_starts_at_smallest_eigenvalue(self):
        for B in (Matrix.exact([[3, 1], [0, 2]]), Matrix.flt([[3.0, 1.0], [0.0, 2.0]])):
            g, _, upper = triangularize(CommutingTuple([B]))
            lam, w = upper.B[0][0, 0], g.col(0)
            assert abs(lam.cx - 2.0) < 1e-12
            assert (B @ w - w.scale(lam)).norm() < 1e-12
        assert _points(Matrix.exact([[3, 1], [0, 2]])) == [Scalar.exact(2), Scalar.exact(3)]
        assert [z.cx for z in _points(Matrix.flt([[2.0, 0.0], [0.0, 2.0]]))] == [2.0]

    def test_complete_basis(self):
        w = Matrix.column([Scalar.exact(0), Scalar.exact(2), Scalar.exact(1)])
        P = complete_basis(w)
        assert P.col(0) == w and rank(P) == 3
        # w, then every standard vector but the one at w's last nonzero entry
        w4 = Matrix.column([Scalar.exact(x) for x in (0, 2, 0, 1)])
        assert complete_basis(w4) == w4.hstack(Matrix.identity(4, EXACT).submatrix(0, 4, 0, 3))
        Q = complete_basis(w.to_float())
        assert rank(Q) == 3 and abs(abs(Q[1, 0].cx) - 2 / 5**0.5) < 1e-12

    def test_span_exact_and_float(self):
        for mk in (Matrix.exact, Matrix.flt):
            B = [mk([[2, 0], [0, 2]]), mk([[0, 0], [0, 1]])]
            span = Span(B, mk([[1], [1]]))
            assert span.add()  # v = (1, 1)
            assert not span.add(0, 0)  # B_0 v = (2, 2)
            assert span.add(0, 1) and span.dim == 2  # B_1 v = (0, 1)
            assert span.matrix() == mk([[1, 0], [1, 1]])
            # offered images 3 and 4: B_0 (0, 1) = 2 P_1 and B_1 (0, 1) = P_1
            assert not span.add(1, 0) and not span.add(1, 1)
            got = span.mult_matrices([[1, 3], [2, 4]])
            want = [mk([[2, 0], [0, 2]]), mk([[0, 0], [1, 1]])]
            if mk is Matrix.exact:
                assert got == want
            else:
                assert all(A.close_to(W, 1e-12) for A, W in zip(got, want))

    def test_block_diag_submatrix_kron(self):
        A = Matrix.exact([[1, 2], [3, 4]])
        D = Matrix.block_diag([A, Matrix.exact([[5]])])
        assert D.submatrix(0, 2, 0, 2) == A and D[2, 2] == Scalar.exact(5)
        assert D.submatrix(0, 2, 2, 3).is_zero()
        K = Matrix.identity(2, EXACT).kron(A)
        assert K == Matrix.block_diag([A, A])
        F = A.to_float()
        assert Matrix.flt([[1.0, 2.0]]).kron(F) == F.hstack(F.scale(Scalar.flt(2.0)))


class TestFrames:
    def test_frame_propagates(self):
        fr = ToleranceFrame(eps_rank=1e-4, eps_eq=1e-5, eps_lattice=1e-3)
        A = Matrix.flt([[1.0]], fr)
        assert (A @ A).frame.eps_rank == 1e-4

    def test_default_frame_values(self):
        assert DEFAULT_FRAME.eps_rank == 1e-9
        assert DEFAULT_FRAME.eps_eq == 1e-9
        assert DEFAULT_FRAME.eps_lattice == 1e-7


# ----------------------------------------------------------------------
# property tests of the exact kernels against a plain-Fraction reference
#
# A reference matrix is a list of rows of (re, im) Fraction pairs.


def _g_mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _g_sub(a, b):
    return (a[0] - b[0], a[1] - b[1])


def _g_div(a, b):
    d = b[0] * b[0] + b[1] * b[1]
    return ((a[0] * b[0] + a[1] * b[1]) / d, (a[1] * b[0] - a[0] * b[1]) / d)


_G0 = (Fraction(0), Fraction(0))
_G1 = (Fraction(1), Fraction(0))


def _ref_matmul(A, B):
    out = []
    for row in A:
        orow = []
        for j in range(len(B[0])):
            acc = _G0
            for k, a in enumerate(row):
                p = _g_mul(a, B[k][j])
                acc = (acc[0] + p[0], acc[1] + p[1])
            orow.append(acc)
        out.append(orow)
    return out


def _ref_rref(A):
    """Plain Gauss-Jordan: (reduced rows, pivot columns)."""
    rows = [list(r) for r in A]
    pivots = []
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        p = next((i for i in range(r, len(rows)) if rows[i][c] != _G0), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        piv = rows[r][c]
        rows[r] = [_g_div(x, piv) for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != _G0:
                f = rows[i][c]
                rows[i] = [_g_sub(x, _g_mul(f, y)) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows, pivots


def _ref_kernel(A):
    """One column per free column, unit there, -rref[r][f] at pivot r."""
    rows, pivots = _ref_rref(A)
    n = len(A[0])
    out = []
    for f in (c for c in range(n) if c not in pivots):
        v = [_G0] * n
        v[f] = _G1
        for r, p in enumerate(pivots):
            v[p] = (-rows[r][f][0], -rows[r][f][1])
        out.append([[x] for x in v])
    return out


def _ref_of(M):
    return [[(M[i, j].re, M[i, j].im) for j in range(M.cols)] for i in range(M.rows)]


_RAT = st.one_of(
    st.just(Fraction(0)),
    st.integers(-3, 3).map(Fraction),
    st.builds(Fraction, st.integers(-(2**20), 2**20), st.integers(1, 2**40)),
)
_GAUSS = st.one_of(st.tuples(_RAT, st.just(Fraction(0))), st.tuples(_RAT, _RAT))


@st.composite
def _grids(draw, rows=None, cols=None):
    """Random Gaussian-rational reference matrix up to 6 x 6: dense, a
    product through a narrower inner size (rank deficient), or with some
    rows and columns zeroed."""
    r = rows if rows is not None else draw(st.integers(1, 6))
    c = cols if cols is not None else draw(st.integers(1, 6))
    kind = draw(st.sampled_from(("dense", "low-rank", "zero-lines")))
    if kind == "low-rank":
        k = draw(st.integers(1, max(1, min(r, c) - 1)))
        left = [[draw(_GAUSS) for _ in range(k)] for _ in range(r)]
        right = [[draw(_GAUSS) for _ in range(c)] for _ in range(k)]
        return _ref_matmul(left, right)
    A = [[draw(_GAUSS) for _ in range(c)] for _ in range(r)]
    if kind == "zero-lines":
        for i in draw(st.sets(st.integers(0, r - 1))):
            A[i] = [_G0] * c
        for j in draw(st.sets(st.integers(0, c - 1))):
            for row in A:
                row[j] = _G0
    return A


_PROPS = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def _ref_char_poly(A):
    """Faddeev-LeVerrier on the Gaussian-rational entries themselves:
    [c0, ..., c_(n-1), 1] as (re, im) pairs."""
    n = len(A)
    Ak, cs = A, []
    for k in range(1, n + 1):
        if k > 1:
            c = cs[-1]
            shifted = [[(x[0] + c[0], x[1] + c[1]) if i == j else x for j, x in enumerate(row)] for i, row in enumerate(Ak)]
            Ak = _ref_matmul(A, shifted)
        cs.append((-sum(Ak[i][i][0] for i in range(n)) / k, -sum(Ak[i][i][1] for i in range(n)) / k))
    return cs[::-1] + [_G1]


class TestCharPolyProperties:
    @_PROPS
    @given(st.integers(1, 6).flatmap(lambda n: _grids(n, n)))
    def test_matches_fraction_reference(self, A):
        assert [(c.re, c.im) for c in char_poly(Matrix.exact(A))] == _ref_char_poly(A)


class TestExactKernelProperties:
    @_PROPS
    @given(st.data())
    def test_matmul_entries_and_json(self, data):
        n = data.draw(st.integers(1, 6))
        A = data.draw(_grids(cols=n))
        B = data.draw(_grids(rows=n))
        P = Matrix.exact(A) @ Matrix.exact(B)
        ref = _ref_matmul(A, B)
        assert _ref_of(P) == ref
        got = [[P[i, j] for j in range(P.cols)] for i in range(P.rows)]
        assert got == [[Scalar.exact(*z) for z in row] for row in ref]
        assert P.to_json() == [[{"re": str(z[0]), "im": str(z[1])} for z in row] for row in ref]

    @_PROPS
    @given(_grids())
    def test_rank_and_kernel(self, A):
        rows, pivots = _ref_rref(A)
        M = Matrix.exact(A)
        assert rank(M) == len(pivots)
        assert [_ref_of(v) for v in kernel_basis(M)] == _ref_kernel(A)

    @_PROPS
    @given(st.data())
    def test_solve_one_column(self, data):
        A = data.draw(_grids())
        b = data.draw(_grids(rows=len(A), cols=1))
        _, pa = _ref_rref(A)
        _, pab = _ref_rref([ra + rb for ra, rb in zip(A, b)])
        if len(pab) > len(pa):
            with pytest.raises(NoSolutionError):
                solve(Matrix.exact(A), Matrix.exact(b))
        elif len(pa) < len(A[0]):
            with pytest.raises(ValueError):
                solve(Matrix.exact(A), Matrix.exact(b))
        else:
            assert _ref_matmul(A, _ref_of(solve(Matrix.exact(A), Matrix.exact(b)))) == b

    @_PROPS
    @given(st.data())
    def test_solve_matrix(self, data):
        A = data.draw(_grids())
        B = data.draw(_grids(rows=len(A)))
        rows, pa = _ref_rref(A)
        _, pab = _ref_rref([ra + rb for ra, rb in zip(A, B)])
        if len(pab) > len(pa):
            with pytest.raises(NoSolutionError):
                solve_matrix(Matrix.exact(A), Matrix.exact(B))
        elif len(pa) < len(A[0]):
            with pytest.raises(ValueError):
                solve_matrix(Matrix.exact(A), Matrix.exact(B))
        else:
            X = _ref_of(solve_matrix(Matrix.exact(A), Matrix.exact(B)))
            assert _ref_matmul(A, X) == B

    @_PROPS
    @given(st.integers(1, 6).flatmap(lambda n: _grids(rows=n, cols=n)))
    def test_inverse(self, A):
        n = len(A)
        _, pivots = _ref_rref(A)
        if len(pivots) < n:
            with pytest.raises(ValueError):
                inverse(Matrix.exact(A))
            return
        eye = [[_G1 if i == j else _G0 for j in range(n)] for i in range(n)]
        rows, _ = _ref_rref([ra + re for ra, re in zip(A, eye)])
        assert _ref_of(inverse(Matrix.exact(A))) == [row[n:] for row in rows]

    @_PROPS
    @given(st.data())
    def test_equal_values_equal_and_hash_equal(self, data):
        n, k = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))
        A = Matrix.exact(data.draw(_grids(cols=n)))
        B = Matrix.exact(data.draw(_grids(rows=n, cols=k)))
        C = Matrix.exact(data.draw(_grids(rows=k)))
        left, right = (A @ B) @ C, A @ (B @ C)
        assert left == right and hash(left) == hash(right)
        A2 = Matrix.exact(data.draw(_grids(rows=A.rows, cols=A.cols)))
        back = A + A2 - A2
        assert back == A and hash(back) == hash(A)
        assert Matrix.from_json(A.to_json(), EXACT) == A


# ----------------------------------------------------------------------
# planted spectra: Gaussian rationals with large denominators and high
# multiplicity, hidden by a unimodular shear conjugation

_RAT = st.builds(Fraction, st.integers(-(2**66), 2**66), st.integers(1, 2**64))


@st.composite
def _planted(draw):
    """(M, roots, diagonalizable): M = S T S^-1 with T upper triangular,
    the planted eigenvalues on its diagonal, and S a product of integer
    shears; roots are the planted (Scalar, multiplicity) pairs sorted by
    (Re, Im)."""
    n = draw(st.integers(1, 5))
    values = draw(st.lists(st.tuples(_RAT, _RAT | st.just(Fraction(0))), min_size=1, max_size=n, unique=True))
    diag = values + draw(st.lists(st.sampled_from(values), min_size=n - len(values), max_size=n - len(values)))
    diag = draw(st.permutations(diag))
    diagonalizable = draw(st.booleans())
    T = [[diag[i] if i == j else (0, 0) for j in range(n)] for i in range(n)]
    if not diagonalizable:
        for i in range(n):
            for j in range(i + 1, n):
                T[i][j] = (draw(st.integers(-2, 2)), 0)
    S = Matrix.identity(n, EXACT)
    for _ in range(draw(st.integers(0, 2 * n))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if i != j:
            E = [[int(r == c) for c in range(n)] for r in range(n)]
            E[i][j] = draw(st.integers(-3, 3))
            S = S @ Matrix.exact(E)
    M = S @ Matrix.exact(T) @ inverse(S)
    roots = sorted(((Scalar.exact(*z), diag.count(z)) for z in values), key=lambda t: (t[0].re, t[0].im))
    return M, roots, diagonalizable


class TestExactRootProperties:
    @_PROPS
    @given(_planted())
    def test_planted_roots_and_multiplicities(self, planted):
        M, roots, _ = planted
        assert exact_roots(char_poly(M)) == roots
        assert spectrum_support(CommutingTuple([M])) == [((lam,), k) for lam, k in roots]

    @_PROPS
    @given(_planted())
    def test_triangularize_diagonal_is_the_planted_roots(self, planted):
        M, roots, _ = planted
        _, _, upper = triangularize(CommutingTuple([M]))
        U = upper.B[0]
        assert U.strict_lower().is_zero()
        assert [U[k, k] for k in range(U.rows)] == [lam for lam, k in roots for _ in range(k)]


# ----------------------------------------------------------------------
# exact joint generalized eigenspaces against a kernel oracle

_GINT = st.tuples(st.integers(-2, 2), st.integers(-2, 2) | st.just(0))


@st.composite
def _planted_tuples(draw):
    """(B, multiplicities): commuting exact members S J_j S^-1 and the
    planted length of each point.  J_j is block diagonal: up to three
    points with Gaussian-integer coordinates, a later one sometimes
    sharing the first one's first coordinate (B_0 alone then does not
    separate them), each with one or two blocks of length 1 to 3 (n at
    most 6), on which member j is p_j + a_j N + b_j N^2 for the shift N,
    a_j and b_j Gaussian integers: derogatory points, Jordan blocks of
    different lengths at one point, and, where some a_j vanish, members
    that are scalar on a block.  S is a product of Gaussian-integer
    shears."""
    m = draw(st.integers(1, 3))
    points = []
    for _ in range(draw(st.integers(1, 3))):
        p = [draw(_GINT) for _ in range(m)]
        if points and draw(st.booleans()):
            p[0] = points[0][0]
        points.append(tuple(p))
    blocks = []
    for p in points:
        for _ in range(draw(st.integers(1, 2))):
            length = draw(st.integers(1, 3))
            if sum(b[1] for b in blocks) + length <= 6:
                blocks.append((p, length, [(draw(_GINT), draw(_GINT)) for _ in range(m)]))
    n = sum(length for _, length, _ in blocks)
    mats = []
    for j in range(m):
        G = [[(0, 0)] * n for _ in range(n)]
        off = 0
        for p, length, coef in blocks:
            a, b = coef[j]
            for r in range(length):
                G[off + r][off + r] = p[j]
                if r + 1 < length:
                    G[off + r][off + r + 1] = a
                if r + 2 < length:
                    G[off + r][off + r + 2] = b
            off += length
        mats.append(Matrix.exact([[Scalar.exact(*z) for z in row] for row in G]))
    S = Matrix.identity(n, EXACT)
    for _ in range(draw(st.integers(0, 2 * n))):
        i, k = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if i != k:
            E = [[Scalar.exact(int(r == c)) for c in range(n)] for r in range(n)]
            E[i][k] = Scalar.exact(*draw(_GINT))
            S = S @ Matrix.exact(E)
    Si = inverse(S)
    lengths = {}
    for p, length, _ in blocks:
        lengths[p] = lengths.get(p, 0) + length
    return [S @ B @ Si for B in mats], lengths


class TestPrimaryDecompositionProperties:
    @_PROPS
    @given(_planted_tuples())
    def test_pieces_match_the_joint_kernel(self, planted):
        """Each piece's E is the canonical kernel basis of the stacked
        (B_j - p_j)^n, entries and storage alike, k is that kernel's
        dimension, and B_j E = E R_j; the support is the planted one."""
        B, lengths = planted
        n = B[0].rows
        eye = Matrix.identity(n, EXACT)
        pieces = primary_decomposition(B)
        assert {tuple((c.re, c.im) for c in p): k for p, k, _, _ in pieces} == lengths
        for p, k, E, R in pieces:
            K = kernel_basis(Matrix.vstack(*((Bj - eye.scale(pj)).power(n) for Bj, pj in zip(B, p))))
            K = K[0].hstack(*K[1:])
            assert K.cols == k
            assert E == K and E._a == K._a
            assert all(Bj @ E == E @ Rj for Bj, Rj in zip(B, R))


def test_simple_spectrum_needs_no_elimination_and_no_norm(monkeypatch):
    """With n distinct eigenvalues in the first member, each exact piece
    is one adjugate column evaluated at its root: no elimination runs and
    no float norm is taken, and the pieces are the same."""
    S = Matrix.exact([[1, 2, 0, (0, 1)], [0, 1, -1, 0], [1, 0, 1, 3], [0, 0, 0, 1]])
    D = Matrix.diag([Scalar.exact(v, w) for v, w in ((1, 0), (-2, 0), (0, 1), ("1/3", -1))])
    B0 = S @ D @ inverse(S)
    B = [B0, B0 @ B0 - B0.scale(Scalar.exact(3))]
    expected = primary_decomposition(B)

    def refuse(*args, **kwargs):
        raise AssertionError("exact primary decomposition eliminated or took a norm")

    monkeypatch.setattr(linalg, "_rref_exact", refuse)
    monkeypatch.setattr(Matrix, "norm", refuse)
    got = primary_decomposition(B)
    assert [k for _, k, _, _ in got] == [1] * 4
    assert [(p, k, E._a, [Rj._a for Rj in R]) for p, k, E, R in got] == [
        (p, k, E._a, [Rj._a for Rj in R]) for p, k, E, R in expected
    ]


def _float_conjugate(D, g):
    g = np.array(g, dtype=complex)
    return Matrix.flt(np.linalg.inv(g) @ np.array(D, dtype=complex) @ g)


_TWO_TWO = [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 2, 1], [0, 0, 0, 2]]
_TWO_TWO_THREE = [
    [1, 1, 0, 0, 0, 0, 0],
    [0, 1, 0, 0, 0, 0, 0],
    [0, 0, 2, 1, 0, 0, 0],
    [0, 0, 0, 2, 0, 0, 0],
    [0, 0, 0, 0, 3, 1, 0],
    [0, 0, 0, 0, 0, 3, 1],
    [0, 0, 0, 0, 0, 0, 3],
]


def _shear(n):
    """I + X / (2 n), X with ones one step and i three steps to the right."""
    X = np.zeros((n, n), dtype=complex)
    X[np.arange(n), (np.arange(n) + 1) % n] = 1
    X[np.arange(n), (np.arange(n) + 3) % n] = 1j
    return np.eye(n) + (0.5 / n) * X


def test_float_eigen_solves_are_one_per_stack(monkeypatch):
    """A float tuple that splits at t = 0 into pieces of length above 1
    makes one eig call for L and one for each length of those pieces,
    over the stack of all their restrictions, whatever the number m of
    members: 2 calls for lengths 2, 2 and 3 for lengths 2, 2, 3."""
    eig = np.linalg.eig
    counts = []

    def counted(a):
        counts[-1] += 1
        return eig(a)

    monkeypatch.setattr(np.linalg, "eig", counted)
    g4 = np.eye(4) + 0.25 * np.array([[0, 1, 0, 1j], [1, 0, 1, 0], [0, -1j, 0, 1], [1, 0, 1, 0]])
    for J, g, lengths, solves in [(_TWO_TWO, g4, [2, 2], 2), (_TWO_TWO_THREE, _shear(7), [2, 2, 3], 3)]:
        n = len(J)
        B0 = _float_conjugate(J, g)
        eye = Matrix.identity(n, FLOAT)
        members = [B0, B0 @ B0, B0.scale(Scalar.flt(2.0)) - eye, B0 + eye.scale(Scalar.flt(0, 1))]
        for m in (1, 4):
            counts.append(0)
            pieces = primary_decomposition(members[:m])
            assert [k for _, k, _, _ in pieces] == lengths
            assert counts[-1] == solves


def test_float_stack_with_a_zero_and_a_scalar_member():
    """Members 0 (radius 0, weight 1) and 2 Id (one point) beside B: the
    support is B's, with the coordinates 0 and 2 appended, and B's
    coordinate keeps its bits."""
    B = _float_conjugate([[1, 1, 0], [0, 1, 0], [0, 0, 3]], [[1 + 0.5j, 0.3, 0], [0.1, 0.9 - 0.4j, 0.2], [0, 0.3j, 1]])
    alone = primary_decomposition([B])
    pieces = primary_decomposition([B, Matrix.zeros(3, 3, FLOAT), Matrix.identity(3, FLOAT).scale(Scalar.flt(2.0))])
    assert [k for _, k, _, _ in pieces] == [k for _, k, _, _ in alone] == [2, 1]
    for (p, _, _, _), (q, _, _, _) in zip(pieces, alone):
        assert p[0].cx == q[0].cx
        assert p[1].cx == 0
        assert p[2].cx == pytest.approx(2.0, rel=1e-12, abs=0)
    assert [p[0].cx for p, _, _, _ in alone] == pytest.approx([1.0, 3.0], rel=1e-6, abs=0)


def test_singular_eigenvectors_in_a_stack_leave_the_other_slices_alone():
    """The eigenvectors numpy returns for a 5 x 5 nilpotent shift are
    singular, so the stacked inverse fails; only that slice takes
    kappa = inf, and diag(1, 1.001, 2, 3, 4) beside it keeps its five
    points, which the Jordan cap alone (about 0.006) would merge."""
    S = np.stack([np.eye(5, k=1), np.diag([1, 1.001, 2, 3, 4])]).astype(complex)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.inv(np.linalg.eig(S)[1])
    sizes = [float(np.linalg.norm(A)) for A in S]
    args = [linalg._radius(S, sizes, [1e-9] * 2), sizes, [linalg._EPS * s for s in sizes]]
    stacked = linalg._eigen_groups(S, *args, 1e-9)
    assert stacked == [linalg._eigen_groups(S[j : j + 1], *([a[j]] for a in args), 1e-9)[0] for j in range(2)]
    assert [len(g) for g in stacked] == [1, 5]


@pytest.mark.parametrize("diag", [[5e-300], [3e-300], [1e-305, 2e-305]], ids=["5e-300", "3e-300", "1e-305-diag"])
def test_float_member_whose_weight_would_overflow(diag):
    """1 / r_j overflows for a radius below about 1 / 1.8e308, here
    eps_eq |B|; with the weight held finite the points come back, each
    with multiplicity 1, and numpy warns of nothing."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pieces = primary_decomposition([Matrix.flt(np.diag(diag))])
    assert [(p[0].cx, k) for p, k, _, _ in pieces] == [(pytest.approx(x, rel=1e-12, abs=0), 1) for x in diag]


# ----------------------------------------------------------------------
# float spectra move with a rescaling

_UNIT = st.floats(-1.0, 1.0)


@st.composite
def _float_planted(draw):
    """(A, points): A = g J g^-1 with J upper bidiagonal, the sorted
    integer points from [-3, 3] on its diagonal (repeats allowed, equal
    neighbours sometimes joined into a Jordan block), and g = I + X with
    every entry of X at most 0.3 / n in modulus, so that cond(g) < 2."""
    n = draw(st.integers(1, 4))
    points = sorted(draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)))
    J = np.diag(np.array(points, dtype=complex))
    for i in range(n - 1):
        if points[i] == points[i + 1] and draw(st.booleans()):
            J[i, i + 1] = 1.0
    U = np.array([[complex(draw(_UNIT), draw(_UNIT)) for _ in range(n)] for _ in range(n)])
    g = np.eye(n) + 0.2 / n * U
    return g @ J @ np.linalg.inv(g), points


class TestFloatEigenvalueProperties:
    @_PROPS
    @given(_float_planted(), st.integers(-12, 12))
    # a subnormal largest entry in a piece: its norm is rescaled by np.ldexp,
    # where a factor 2.0**-e would overflow
    @example((np.array([[0, 2.22507386e-312j], [0, 1]]), [0, 1]), 0)
    def test_eigenvalues_scale_with_the_matrix(self, planted, e):
        A, points = planted
        c = 10.0**e
        base = _points(Matrix.flt(A))
        scaled = _points(Matrix.flt(c * A))
        assert len(scaled) == len(base) == len(set(points))
        tol = 1e-9 * np.linalg.norm(A)
        for z, w, p in zip(scaled, base, sorted(set(points))):
            assert abs(w.cx - p) <= tol
            assert abs(z.cx - c * w.cx) <= tol * c


# ----------------------------------------------------------------------
# exact ingestion: scalar text straight to (numerator, denominator)


@st.composite
def _digits(draw):
    """Decimal digits with leading zeros, sometimes a non-ASCII digit, and
    sometimes underscores, well placed or not."""
    d = draw(st.text(alphabet="0123456789", min_size=1, max_size=6))
    if draw(st.integers(0, 5)) == 0:
        k = draw(st.integers(0, len(d) - 1))
        d = d[:k] + draw(st.sampled_from("\u0663\uff15\u0967\u09ed")) + d[k + 1 :]
    if draw(st.integers(0, 4)) == 0:
        k = draw(st.integers(0, len(d)))
        d = d[:k] + draw(st.sampled_from(["_", "__"])) + d[k:]
    return d


@st.composite
def _scalar_text(draw):
    """Text in or near Fraction's forms: signs, 'p/q' (zero denominators
    too), decimals, exponents, surrounding whitespace; now and then junk."""
    pad = st.sampled_from(["", "", " ", "\t", " \n", "\u00a0"])
    sign = draw(st.sampled_from(["", "", "+", "-", "+-"]))
    kind = draw(st.sampled_from(("int", "ratio", "decimal", "exponent", "junk")))
    if kind == "junk":
        return draw(st.text(max_size=8))
    body = draw(_digits())
    if kind == "ratio":
        body += "/" + draw(st.one_of(_digits(), st.sampled_from(["0", "00", "-2", ""])))
    elif kind in ("decimal", "exponent"):
        body = draw(st.sampled_from(["{}.{}", ".{1}", "{0}.", "{0}"])).format(body, draw(_digits()))
        if kind == "exponent":
            body += draw(st.sampled_from("eE")) + draw(st.sampled_from(["", "+", "-"])) + str(draw(st.integers(0, 40)))
    return draw(pad) + sign + body + draw(pad)


def _fraction_or_none(s):
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError):
        return None


_EXACT_TEXT = _scalar_text().filter(lambda s: _fraction_or_none(s) is not None)
_EXACT_JSON = st.one_of(_EXACT_TEXT, st.sampled_from(["0", "1", "-1"]), st.integers(-(2**70), 2**70))


def _from_scalars(grid):
    """Reference: the route exact entries took before they were read into
    integer grids directly, one Scalar per entry, then the numerators over
    the lcm of the reduced denominators."""
    D = lcm(*(q.denominator for row in grid for z in row for q in (z.re, z.im)))
    R = [[z.re.numerator * (D // z.re.denominator) for z in row] for row in grid]
    I = [[z.im.numerator * (D // z.im.denominator) for z in row] for row in grid]
    return Matrix(EXACT, len(grid), len(grid[0]), (D, R, I))


class TestExactIngestion:
    @settings(max_examples=500, deadline=None)
    @given(_scalar_text())
    def test_pair_reader_agrees_with_fraction(self, s):
        q = _fraction_or_none(s)
        if q is None:
            with pytest.raises(ValueError):
                _q_pair(s)
        else:
            assert _q_pair(s) == (q.numerator, q.denominator)

    @_PROPS
    @given(st.data())
    def test_from_json_matches_scalar_route(self, data):
        r, c = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
        obj = [[{"re": data.draw(_EXACT_JSON), "im": data.draw(_EXACT_JSON)} for _ in range(c)] for _ in range(r)]
        M = Matrix.from_json(obj, EXACT)
        assert M == _from_scalars([[Scalar.from_json(x, EXACT) for x in row] for row in obj])
        assert Matrix.from_json(M.to_json(), EXACT) == M

    @_PROPS
    @given(st.data())
    def test_exact_matches_scalar_route(self, data):
        r, c = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
        entry = st.one_of(
            st.integers(-(2**70), 2**70),
            _EXACT_TEXT,
            _RAT,
            st.tuples(st.integers(-9, 9), _EXACT_TEXT),
            st.builds(Scalar.exact, _RAT, _RAT),
        )
        if data.draw(st.booleans()):
            entry = st.integers(-9, 9)
        grid = [[data.draw(entry) for _ in range(c)] for _ in range(r)]

        def scalar(x):
            if isinstance(x, Scalar):
                return x
            return Scalar.exact(*x) if isinstance(x, tuple) else Scalar.exact(x)

        assert Matrix.exact(grid) == _from_scalars([[scalar(x) for x in row] for row in grid])

    @pytest.mark.parametrize(
        "grid", [[], [[]], [[1, 2], [3]], [[1], [2, 3]]], ids=["no-rows", "empty-row", "short-row", "long-row"]
    )
    def test_ragged_or_empty_grid_is_refused(self, grid):
        with pytest.raises(ValueError):
            Matrix.exact(grid)
        with pytest.raises(ValueError):
            Matrix.from_json([[{"re": str(x), "im": "0"} for x in row] for row in grid], EXACT)
