"""Scalar and matrix layer: exact arithmetic, float tolerances, solvers."""

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
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
    eigenspace,
    eigenvalues,
    exact_roots,
    inverse,
    kernel_basis,
    rank,
    solve,
    solve_matrix,
)
from abelmod.errors import NoSolutionError


class TestScalar:
    def test_exact_forms(self):
        assert Scalar.exact(2) == Scalar.exact("2")
        assert Scalar.exact("1/3") + Scalar.exact("2/3") == Scalar.one(EXACT)
        assert Scalar.exact(Fraction(3, 4)).cx == 0.75

    def test_gaussian_arithmetic(self):
        i = Scalar.exact(0, 1)
        assert i * i == Scalar.exact(-1)
        z = Scalar.exact("1/2", "-3")
        assert (z * z.conj()).cx == pytest.approx(abs(z.cx) ** 2)
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

    def test_conj_transpose(self):
        A = Matrix.exact([[(0, 1)]])
        assert A.conj_transpose()[0, 0] == Scalar.exact(0, -1)

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
        assert Matrix.exact([[3, 9], [0, 4]]).trace() == Scalar.exact(7)

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


class TestSeam:
    def test_negligible_both_modes(self):
        assert not Scalar.exact("1/1000000000000").negligible(1.0)
        assert Scalar.flt(1e-12).negligible(1e-9)
        tiny = Matrix.flt([[1e-12, 0.0], [0.0, 0.0]])
        assert tiny.negligible() and not tiny.negligible(1e-4)
        assert not Matrix.exact([[0, "1/1000000000000"]]).negligible(1e9)

    def test_eigenspace_smallest_eigenvalue(self):
        for B in (Matrix.exact([[3, 1], [0, 2]]), Matrix.flt([[3.0, 1.0], [0.0, 2.0]])):
            lam, E = eigenspace(B)
            assert abs(lam.cx - 2.0) < 1e-12 and E.cols == 1
            assert (B @ E - E.scale(lam)).norm() < 1e-12
        assert eigenvalues(Matrix.exact([[3, 1], [0, 2]])) == [Scalar.exact(2), Scalar.exact(3)]
        assert [z.cx for z in eigenvalues(Matrix.flt([[2.0, 0.0], [0.0, 2.0]]))] == [2.0]

    def test_complete_basis(self):
        w = Matrix.column([Scalar.exact(0), Scalar.exact(2), Scalar.exact(1)])
        P = complete_basis(w)
        assert P.col(0) == w and rank(P) == 3
        Q = complete_basis(w.to_float())
        assert rank(Q) == 3 and abs(abs(Q[1, 0].cx) - 2 / 5**0.5) < 1e-12

    def test_span_exact_and_float(self):
        for mode, mk in ((EXACT, Matrix.exact), (FLOAT, Matrix.flt)):
            span = Span(2, mode)
            assert span.add(mk([[1], [1]]))
            assert not span.add(mk([[2], [2]]))
            assert span.add(mk([[0], [1]])) and span.dim == 2

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


def _conj_t(A):
    return [[(A[i][j][0], -A[i][j][1]) for i in range(len(A))] for j in range(len(A[0]))]


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
        assert P.entries() == [[Scalar.exact(*z) for z in row] for row in ref]
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
    def test_solve_is_least_norm(self, data):
        A = data.draw(_grids())
        b = data.draw(_grids(rows=len(A), cols=1))
        _, pa = _ref_rref(A)
        _, pab = _ref_rref([ra + rb for ra, rb in zip(A, b)])
        if len(pab) > len(pa):
            with pytest.raises(NoSolutionError):
                solve(Matrix.exact(A), Matrix.exact(b))
            return
        x = _ref_of(solve(Matrix.exact(A), Matrix.exact(b)))
        assert _ref_matmul(A, x) == b
        # least norm: x is orthogonal to the kernel of A
        for k in _ref_kernel(A):
            assert _ref_matmul(_conj_t(k), x) == [[_G0]]

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
