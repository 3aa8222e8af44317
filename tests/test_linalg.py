"""Scalar and matrix layer: exact arithmetic, float tolerances, solvers."""

from fractions import Fraction

import pytest

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
