"""Commuting-tuple layer: stability, normal forms, degenerations,
punctual pieces."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from abelmod import linalg
from abelmod.adhm import (
    CommutingTuple,
    InvariantFlag,
    MarkedTuple,
    PunctualData,
    decompose_punctual,
    expm1_matrix,
    from_points,
    ideal_normal_form,
    is_stable,
    joint_spectrum,
    krylov_span,
    log1p_matrix,
    marked_automorphisms_trivial,
    rees_family,
    rees_limit,
    sequiv_normal_form,
    spectrum_support,
    triangularize,
)
from abelmod.errors import (
    DuplicatePointError,
    NotCommutingError,
    NotStableError,
    WeightsNotDecreasingError,
)
from abelmod.linalg import EXACT, FLOAT, Matrix, Scalar, kernel_basis, primary_decomposition, rank


def _e(rows):
    return Matrix.exact(rows)


def _col(*vals):
    return Matrix.column([Scalar.exact(v) for v in vals])


SHIFT2 = _e([[0, 1], [0, 0]])
EYE2 = Matrix.identity(2, EXACT)


class TestCommutingTuple:
    def test_noncommuting_rejected(self):
        with pytest.raises(NotCommutingError):
            CommutingTuple([_e([[0, 1], [0, 0]]), _e([[0, 0], [1, 0]])])

    def test_conjugate_is_similarity(self):
        T = CommutingTuple([_e([[1, 2], [0, 3]])])
        g = _e([[1, 1], [0, 1]])
        S = T.conjugate(g)
        assert joint_spectrum(S) == joint_spectrum(T)

    def test_mode_mixing_rejected(self):
        with pytest.raises(Exception):
            CommutingTuple([SHIFT2, Matrix.flt([[0.0, 0.0], [0.0, 0.0]])])


class TestStability:
    def test_shift_cyclic_from_bottom(self):
        M = MarkedTuple(CommutingTuple([SHIFT2]), _col(0, 1))
        assert is_stable(M)
        assert krylov_span(M).cols == 2

    def test_shift_not_cyclic_from_top(self):
        M = MarkedTuple(CommutingTuple([SHIFT2]), _col(1, 0))
        assert not is_stable(M)
        assert krylov_span(M).cols == 1

    def test_second_member_can_rescue(self):
        # diag alone fixes e_1 + e_2 only when eigenvalues differ
        D = _e([[1, 0], [0, 1]])
        M = MarkedTuple(CommutingTuple([D]), _col(1, 1))
        assert not is_stable(M)
        M2 = MarkedTuple(CommutingTuple([D, _e([[0, 0], [0, 1]])]), _col(1, 1))
        assert is_stable(M2)

    def test_automorphism_criterion_matches(self):
        for M in (
            MarkedTuple(CommutingTuple([SHIFT2]), _col(0, 1)),
            MarkedTuple(CommutingTuple([SHIFT2]), _col(1, 0)),
            from_points([(1, 2), (3, 4)]),
        ):
            assert is_stable(M) == marked_automorphisms_trivial(M)

    def test_fill_entry_breaks_cyclicity(self):
        # upper-triangular with unit superdiagonal is not enough: the
        # (1,3) fill lets B^2 e_4 reach e_1 early and the span closes at
        # dimension 3 (rows 1 and 2 of the Krylov matrix are
        # proportional)
        B1 = _e(
            [
                [-2, 1, "2/3", 0],
                [0, "-1/2", 1, 0],
                [0, 0, "-1/2", 1],
                [0, 0, 0, -1],
            ]
        )
        M = MarkedTuple(CommutingTuple([B1]), _col(0, 0, 0, 1))
        assert krylov_span(M).cols == 3
        assert not is_stable(M)
        with pytest.raises(NotStableError):
            ideal_normal_form(M)

    def test_witness_is_the_graded_lex_staircase_basis(self):
        # the marking misses the eighth point, so the walk closes at 7:
        # 1, x1, x2, x3, x1^2, x1 x2 and then x2^2, which comes before
        # x1 x3 in graded lex order with x_1 < x_2 < x_3
        pts = [(1, 2, 3), (2, -1, 4), (-3, 1, 1), (4, 3, -2), (0, 5, 2), (-2, -4, 5), (3, -3, -1), (7, 7, 7)]
        M = MarkedTuple(from_points(pts).tuple, _col(1, 1, 1, 1, 1, 1, 1, 0))
        K = krylov_span(M)
        assert not is_stable(M) and K.cols == 7
        assert K.col(6) == _col(4, 1, 1, 9, 25, 16, 9, 0)

    def test_float_stability(self):
        B = Matrix.flt([[0.0, 1.0], [0.0, 0.0]])
        T = CommutingTuple([B])
        assert is_stable(MarkedTuple(T, Matrix.flt([[0.0], [1.0]])))
        assert not is_stable(MarkedTuple(T, Matrix.flt([[1.0], [1e-12]])))

    @pytest.mark.parametrize("c", [1e-150, 1e-100, 1e100, 1e150])
    def test_float_stability_past_the_squared_range(self, c):
        # the image of x^2 is about c^2, and its squared norm is past the
        # double range at both ends
        T = CommutingTuple([Matrix.flt(c * np.diag([1.0, 2.0, 3.0]))])
        assert is_stable(MarkedTuple(T, Matrix.flt([[1.0], [1.0], [1.0]])))

    @pytest.mark.parametrize("c", [1e-12, 1e-10, 1e-8, 1e-4, 1.0, 1e4, 1e8, 1e12])
    def test_float_marking_at_any_scale(self, c):
        """A marking is refused only when it is exactly zero: stability
        does not depend on the marking's scale."""
        T = CommutingTuple([Matrix.flt(np.diag([1.0, 2.0, 3.0]))])
        assert is_stable(MarkedTuple(T, Matrix.flt([[c], [c], [c]])))
        with pytest.raises(ValueError, match="nonzero"):
            MarkedTuple(T, Matrix.zeros(3, 1, FLOAT))


class TestTriangularize:
    def test_exact_pair(self):
        A = _e([[1, 1], [2, 0]])  # eigenvalues 2, -1
        T = CommutingTuple([A, A @ A])
        g, flag, upper = triangularize(T)
        for U in upper.B:
            assert U[1, 0].is_zero()
        assert flag.basis == g

    def test_float_strict_lower_small(self):
        rng = np.random.default_rng(7)
        A = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        T = CommutingTuple([Matrix.flt(A), Matrix.flt(A @ A)])
        _, _, upper = triangularize(T)
        for U in upper.B:
            X = U.to_numpy()
            low = np.tril(X, -1)
            assert np.abs(low).max() <= 1e-8 * max(1.0, np.abs(X).max())

    def test_first_flag_vector_is_joint_eigenvector(self):
        A = _e([[3, 1], [0, 3]])
        T = CommutingTuple([A, A.scale(Scalar.exact(2))])
        g, _, upper = triangularize(T)
        w = g.col(0)
        for Bj, U in zip(T.B, upper.B):
            assert (Bj @ w - w.scale(U[0, 0])).is_zero()

    def test_float_tuple_with_repeated_first_coordinate(self):
        # the first member is a conjugated Jordan block at -7 beside the
        # point -7, and the second separates (-7, -7) from (-7, 6 - 8/3 i):
        # the float deflation follows the joint spectrum to the exact
        # diagonal, with no threshold on the first member's eigenspace
        B = [
            [[-14, 7, 14], [-7, 0, 14], [0, 0, -7]],
            [[-16 - 6j, 9 + 6j, 18 + 12j], [-9 - 6j, 2 + 6j, -8 + 52j / 3], [0, 0, 6 - 8j / 3]],
        ]
        T = CommutingTuple([Matrix.flt(np.array(Bj)) for Bj in B])
        _, _, upper = triangularize(T)
        for Bj, U, want in zip(T.B, upper.B, ([-7, -7, -7], [-7, -7, 6 - 8j / 3])):
            a = U.to_numpy()
            assert np.abs(np.tril(a, -1)).max() <= 1e-12 * np.linalg.norm(a)
            assert np.abs(np.diag(a) - want).max() <= 1e-12 * Bj.norm()


class TestSpectrum:
    def test_joint_spectrum_diagonal(self):
        T = CommutingTuple([_e([[1, 0], [0, 2]]), _e([[5, 0], [0, 7]])])
        assert joint_spectrum(T) == [
            (Scalar.exact(1), Scalar.exact(5)),
            (Scalar.exact(2), Scalar.exact(7)),
        ]

    def test_support_multiplicities(self):
        T = CommutingTuple([_e([[3, 1], [0, 3]]), EYE2])
        supp = spectrum_support(T)
        assert supp == [((Scalar.exact(3), Scalar.exact(1)), 2)]

    @pytest.mark.parametrize("c", [1e-8, 1.0, 1e8])
    def test_float_jordan_blocks_of_different_lengths_at_one_point(self, c):
        # c (J_3(0) + 0 + 1): the kernel at 0 has two dimensions, and the
        # generalized eigenspace there is the first four coordinates
        A = np.diag([0.0, 0.0, 0.0, 0.0, c])
        A[0, 1] = A[1, 2] = c
        T = CommutingTuple([Matrix.flt(A)])
        supp = spectrum_support(T)
        assert [k for _, k in supp] == [4, 1]
        assert abs(supp[0][0][0].cx) <= 1e-12 * c and abs(supp[1][0][0].cx - c) <= 1e-12 * c
        _, _, upper = triangularize(T)
        a = upper.B[0].to_numpy()
        assert np.abs(np.tril(a, -1)).max() <= 1e-12 * np.linalg.norm(a)

    def test_exact_points_in_numeric_order(self):
        # 1/3 - 10^-30 and 1/3 round to the same doubles; the support and
        # the triangularized diagonal both list the smaller first
        a, b = Scalar.exact("1/3"), Scalar.exact(Fraction(1, 3) - Fraction(1, 10**30))
        T = CommutingTuple([Matrix.diag([a, b])])
        assert spectrum_support(T) == [((b,), 1), ((a,), 1)]
        upper = triangularize(T)[2].B[0]
        assert [upper[k, k] for k in range(2)] == [b, a]

    def test_exact_support_past_the_double_range(self):
        pts = [(10**400,), (2 * 10**400,)]
        T = from_points(pts).tuple
        assert spectrum_support(T) == [((Scalar.exact(*p),), 1) for p in pts]

    @pytest.mark.parametrize("c", [1e154, 1e200, 1e300])
    def test_float_support_past_the_squared_range(self, c):
        T = CommutingTuple([Matrix.flt(np.diag([c, 2 * c, 3 * c]))])
        supp = spectrum_support(T)
        assert [k for _, k in supp] == [1, 1, 1]
        assert [pt[0].cx / c for pt, _ in supp] == pytest.approx([1, 2, 3], rel=1e-12)

    def test_sequiv_forgets_nilpotents(self):
        T = CommutingTuple([_e([[3, 1], [0, 3]])])
        D = sequiv_normal_form(T)
        assert D.B[0] == _e([[3, 0], [0, 3]])

    def test_float_defective_support(self):
        # a Jordan block's computed eigenvalues scatter far beyond eps_eq;
        # the support still comes back as one point of full multiplicity
        J = np.diag(np.full(4, 0.5 + 0.25j)) + np.diag(np.ones(3), 1)
        T = CommutingTuple([Matrix.flt(J)])
        supp = spectrum_support(T)
        assert len(supp) == 1
        (pt, mult) = supp[0]
        assert mult == 4
        assert abs(pt[0].cx - (0.5 + 0.25j)) <= 1e-9


class TestRees:
    def _flagged(self):
        A = _e([[1, 1, 0], [0, 2, 1], [0, 0, 4]])
        T = CommutingTuple([A, A @ A])
        return T, InvariantFlag(Matrix.identity(3, EXACT))

    def test_family_commutes_and_limit_blocks(self):
        T, F = self._flagged()
        w = [2, 1, 0]
        fam = rees_family(T, F, w, Scalar.exact("1/5"))
        assert fam.n == 3  # construction validates commuting
        lim = rees_limit(T, F, w)
        for U in lim.B:
            assert U[0, 1].is_zero() and U[1, 2].is_zero() and U[0, 2].is_zero()

    def test_spectrum_constant_in_t(self):
        T, F = self._flagged()
        w = [1, 1, 0]
        s0 = joint_spectrum(T)
        for t in ("1/2", 3, -2):
            assert joint_spectrum(rees_family(T, F, w, Scalar.exact(t))) == s0

    def test_limit_is_sequiv_for_complete_weights(self):
        T, F = self._flagged()
        lim = rees_limit(T, F, [2, 1, 0])
        assert sequiv_normal_form(lim) == sequiv_normal_form(T)

    def test_weights_must_be_nonincreasing(self):
        T, F = self._flagged()
        with pytest.raises(WeightsNotDecreasingError):
            rees_family(T, F, [0, 1, 2], Scalar.exact(1))


class TestIdealNormalForm:
    def test_shift_staircase(self):
        T = CommutingTuple([SHIFT2, Matrix.zeros(2, 2, EXACT)])
        f = ideal_normal_form(MarkedTuple(T, _col(0, 1)))
        assert f.staircase == ((0, 0), (1, 0))
        assert f.divisor_closed()
        assert f.mult_matrices[1].is_zero()

    def test_orbit_invariance_bitwise(self):
        M = from_points([(1, 2), (3, 4), (-1, 0)])
        base = ideal_normal_form(M)
        g = _e([[1, 2, 0], [0, 1, -1], [1, 0, 1]])
        from abelmod.linalg import solve

        M2 = MarkedTuple(M.tuple.conjugate(g), solve(g, M.v))
        again = ideal_normal_form(M2)
        assert base == again
        assert base.to_json() == again.to_json()

    def test_support_matches_points(self):
        M = from_points([(1, 2), (3, 4)])
        supp = ideal_normal_form(M).support
        pts = {tuple(c for c in p) for p, _ in supp}
        assert pts == {
            (Scalar.exact(1), Scalar.exact(2)),
            (Scalar.exact(3), Scalar.exact(4)),
        }

    def test_duplicate_points_rejected(self):
        with pytest.raises(DuplicatePointError):
            from_points([(1, 2), (1, 2)])

    @pytest.mark.parametrize("c", [1e-12, 1e-10, 1e-8, 1e-4, 1.0, 1e4, 1e8, 1e12])
    def test_float_points_at_any_scale(self, c):
        """Float points collide relative to the largest coordinate: the
        support of c pts is c pts, and points within rounding of each
        other collide at every scale."""
        for pts in ([(1,), (2,), (3,)], [(1, 2), (2, -1), (1j, 0.5), (3, 3)]):
            scaled = [tuple(c * x for x in p) for p in pts]
            supp = spectrum_support(from_points(scaled, mode=FLOAT).tuple)
            assert all(k == 1 for _, k in supp)
            _take_each([tuple(x.cx for x in p) for p, _ in supp], scaled, 1e-12 * c)
        with pytest.raises(DuplicatePointError):
            from_points([(c,), (2 * c,), (c * (1 + 1e-12),)], mode=FLOAT)

    def test_exact_columns_come_off_the_walk(self, monkeypatch):
        """Exact mode reads the multiplication matrices off the staircase
        walk's reductions and solves nothing; float mode solves once per
        member."""
        calls = []
        solve_matrix = linalg.solve_matrix

        def counting(A, B):
            if A.mode == EXACT:
                raise AssertionError("exact ideal normal form called solve_matrix")
            calls.append(B.cols)
            return solve_matrix(A, B)

        monkeypatch.setattr(linalg, "solve_matrix", counting)
        M = from_points([(1, 2), (3, 4), (-1, 0)])
        F = ideal_normal_form(M)
        assert F.staircase == ((0, 0), (1, 0), (2, 0)) and not calls
        Mf = MarkedTuple(M.tuple.to_float(), M.v.to_float())
        Ff = ideal_normal_form(Mf)
        assert calls == [3, 3] and Ff.staircase == F.staircase
        assert all(A.close_to(B.to_float(), 1e-12) for A, B in zip(Ff.mult_matrices, F.mult_matrices))


class TestPunctual:
    def test_nilpotency_enforced(self):
        with pytest.raises(ValueError):
            PunctualData((0,), CommutingTuple([_e([[1, 0], [0, 1]])]))

    def test_decompose_exact(self):
        M = from_points([(1, 0), (2, 0), (2, 0 + 1)])
        pieces = decompose_punctual(M)
        assert sorted(P.length for P in pieces) == [1, 1, 1]
        assert sum(P.length for P in pieces) == 3

    def test_decompose_merged_block(self):
        # one point of length 2, one of length 1
        B1 = _e([[5, 1, 0], [0, 5, 0], [0, 0, 9]])
        B2 = _e([[7, 0, 0], [0, 7, 0], [0, 0, 7]])
        M = MarkedTuple(CommutingTuple([B1, B2]), _col(0, 1, 1))
        pieces = decompose_punctual(M)
        assert sorted(P.length for P in pieces) == [1, 2]
        for P in pieces:
            for Nj in P.N.B:
                assert Nj.power(P.length).is_zero()

    def test_decompose_float_defective(self):
        J = np.diag(np.full(3, 1.0 + 0.5j)) + np.diag(np.ones(2), 1)
        T = CommutingTuple([Matrix.flt(J), Matrix.flt(0.5 * J @ J)])
        M = MarkedTuple(T, Matrix.flt([[0.0], [0.0], [1.0]]))
        pieces = decompose_punctual(M)
        assert len(pieces) == 1 and pieces[0].length == 3
        assert abs(pieces[0].point[0].cx - (1.0 + 0.5j)) <= 1e-10

    def test_decompose_float_scalar_member(self):
        # the second member is the scalar 2 on the length-2 piece; its
        # nilpotent part there is rounding noise, which is no reason to
        # refuse the pieces as not commuting
        gi = np.linalg.inv(_G3)
        J = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        T = CommutingTuple([Matrix.flt(gi @ J @ _G3), Matrix.flt(gi @ np.diag([2.0, 2.0, 3.0]) @ _G3)])
        M = MarkedTuple(T, Matrix.flt(gi @ np.array([[0.0], [1.0], [1.0]])))
        pieces = decompose_punctual(M)
        assert [P.length for P in pieces] == [2, 1]
        for P, want in zip(pieces, [(0.0, 2.0), (1.0, 3.0)]):
            assert max(abs(c.cx - w) for c, w in zip(P.point, want)) <= 1e-10


class TestGerms:
    def test_series_matrix_roundtrip(self):
        N = _e([[0, "1/3", 5], [0, 0, -2], [0, 0, 0]])
        assert log1p_matrix(expm1_matrix(N)) == N


# ----------------------------------------------------------------------
# the support through the primary decomposition


def _float_support(mats):
    return spectrum_support(CommutingTuple([Matrix.flt(A) for A in mats]))


_G3 = np.array([[1.0 + 0.5j, 0.3, -0.2j], [0.1, 0.9 - 0.4j, 0.5], [-0.3j, 0.2, 1.1 + 0.2j]])


class TestFloatSupportEquivariance:
    """The float support moves with the data: rescaled, shifted or
    conjugated input gives the same points, transformed, with the same
    multiplicities."""

    def test_scaled_diagonal(self):
        for c in (1e-10, 1e-6, 1e-4, 1e8):
            supp = _float_support([c * np.diag([1.0, 2.0, 3.0])])
            assert [k for _, k in supp] == [1, 1, 1]
            for (pt, _), want in zip(supp, (1, 2, 3)):
                assert abs(pt[0].cx - c * want) <= 1e-9 * c

    def test_shifted_diagonal(self):
        for s in (1e5, 1e7):
            supp = _float_support([np.diag([1.0, 2.0, 3.0]) + s * np.eye(3)])
            assert [k for _, k in supp] == [1, 1, 1]
            for (pt, _), want in zip(supp, (1, 2, 3)):
                assert abs(pt[0].cx - (s + want)) <= 1e-9 * s

    def test_conjugated_small_pair(self):
        gi = np.linalg.inv(_G3)
        mats = [1e-6 * gi @ np.diag(d) @ _G3 for d in ([1.0, 2.0, 3.0], [3.0, 1.0, 2.0])]
        supp = _float_support(mats)
        assert [k for _, k in supp] == [1, 1, 1]
        got = [tuple(c.cx for c in pt) for pt, _ in supp]
        for (a, b), (x, y) in zip(got, [(1, 3), (2, 1), (3, 2)]):
            assert abs(a - 1e-6 * x) <= 1e-14 and abs(b - 1e-6 * y) <= 1e-14

    def test_members_of_unequal_scale(self):
        # the small (or unshifted) member alone separates the first two points
        for big, small, shift in ((1e6, 1.0, 0.0), (1.0, 1e-6, 0.0), (1.0, 1.0, 1e6)):
            supp = _float_support([np.diag([0.0, 0.0, big]) + shift * np.eye(3), np.diag([0.0, small, 0.0])])
            assert [k for _, k in supp] == [1, 1, 1]
            got = [tuple(c.cx for c in pt) for pt, _ in supp]
            for (a, b), (x, y) in zip(got, [(shift, 0), (shift, small), (shift + big, 0)]):
                assert abs(a - x) <= 1e-9 * (big + shift) and abs(b - y) <= 1e-9 * small

    def test_small_conjugated_spectrum(self):
        # eigenvalues clustered at an absolute eps_eq would merge these points
        c = 1e-10
        T = CommutingTuple([Matrix.flt(c * np.linalg.inv(_G3) @ np.diag([1.0, 2.0, 3.0]) @ _G3)])
        D = sequiv_normal_form(T).B[0]
        for got in ([pt[0].cx for pt in joint_spectrum(T)], [D[k, k].cx for k in range(3)]):
            assert len(got) == 3
            for z, want in zip(got, (1, 2, 3)):
                assert abs(z - c * want) <= 1e-6 * c * want

    def test_conjugated_scalar(self):
        supp = _float_support([np.linalg.inv(_G3) @ (2.0 * np.eye(3)) @ _G3])
        assert len(supp) == 1 and supp[0][1] == 3
        assert abs(supp[0][0][0].cx - 2.0) <= 1e-12


class TestFloatTriangularizeScale:
    """Float triangularization moves with a rescaling: c g^-1 diag(1, 2, 3) g
    is brought to upper triangular form with the diagonal c (1, 2, 3), and
    the Rees limit along its flag, what ``abelmod rees`` takes without a
    flag, is that diagonal, at every scale c."""

    SCALES = [10.0**e for e in range(-14, 11, 2)]

    @staticmethod
    def _tuple(c):
        return CommutingTuple([Matrix.flt(c * np.linalg.inv(_G3) @ np.diag([1.0, 2.0, 3.0]) @ _G3)])

    @pytest.mark.parametrize("c", SCALES)
    def test_upper_and_diagonal(self, c):
        _, _, upper = triangularize(self._tuple(c))
        a = upper.B[0].to_numpy()
        assert np.abs(np.tril(a, -1)).max() <= 1e-12 * np.linalg.norm(a)
        assert np.abs(np.diag(a) - c * np.array([1.0, 2.0, 3.0])).max() <= 1e-12 * c

    @pytest.mark.parametrize("c", SCALES)
    def test_rees_limit_along_computed_flag(self, c):
        T = self._tuple(c)
        _, F, _ = triangularize(T)
        a = rees_limit(T, F, [2, 1, 0]).B[0].to_numpy()
        assert np.abs(a - c * np.diag([1.0, 2.0, 3.0])).max() <= 1e-12 * c


def _non_normal_plants(n, count=12):
    """(points, tuple) pairs: m = 1 + n mod 3 members D, 2D + D^2,
    3D + D^2 with D a diagonal of n standard normal reals, conjugated by a
    complex Gaussian g (condition numbers about 10 to 100), so the members
    are diagonalizable and far from normal."""
    rng = np.random.default_rng(n)
    for _ in range(count):
        d = rng.normal(size=n)
        diagonals = [d, 2 * d + d**2, 3 * d + d**2][: 1 + n % 3]
        g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        gi = np.linalg.inv(g)
        points = [tuple(e[i] for e in diagonals) for i in range(n)]
        yield points, CommutingTuple([Matrix.flt(gi @ np.diag(e) @ g) for e in diagonals])


def _take_each(got, points, tol):
    """Match the computed points to the planted ones as multisets."""
    left = list(points)
    for p in got:
        q = min(left, key=lambda q: max(abs(a - b) for a, b in zip(p, q)))
        assert max(abs(a - b) for a, b in zip(p, q)) <= tol
        left.remove(q)
    assert not left


class TestNonNormalSpectrum:
    """Simple eigenvalues of a far-from-normal member are told apart from
    the scatter of a defective block by their condition numbers, so a
    point is not merged with its neighbours at the Jordan radius
    |B - tr B/n| eps^(1/(n+1))."""

    @pytest.mark.parametrize("n", [6, 7, 8])
    def test_joint_spectrum_and_semisimple_form(self, n):
        for points, T in _non_normal_plants(n):
            _take_each([tuple(c.cx for c in p) for p in joint_spectrum(T)], points, 1e-8)
            S = sequiv_normal_form(T)
            _take_each([tuple(D[k, k].cx for D in S.B) for k in range(n)], points, 1e-8)

    @pytest.mark.parametrize("n", [6, 7, 8])
    def test_support_points_are_simple(self, n):
        for points, T in _non_normal_plants(n):
            supp = spectrum_support(T)
            assert [k for _, k in supp] == [1] * n
            _take_each([tuple(c.cx for c in p) for p, _ in supp], points, 1e-8)


def _run_length(spec):
    out = []
    for t in spec:
        if out and out[-1][0] == t:
            out[-1] = (t, out[-1][1] + 1)
        else:
            out.append((t, 1))
    return out


def _stacked_power_kernel(T, pt):
    """Reference: the joint generalized eigenspace at pt as the kernel of
    the stacked n-th powers (B_j - p_j)^n, reduced-echelon basis."""
    eye = Matrix.identity(T.n, EXACT)
    powers = [(Bj - eye.scale(pj)).power(T.n) for Bj, pj in zip(T.B, pt)]
    kb = kernel_basis(powers[0].vstack(*powers[1:]))
    return kb[0].hstack(*kb[1:])


_QS = st.one_of(st.integers(-3, 3).map(Fraction), st.builds(Fraction, st.integers(-9, 9), st.sampled_from([2, 3, 2**20])))


@st.composite
def _jordan_plant(draw, values):
    """(points, lengths, members): m commuting n x n members, block
    diagonal with one block p_j Id + N_j per point, each N_j a polynomial
    in one nilpotent Jordan block.  Point coordinates come from a pool of
    two or three values, so points share coordinates and the first
    combinations of the members often fail to separate them."""
    n, m = draw(st.integers(1, 5)), draw(st.integers(1, 3))
    pool = draw(st.lists(values, min_size=2, max_size=3, unique=True))
    r = draw(st.integers(1, min(n, len(pool) ** m)))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), min_size=r - 1, max_size=r - 1))) if r > 1 else []
    lengths = [b - a for a, b in zip([0] + cuts, cuts + [n])]
    points = draw(st.lists(st.tuples(*[st.sampled_from(pool)] * m), min_size=r, max_size=r, unique=True))
    members = [[[0] * n for _ in range(n)] for _ in range(m)]
    off = 0
    for p, ell in zip(points, lengths):
        for j in range(m):
            coeffs = [draw(values) for _ in range(ell - 1)]
            for i in range(ell):
                members[j][off + i][off + i] = p[j]
                for a, c in enumerate(coeffs, 1):
                    if i + a < ell:
                        members[j][off + i][off + i + a] = c
        off += ell
    return points, lengths, members


def _shear(data, n):
    S = Matrix.identity(n, EXACT)
    for _ in range(data.draw(st.integers(0, 2 * n))):
        i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        if i != j:
            E = [[int(r == c) for c in range(n)] for r in range(n)]
            E[i][j] = data.draw(st.integers(-2, 2))
            S = S @ Matrix.exact(E)
    return S


_SUPPORT_PROPS = settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])

# Gaussian rationals: real, or with an imaginary part of its own denominator
_GQS = st.tuples(_QS, st.just(Fraction(0)) | _QS)


def _well_conditioned(n, seed):
    """A complex n x n matrix: unitary, singular values in [1, 2], unitary."""
    rng = np.random.default_rng(seed)
    q1, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    q2, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q1 @ np.diag(rng.uniform(1.0, 2.0, n)) @ q2


class TestPrimaryDecompositionProperties:
    @_SUPPORT_PROPS
    @given(st.data())
    def test_exact_support_is_merged_joint_spectrum(self, data):
        points, lengths, members = data.draw(_jordan_plant(_QS))
        S = _shear(data, len(members[0]))
        T = CommutingTuple([Matrix.exact(A) for A in members]).conjugate(S)
        supp = spectrum_support(T)
        # a second algorithm: the diagonal of a deflation triangularization
        _, _, upper = triangularize(T)
        diagonal = sorted(
            (tuple(U[k, k] for U in upper) for k in range(T.n)), key=lambda t: tuple(c.sort_key() for c in t)
        )
        assert supp == _run_length(diagonal)
        assert joint_spectrum(T) == diagonal
        planted = sorted(
            ((tuple(Scalar.exact(c) for c in p), k) for p, k in zip(points, lengths)),
            key=lambda e: tuple(c.sort_key() for c in e[0]),
        )
        assert supp == planted

    @_SUPPORT_PROPS
    @given(st.data())
    def test_exact_eigenspaces_are_stacked_power_kernels(self, data):
        _, _, members = data.draw(_jordan_plant(_QS))
        S = _shear(data, len(members[0]))
        T = CommutingTuple([Matrix.exact(A) for A in members]).conjugate(S)
        for pt, k, E, R in primary_decomposition(T.B):
            assert E == _stacked_power_kernel(T, pt) and E.cols == k
            for Bj, Rj in zip(T.B, R):
                assert Bj @ E == E @ Rj

    @_SUPPORT_PROPS
    @given(st.data())
    def test_exact_pieces_are_invariant_at_planted_points(self, data):
        points, lengths, members = data.draw(_jordan_plant(_GQS))
        S = _shear(data, len(members[0]))
        T = CommutingTuple([Matrix.exact(A) for A in members]).conjugate(S)
        pieces = primary_decomposition(T.B)
        planted = sorted(
            ((tuple(Scalar.exact(*c) for c in p), k) for p, k in zip(points, lengths)),
            key=lambda e: tuple(c.sort_key() for c in e[0]),
        )
        assert [(pt, k) for pt, k, _, _ in pieces] == planted
        for _, k, E, R in pieces:
            assert (E.rows, E.cols) == (T.n, k) and rank(E) == k
            for Bj, Rj in zip(T.B, R):
                assert (Rj.rows, Rj.cols) == (k, k) and Bj @ E == E @ Rj

    @_SUPPORT_PROPS
    @given(st.data(), st.integers(-1200, 1200))
    def test_exact_support_scales_by_powers_of_two(self, data, k):
        _, _, members = data.draw(_jordan_plant(_GQS))
        S = _shear(data, len(members[0]))
        T = CommutingTuple([Matrix.exact(A) for A in members]).conjugate(S)
        c = Scalar.exact(Fraction(2) ** k)
        scaled = CommutingTuple([Bj.scale(c) for Bj in T.B])
        assert spectrum_support(scaled) == [(tuple(c * x for x in p), m) for p, m in spectrum_support(T)]

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def test_float_planted_points_come_back(self, data):
        values = st.integers(-6, 6).map(lambda x: x / 2)
        points, lengths, members = data.draw(_jordan_plant(values))
        g = _well_conditioned(len(members[0]), data.draw(st.integers(0, 2**32 - 1)))
        # each member at its own scale
        cs = [10.0 ** data.draw(st.floats(-6, 6)) for _ in members]
        supp = _float_support([c * np.linalg.inv(g) @ np.array(A, dtype=complex) @ g for c, A in zip(cs, members)])
        assert sorted(k for _, k in supp) == sorted(lengths)
        left = [(tuple(c * x for c, x in zip(cs, p)), k) for p, k in zip(points, lengths)]
        for pt, k in supp:
            hit = next(
                i for i, (q, l) in enumerate(left)
                if l == k and all(abs(a.cx - b) <= 1e-6 * c for a, b, c in zip(pt, q, cs))
            )
            left.pop(hit)

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def test_float_joint_spectrum_moves_with_scale(self, data):
        values = st.integers(-6, 6).map(lambda x: x / 2)
        _, _, members = data.draw(_jordan_plant(values))
        g = _well_conditioned(len(members[0]), data.draw(st.integers(0, 2**32 - 1)))
        mats = [np.linalg.inv(g) @ np.array(A, dtype=complex) @ g for A in members]
        c = 10.0 ** data.draw(st.floats(-8, 8))
        base = joint_spectrum(CommutingTuple([Matrix.flt(A) for A in mats]))
        scaled = joint_spectrum(CommutingTuple([Matrix.flt(c * A) for A in mats]))
        # matched as multisets: coordinates that tie up to rounding may sort
        # differently at another scale
        left = [tuple(c * x.cx for x in q) for q in base]
        for p in scaled:
            left.remove(next(q for q in left if all(abs(a.cx - b) <= 1e-6 * c for a, b in zip(p, q))))
        assert not left


class TestStaircaseWalk:
    @_SUPPORT_PROPS
    @given(st.data())
    def test_stability_witness_and_normal_form_read_one_walk(self, data):
        _, _, members = data.draw(_jordan_plant(_GQS))
        n = len(members[0])
        T = CommutingTuple([Matrix.exact(A) for A in members]).conjugate(_shear(data, n))
        small = st.tuples(st.integers(-1, 1), st.integers(-1, 1))
        v = data.draw(st.lists(small, min_size=n, max_size=n).filter(lambda v: any(map(any, v))))
        M = MarkedTuple(T, Matrix.column([Scalar.exact(a, b) for a, b in v]))
        try:
            F = ideal_normal_form(M)
        except NotStableError:
            assert not is_stable(M)
            return
        assert is_stable(M)
        K = krylov_span(M)
        assert K.cols == n
        for k, e in enumerate(F.staircase):
            img = M.v
            for Bj, a in zip(T.B, e):
                for _ in range(a):
                    img = Bj @ img
            assert K.col(k) == img
        # the columns read off the walk: B_j K = K M_j, and the M_j commute
        assert all(Bj @ K == K @ Mj for Bj, Mj in zip(T.B, F.mult_matrices))
        assert all(A @ B == B @ A for A in F.mult_matrices for B in F.mult_matrices)
