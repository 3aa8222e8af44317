"""Triple calculus: duality, group action, classification, brackets."""

import math

import pytest

from abelmod.dalgebra import (
    Poly,
    UtaiTriple,
    bracket_sections,
    classify,
    cohomology_dim,
    fm_dual,
    gl_act,
    jacobi_check,
    orbit_invariants,
)
from abelmod.errors import SingularGroupElementError
from abelmod.linalg import EXACT, FLOAT, Matrix, Scalar


def _triple(alpha, beta, gamma):
    return UtaiTriple(Matrix.exact(alpha), Matrix.exact(beta), Matrix.exact(gamma))


def _zeros(r, c):
    return [[0] * c for _ in range(r)]


class TestTripleValidation:
    def test_alternating_enforced(self):
        with pytest.raises(ValueError):
            _triple([[1, 0]], [[0, 0]], [[0, 1], [1, 0]])

    @pytest.mark.parametrize("c", [1e-12, 1.0, 1e12])
    def test_float_alternating_test_is_relative(self, c):
        z = Matrix.flt([[0.0, 0.0], [0.0, 0.0]])
        UtaiTriple(z, z, Matrix.flt([[0.0, c], [-c, 0.0]]))
        with pytest.raises(ValueError):
            UtaiTriple(z, z, Matrix.flt([[c, 0.0], [0.0, c]]))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            _triple([[1, 0]], [[0]], _zeros(2, 2))

    def test_json_roundtrip(self):
        t = _triple([[1, 2]], [[0, "1/2"]], [[0, 3], [-3, 0]])
        assert UtaiTriple.from_json(t.to_json()) == t


class TestDuality:
    def test_dual_swaps_roles(self):
        t = _triple([[1, 0]], [[0, 1]], [[0, 2], [-2, 0]])
        s = fm_dual(t)
        assert s.alpha == -t.beta and s.beta == t.alpha and s.gamma == t.gamma

    def test_dual_squared_is_minus_one(self):
        t = _triple([[1, 3], [0, 2]], [[0, 1], [1, 0]], [[0, "1/2"], ["-1/2", 0]])
        minus = Matrix.identity(2, EXACT).scale(Scalar.exact(-1))
        assert fm_dual(fm_dual(t)) == gl_act(t, minus)

    def test_orbit_invariants_constant(self):
        t = _triple([[1, 0], [1, 1]], [[0, 1], [0, 0]], [[0, 1], [-1, 0]])
        g = Matrix.exact([[2, 1], [1, 1]])
        assert orbit_invariants(gl_act(t, g)) == orbit_invariants(t)

    def test_singular_group_element(self):
        t = _triple([[1, 0]], [[0, 0]], _zeros(2, 2))
        with pytest.raises(SingularGroupElementError):
            gl_act(t, Matrix.exact([[1, 1], [1, 1]]))


class TestClassify:
    def test_de_rham(self):
        t = _triple([[1, 0], [0, 1]], _zeros(2, 2), _zeros(2, 2))
        lab = classify(t)
        assert lab.kind == "de-rham" and lab.tau == Scalar.one(EXACT)

    def test_dolbeault_and_cotangent_reading(self):
        t = _triple(_zeros(2, 2), _zeros(2, 2), _zeros(2, 2))
        assert classify(t).kind == "dolbeault"
        assert classify(t, coefficients="cotangent").kind == "co-higgs"
        assert classify(t).abelian

    def test_tau_connection(self):
        t = _triple([["1/2", 0], [0, "1/2"]], _zeros(2, 2), _zeros(2, 2))
        lab = classify(t)
        assert lab.kind == "tau-connection" and lab.tau == Scalar.exact("1/2")

    def test_foliation(self):
        t = _triple([[1], [0]], [[0], [0]], [[0]])
        assert classify(t).kind == "foliation"

    def test_twisted_differential_operators(self):
        t = _triple([[1, 0], [0, 1]], _zeros(2, 2), [[0, 1], [-1, 0]])
        assert classify(t).kind == "twisted-differential-operators"

    def test_generic(self):
        t = _triple([[1, 2], [0, 1]], [[1, 0], [0, 0]], _zeros(2, 2))
        assert classify(t).kind == "generic"

    @pytest.mark.parametrize("c", [1e-12, 1.0, 1e12])
    def test_float_scalar_test_is_relative(self, c):
        z = Matrix.flt([[0.0, 0.0], [0.0, 0.0]])
        assert classify(UtaiTriple(Matrix.flt([[c, 0.0], [0.0, 2 * c]]), z, z)).kind == "generic"
        lab = classify(UtaiTriple(Matrix.flt([[3 * c, 0.0], [0.0, 3 * c]]), z, z))
        assert lab.kind == "tau-connection" and lab.tau.cx == 3 * c

    def test_float_tolerant_de_rham(self):
        eye = Matrix.flt([[1.0, 0.0], [0.0, 1.0 + 1e-12]])
        z = Matrix.flt([[0.0, 0.0], [0.0, 0.0]])
        assert classify(UtaiTriple(eye, z, z)).kind == "de-rham"

    def test_float_small_alpha_is_not_abelian(self):
        # alpha = 1e-10 Id is the whole triple: it is not zero against it
        z = Matrix.flt([[0.0, 0.0], [0.0, 0.0]])
        lab = classify(UtaiTriple(Matrix.flt([[1e-10, 0.0], [0.0, 1e-10]]), z, z))
        assert lab.kind == "tau-connection" and not lab.abelian

    def test_small_gamma_alone_is_generic_in_both_modes(self):
        z = [[0, 0], [0, 0]]
        small = _triple(z, z, [[0, "1/10000000000"], ["-1/10000000000", 0]])
        fz = Matrix.flt(z)
        flt = UtaiTriple(fz, fz, Matrix.flt([[0.0, 1e-10], [-1e-10, 0.0]]))
        for t in (small, flt):
            lab = classify(t)
            assert lab.kind == "generic" and not lab.abelian


class TestBracket:
    def test_jacobi_connection_like(self):
        t = _triple([[1, 0], [0, 1]], _zeros(2, 2), _zeros(2, 2))
        x0 = Poly.coordinate(2, 0)
        x1 = Poly.coordinate(2, 1)
        trips = [({0: x0}, {1: x1}, {0: x0 * x1})]
        assert jacobi_check(t, trips)

    def test_bracket_antisymmetry(self):
        t = _triple([[1, 0], [0, 1]], _zeros(2, 2), _zeros(2, 2))
        s1 = {0: Poly.coordinate(2, 0) * Poly.coordinate(2, 1)}
        s2 = {1: Poly.coordinate(2, 0)}
        b12 = bracket_sections(t, s1, s2)
        b21 = bracket_sections(t, s2, s1)
        for k, p in b12.items():
            assert (p + b21.get(k, Poly(2, EXACT))).is_zero()

    def test_anchor_free_bracket_vanishes(self):
        # alpha = 0 kills both directional derivatives
        t = _triple(_zeros(2, 2), [[1, 0], [0, 1]], _zeros(2, 2))
        s1 = {0: Poly.coordinate(2, 0)}
        s2 = {1: Poly.coordinate(2, 1)}
        assert all(p.is_zero() for p in bracket_sections(t, s1, s2).values())


class TestCohomology:
    @pytest.mark.parametrize("d,v", [(1, 1), (2, 2), (3, 1), (2, 4)])
    def test_binomial_dims(self, d, v):
        for k in range(d + v + 1):
            assert cohomology_dim(d, v, k) == math.comb(d + v, k)

    def test_out_of_range(self):
        assert cohomology_dim(2, 2, 5) == 0
        with pytest.raises(ValueError):
            cohomology_dim(2, 2, -1)
