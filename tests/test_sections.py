"""Polynomial sections: what the calculus refuses, the laws it keeps, and
the arithmetic it runs on.

``Poly`` refuses an exponent of the wrong arity or with a negative entry
and a coefficient of another mode; the brackets and ``jacobi_check``
refuse a section index outside range(v) and a polynomial whose number of
coordinates or mode is not the triple's.  On random exact triples the
bracket is antisymmetric, satisfies the anchor's Leibniz rule (which pins
alpha where the Jacobi sums alone could miss a wrong anchor) and Jacobi.
On the battery's own sections ``jacobi_check`` runs no Scalar
arithmetic.
"""

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from abelmod import checks
from abelmod.dalgebra import Poly, UtaiTriple, bracket_eval, bracket_sections, jacobi_check
from abelmod.errors import ModeMismatchError
from abelmod.linalg import EXACT, FLOAT, Matrix, Scalar

ONE = Scalar.one(EXACT)
X0 = Poly(2, EXACT, {(1, 0): ONE})
X1 = Poly(2, EXACT, {(0, 1): ONE})
Z22 = Matrix.zeros(2, 2, EXACT)
# alpha = diag(1, 2)
DIAG = UtaiTriple(Matrix.exact([[1, 0], [0, 2]]), Z22, Z22)


# ----------------------------------------------------------------------
# refusals


class TestPolyRefuses:
    @pytest.mark.parametrize("e", [(1, 0, 0), (1,), (-1, 0), (0, -2), (1.5, 0)])
    def test_bad_exponents(self, e):
        with pytest.raises(ValueError):
            Poly(2, EXACT, {e: ONE})

    def test_coefficient_of_another_mode(self):
        with pytest.raises(ModeMismatchError):
            Poly(2, EXACT, {(1, 0): Scalar.flt(1.0)})
        with pytest.raises(ModeMismatchError):
            Poly(2, FLOAT, {(1, 0): ONE})

    def test_diff_outside_the_coordinates(self):
        for k in (-1, 2):
            with pytest.raises(ValueError):
                X0.diff(k)

    def test_terms_are_read_only_scalars(self):
        p = Poly(2, EXACT, {(1, 0): Scalar.exact("1/3", -2), (0, 0): Scalar.zero(EXACT)})
        assert dict(p.terms) == {(1, 0): Scalar.exact("1/3", -2)}
        with pytest.raises(TypeError):
            p.terms[(0, 0)] = ONE


class TestBracketRefuses:
    def test_negative_index(self):
        # read alpha's last column for u = -1 and answered {0: 2 x0, -1: -x1}
        with pytest.raises(ValueError):
            bracket_sections(DIAG, {-1: X0}, {0: X1})
        with pytest.raises(ValueError):
            bracket_eval(DIAG, X0, -1, X1, 0)
        with pytest.raises(ValueError):
            jacobi_check(DIAG, [({-1: X0}, {0: X1}, {1: X0})])

    @pytest.mark.parametrize("u", [2, 5])
    def test_index_past_v(self, u):
        # a bare IndexError before
        with pytest.raises(ValueError):
            bracket_sections(DIAG, {u: X0}, {0: X1})
        with pytest.raises(ValueError):
            bracket_eval(DIAG, X1, 0, X0, u)
        with pytest.raises(ValueError):
            jacobi_check(DIAG, [({0: X0}, {1: X1}, {u: X0})])

    def test_float_section_on_an_exact_triple(self):
        # both derivatives vanish here, so nothing else would notice
        fx0 = Poly(2, FLOAT, {(1, 0): Scalar.one(FLOAT)})
        fc = Poly(2, FLOAT, {(0, 0): Scalar.one(FLOAT)})
        with pytest.raises(ModeMismatchError):
            bracket_sections(DIAG, {0: fx0}, {1: fc})
        with pytest.raises(ModeMismatchError):
            bracket_eval(DIAG, fx0, 0, fc, 1)
        with pytest.raises(ModeMismatchError):
            jacobi_check(DIAG, [({0: fx0}, {1: fc}, {0: fc})])

    def test_polynomial_in_other_coordinates(self):
        x = Poly(3, EXACT, {(1, 0, 0): ONE})
        with pytest.raises(ValueError):
            bracket_sections(DIAG, {0: x}, {1: x})
        with pytest.raises(ValueError):
            jacobi_check(DIAG, [({0: X0}, {1: X1}, {0: x})])


# ----------------------------------------------------------------------
# laws on random exact triples, d, v <= 3, degrees <= 2

_Q = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
_GQ = st.builds(Scalar.exact, _Q, st.just(0) | _Q)


@st.composite
def _triples(draw):
    d, v = draw(st.integers(1, 3)), draw(st.integers(1, 3))

    def grid(r, c):
        return [[draw(_GQ) for _ in range(c)] for _ in range(r)]

    gamma = [[Scalar.zero(EXACT)] * v for _ in range(v)]
    for i in range(v):
        for j in range(i + 1, v):
            gamma[i][j] = draw(_GQ)
            gamma[j][i] = -gamma[i][j]
    return UtaiTriple(Matrix.exact(grid(d, v)), Matrix.exact(grid(d, v)), Matrix.exact(gamma))


def _polys(d):
    exps = st.lists(st.integers(0, 2), min_size=d, max_size=d).map(tuple).filter(lambda e: sum(e) <= 2)
    return st.dictionaries(exps, _GQ, max_size=3).map(lambda terms: Poly(d, EXACT, terms))


def _sections(t):
    return st.dictionaries(st.integers(0, t.v - 1), _polys(t.d), min_size=1, max_size=2)


def _minus(t, s1, s2):
    """s1 - s2 as one section, zero entries dropped."""
    zero = Poly(t.d, EXACT)
    out = {u: s1.get(u, zero) - s2.get(u, zero) for u in {**s1, **s2}}
    return {u: p for u, p in out.items() if not p.is_zero()}


def _plus(t, s1, s2):
    return _minus(t, s1, {u: -p for u, p in s2.items()})


def _times(f, s):
    return {u: f * p for u, p in s.items()}


def _anchor_derivative(t, s, f):
    """sum_u s_u D_u f, with D_u f = sum_k alpha[k, u] d f / d x_k."""
    out = Poly(t.d, EXACT)
    for u, p in s.items():
        for k in range(t.d):
            out = out + p * f.diff(k).scale(t.alpha[k, u])
    return out


_LAWS = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])


class TestLaws:
    @_LAWS
    @given(st.data())
    def test_antisymmetry(self, data):
        t = data.draw(_triples())
        s1, s2 = data.draw(_sections(t)), data.draw(_sections(t))
        assert _plus(t, bracket_sections(t, s1, s2), bracket_sections(t, s2, s1)) == {}

    @_LAWS
    @given(st.data())
    def test_leibniz_rule_of_the_anchor(self, data):
        t = data.draw(_triples())
        s1, s2, f = data.draw(_sections(t)), data.draw(_sections(t)), data.draw(_polys(t.d))
        lhs = bracket_sections(t, s1, _times(f, s2))
        rhs = _plus(t, _times(f, bracket_sections(t, s1, s2)), _times(_anchor_derivative(t, s1, f), s2))
        assert _minus(t, lhs, rhs) == {}

    @_LAWS
    @given(st.data())
    def test_jacobi(self, data):
        t = data.draw(_triples())
        assert jacobi_check(t, [tuple(data.draw(_sections(t)) for _ in range(3))])


# ----------------------------------------------------------------------
# the battery's sections run on numerators


def test_battery_jacobi_runs_no_scalar_arithmetic(monkeypatch):
    """jacobi_check on the sections run_dalgebra draws calls Scalar's
    +, - and * zero times (the Scalar-based calculus made hundreds of
    products per call)."""
    seen = []
    real = checks.jacobi_check
    monkeypatch.setattr(checks, "jacobi_check", lambda t, triples: seen.append((t, list(triples))) or True)
    checks.run_dalgebra(1, 0)
    assert len(seen) == 3
    calls = {name: 0 for name in ("__mul__", "__add__", "__sub__")}
    for name in calls:
        fn = getattr(Scalar, name)

        def counting(*args, _fn=fn, _name=name):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(Scalar, name, counting)
    assert all(real(t, triples) for t, triples in seen)
    assert calls == {"__mul__": 0, "__add__": 0, "__sub__": 0}
