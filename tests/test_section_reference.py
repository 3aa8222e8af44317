"""The section calculus on numerators against the Scalar-based reference.

``dalgebra.Poly`` keeps its coefficients as (re, im) numerators over one
denominator and brackets sections on those numbers.  The Scalar-based
polynomial arithmetic, directional derivative and bracket it replaced are
kept below as references.  On every seeded case the two must agree:
equal coefficients in exact mode and equal float bits in float mode, for
the bracket of two sections and for each of the three cyclic terms of the
Jacobi sum.

The cases are random exact triples of the battery (``checks._triple``),
its three Jacobi algebroids, and float triples with complex alpha
(signed zeros included), each with sections of degree at most 3 whose
coefficients are complex, exact ones with denominators up to 10^30.
"""

import random
from fractions import Fraction

import pytest

from abelmod import checks
from abelmod.dalgebra import Poly, UtaiTriple, bracket_sections
from abelmod.errors import ModeMismatchError
from abelmod.linalg import EXACT, FLOAT, Matrix, Scalar

# ----------------------------------------------------------------------
# references: every coefficient a Scalar, every operation Scalar arithmetic


class RefPoly:
    """Exponent tuple -> Scalar coefficient, zero coefficients dropped."""

    __slots__ = ("d", "mode", "terms")

    def __init__(self, d, mode, terms=None):
        self.d = d
        self.mode = mode
        self.terms = {}
        if terms:
            for e, c in terms.items():
                if not c.is_zero():
                    self.terms[tuple(e)] = c

    def _chk(self, other):
        if self.mode != other.mode or self.d != other.d:
            raise ModeMismatchError("incompatible polynomials")

    def __add__(self, other):
        self._chk(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out[e] + c if e in out else c
        return RefPoly(self.d, self.mode, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return RefPoly(self.d, self.mode, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        self._chk(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                c = c1 * c2
                out[e] = out[e] + c if e in out else c
        return RefPoly(self.d, self.mode, out)

    def scale(self, c):
        return RefPoly(self.d, self.mode, {e: x * c for e, x in self.terms.items()})

    def diff(self, k):
        out = {}
        for e, c in self.terms.items():
            if e[k]:
                e2 = list(e)
                e2[k] -= 1
                out[tuple(e2)] = c * Scalar.of(self.mode, e[k])
        return RefPoly(self.d, self.mode, out)

    def is_zero(self):
        return not self.terms


def _ref_directional(t, u, p):
    out = RefPoly(t.d, p.mode)
    for k in range(t.d):
        a = t.alpha[k, u]
        if not a.is_zero():
            out = out + p.diff(k).scale(a)
    return out


def _ref_bracket_eval(t, f, u, g, w):
    out = {}
    first = f * _ref_directional(t, u, g)
    if not first.is_zero():
        out[w] = first
    second = g * _ref_directional(t, w, f)
    if not second.is_zero():
        out[u] = out[u] - second if u in out else -second
    return {i: p for i, p in out.items() if not p.is_zero()}


def _ref_bracket(t, s1, s2):
    out = {}
    for u, f in s1.items():
        for w, g in s2.items():
            for i, p in _ref_bracket_eval(t, f, u, g, w).items():
                out[i] = out[i] + p if i in out else p
    return {i: p for i, p in out.items() if not p.is_zero()}


def _ref(s):
    """A section of Polys as a section of RefPolys."""
    return {u: RefPoly(p.d, p.mode, dict(p.terms)) for u, p in s.items()}


def _bits(s):
    """A section as index -> exponent -> coefficient, each exact part as
    a Fraction and each float part as its hex string (so -0.0 and 0.0
    differ)."""

    def part(x):
        return x if isinstance(x, Fraction) else float(x).hex()

    return {u: {e: (c.mode, part(c.re), part(c.im)) for e, c in p.terms.items()} for u, p in s.items()}


def _agree(t, s1, s2, s3):
    """The bracket [s1, s2] and the three cyclic Jacobi terms agree with
    the references; returns those terms (as Poly sections)."""
    r1, r2, r3 = _ref(s1), _ref(s2), _ref(s3)
    assert _bits(bracket_sections(t, s1, s2)) == _bits(_ref_bracket(t, r1, r2))
    terms = []
    for (x, y, z), (rx, ry, rz) in zip(((s1, s2, s3), (s2, s3, s1), (s3, s1, s2)), ((r1, r2, r3), (r2, r3, r1), (r3, r1, r2))):
        term = bracket_sections(t, bracket_sections(t, x, y), z)
        assert _bits(term) == _bits(_ref_bracket(t, _ref_bracket(t, rx, ry), rz))
        terms.append(term)
    return terms


# ----------------------------------------------------------------------
# seeded cases


def _exact_coefficient(rng):
    def q():
        if rng.random() < 0.2:
            return Fraction(0)
        big = rng.random() < 0.5
        top = 10**30 if big else 5
        return Fraction(rng.randint(-top, top), rng.randint(1, top))

    return Scalar.exact(q(), q())


def _float_part(rng):
    r = rng.random()
    if r < 0.1:
        return 0.0
    if r < 0.15:
        return -0.0
    return rng.choice((1, -1)) * rng.uniform(0.1, 1.0) * 10 ** rng.uniform(-4, 4)


def _float_coefficient(rng):
    return Scalar.flt(_float_part(rng), _float_part(rng))


def _section(rng, t, coefficient):
    out = {}
    for u in rng.sample(range(t.v), rng.randint(1, min(2, t.v))):
        terms = {}
        for _ in range(rng.randint(1, 3)):
            e = [0] * t.d
            for _ in range(rng.randint(0, 3)):
                e[rng.randrange(t.d)] += 1
            terms[tuple(e)] = coefficient(rng)
        out[u] = Poly(t.d, t.mode, terms)
    return out


def _float_triple(rng):
    d, v = rng.randint(1, 3), rng.randint(1, 3)

    def entry():
        return complex(_float_part(rng), _float_part(rng)) if rng.random() < 0.8 else 0j

    gamma = [[0j] * v for _ in range(v)]
    for i in range(v):
        for j in range(i + 1, v):
            gamma[i][j] = entry()
            gamma[j][i] = -gamma[i][j]
    return UtaiTriple(
        Matrix.flt([[entry() for _ in range(v)] for _ in range(d)]),
        Matrix.flt([[entry() for _ in range(v)] for _ in range(d)]),
        Matrix.flt(gamma),
    )


ALGEBROIDS = checks._jacobi_algebroids()
CHUNKS = 10
PER_CHUNK = 100  # 1000 cases in all


def _case(rng, i):
    """Case i of a chunk: 40 % battery triples, 15 % the Jacobi
    algebroids, 45 % float triples."""
    if i % 20 < 8:
        t = checks._triple(rng)
    elif i % 20 < 11:
        t = ALGEBROIDS[i % 3]
    else:
        t = _float_triple(rng)
    coefficient = _exact_coefficient if t.mode == EXACT else _float_coefficient
    return t, [_section(rng, t, coefficient) for _ in range(3)]


@pytest.mark.parametrize("chunk", range(CHUNKS))
def test_brackets_match_the_scalar_reference(chunk):
    rng = random.Random(2700 + chunk)
    modes = set()
    for i in range(PER_CHUNK):
        t, (s1, s2, s3) = _case(rng, i)
        _agree(t, s1, s2, s3)
        modes.add(t.mode)
    assert modes == {EXACT, FLOAT}


def _battery_inputs(monkeypatch, samples=1, seed=0):
    """The (triple, section triples) pairs run_dalgebra hands jacobi_check."""
    seen = []
    real = checks.jacobi_check

    def capture(t, triples):
        triples = list(triples)
        seen.append((t, triples))
        return real(t, triples)

    monkeypatch.setattr(checks, "jacobi_check", capture)
    assert checks.run_dalgebra(samples, seed)["pass"]
    return seen


def test_battery_sections_match_the_reference_and_are_not_vacuous(monkeypatch):
    """On the battery's own sections every term agrees with the reference,
    and some cyclic term is nonzero while the sum vanishes."""
    inputs = _battery_inputs(monkeypatch)
    assert len(inputs) == len(ALGEBROIDS)
    cancelled = 0
    for t, triples in inputs:
        for s1, s2, s3 in triples:
            terms = _agree(t, s1, s2, s3)
            acc = {}
            for term in terms:
                for i, p in term.items():
                    acc[i] = acc[i] + p if i in acc else p
            assert all(p.is_zero() for p in acc.values())
            cancelled += any(terms)
    assert cancelled
