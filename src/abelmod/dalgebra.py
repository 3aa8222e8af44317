"""Homogeneous differential algebras on a complex torus, as linear data.

A translation-invariant differential algebra generated in degree one is
captured by a triple (alpha, beta, gamma): alpha maps the coefficient
space V into the d-dimensional tangent directions (the symbol), beta maps
V into the dual directions (twisting by line-bundle deformations), and
gamma is an alternating form on V recording the central extension.  The
general linear group of V acts by change of coefficient basis, and the
familiar algebras appear as named orbits or orbit families:

* alpha = Id, beta = gamma = 0: differential operators (de Rham);
* alpha = tau * Id: the interpolating tau-connection family, with
  tau = 0 degenerating to the symmetric algebra of vector fields
  (Dolbeault);
* alpha injective but not surjective: operators along a foliation by
  subtori;
* alpha = Id with (beta, gamma) nonzero: twisted differential operators.

The transform exchanging a torus with its dual acts on triples by
(alpha, beta, gamma) -> (-beta, alpha, gamma); applying it twice gives
the action of -Id on V.  An algebra is abelian (a sheaf of commutative
rings) precisely when alpha = 0 and gamma = 0.

Polynomial sections and the degree-one bracket are evaluated exactly so
the bracket identities can be checked symbolically rather than at sample
points.  A :class:`Poly` keeps its coefficients as (re, im) numerators
over one denominator, Gaussian integers in exact mode and the float
parts over 1 in float mode, and the bracket reads alpha the same way, so
section arithmetic builds no ``Fraction`` and takes no mode branch;
Scalars are built only where ``Poly.terms`` is read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from math import gcd, lcm
from operator import add
from types import MappingProxyType

from .errors import ModeMismatchError, SingularGroupElementError
from .linalg import (
    DEFAULT_FRAME,
    EXACT,
    Matrix,
    Scalar,
    ToleranceFrame,
    from_numerators,
    inverse,
    parse_mode,
    rank,
    to_numerators,
)

__all__ = [
    "Poly",
    "UtaiTriple",
    "DAlgebraLabel",
    "fm_dual",
    "gl_act",
    "orbit_invariants",
    "classify",
    "bracket_eval",
    "bracket_sections",
    "jacobi_check",
    "cohomology_dim",
]


class Poly:
    """Polynomial in d coordinates with coefficients of one scalar mode.

    Stored the way ``Matrix`` stores exact data: one denominator ``_D``
    and a dict exponent tuple -> (re, im) numerators, with zero
    coefficients dropped.  Exact numerators are Gaussian integers over
    ``_D > 0`` sharing no factor with it, so equal polynomials have equal
    storage; float numerators are the two parts of each coefficient over
    ``_D = 1``.  Arithmetic runs on these numbers with one body for both
    modes, and the float products and sums are the ones ``Scalar``
    arithmetic makes, in the same order.  ``Poly(d, mode, terms)`` takes
    Scalars, and ``terms`` gives them back.  An exponent must be d
    nonnegative integers (else ValueError) and a coefficient of the given
    mode (else ModeMismatchError).
    """

    __slots__ = ("d", "mode", "_D", "_c")

    def __init__(self, d: int, mode: str, terms: dict | None = None):
        terms = terms or {}
        exps = [tuple(e) for e in terms]
        for e in exps:
            if len(e) != d or any(not isinstance(k, int) or k < 0 for k in e):
                raise ValueError(f"exponent {e} is not {d} nonnegative integers")
        D, pairs = to_numerators(mode, terms.values())
        self.d, self.mode = d, mode
        self._D, self._c = _lowest(D, {e: p for e, p in zip(exps, pairs) if p[0] or p[1]})

    @classmethod
    def _of(cls, d: int, mode: str, D: int, c: dict) -> "Poly":
        """The polynomial with the nonzero numerators c over D."""
        p = object.__new__(cls)
        p.d, p.mode = d, mode
        p._D, p._c = _lowest(D, c)
        return p

    @property
    def terms(self):
        """Read-only exponent -> Scalar coefficient view, built on each read."""
        return MappingProxyType(dict(zip(self._c, from_numerators(self.mode, self._D, self._c.values()))))

    def _chk(self, other: "Poly"):
        if self.mode != other.mode or self.d != other.d:
            raise ModeMismatchError("incompatible polynomials")

    def _plus(self, other: "Poly", sign: int) -> "Poly":
        """self + sign * other."""
        self._chk(other)
        L = lcm(self._D, other._D)
        f1, f2 = L // self._D, sign * (L // other._D)
        out = dict(self._c) if f1 == 1 else {e: (a * f1, b * f1) for e, (a, b) in self._c.items()}
        for e, (a, b) in other._c.items():
            if f2 != 1:
                a, b = a * f2, b * f2
            s = out.get(e)
            if s is None:
                out[e] = (a, b)
            else:
                a, b = s[0] + a, s[1] + b
                if a or b:
                    out[e] = (a, b)
                else:
                    del out[e]
        return Poly._of(self.d, self.mode, L, out)

    def __add__(self, other: "Poly") -> "Poly":
        return self._plus(other, 1)

    def __sub__(self, other: "Poly") -> "Poly":
        return self._plus(other, -1)

    def __neg__(self) -> "Poly":
        return Poly._of(self.d, self.mode, self._D, {e: (-a, -b) for e, (a, b) in self._c.items()})

    def __mul__(self, other: "Poly") -> "Poly":
        self._chk(other)
        out: dict = {}
        for e1, (a, b) in self._c.items():
            for e2, (c, d) in other._c.items():
                e = tuple(map(add, e1, e2))
                r, i = a * c - b * d, a * d + b * c
                s = out.get(e)
                out[e] = (r, i) if s is None else (s[0] + r, s[1] + i)
        out = {e: p for e, p in out.items() if p[0] or p[1]}
        return Poly._of(self.d, self.mode, self._D * other._D, out)

    def scale(self, c: Scalar) -> "Poly":
        Dc, ((cr, ci),) = to_numerators(self.mode, [c])
        out = {}
        for e, (a, b) in self._c.items():
            r, i = a * cr - b * ci, a * ci + b * cr
            if r or i:
                out[e] = (r, i)
        return Poly._of(self.d, self.mode, self._D * Dc, out)

    def diff(self, k: int) -> "Poly":
        """Partial derivative with respect to the k-th coordinate."""
        if not 0 <= k < self.d:
            raise ValueError(f"coordinate {k} outside range({self.d})")
        return Poly._of(self.d, self.mode, self._D, {e: (r, i) for e, r, i in _derivative(self._c, k)})

    def is_zero(self) -> bool:
        return not self._c

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.d == other.d and self.mode == other.mode and self._D == other._D and self._c == other._c

    def __hash__(self):
        return hash((self.d, self.mode, self._D, frozenset(self._c.items())))

    def __repr__(self):
        terms = self.terms
        if not terms:
            return "Poly(0)"
        bits = []
        for e in sorted(terms, key=lambda t: (sum(t), t)):
            mono = "*".join(f"x{k}^{p}" if p > 1 else f"x{k}" for k, p in enumerate(e) if p) or "1"
            bits.append(f"({terms[e].cx})*{mono}")
        return "Poly(" + " + ".join(bits) + ")"


def _derivative(c: dict, k: int):
    """(exponent, re, im) of each nonzero term of d/dx_k of the numerators
    c: a coefficient with exponent n > 0 in x_k times n + 0i, formed as
    Scalar multiplication forms it."""
    for e, (a, b) in c.items():
        n = e[k]
        if n:
            r, i = a * n - b * 0, a * 0 + b * n
            if r or i:
                yield e[:k] + (n - 1,) + e[k + 1 :], r, i


def _lowest(D: int, c: dict) -> tuple[int, dict]:
    """(D, c) divided through by the gcd of D and every numerator (D is
    1 in float mode, so float numerators are never divided)."""
    if D != 1:
        g = gcd(D, *chain.from_iterable(c.values()))
        if g != 1:
            D //= g
            c = {e: (a // g, b // g) for e, (a, b) in c.items()}
    return D, c


class UtaiTriple:
    """The linear data (alpha, beta, gamma) of a degree-one generated
    homogeneous differential algebra: alpha, beta are d x v, gamma is a
    v x v alternating form.  All three share one scalar mode."""

    __slots__ = ("d", "v", "alpha", "beta", "gamma", "mode", "_anchor")

    def __init__(self, alpha: Matrix, beta: Matrix, gamma: Matrix):
        if not (alpha.mode == beta.mode == gamma.mode):
            raise ModeMismatchError("triple components in different modes")
        d, v = alpha.rows, alpha.cols
        if (beta.rows, beta.cols) != (d, v):
            raise ValueError("beta shape differs from alpha")
        if (gamma.rows, gamma.cols) != (v, v):
            raise ValueError("gamma must be v x v")
        if not (gamma + gamma.transpose()).negligible(gamma.norm()):
            raise ValueError("gamma is not alternating")
        self.d, self.v = d, v
        self.alpha, self.beta, self.gamma = alpha, beta, gamma
        self.mode = alpha.mode
        self._anchor = None

    def __eq__(self, other) -> bool:
        if not isinstance(other, UtaiTriple):
            return NotImplemented
        return self.alpha == other.alpha and self.beta == other.beta and self.gamma == other.gamma

    def __hash__(self):
        return hash((self.alpha, self.beta, self.gamma))

    def __repr__(self):
        return f"<UtaiTriple d={self.d} v={self.v} {self.mode}>"

    def to_json(self):
        return {
            "d": self.d,
            "v": self.v,
            "mode": self.mode,
            "alpha": self.alpha.to_json(),
            "beta": self.beta.to_json(),
            "gamma": self.gamma.to_json(),
        }

    @staticmethod
    def from_json(obj, frame: ToleranceFrame | None = None) -> "UtaiTriple":
        """The triple a document holds; float matrices carry frame."""
        mode = parse_mode(obj.get("mode", EXACT))
        return UtaiTriple(*(Matrix.from_json(obj[k], mode, frame) for k in ("alpha", "beta", "gamma")))


@dataclass(frozen=True)
class DAlgebraLabel:
    """Classification outcome: a named kind, the interpolation parameter
    for the tau-connection family, and the abelian flag."""

    kind: str
    tau: Scalar | None
    abelian: bool


def fm_dual(t: UtaiTriple) -> UtaiTriple:
    """Transform to the dual torus: (alpha, beta, gamma) -> (-beta, alpha,
    gamma).  The roles of tangent and dual directions are exchanged;
    applying the transform twice equals the action of -Id on V."""
    return UtaiTriple(-t.beta, t.alpha, t.gamma)


def gl_act(t: UtaiTriple, g: Matrix) -> UtaiTriple:
    """Coefficient-space base change by g in GL(V): alpha and beta compose
    with g^{-1}, gamma pulls back as a bilinear form."""
    if g.mode != t.mode:
        raise ModeMismatchError("group element mode differs from triple")
    if (g.rows, g.cols) != (t.v, t.v):
        raise ValueError("group element must be v x v")
    try:
        gi = inverse(g)
    except ValueError:
        raise SingularGroupElementError("group element is singular") from None
    return UtaiTriple(t.alpha @ gi, t.beta @ gi, gi.transpose() @ t.gamma @ gi)


def orbit_invariants(t: UtaiTriple) -> dict:
    """Ranks preserved by the GL(V) action, together with the dimensions."""
    return {
        "d": t.d,
        "v": t.v,
        "rank_alpha": rank(t.alpha),
        "rank_beta": rank(t.beta),
        "rank_stacked": rank(t.alpha.vstack(t.beta)),
        "rank_gamma": rank(t.gamma),
    }


def _scalar_multiple_of_id(M: Matrix) -> Scalar | None:
    """If M = tau * Id, return tau, else None.  Float mode compares within
    eps_eq of |M|."""
    if M.rows != M.cols:
        return None
    tau = M[0, 0]
    target = Matrix.identity(M.rows, M.mode, M.frame).scale(tau)
    return tau if (M - target).negligible(M.norm()) else None


def classify(t: UtaiTriple, coefficients: str = "tangent") -> DAlgebraLabel:
    """Name the algebra the triple generates.

    ``coefficients`` says how the coefficient space V is interpreted when
    the data alone cannot decide: "tangent" (default) reads the symmetric
    algebra with alpha = 0, v = d as the Dolbeault algebra, "cotangent"
    reads the same triple on the dual side (co-Higgs data).  The abelian
    flag is alpha = 0 and gamma = 0 regardless of the name.  In float
    mode a part is zero when it is negligible against the triple's scale
    max(|alpha|, |beta|, |gamma|).
    """
    if coefficients not in ("tangent", "cotangent"):
        raise ValueError("coefficients must be 'tangent' or 'cotangent'")
    scale = max(t.alpha.norm(), t.beta.norm(), t.gamma.norm())
    abelian = t.alpha.negligible(scale) and t.gamma.negligible(scale)
    bg_zero = t.beta.negligible(scale) and t.gamma.negligible(scale)
    eps = (t.alpha.frame or DEFAULT_FRAME).eps_eq
    one = Scalar.one(t.mode)
    if bg_zero and t.v == t.d:
        tau = _scalar_multiple_of_id(t.alpha)
        if tau is not None:
            if tau.is_zero():
                kind = "dolbeault" if coefficients == "tangent" else "co-higgs"
                return DAlgebraLabel(kind, tau, abelian)
            if (tau - one).negligible(eps):
                return DAlgebraLabel("de-rham", tau, abelian)
            return DAlgebraLabel("tau-connection", tau, abelian)
    if bg_zero and t.v < t.d and rank(t.alpha) == t.v:
        return DAlgebraLabel("foliation", None, abelian)
    if t.v == t.d and not bg_zero:
        s = _scalar_multiple_of_id(t.alpha)
        if s is not None and (s - one).negligible(eps):
            return DAlgebraLabel("twisted-differential-operators", None, abelian)
    return DAlgebraLabel("generic", None, abelian)


# ----------------------------------------------------------------------
# sections and the bracket

Section = dict  # index in V -> Poly


def _anchor(t: UtaiTriple) -> tuple[int, list[list[tuple]]]:
    """(D, columns): alpha as numerators over one denominator D, and for
    each column u the (k, re, im) of its nonzero entries.  Read on the
    first bracket use and kept on the triple."""
    if t._anchor is None:
        D, parts = to_numerators(t.mode, [t.alpha[k, u] for u in range(t.v) for k in range(t.d)])
        cols = [parts[u * t.d : (u + 1) * t.d] for u in range(t.v)]
        t._anchor = (D, [[(k, a, b) for k, (a, b) in enumerate(col) if a or b] for col in cols])
    return t._anchor


def _directional(t: UtaiTriple, u: int, p: Poly) -> Poly:
    """Derivative of p along the constant vector field alpha(e_u): the sum
    over k of (d p / d x_k) alpha[k, u], formed and accumulated as the
    Scalar chain diff(k).scale(alpha[k, u]) does, k outer."""
    D, cols = _anchor(t)
    out: dict = {}
    for k, ar, ai in cols[u]:
        for e, r, i in _derivative(p._c, k):
            r, i = r * ar - i * ai, r * ai + i * ar
            if not (r or i):
                continue
            s = out.get(e)
            if s is None:
                out[e] = (r, i)
            else:
                r, i = s[0] + r, s[1] + i
                if r or i:
                    out[e] = (r, i)
                else:
                    del out[e]
    return Poly._of(p.d, p.mode, p._D * D, out)


def _check_terms(t: UtaiTriple, terms):
    """Refuse, among the (index, polynomial) pairs of sections, an index
    outside range(t.v) (ValueError) and a polynomial in another number of
    coordinates (ValueError) or of another mode (ModeMismatchError)."""
    for u, p in terms:
        if not (isinstance(u, int) and 0 <= u < t.v):
            raise ValueError(f"section index {u!r} outside range({t.v})")
        if not isinstance(p, Poly) or p.d != t.d:
            raise ValueError(f"section coefficient at {u} is not a polynomial in {t.d} coordinates")
        if p.mode != t.mode:
            raise ModeMismatchError(f"{p.mode} section on a {t.mode} triple")


def _bracket_eval(t: UtaiTriple, f: Poly, u: int, g: Poly, w: int) -> Section:
    out: Section = {}
    first = f * _directional(t, u, g)
    if not first.is_zero():
        out[w] = first
    second = g * _directional(t, w, f)
    if not second.is_zero():
        out[u] = out[u] - second if u in out else -second
    return {i: p for i, p in out.items() if not p.is_zero()}


def bracket_eval(t: UtaiTriple, f: Poly, u: int, g: Poly, w: int) -> Section:
    """Bracket of the pure sections f (x) e_u and g (x) e_w.

    The coefficient directions themselves commute; only the symbol acts,
    so [f e_u, g e_w] = f (D_u g) e_w - g (D_w f) e_u with D_u the
    derivative along alpha(e_u)."""
    _check_terms(t, ((u, f), (w, g)))
    return _bracket_eval(t, f, u, g, w)


def bracket_sections(t: UtaiTriple, s1: Section, s2: Section) -> Section:
    """Bilinear extension of bracket_eval to general sections."""
    _check_terms(t, chain(s1.items(), s2.items()))
    out: Section = {}
    for u, f in s1.items():
        for w, g in s2.items():
            for i, p in _bracket_eval(t, f, u, g, w).items():
                out[i] = out[i] + p if i in out else p
    return {i: p for i, p in out.items() if not p.is_zero()}


def jacobi_check(t: UtaiTriple, triples) -> bool:
    """True iff the cyclic Jacobi sum vanishes identically for every given
    (a, b, c) triple of sections.  With constant symbols the bracket of
    brackets telescopes, so this holds for every valid triple; the check
    is symbolic, not sampled at points.  Every section is checked before
    any sum is formed."""
    triples = [tuple(abc) for abc in triples]
    _check_terms(t, chain.from_iterable(s.items() for abc in triples for s in abc))
    for a, b, c in triples:
        acc: Section = {}
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            term = bracket_sections(t, bracket_sections(t, x, y), z)
            for i, p in term.items():
                acc[i] = acc[i] + p if i in acc else p
        if any(not p.is_zero() for p in acc.values()):
            return False
    return True


# ----------------------------------------------------------------------
# cohomology bookkeeping


def cohomology_dim(d: int, v: int, k: int) -> int:
    """dim H^k for the constant-symbol complex on a d-dimensional torus
    with v coefficient directions: sum over p + q = k of C(d, q) C(v, p).
    Equals C(d + v, k)."""
    if d < 0 or v < 0 or k < 0:
        raise ValueError("arguments must be nonnegative")
    return sum(math.comb(d, k - p) * math.comb(v, p) for p in range(0, k + 1))
