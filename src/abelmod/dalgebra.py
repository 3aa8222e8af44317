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
points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ModeMismatchError, SingularGroupElementError
from .linalg import DEFAULT_FRAME, EXACT, Matrix, Scalar, ToleranceFrame, inverse, parse_mode, rank

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
    """Polynomial in d coordinates: exponent tuple -> Scalar coefficient.

    Used for formal section arithmetic; zero coefficients are dropped on
    construction so equality is structural.
    """

    __slots__ = ("d", "mode", "terms")

    def __init__(self, d: int, mode: str, terms: dict | None = None):
        self.d = d
        self.mode = mode
        self.terms = {}
        if terms:
            for e, c in terms.items():
                if not c.is_zero():
                    self.terms[tuple(e)] = c

    def _chk(self, other: "Poly"):
        if self.mode != other.mode or self.d != other.d:
            raise ModeMismatchError("incompatible polynomials")

    def __add__(self, other: "Poly") -> "Poly":
        self._chk(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out[e] + c if e in out else c
        return Poly(self.d, self.mode, out)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __neg__(self) -> "Poly":
        return Poly(self.d, self.mode, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other: "Poly") -> "Poly":
        self._chk(other)
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                c = c1 * c2
                out[e] = out[e] + c if e in out else c
        return Poly(self.d, self.mode, out)

    def scale(self, c: Scalar) -> "Poly":
        return Poly(self.d, self.mode, {e: x * c for e, x in self.terms.items()})

    def diff(self, k: int) -> "Poly":
        """Partial derivative with respect to the k-th coordinate."""
        out = {}
        for e, c in self.terms.items():
            if e[k]:
                e2 = list(e)
                e2[k] -= 1
                out[tuple(e2)] = c * Scalar.of(self.mode, e[k])
        return Poly(self.d, self.mode, out)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.d == other.d and self.mode == other.mode and self.terms == other.terms

    def __hash__(self):
        return hash((self.d, self.mode, frozenset(self.terms.items())))

    def __repr__(self):
        if not self.terms:
            return "Poly(0)"
        bits = []
        for e in sorted(self.terms, key=lambda t: (sum(t), t)):
            mono = "*".join(f"x{k}^{p}" if p > 1 else f"x{k}" for k, p in enumerate(e) if p) or "1"
            bits.append(f"({self.terms[e].cx})*{mono}")
        return "Poly(" + " + ".join(bits) + ")"


class UtaiTriple:
    """The linear data (alpha, beta, gamma) of a degree-one generated
    homogeneous differential algebra: alpha, beta are d x v, gamma is a
    v x v alternating form.  All three share one scalar mode."""

    __slots__ = ("d", "v", "alpha", "beta", "gamma", "mode")

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


def _directional(t: UtaiTriple, u: int, p: Poly) -> Poly:
    """Derivative of p along the constant vector field alpha(e_u)."""
    out = Poly(t.d, p.mode)
    for k in range(t.d):
        a = t.alpha[k, u]
        if not a.is_zero():
            out = out + p.diff(k).scale(a)
    return out


def bracket_eval(t: UtaiTriple, f: Poly, u: int, g: Poly, w: int) -> Section:
    """Bracket of the pure sections f (x) e_u and g (x) e_w.

    The coefficient directions themselves commute; only the symbol acts,
    so [f e_u, g e_w] = f (D_u g) e_w - g (D_w f) e_u with D_u the
    derivative along alpha(e_u)."""
    out: Section = {}
    first = f * _directional(t, u, g)
    if not first.is_zero():
        out[w] = first
    second = g * _directional(t, w, f)
    if not second.is_zero():
        out[u] = out[u] - second if u in out else -second
    return {i: p for i, p in out.items() if not p.is_zero()}


def bracket_sections(t: UtaiTriple, s1: Section, s2: Section) -> Section:
    """Bilinear extension of bracket_eval to general sections."""
    out: Section = {}
    for u, f in s1.items():
        for w, g in s2.items():
            for i, p in bracket_eval(t, f, u, g, w).items():
                out[i] = out[i] + p if i in out else p
    return {i: p for i, p in out.items() if not p.is_zero()}


def jacobi_check(t: UtaiTriple, triples) -> bool:
    """True iff the cyclic Jacobi sum vanishes identically for every given
    (a, b, c) triple of sections.  With constant symbols the bracket of
    brackets telescopes, so this holds for every valid triple; the check
    is symbolic, not sampled at points."""
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
