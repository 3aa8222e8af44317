"""Commuting-matrix models for finite-length modules and their moduli.

A length-n module over a polynomial (or Laurent) algebra in m variables
is a tuple of m pairwise commuting n x n matrices; a marking is a vector
whose orbit under the generated algebra is everything.  This module
implements the finite-dimensional operations that drive the moduli
pictures downstream:

* one staircase walk (Moller-Buchberger): monomials x^e in graded
  lexicographic order, accepted iff x^e v is independent of the images
  already accepted.  Stability (the walk accepts n: the marking is
  cyclic, no proper invariant subspace contains it, equivalently the
  marked automorphism group is trivial), the Krylov witness (the
  accepted images) and the canonical form of the defining ideal (the
  staircase with the multiplication matrices in the staircase basis,
  identical across the base-change orbit, whose exact columns are the
  coordinates of the border images the walk rejects) all read it;
* triangularization: commuting matrices over C always share a complete
  invariant flag, found deterministically by deflating along the sorted
  joint spectrum, one joint eigenvector (a null vector of the stacked
  B_j - p_j) per step;
* the semisimple (direct sum of joint eigenlines) normal form, reached
  along a one-parameter Rees degeneration attached to an invariant flag
  and nonincreasing integer weights;
* support, joint spectrum and punctual decomposition, all read off one
  primary decomposition (linalg.primary_decomposition): the support
  points with their multiplicities, the joint spectrum as each point
  repeated by its multiplicity, and a stable tuple split along its joint
  generalized eigenspaces into local pieces (base point, commuting
  nilpotents, cyclic marking);
* the finite series exp(N) - Id and log(Id + N) of a nilpotent N, which
  the chart maps in moduli apply to the nilpotent parts of pieces.

Exact mode keeps every decision bit-reproducible; float mode thresholds
every rank decision through the tuple's ToleranceFrame.
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction

from .errors import (
    DuplicatePointError,
    FlagNotInvariantError,
    ModeMismatchError,
    NonSplitCharPolyError,
    NotCommutingError,
    NotStableError,
    WeightsNotDecreasingError,
)
from .linalg import (
    DEFAULT_FRAME,
    EXACT,
    INVARIANCE_SLACK,
    Matrix,
    Scalar,
    Span,
    ToleranceFrame,
    complete_basis,
    inverse,
    null_vector,
    parse_mode,
    primary_decomposition,
    rank,
    solve_matrix,
)

__all__ = [
    "CommutingTuple",
    "MarkedTuple",
    "InvariantFlag",
    "PunctualData",
    "IdealNormalForm",
    "krylov_span",
    "is_stable",
    "triangularize",
    "joint_spectrum",
    "spectrum_support",
    "sequiv_normal_form",
    "rees_family",
    "rees_limit",
    "marked_automorphisms_trivial",
    "ideal_normal_form",
    "from_points",
    "decompose_punctual",
    "expm1_matrix",
    "log1p_matrix",
]


class CommutingTuple:
    """m pairwise commuting n x n matrices over one scalar mode.

    Construction validates commutativity: exactly in exact mode, within
    eps_eq * |B_i| * |B_j| (Frobenius) in float mode, reporting the first
    violating pair.
    """

    __slots__ = ("B", "m", "n", "mode", "frame")

    def __init__(self, B):
        B = list(B)
        if not B:
            raise ValueError("need at least one matrix")
        n = B[0].rows
        mode = B[0].mode
        for M in B:
            if M.rows != n or M.cols != n:
                raise ValueError("all members must be square of equal size")
            if M.mode != mode:
                raise ModeMismatchError("tuple members in different modes")
        for i in range(len(B)):
            for j in range(i + 1, len(B)):
                if not B[i].commutes_with(B[j]):
                    raise NotCommutingError(i, j, (B[i] @ B[j] - B[j] @ B[i]).norm())
        self.B = tuple(B)
        self.m = len(B)
        self.n = n
        self.mode = mode
        self.frame = B[0].frame

    @staticmethod
    def _unchecked(B) -> "CommutingTuple":
        """Wrap without the commutativity check.  Internal: for tuples
        derived from validated ones by operations that preserve
        commutativity (conjugation, invariant restriction, multiplication
        matrices).  Float members are not re-checked: their commutators
        carry only the rounding of the derivation, and the members they
        came from were checked on input."""
        self = object.__new__(CommutingTuple)
        B = tuple(B)
        self.B = B
        self.m = len(B)
        self.n = B[0].rows
        self.mode = B[0].mode
        self.frame = B[0].frame
        return self

    def __iter__(self):
        return iter(self.B)

    def __getitem__(self, j) -> Matrix:
        return self.B[j]

    def __eq__(self, other):
        if not isinstance(other, CommutingTuple):
            return NotImplemented
        return self.B == other.B

    def __repr__(self):
        return f"<CommutingTuple m={self.m} n={self.n} {self.mode}>"

    def conjugate(self, g: Matrix) -> "CommutingTuple":
        """g^{-1} B g for invertible g."""
        gi = inverse(g)
        return CommutingTuple._unchecked([gi @ M @ g for M in self.B])

    def to_float(self, frame: ToleranceFrame | None = None) -> "CommutingTuple":
        return CommutingTuple([M.to_float(frame) for M in self.B])

    def to_json(self):
        return {"m": self.m, "n": self.n, "mode": self.mode, "B": [M.to_json() for M in self.B]}

    @staticmethod
    def from_json(obj, frame: ToleranceFrame | None = None) -> "CommutingTuple":
        """The tuple of a document's members "B"; the sizes "m" and "n",
        when given, must be the members' count and size."""
        mode = parse_mode(obj.get("mode", EXACT))
        T = CommutingTuple([Matrix.from_json(MJ, mode, frame) for MJ in obj["B"]])
        for key, size in (("m", T.m), ("n", T.n)):
            if key in obj and obj[key] != size:
                raise ValueError(f"declared {key} = {obj[key]!r}, but the members give {size}")
        return T


class MarkedTuple:
    """A commuting tuple with a nonzero marking vector."""

    __slots__ = ("tuple", "v")

    def __init__(self, tup: CommutingTuple, v: Matrix):
        if v.cols != 1 or v.rows != tup.n:
            raise ValueError("marking must be an n x 1 column")
        if v.mode != tup.mode:
            raise ModeMismatchError("marking mode differs from tuple")
        if v.is_zero():
            raise ValueError("marking must be nonzero")
        self.tuple = tup
        self.v = v

    @property
    def n(self):
        return self.tuple.n

    @property
    def m(self):
        return self.tuple.m

    @property
    def mode(self):
        return self.tuple.mode

    def __repr__(self):
        return f"<MarkedTuple m={self.m} n={self.n} {self.mode}>"

    def to_json(self):
        out = self.tuple.to_json()
        out["v"] = [self.v[i, 0].to_json() for i in range(self.n)]
        return out

    @staticmethod
    def from_json(obj, frame: ToleranceFrame | None = None) -> "MarkedTuple":
        tup = CommutingTuple.from_json(obj, frame)
        v = Matrix.from_json([[x] for x in obj["v"]], tup.mode, frame)
        return MarkedTuple(tup, v)


class InvariantFlag:
    """A complete flag given by a basis matrix; step i is the span of the
    first i columns.  Invariance for a given tuple is checked where it is
    consumed (rees_family / rees_limit)."""

    __slots__ = ("basis",)

    def __init__(self, basis: Matrix):
        if basis.rows != basis.cols:
            raise ValueError("flag basis must be square")
        if rank(basis) < basis.rows:
            raise ValueError("flag basis is singular")
        self.basis = basis

    @property
    def n(self):
        return self.basis.rows


def _grlex_key(e: tuple[int, ...]):
    # graded, ties by lex with x_1 smallest: compare reversed exponents
    return (sum(e), tuple(reversed(e)))


def _staircase_walk(M: MarkedTuple, border: bool = False):
    """(staircase, span, offered): the accepted exponents e in graded lex
    order, the Span of their images x^e v, and the number of each
    exponent offered to it, in the order offered.  A border monomial is
    accepted iff its image is independent of those already accepted, and
    the walk stops when n are, unless border: then it walks on through
    every monomial x_j x^e with e accepted, whose image the full span
    rejects.  A heap entry carries its accepted parent's number and the
    member extending it, and the span forms its image when it is popped.
    The accepted images span the cyclic subspace."""
    T = M.tuple
    zero = (0,) * T.m
    heap, seen = [(_grlex_key(zero), zero, None, 0)], {zero}
    span = Span(T.B, M.v)
    staircase, offered = [], {}
    while heap:
        _, e, parent, j = heapq.heappop(heap)
        offered[e] = len(offered)
        if not span.add(parent, j):
            continue
        staircase.append(e)
        if len(staircase) == T.n and not border:
            break
        for j in range(T.m):
            child = e[:j] + (e[j] + 1,) + e[j + 1 :]
            if child not in seen:
                seen.add(child)
                heapq.heappush(heap, (_grlex_key(child), child, len(staircase) - 1, j))
    return staircase, span, offered


def krylov_span(M: MarkedTuple) -> Matrix:
    """Smallest subspace containing the marking and invariant under every
    member, as the columns x^e v of the staircase walk, in graded lex
    order (the basis ideal_normal_form rewrites the tuple in)."""
    return _staircase_walk(M)[1].matrix()


def is_stable(M: MarkedTuple) -> bool:
    """Stability = the marking is cyclic: the staircase walk accepts n
    monomials, and no proper invariant subspace contains the marking."""
    return len(_staircase_walk(M)[0]) == M.n


# ----------------------------------------------------------------------
# flags and spectra


def triangularize(T: CommutingTuple):
    """Simultaneous triangularization: returns (g, flag, upper) with
    g^{-1} B_j g upper triangular and the flag spanned by the leading
    columns of g.  The diagonal is the joint spectrum, sorted by the
    exact (Re, Im) of each coordinate in turn; each deflation step takes
    a null vector (linalg.null_vector) of the stacked B_j - p_j of the
    trailing block at the next point p, so the result is deterministic
    and no step solves an eigenproblem.  In exact mode that vector is the
    first of the canonical reduced-echelon joint eigenspace; float mode
    accumulates unitary deflation steps.  Raises NonSplitCharPoly where
    joint_spectrum does."""
    n = T.n
    spectrum = sorted(joint_spectrum(T), key=lambda p: [(c.re, c.im) for c in p])
    g = Matrix.identity(n, T.mode, T.frame)
    current = list(T.B)
    for offset in range(n - 1):
        k = n - offset
        eye = Matrix.identity(k, T.mode, T.frame)
        shifted = [M - eye.scale(c) for M, c in zip(current, spectrum[offset])]
        P = complete_basis(null_vector(shifted[0].vstack(*shifted[1:])))
        Pi = inverse(P)
        current = [(Pi @ M @ P) for M in current]
        # embed P into the ambient space at the current offset
        if offset:
            P = Matrix.block_diag([Matrix.identity(offset, T.mode, T.frame), P])
        g = g @ P
        # recurse on the trailing block
        current = [M.submatrix(1, k, 1, k) for M in current]
    gi = inverse(g)
    upper = [gi @ M @ g for M in T.B]
    return g, InvariantFlag(g), CommutingTuple._unchecked(upper)


def joint_spectrum(T: CommutingTuple) -> list[tuple[Scalar, ...]]:
    """The multiset of joint eigenvalue m-tuples, sorted by coordinatewise
    (Re, Im): each point of spectrum_support repeated by its multiplicity,
    the tuple's point of the symmetric product, along which triangularize
    deflates.  A defective block gives its support point, not the
    scatter of computed eigenvalues.  Raises NonSplitCharPoly when the
    support does not split (in exact mode: when some member's spectrum is
    not Gaussian rational), naming the degree at which the primary
    decomposition stopped."""
    return [p for p, k in spectrum_support(T) for _ in range(k)]


def spectrum_support(T: CommutingTuple) -> list[tuple[tuple[Scalar, ...], int]]:
    """Distinct joint eigenvalue tuples with multiplicities, sorted: the
    points of the primary decomposition.  A defective piece reports one
    point with its full length; see linalg.primary_decomposition for what
    float mode resolves."""
    return [(p, k) for p, k, _, _ in primary_decomposition(T.B)]


def sequiv_normal_form(T: CommutingTuple) -> CommutingTuple:
    """The semisimplification: diagonal matrices carrying the sorted joint
    spectrum.  Two tuples with equal joint spectra get the identical
    normal form."""
    spec = joint_spectrum(T)
    mats = []
    for j in range(T.m):
        mats.append(Matrix.diag([t[j] for t in spec], T.frame))
    return CommutingTuple(mats)


# ----------------------------------------------------------------------
# Rees degenerations


def _adapted(T: CommutingTuple, F: InvariantFlag) -> list[Matrix]:
    """Tuple in the flag basis; FlagNotInvariant unless upper triangular
    (in float mode: unless each strict lower part is within
    INVARIANCE_SLACK eps_eq of its member's norm)."""
    if F.basis.mode != T.mode:
        raise ModeMismatchError("flag mode differs from tuple")
    if F.n != T.n:
        raise ValueError("flag size differs from tuple")
    gi = inverse(F.basis)
    adapted = [gi @ M @ F.basis for M in T.B]
    for A in adapted:
        if not A.strict_lower().negligible(INVARIANCE_SLACK * A.norm()):
            raise FlagNotInvariantError("flag is not invariant for the tuple")
    return adapted

def _check_weights(weights, n: int):
    w = list(weights)
    if len(w) != n:
        raise ValueError("need one weight per flag step")
    if any(int(x) != x for x in w):
        raise ValueError("weights must be integers")
    w = [int(x) for x in w]
    if any(w[i] < w[i + 1] for i in range(n - 1)):
        raise WeightsNotDecreasingError("weights must be nonincreasing along the flag")
    return w


def rees_family(T: CommutingTuple, F: InvariantFlag, weights, t: Scalar) -> CommutingTuple:
    """Member at parameter t != 0 of the degeneration attached to (F,
    weights): in the flag basis, conjugate by diag(t^{w_k}).  Entry (k, l)
    scales by t^{w_k - w_l}; invariance of the flag plus nonincreasing
    weights keeps all exponents of surviving entries nonnegative, so the
    family extends across t = 0 (see rees_limit)."""
    w = _check_weights(weights, T.n)
    if t.mode != T.mode:
        raise ModeMismatchError("parameter mode differs from tuple")
    if t.is_zero():
        raise ValueError("t must be nonzero; the limit is rees_limit")
    adapted = _adapted(T, F)
    powers: dict[int, Scalar] = {0: Scalar.one(T.mode)}

    def tpow(e: int) -> Scalar:
        if e not in powers:
            if e > 0:
                powers[e] = tpow(e - 1) * t
            else:
                powers[e] = tpow(e + 1) / t
        return powers[e]

    D = Matrix.diag([tpow(x) for x in w], T.frame)
    Dinv = Matrix.diag([tpow(-x) for x in w], T.frame)
    return CommutingTuple([D @ A @ Dinv for A in adapted])


def rees_limit(T: CommutingTuple, F: InvariantFlag, weights) -> CommutingTuple:
    """The t -> 0 limit of rees_family: entries with equal weights
    survive, entries with strictly larger row weight are killed (they
    scale by positive powers of t).  Strictly decreasing weights leave
    the diagonal: the semisimplification in the flag basis."""
    w = _check_weights(weights, T.n)
    adapted = _adapted(T, F)
    # nonincreasing weights: equal weights are runs, so the survivors are
    # the diagonal blocks of the runs
    runs = []
    start = 0
    for k in range(1, T.n + 1):
        if k == T.n or w[k] != w[start]:
            runs.append((start, k))
            start = k
    return CommutingTuple(
        [Matrix.block_diag([A.submatrix(a, b, a, b) for a, b in runs]) for A in adapted]
    )


# ----------------------------------------------------------------------
# automorphisms


def _commutant_system(T: CommutingTuple) -> Matrix:
    """The linear system cutting out {g : g B_j = B_j g}, over unknowns
    g_{ab} indexed a * n + b: one block Id (x) B_j^T - B_j (x) Id per
    member."""
    eye = Matrix.identity(T.n, T.mode, T.frame)
    blocks = [eye.kron(Bj.transpose()) - Bj.kron(eye) for Bj in T.B]
    return blocks[0].vstack(*blocks[1:])


def marked_automorphisms_trivial(M: MarkedTuple) -> bool:
    """True iff the only g commuting with the tuple and fixing the marking
    is the identity: writing g = Id + h, iff no nonzero h commutes with
    every member and kills the marking."""
    T = M.tuple
    eye = Matrix.identity(T.n, T.mode, T.frame)
    system = _commutant_system(T).vstack(eye.kron(M.v.transpose()))
    return rank(system) == T.n * T.n


# ----------------------------------------------------------------------
# ideal normal form


class IdealNormalForm:
    """Canonical form of a stable marked tuple: the staircase of standard
    monomials (graded lex, x_1 < ... < x_m) and the multiplication
    matrices in the staircase-image basis.  Identical, bit for bit in
    exact mode, across the base-change orbit of the input."""

    __slots__ = ("staircase", "mult_matrices", "m", "n", "_support")

    def __init__(self, staircase, mult_matrices):
        self.staircase = tuple(tuple(e) for e in staircase)
        self.mult_matrices = tuple(mult_matrices)
        self.m = len(mult_matrices)
        self.n = len(self.staircase)
        self._support = None

    @property
    def support(self):
        """Joint spectrum of the multiplication matrices (computed on
        first use; exact mode may raise NonSplitCharPoly)."""
        if self._support is None:
            self._support = spectrum_support(CommutingTuple._unchecked(self.mult_matrices))
        return self._support

    def __eq__(self, other):
        if not isinstance(other, IdealNormalForm):
            return NotImplemented
        return self.staircase == other.staircase and self.mult_matrices == other.mult_matrices

    def __repr__(self):
        return f"<IdealNormalForm n={self.n} staircase={self.staircase}>"

    def divisor_closed(self) -> bool:
        stairs = set(self.staircase)
        for e in stairs:
            for k in range(len(e)):
                if e[k]:
                    d = list(e)
                    d[k] -= 1
                    if tuple(d) not in stairs:
                        return False
        return True

    def to_json(self):
        out = {
            "staircase": [list(e) for e in self.staircase],
            "mult_matrices": [M.to_json() for M in self.mult_matrices],
        }
        try:
            out["support"] = [
                {"point": [s.to_json() for s in pt], "multiplicity": mult} for pt, mult in self.support
            ]
        except NonSplitCharPolyError:
            out["support"] = None
        return out


def ideal_normal_form(M: MarkedTuple) -> IdealNormalForm:
    """The staircase of the staircase walk (the complement of the
    leading-term ideal in graded lex order, hence closed under division)
    with the multiplication matrices: the tuple rewritten in the basis of
    staircase images.  The walk goes on through the border, and column a
    of M_j comes from the image of x_j x^a: the coordinates its reduction
    left behind when the span rejected it, or a unit column when it lies
    in the staircase (Span.mult_matrices; float mode solves instead).
    NotStable when the walk closes short of n, that is when the marking
    is not cyclic."""
    staircase, span, offered = _staircase_walk(M, border=True)
    if len(staircase) < M.n:
        raise NotStableError("ideal normal form needs a cyclic marking")
    columns = [[offered[a[:j] + (a[j] + 1,) + a[j + 1 :]] for a in staircase] for j in range(M.m)]
    return IdealNormalForm(staircase, span.mult_matrices(columns))


# ----------------------------------------------------------------------
# points and punctual pieces


def from_points(points, mode: str = EXACT, frame: ToleranceFrame | None = None) -> MarkedTuple:
    """The semisimple marked tuple of n distinct points of C^m: diagonal
    members, marking all ones.  DuplicatePoint when two points collide
    (exact equality; in float mode, every coordinate within eps_eq times
    the largest coordinate modulus of all the points)."""
    pts = [tuple(Scalar.of(mode, c) for c in p) for p in points]
    if not pts:
        raise ValueError("need at least one point")
    m = len(pts[0])
    eps = (frame or DEFAULT_FRAME).eps_eq * max(abs(c) for p in pts for c in p)
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if all((a - b).negligible(eps) for a, b in zip(pts[i], pts[j])):
                raise DuplicatePointError(f"points {i} and {j} coincide")
    mats = [Matrix.diag([p[j] for p in pts], frame) for j in range(m)]
    ones = Matrix.column([Scalar.one(mode) for _ in pts], frame)
    return MarkedTuple(CommutingTuple(mats), ones)


class PunctualData:
    """A local piece: base point in C^m, commuting nilpotent parts, and an
    optional marking on the piece.  The operator convention is additive:
    member j acts as point_j * Id + N_j."""

    __slots__ = ("point", "N", "marking")

    def __init__(self, point, N: CommutingTuple, marking: Matrix | None = None):
        pt = tuple(Scalar.of(N.mode, c) for c in point)
        if len(pt) != N.m:
            raise ValueError("point dimension differs from tuple arity")
        if not all(Nj.is_nilpotent() for Nj in N.B):
            raise ValueError("parts are not nilpotent")
        if marking is not None and (marking.cols != 1 or marking.rows != N.n):
            raise ValueError("marking must be an ell x 1 column")
        self.point = pt
        self.N = N
        self.marking = marking

    @property
    def length(self):
        return self.N.n

    def __repr__(self):
        return f"<PunctualData length={self.length} at {[c.cx for c in self.point]}>"


def decompose_punctual(M: MarkedTuple) -> list[PunctualData]:
    """Split a stable tuple along joint generalized eigenspaces: one local
    piece per support point, carrying the restricted nilpotent parts and
    the component of the marking.  Pieces are sorted by base point."""
    if not is_stable(M):
        raise NotStableError("punctual decomposition needs a cyclic marking")
    T = M.tuple
    parts = primary_decomposition(T.B)
    coeffs = solve_matrix(parts[0][2].hstack(*(E for _, _, E, _ in parts[1:])), M.v)
    pieces = []
    offset = 0
    for pt, ell, _, R in parts:
        eye = Matrix.identity(ell, T.mode, T.frame)
        N = CommutingTuple._unchecked([Rj - eye.scale(p) for Rj, p in zip(R, pt)])
        pieces.append(PunctualData(pt, N, coeffs.submatrix(offset, offset + ell, 0, 1)))
        offset += ell
    return pieces


# ----------------------------------------------------------------------
# nilpotent series


def _nilpotent_series(N: Matrix, coeff) -> Matrix:
    """sum coeff(k) N^k over k = 1 .. ell - 1 for nilpotent ell x ell N,
    with rational coeff(k), so exact input gives exact output."""
    ell = N.rows
    out = Matrix.zeros(ell, ell, N.mode, N.frame)
    term = Matrix.identity(ell, N.mode, N.frame)
    for k in range(1, ell):
        term = term @ N
        out = out + term.scale(Scalar.of(N.mode, coeff(k)))
    return out


def expm1_matrix(N: Matrix) -> Matrix:
    """exp(N) - Id for nilpotent N, by the finite series sum N^k / k!."""
    return _nilpotent_series(N, lambda k: Fraction(1, math.factorial(k)))


def log1p_matrix(N: Matrix) -> Matrix:
    """log(Id + N) for nilpotent N: sum (-1)^{k+1} N^k / k, the exact
    inverse of expm1_matrix on nilpotents."""
    return _nilpotent_series(N, lambda k: Fraction(1 if k % 2 else -1, k))
