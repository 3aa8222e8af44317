"""Moduli of modules as configuration spaces over rank-1 fiber spaces.

The length-n moduli in every incarnation (holonomy characters, flat
connections, tau-connections, co-Higgs data) is a symmetric product of
the corresponding rank-1 space, and the marked moduli is its Hilbert
scheme of points.  This module represents those points concretely:

* a SymPoint is a weighted support: fiber points with multiplicities;
* a HilbPoint is a list of punctual pieces, each a base point in the
  fiber space's chart plus commuting nilpotents and a cyclic marking;
* hilbert_chow forgets the punctual structure, keeping the weights;
* betti_marked / betti_unmarked read the two off a matrix tuple, and
  betti_assemble inverts the marked direction up to base change;
* rh_to_derham / rh_to_betti move Hilbert points between holonomy and
  exponent charts: log / exp on base points, the finite log / exp series
  on nilpotents;
* hodge_deform / hodge_rescale / hodge_undeform run the tau-scaling
  family connecting exponent data with cotangent data;
* rank1_identify reads a chart point as a rank-1 module.  Rank 1 is
  length 1: every chart map above moves a rank-1 module as a length-1
  piece, so no second copy of the charts exists for rank 1.

Chart points are one point when points_equal, closed transitively, joins
them (_groups): SymPoint and HilbPoint refuse such a group, and
assemble_pieces merges it into one piece at the mean point, and
regroups the merged points until no two are one.  The
exact/float decisions are linalg's; only _one_mode here asks for a mode.

Chart conventions.  Betti pieces store the unit part of the local
holonomy: the operator of coordinate k is z_k (Id + N_k).  All other
charts are additive: the operator is a_k Id + N_k.  Hodge and cotangent
charts use split coordinates (fiber u_1..u_d, then base w_1..w_d), so
the tau-scaling is a diagonal map and composes exactly on exact data;
natural-chart points are canonical branch representatives, and
hodge-chart points are plain cover coordinates (the lattice is only
quotiented out on the natural and dual-torus sides).
"""

from __future__ import annotations

import numpy as np

from .adhm import (
    CommutingTuple,
    MarkedTuple,
    PunctualData,
    decompose_punctual,
    expm1_matrix,
    is_stable,
    log1p_matrix,
    spectrum_support,
)
from .errors import (
    LogAtZeroError,
    PieceCollisionError,
    TauZeroError,
    ZeroEigenvalueError,
)
from .linalg import DEFAULT_FRAME, EXACT, FLOAT, Matrix, Scalar, ToleranceFrame, parse_mode
from .torus import (
    AbelianVarietyModel,
    DualPoint,
    fold_imag,
    square_model,
)

__all__ = [
    "FiberSpace",
    "SymPoint",
    "HilbPoint",
    "assemble_pieces",
    "hilbert_chow",
    "betti_marked",
    "betti_unmarked",
    "betti_assemble",
    "rh_to_derham",
    "rh_to_betti",
    "hodge_deform",
    "hodge_undeform",
    "hodge_rescale",
    "rank1_identify",
    "diagram_check",
]

BETTI = "betti"
DUAL_TORUS = "dual-torus"
COTANGENT = "cotangent"
NATURAL = "natural"
HODGE = "hodge"
PRODUCT_ALPHA_ZERO = "product-alpha-zero"

_KINDS = (BETTI, DUAL_TORUS, COTANGENT, NATURAL, HODGE, PRODUCT_ALPHA_ZERO)


def _coord_from_json(obj) -> Scalar:
    # exact scalars serialize re/im as strings, float ones as numbers
    mode = EXACT if isinstance(obj["re"], str) else FLOAT
    return Scalar.from_json(obj, mode)


def _log_scalar(p: Scalar) -> Scalar:
    if p.is_zero():
        raise LogAtZeroError("log of zero base point")
    return p.log()


def _scaled(x, c: Scalar):
    """c * x for a Scalar or Matrix x, dropping to float unless both
    factors are exact."""
    if x.mode != c.mode:
        x, c = x.to_float(), c.to_float()
    return x.scale(c) if isinstance(x, Matrix) else x * c


class FiberSpace:
    """One of the rank-1 moduli the length-n spaces are built from.

    kind        chart (arity = chart_dim)
    betti       z in (C*)^{2d}, multiplicative pieces; model-free
    natural     exponents a in C^{2d}, canonical branch Im in (-pi, pi]
    hodge       split coordinates (u, w) in C^d x C^d at parameter tau
    cotangent   split coordinates (u, w), the tau = 0 degeneration
    dual-torus  cover coordinates w in C^d
    product-alpha-zero  (xi in C^vdim, w in C^d), the alpha = 0 family
    """

    __slots__ = ("kind", "d", "model", "tau", "vdim", "frame")

    def __init__(self, kind, d=None, model=None, tau=None, vdim=None, frame=None):
        if kind not in _KINDS:
            raise ValueError(f"unknown fiber-space kind {kind!r}")
        if kind == BETTI:
            if d is None:
                raise ValueError("betti spaces need a dimension")
            model = None
        else:
            if model is None:
                raise ValueError(f"{kind} spaces need a torus model")
            d = model.d
        if kind == HODGE:
            if tau is None:
                raise ValueError("hodge spaces need a tau")
            tau = Scalar.of(FLOAT, tau)
        else:
            tau = None
        if kind == PRODUCT_ALPHA_ZERO:
            if vdim is None or vdim < 1:
                raise ValueError("product spaces need a positive vdim")
        else:
            vdim = None
        self.kind = kind
        self.d = d
        self.model = model
        self.tau = tau
        self.vdim = vdim
        self.frame = model.frame if model is not None else (frame or DEFAULT_FRAME)

    # convenience constructors

    @staticmethod
    def betti(d: int, frame: ToleranceFrame | None = None) -> "FiberSpace":
        return FiberSpace(BETTI, d=d, frame=frame)

    @staticmethod
    def natural(model: AbelianVarietyModel) -> "FiberSpace":
        return FiberSpace(NATURAL, model=model)

    @staticmethod
    def hodge(model: AbelianVarietyModel, tau) -> "FiberSpace":
        return FiberSpace(HODGE, model=model, tau=tau)

    @property
    def chart_dim(self) -> int:
        if self.kind == DUAL_TORUS:
            return self.d
        if self.kind == PRODUCT_ALPHA_ZERO:
            return self.vdim + self.d
        return 2 * self.d

    def __eq__(self, other):
        if not isinstance(other, FiberSpace):
            return NotImplemented
        # equal kinds carry a model, and a tau, on both sides or on neither
        if (self.kind, self.d, self.vdim, self.model) != (other.kind, other.d, other.vdim, other.model):
            return False
        # tau compares relatively, as betti chart coordinates do
        a, b = self.tau, other.tau
        return a is None or a.equal_within(b, self.frame.eps_eq * max(abs(a), abs(b)))

    def __repr__(self):
        extra = f" tau={self.tau.cx}" if self.tau is not None else ""
        return f"<FiberSpace {self.kind} d={self.d}{extra}>"

    def canonical_coord(self, c: Scalar) -> Scalar:
        """Canonical chart representative of one coordinate."""
        if self.kind != NATURAL:
            return c
        z = c.cx
        if -np.pi < z.imag <= np.pi:
            return c
        return Scalar.from_complex(fold_imag(z))

    def canonical_point(self, coords) -> tuple[Scalar, ...]:
        return tuple(self.canonical_coord(c) for c in coords)

    def points_equal(self, p, q, tol: float | None = None) -> bool:
        """Chart equality, decided for each coordinate pair on its own
        (Scalar.equal_within): an exact pair only when the two values are
        identical, any other pair when |difference| <= tol (eps_eq by
        default) as complex numbers; on the multiplicative betti chart,
        when it is <= tol max(|a|, |b|).  On the natural chart, whose
        coordinates are branch representatives, the imaginary part of a
        difference is first taken modulo 2 pi."""
        if len(p) != len(q):
            return False
        tol = tol if tol is not None else self.frame.eps_eq
        if self.kind == BETTI:
            return all(a.equal_within(b, tol * max(abs(a), abs(b))) for a, b in zip(p, q))
        fold = fold_imag if self.kind == NATURAL else None
        return all(a.equal_within(b, tol, fold) for a, b in zip(p, q))

    def to_json(self):
        out = {"kind": self.kind, "d": self.d}
        if self.model is not None:
            out["model"] = self.model.to_json()
        if self.tau is not None:
            out["tau"] = self.tau.to_json()
        if self.vdim is not None:
            out["vdim"] = self.vdim
        if self.model is None and self.frame != DEFAULT_FRAME:
            # a model carries the frame; a chart without one writes it here
            out["tolerances"] = self.frame.to_json()
        return out

    @staticmethod
    def from_json(obj) -> "FiberSpace":
        model = AbelianVarietyModel.from_json(obj["model"]) if "model" in obj else None
        tau = _coord_from_json(obj["tau"]) if "tau" in obj else None
        frame = ToleranceFrame.from_json(obj["tolerances"]) if "tolerances" in obj else None
        return FiberSpace(
            obj["kind"], d=obj.get("d"), model=model, tau=tau, vdim=obj.get("vdim"), frame=frame
        )


def _point_json(coords) -> dict:
    return {"coords": [c.to_json() for c in coords]}


def _point_from_json(obj) -> tuple[Scalar, ...]:
    return tuple(_coord_from_json(c) for c in obj["coords"])


def _point_key(coords):
    return tuple(c.sort_key() for c in coords)


def _groups(space: FiberSpace, points) -> list[list[int]]:
    """The indices of points, one group per chart point: points_equal
    closed transitively, the rule linalg's _eigen_groups applies to
    computed eigenvalues.  Each group, and the list of groups, is in input
    order."""
    label = list(range(len(points)))
    for i, p in enumerate(points):
        for j in range(i):
            if label[j] != label[i] and space.points_equal(points[j], p):
                old, new = label[i], label[j]
                label = [new if x == old else x for x in label]
    groups: dict[int, list[int]] = {}
    for i, x in enumerate(label):
        groups.setdefault(x, []).append(i)
    return list(groups.values())


def _distinct(space: FiberSpace, items, point, what: str) -> list:
    """items in canonical order of their chart points point(x), after
    checking each point's arity and that no two points are one."""
    points = [point(x) for x in items]
    if any(len(p) != space.chart_dim for p in points):
        raise ValueError(f"{what} arity differs from the chart")
    if len(_groups(space, points)) < len(points):
        raise ValueError(f"{what}s must be pairwise distinct")
    return sorted(items, key=lambda x: _point_key(point(x)))


def _matched(xs, ys, same) -> bool:
    """Greedy one-to-one match: each x takes the first unused y with
    same(x, y); False when the lengths differ or some x finds none."""
    if len(xs) != len(ys):
        return False
    used = [False] * len(ys)
    for x in xs:
        i = next((i for i, y in enumerate(ys) if not used[i] and same(x, y)), None)
        if i is None:
            return False
        used[i] = True
    return True


class SymPoint:
    """A point of the length-n unmarked moduli: the weighted support.

    support is a list of (chart point, multiplicity) with pairwise
    distinct points, canonically ordered.
    """

    __slots__ = ("space", "support")

    def __init__(self, space: FiberSpace, support):
        items = [(tuple(p), int(k)) for p, k in support]
        if any(k < 1 for _, k in items):
            raise ValueError("multiplicities must be >= 1")
        self.space = space
        self.support = _distinct(space, items, lambda t: t[0], "support point")

    @property
    def total(self) -> int:
        return sum(k for _, k in self.support)

    def __repr__(self):
        pts = [([c.cx for c in p], k) for p, k in self.support]
        return f"<SymPoint {self.space.kind} {pts}>"

    def close_to(self, other: "SymPoint", tol: float | None = None) -> bool:
        """Multiset match of supports within tol (weights equal) on equal
        spaces: the same chart, model and tau."""
        def same(a, b):
            return a[1] == b[1] and self.space.points_equal(a[0], b[0], tol)

        return self.space == other.space and _matched(self.support, other.support, same)

    def to_json(self):
        return {
            "space": self.space.to_json(),
            "support": [
                {"point": _point_json(p), "multiplicity": k} for p, k in self.support
            ],
        }

    @staticmethod
    def from_json(obj) -> "SymPoint":
        space = FiberSpace.from_json(obj["space"])
        support = [
            (_point_from_json(s["point"]), s["multiplicity"]) for s in obj["support"]
        ]
        return SymPoint(space, support)


class HilbPoint:
    """A point of the length-n marked moduli: punctual pieces over
    pairwise distinct chart points.

    Each piece is a PunctualData whose point holds the chart coordinates
    and whose marking is cyclic.  Pieces are kept canonically ordered.

    Checked at input, trusted when derived: the constructor tests that
    each marking is cyclic; _unchecked wraps the pieces the chart maps
    derive, which keep the algebra the parts generate.
    """

    __slots__ = ("space", "pieces")

    def __init__(self, space: FiberSpace, pieces):
        self.space = space
        self.pieces = _distinct(space, list(pieces), lambda P: P.point, "piece base point")
        for P in self.pieces:
            _require_cyclic(P)

    @staticmethod
    def _unchecked(space: FiberSpace, pieces) -> "HilbPoint":
        """The constructor without the cyclicity test (see _mapped)."""
        self = object.__new__(HilbPoint)
        self.space = space
        self.pieces = _distinct(space, list(pieces), lambda P: P.point, "piece base point")
        return self

    @property
    def total(self) -> int:
        return sum(P.length for P in self.pieces)

    def __repr__(self):
        return f"<HilbPoint {self.space.kind} n={self.total} pieces={len(self.pieces)}>"

    def close_to(self, other: "HilbPoint", tol: float | None = None) -> bool:
        """Piecewise match on equal spaces (the same chart, model and tau):
        base points within tol, nilpotents and markings entrywise within
        tol."""
        tol_ = tol if tol is not None else self.space.frame.eps_eq

        def same(P, Q):
            return (
                P.length == Q.length
                and self.space.points_equal(P.point, Q.point, tol)
                and all(A.close_to(B, tol_) for A, B in zip(P.N.B, Q.N.B))
                and P.marking.close_to(Q.marking, tol_)
            )

        return self.space == other.space and _matched(self.pieces, other.pieces, same)

    def to_json(self):
        out = {"space": self.space.to_json(), "pieces": []}
        for P in self.pieces:
            out["pieces"].append(
                {
                    "point": _point_json(P.point),
                    "punctual": {
                        "mode": P.N.mode,
                        "N": [M.to_json() for M in P.N.B],
                        "v": [P.marking[i, 0].to_json() for i in range(P.length)],
                    },
                }
            )
        return out

    @staticmethod
    def from_json(obj) -> "HilbPoint":
        space = FiberSpace.from_json(obj["space"])
        frame = space.frame
        pieces = []
        for pj in obj["pieces"]:
            point = _point_from_json(pj["point"])
            pd = pj["punctual"]
            mode = parse_mode(pd.get("mode", EXACT))
            N = CommutingTuple([Matrix.from_json(MJ, mode, frame) for MJ in pd["N"]])
            v = Matrix.from_json([[x] for x in pd["v"]], mode, frame)
            pieces.append(PunctualData(point, N, v))
        return HilbPoint(space, pieces)


# ----------------------------------------------------------------------
# assembly with collision handling


def _require_cyclic(P: PunctualData):
    if P.marking is None:
        raise ValueError("pieces must carry a marking")
    if not is_stable(MarkedTuple(P.N, P.marking)):
        raise ValueError("piece marking is not cyclic")


def _one_mode(pieces, frame) -> list[PunctualData]:
    """The pieces in one mode: as they are when every point, nilpotent
    part and marking is exact, otherwise all as float data in frame."""
    if all(P.N.mode == P.marking.mode == EXACT and all(c.mode == EXACT for c in P.point) for P in pieces):
        return list(pieces)
    return [
        PunctualData._unchecked(
            tuple(c.to_float() for c in P.point),
            CommutingTuple._unchecked([Nk.to_float(frame) for Nk in P.N.B]),
            P.marking.to_float(frame),
        )
        for P in pieces
    ]


def _direct_sum(space: FiberSpace, group: list[PunctualData]) -> PunctualData:
    """Merge the pieces of one group into one piece: the base point p is
    the mean of their points weighted by their lengths (two merges land
    where one would), the nilpotent parts are block-diagonal with block i
    absorbing its offset p_i - p, and the marking is stacked.  If
    the stacked marking is not cyclic, a deterministic family of candidate
    markings is tried; PieceCollision if none is cyclic.  The data is in
    one mode (_one_mode); an exact group holds identical points, so its
    offsets are exact zeros."""
    if len(group) == 1:
        return group[0]
    m = group[0].N.m
    total = sum(P.length for P in group)
    frame = space.frame
    group = _one_mode(group, frame)
    mode = group[0].N.mode
    point = tuple(
        sum((P.point[j] * Scalar.of(mode, P.length) for P in group), Scalar.zero(mode)) / Scalar.of(mode, total)
        for j in range(m)
    )
    parts = [
        [P.N[j] + Matrix.identity(P.length, P.N.mode, frame).scale(P.point[j] - point[j]) for P in group]
        for j in range(m)
    ]
    # block-diagonal parts commute; PunctualData tests them, since their
    # offsets are zero only within tolerance
    N = CommutingTuple._unchecked([Matrix.block_diag(blocks) for blocks in parts])
    candidates = [group[0].marking.vstack(*(P.marking for P in group[1:]))]
    for t in range(1, 2 * total + 1):
        candidates.append(Matrix.column([Scalar.of(N.mode, t**k) for k in range(total)], frame))
    for v in candidates:
        if is_stable(MarkedTuple(N, v)):
            return PunctualData(point, N, v)
    raise PieceCollisionError("merged pieces admit no cyclic marking")


def assemble_pieces(space: FiberSpace, pieces) -> HilbPoint:
    """Canonicalize a list of pieces into a HilbPoint: chart points are
    canonicalized and the pieces put in canonical order of their points;
    pieces at one chart point (_groups) are merged into one piece whose
    length is the sum of theirs (_direct_sum).  The groups are the
    connected components of points_equal, and each is merged in canonical
    order, so the result does not depend on the order of the input
    (pieces at identical points aside).  A merged point can land within
    tolerance of another point, so the merged pieces are regrouped and
    merged again until no two points are one; each pass lowers the count
    of pieces.  ValueError unless every input piece carries a cyclic
    marking; a merged piece's marking is cyclic by _direct_sum's search."""
    pieces = list(pieces)
    for P in pieces:
        _require_cyclic(P)
    return _assembled(space, pieces)


def _assembled(space: FiberSpace, pieces) -> HilbPoint:
    """assemble_pieces on derived pieces, whose markings are not tested."""
    staged = [PunctualData._unchecked(space.canonical_point(P.point), P.N, P.marking) for P in pieces]
    while True:
        staged.sort(key=lambda P: _point_key(P.point))
        groups = _groups(space, [P.point for P in staged])
        if len(groups) == len(staged):
            return HilbPoint._unchecked(space, staged)
        staged = [_direct_sum(space, [staged[i] for i in g]) for g in groups]


def hilbert_chow(h: HilbPoint) -> SymPoint:
    """Forget the punctual structure, keeping the weighted support."""
    return SymPoint(h.space, [(P.point, P.length) for P in h.pieces])


# ----------------------------------------------------------------------
# Betti models of matrix data


def _spectrum_invertible(support, T: CommutingTuple):
    """ZeroEigenvalue where coordinate j of a point is negligible against B_j."""
    sizes = [(T.frame or DEFAULT_FRAME).eps_eq * Bj.norm() for Bj in T.B]
    for pt, _ in support:
        for c, size in zip(pt, sizes):
            if c.negligible(size):
                raise ZeroEigenvalueError(
                    "joint eigenvalue has a zero coordinate; holonomy is singular"
                )


def betti_marked(M: MarkedTuple) -> HilbPoint:
    """Read a stable tuple of 2d invertible commuting matrices as a point
    of the marked length-n moduli over (C*)^{2d}.  Pieces carry the unit
    parts: at base z the operator of coordinate k is z_k (Id + N_k)."""
    if M.m % 2 != 0:
        raise ValueError("need an even number of members (one per lattice generator)")
    d = M.m // 2
    pieces = decompose_punctual(M)
    _spectrum_invertible([(P.point, P.length) for P in pieces], M.tuple)
    space = FiberSpace.betti(d, M.tuple.frame)
    normalized = []
    for P in pieces:
        # N_k / z_k, with z_k nonzero: nilpotent, and the marking stays cyclic
        units = [Nk.scale(Scalar.one(z.mode) / z) for Nk, z in zip(P.N.B, P.point)]
        normalized.append(PunctualData._unchecked(P.point, CommutingTuple._unchecked(units), P.marking))
    return HilbPoint._unchecked(space, normalized)


def betti_unmarked(T: CommutingTuple) -> SymPoint:
    """The weighted joint spectrum of an invertible tuple as a point of
    the unmarked moduli over (C*)^{2d}."""
    if T.m % 2 != 0:
        raise ValueError("need an even number of members (one per lattice generator)")
    support = spectrum_support(T)
    _spectrum_invertible(support, T)
    return SymPoint(FiberSpace.betti(T.m // 2, T.frame), support)


def betti_assemble(h: HilbPoint) -> MarkedTuple:
    """Rebuild a marked tuple from a Betti HilbPoint: block-diagonal
    operators z_k (Id + N_k) with the stacked marking.  Inverse of
    betti_marked up to base change (the ideal normal form agrees)."""
    if h.space.kind != BETTI:
        raise ValueError("betti_assemble needs a betti-chart point")
    frame = h.space.frame
    pieces = _one_mode(h.pieces, frame)
    mats = []
    for k in range(h.space.chart_dim):
        blocks = []
        for P in pieces:
            eye = Matrix.identity(P.length, P.N.mode, frame)
            blocks.append((eye + P.N[k]).scale(P.point[k]))
        mats.append(Matrix.block_diag(blocks))
    mark = pieces[0].marking.vstack(*(P.marking for P in pieces[1:]))
    # block-diagonal members whose blocks commute
    return MarkedTuple(CommutingTuple._unchecked(mats), mark)


# ----------------------------------------------------------------------
# Riemann-Hilbert at the Hilbert level


def _mapped(pieces, coord, part) -> list[PunctualData]:
    """Each piece with coordinate k of its base point mapped by
    coord(k, c) and nilpotent part k by part(k, N_k); markings kept.
    Each part map (log1p, expm1, a nonzero scaling) is a polynomial in
    N_k with no constant term and an invertible linear term, so the parts
    stay nilpotent and generate the same algebra: markings stay cyclic."""
    return [
        PunctualData._unchecked(
            tuple(coord(k, c) for k, c in enumerate(P.point)),
            CommutingTuple._unchecked([part(k, Nk) for k, Nk in enumerate(P.N.B)]),
            P.marking,
        )
        for P in pieces
    ]


def rh_to_derham(h: HilbPoint, model: AbelianVarietyModel) -> HilbPoint:
    """Holonomy chart to exponent chart: base points through the
    principal logarithm, unit parts through log(Id + N).  The nilpotent
    series is finite with rational coefficients, so exact nilpotent data
    stays exact; only the base points pick up floating point."""
    if h.space.kind != BETTI:
        raise ValueError("rh_to_derham starts from a betti-chart point")
    if model.d != h.space.d:
        raise ValueError("model dimension differs from the chart")
    out = _mapped(h.pieces, lambda k, z: _log_scalar(z), lambda k, N: log1p_matrix(N))
    return _assembled(FiberSpace.natural(model), out)


def rh_to_betti(h: HilbPoint) -> HilbPoint:
    """Exponent chart to holonomy chart: the inverse of rh_to_derham,
    exact on nilpotent data for the same reason."""
    if h.space.kind != NATURAL:
        raise ValueError("rh_to_betti starts from a natural-chart point")
    out = _mapped(h.pieces, lambda k, a: a.exp(), lambda k, N: expm1_matrix(N))
    return _assembled(FiberSpace.betti(h.space.d, h.space.frame), out)


# ----------------------------------------------------------------------
# Hodge family


def _tau_nonzero(tau: Scalar):
    if tau.is_zero():
        raise TauZeroError("tau-scaling is undefined at tau = 0")


def _linear_pieces(h: HilbPoint, L, space: FiberSpace) -> HilbPoint:
    """The pieces of h under a linear map of the chart coordinates, as
    float data: L acts along the first axis of the point and of the stack
    of nilpotent parts (a complex array it may change in place).  L is
    invertible, so the parts generate the same algebra (see _mapped)."""
    frame = space.frame
    out = []
    for P in h.pieces:
        x = L(np.array([c.cx for c in P.point]))
        X = L(np.stack([Nk.to_numpy() for Nk in P.N.B]).astype(np.complex128))
        out.append(
            PunctualData._unchecked(
                tuple(Scalar.from_complex(z) for z in x),
                CommutingTuple._unchecked([Matrix.flt(Xk, frame) for Xk in X]),
                P.marking.to_float(frame),
            )
        )
    return _assembled(space, out)


def hodge_deform(h: HilbPoint, tau) -> HilbPoint:
    """Exponent chart to the tau-scaled split chart: split each piece
    into (u, w) coordinates through the model's period pairing, then
    scale the fiber block by tau.  The split mixes coordinates with the
    model's (floating point) coefficients; the subsequent scalings are
    where exactness lives (see hodge_rescale)."""
    if h.space.kind != NATURAL:
        raise ValueError("hodge_deform starts from a natural-chart point")
    model = h.space.model
    tau = Scalar.of(FLOAT, tau)
    _tau_nonzero(tau)
    d, C, tz = model.d, model.split_coeffs(), tau.cx

    def split(a):
        x = np.tensordot(C, a, axes=1)
        x[:d] *= tz
        return x

    return _linear_pieces(h, split, FiberSpace.hodge(model, tau))


def hodge_undeform(h: HilbPoint) -> HilbPoint:
    """Invert hodge_deform: divide the fiber block by tau and reassemble
    the exponent coordinates."""
    if h.space.kind != HODGE:
        raise ValueError("hodge_undeform starts from a hodge-chart point")
    model = h.space.model
    _tau_nonzero(h.space.tau)
    d, K, tz = model.d, model.split_matrix, h.space.tau.cx

    def unsplit(x):
        x[:d] /= tz
        return np.tensordot(K, x, axes=1)

    return _linear_pieces(h, unsplit, FiberSpace.natural(model))


def hodge_rescale(h: HilbPoint, factor) -> HilbPoint:
    """Scale the fiber block by a further factor, moving tau to
    tau * factor.  Pure coordinate scaling: exact data with an exact
    factor stays exact, and rescaling by t then t' is bitwise the same
    as rescaling by t * t'."""
    if h.space.kind != HODGE:
        raise ValueError("hodge_rescale needs a hodge-chart point")
    factor = Scalar.of(FLOAT, factor)
    _tau_nonzero(factor)
    d = h.space.d

    def fiber_scaled(k, x):
        return _scaled(x, factor) if k < d else x

    out = _mapped(h.pieces, fiber_scaled, fiber_scaled)
    return HilbPoint._unchecked(FiberSpace.hodge(h.space.model, _scaled(h.space.tau, factor)), out)


# ----------------------------------------------------------------------
# rank-1 identification and the marked diagram


def rank1_identify(space: FiberSpace, point) -> dict:
    """Describe the rank-1 module a chart point corresponds to: on the
    model charts, a line bundle on the dual torus (the antilinear part w
    modulo the dual lattice) plus a fiber coordinate (the connection
    form, Higgs field or covector).  On the natural chart the exponent
    shift in 2 pi i Z^{2d} whose w-part DualPoint removes from w is
    removed from u too, so the pair depends on the point, not on its
    cover representative."""
    coords = tuple(Scalar.of(FLOAT, c) for c in point)
    if len(coords) != space.chart_dim:
        raise ValueError("point arity differs from the chart")
    d = space.d
    if space.kind == BETTI:
        return {"kind": "local-system", "character": [c.to_json() for c in coords]}
    model = space.model
    if space.kind == NATURAL:
        u, w = model.split_solve(np.array([c.cx for c in coords]))
        bundle = DualPoint(model, w)
        u = u - model.dual_fiber_generators @ bundle.lattice_shift
        return {
            "kind": "connection",
            "line_bundle": bundle.to_json(),
            "connection_form": [Scalar.from_complex(z).to_json() for z in u],
        }
    if space.kind == DUAL_TORUS:
        w = np.array([c.cx for c in coords])
        return {"kind": "line-bundle", "point": DualPoint(model, w).to_json()}
    if space.kind in (COTANGENT, HODGE):
        u = coords[:d]
        w = np.array([c.cx for c in coords[d:]])
        out = {
            "kind": "higgs" if space.kind == COTANGENT else "tau-connection",
            "line_bundle": DualPoint(model, w).to_json(),
            "fiber": [c.to_json() for c in u],
        }
        if space.kind == HODGE:
            out["tau"] = space.tau.to_json()
        return out
    xi = coords[: space.vdim]
    w = np.array([c.cx for c in coords[space.vdim :]])
    return {
        "kind": "alpha-zero",
        "line_bundle": DualPoint(model, w).to_json(),
        "covector": [c.to_json() for c in xi],
    }


def diagram_check(M: MarkedTuple, tol: float | None = None) -> bool:
    """The marked square commutes: forgetting the marking and taking the
    weighted support equals passing to the Hilbert point and applying
    Hilbert-Chow, on both sides of the Riemann-Hilbert transform.  The
    natural chart does not depend on the model, so the square model of
    the right dimension verifies the second square."""
    h = betti_marked(M)
    s_marked = hilbert_chow(h)
    s_plain = betti_unmarked(M.tuple)
    if not s_marked.close_to(s_plain, tol):
        return False
    model = square_model(M.m // 2)
    n = rh_to_derham(h, model)
    s_rh = hilbert_chow(n)
    space_n = FiberSpace.natural(model)
    logged = [
        (space_n.canonical_point(tuple(_log_scalar(c) for c in p)), k)
        for p, k in s_plain.support
    ]
    s_logged = SymPoint(space_n, logged)
    return s_rh.close_to(s_logged, tol)
