"""Complex tori from period data, their duals, and attached fiber charts.

A model is d-dimensional complex space modulo the lattice spanned by the
2d columns of a period matrix.  Four coordinate charts recur downstream:

* Betti: nowhere-zero coordinates z in (C*)^{2d}, one per lattice
  generator (holonomies of a flat line bundle);
* natural: exponents a in C^{2d} with a_j mod 2 pi i identified; the
  coordinatewise exponential identifies the two charts analytically;
* dual torus: a point of C^d modulo the dual lattice, the lattice of
  antilinear functionals taking 2 pi i Z values on the periods;
* Hodge: pairs (dual-torus point, fiber vector u) over a scaling
  parameter tau, with the tau-dependent chart u -> u / tau carrying the
  fiber at tau != 0 back to the natural chart.

Transcendental maps force floating point here, so every model owns a
ToleranceFrame; canonical representatives (imaginary parts in (-pi, pi],
lattice coordinates in [0, 1)) make comparisons meaningful.  The dual
lattice is computed once per model and cached; the computation is
deterministic, so racing a recompute is harmless.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import (
    DegeneratePeriodMatrixError,
    TauZeroError,
    ZeroHolonomyError,
)
from .linalg import DEFAULT_FRAME, FLOAT, Scalar, ToleranceFrame

__all__ = [
    "AbelianVarietyModel",
    "BettiPoint",
    "NaturalPoint",
    "DualPoint",
    "HodgePoint",
    "exp_rh",
    "log_rh",
    "dual_lattice",
    "natural_split",
    "natural_project",
    "gstar_act",
    "hodge_scale",
    "fold_imag",
    "square_model",
]

TWO_PI = 2.0 * math.pi


def fold_imag(a: complex) -> complex:
    """Canonical branch representative: shift by 2 pi i so Im lies in
    (-pi, pi]."""
    k = math.floor((math.pi - a.imag) / TWO_PI)
    return complex(a.real, a.imag + TWO_PI * k)


def _as_complex_vec(coords) -> np.ndarray:
    out = []
    for c in coords:
        out.append(c.cx if isinstance(c, Scalar) else complex(c))
    return np.array(out, dtype=np.complex128)


def _float_scalars(vec) -> tuple[Scalar, ...]:
    return tuple(Scalar(FLOAT, z.real, z.imag) for z in map(complex, vec))


class AbelianVarietyModel:
    """A torus presented by a d x 2d period matrix with columns spanning
    over the reals.  Owns the tolerance frame for all derived charts."""

    def __init__(self, period, frame: ToleranceFrame | None = None):
        Pi = np.array(period, dtype=np.complex128)
        if Pi.ndim != 2 or Pi.shape[1] != 2 * Pi.shape[0]:
            raise ValueError("period matrix must be d x 2d")
        self.d = Pi.shape[0]
        self.period = Pi
        self.frame = frame or DEFAULT_FRAME
        real = np.vstack([Pi.real, Pi.imag])
        s = np.linalg.svd(real, compute_uv=False)
        if s[-1] <= self.frame.eps_rank:
            raise DegeneratePeriodMatrixError("period columns do not span over R")
        # a(lambda_j) = u . lambda_j + w . conj(lambda_j) as rows of [Pi^T | conj(Pi)^T]
        self._split = np.hstack([Pi.T, Pi.conj().T])
        self._dual = None
        self._dual_real_inv = None

    # ------------------------------------------------------------------

    def _dual_data(self):
        if self._dual is None:
            n = 2 * self.d
            try:
                full = np.linalg.solve(self._split, (2j * math.pi) * np.eye(n))
            except np.linalg.LinAlgError:
                raise DegeneratePeriodMatrixError("antilinear splitting system is singular") from None
            gens = full[self.d :, :]  # d x 2d, column k = k-th dual generator
            real = np.vstack([gens.real, gens.imag])
            s = np.linalg.svd(real, compute_uv=False)
            if s[-1] <= self.frame.eps_rank:
                raise DegeneratePeriodMatrixError("dual generators do not span over R")
            self._dual = gens
            self._dual_real_inv = np.linalg.inv(real)
        return self._dual, self._dual_real_inv

    @property
    def dual_generators(self) -> np.ndarray:
        """d x 2d complex matrix whose columns generate the dual lattice."""
        return self._dual_data()[0]

    def split_solve(self, a: np.ndarray):
        """Split exponents a into (u, w) with a_j = u.lambda_j + w.conj(lambda_j)."""
        x = np.linalg.solve(self._split, np.asarray(a, dtype=np.complex128))
        return x[: self.d], x[self.d :]

    def split_assemble(self, u: np.ndarray, w: np.ndarray) -> np.ndarray:
        """Inverse of split_solve."""
        return np.asarray(u) @ self.period + np.asarray(w) @ self.period.conj()

    def split_coeffs(self) -> np.ndarray:
        """The 2d x 2d matrix of the linear map a -> (u, w)."""
        return np.linalg.inv(self._split)

    @property
    def split_matrix(self) -> np.ndarray:
        """The 2d x 2d matrix of the inverse map (u, w) -> a."""
        return self._split

    def dual_coords(self, w: np.ndarray) -> np.ndarray:
        """Real coordinates of w in the dual-lattice basis."""
        _, inv = self._dual_data()
        return inv @ np.concatenate([np.asarray(w).real, np.asarray(w).imag])

    def dual_from_coords(self, t: np.ndarray) -> np.ndarray:
        gens, _ = self._dual_data()
        return gens @ np.asarray(t, dtype=np.float64)

    def __eq__(self, other):
        if not isinstance(other, AbelianVarietyModel):
            return NotImplemented
        return self.d == other.d and np.array_equal(self.period, other.period)

    def __repr__(self):
        return f"<AbelianVarietyModel d={self.d}>"

    def to_json(self):
        return {
            "d": self.d,
            "period": [[[z.real, z.imag] for z in row] for row in self.period],
            "tolerances": {
                "eps_rank": self.frame.eps_rank,
                "eps_eq": self.frame.eps_eq,
                "eps_lattice": self.frame.eps_lattice,
            },
        }

    @staticmethod
    def from_json(obj) -> "AbelianVarietyModel":
        period = [[complex(p[0], p[1]) for p in row] for row in obj["period"]]
        tol = obj.get("tolerances")
        frame = (
            ToleranceFrame(tol["eps_rank"], tol["eps_eq"], tol["eps_lattice"])
            if tol
            else None
        )
        return AbelianVarietyModel(period, frame)


# ----------------------------------------------------------------------
# points


class BettiPoint:
    """A point of (C*)^{2d}: the multiplicative holonomy coordinates.
    Coordinates may be exact or float scalars but must all be nonzero."""

    __slots__ = ("z",)

    def __init__(self, z, frame: ToleranceFrame | None = None):
        coords = tuple(c if isinstance(c, Scalar) else Scalar.from_complex(c) for c in z)
        eps = (frame or DEFAULT_FRAME).eps_eq
        for c in coords:
            if abs(c) <= eps:
                raise ZeroHolonomyError("holonomy coordinate is zero")
        self.z = coords

    def __len__(self):
        return len(self.z)

    def cx(self) -> np.ndarray:
        return _as_complex_vec(self.z)

    def __repr__(self):
        return f"BettiPoint({[c.cx for c in self.z]})"

    def to_json(self):
        return {"space": "betti", "z": [c.to_json() for c in self.z]}


class NaturalPoint:
    """Exponents for the flat structure: a in C^{2d} with the canonical
    branch representative Im a_j in (-pi, pi].  Carries its model."""

    __slots__ = ("model", "a")

    def __init__(self, model: AbelianVarietyModel, a):
        vec = _as_complex_vec(a)
        if vec.shape != (2 * model.d,):
            raise ValueError("need 2d exponent coordinates")
        self.model = model
        self.a = _float_scalars([fold_imag(x) for x in vec])

    def cx(self) -> np.ndarray:
        return _as_complex_vec(self.a)

    def close_to(self, other: "NaturalPoint", tol: float | None = None) -> bool:
        tol = tol if tol is not None else self.model.frame.eps_eq
        da = self.cx() - other.cx()
        for x in da:
            im = abs(x.imag)
            if abs(x.real) > tol or min(im, abs(im - TWO_PI)) > tol:
                return False
        return True

    def __repr__(self):
        return f"NaturalPoint({[c.cx for c in self.a]})"

    def to_json(self):
        return {"space": "natural", "a": [c.to_json() for c in self.a]}


class DualPoint:
    """A point of the dual torus: w in C^d modulo the dual lattice, held
    by its canonical representative with lattice coordinates in [0, 1)."""

    __slots__ = ("model", "w", "coords")

    def __init__(self, model: AbelianVarietyModel, w):
        vec = _as_complex_vec(w)
        if vec.shape != (model.d,):
            raise ValueError("need d dual coordinates")
        t = model.dual_coords(vec)
        eps = model.frame.eps_lattice
        snapped = np.where(np.abs(t - np.round(t)) <= eps, np.round(t), t)
        frac = snapped - np.floor(snapped)
        frac = np.where(frac >= 1.0, 0.0, frac)  # guard against -0 epsilon flooring
        self.model = model
        self.coords = frac
        self.w = _float_scalars(model.dual_from_coords(frac))

    def cx(self) -> np.ndarray:
        return _as_complex_vec(self.w)

    def close_to(self, other: "DualPoint", tol: float | None = None) -> bool:
        tol = tol if tol is not None else self.model.frame.eps_lattice
        dt = self.coords - other.coords
        dt = dt - np.round(dt)  # circular distance on each coordinate
        return bool(np.abs(dt).max() <= tol)

    def __repr__(self):
        return f"DualPoint({[c.cx for c in self.w]})"

    def to_json(self):
        return {"space": "dual", "w": [c.to_json() for c in self.w]}


class HodgePoint:
    """A point of the scaled chart at parameter tau: dual-torus base plus
    fiber vector u.  tau = 0 is the cotangent degeneration."""

    __slots__ = ("tau", "xhat", "u")

    def __init__(self, tau: Scalar, xhat: DualPoint, u):
        coords = tuple(c if isinstance(c, Scalar) else Scalar.from_complex(c) for c in u)
        if len(coords) != xhat.model.d:
            raise ValueError("need d fiber coordinates")
        self.tau = tau if isinstance(tau, Scalar) else Scalar.from_complex(tau)
        self.xhat = xhat
        self.u = coords

    def to_json(self):
        return {
            "space": "hodge",
            "tau": self.tau.to_json(),
            "w": [c.to_json() for c in self.xhat.w],
            "u": [c.to_json() for c in self.u],
        }


# ----------------------------------------------------------------------
# chart maps


def square_model(d: int, frame: ToleranceFrame | None = None) -> AbelianVarietyModel:
    """The product of d square tori: period matrix [Id | i Id]."""
    return AbelianVarietyModel(np.hstack([np.eye(d), 1j * np.eye(d)]), frame)


def exp_rh(p: NaturalPoint) -> BettiPoint:
    """Coordinatewise exponential from exponents to holonomies."""
    return BettiPoint([cmath.exp(x) for x in p.cx()], p.model.frame)


def log_rh(z: BettiPoint, model: AbelianVarietyModel) -> NaturalPoint:
    """Coordinatewise principal logarithm; the branch lands on the
    canonical representative directly."""
    eps = model.frame.eps_eq
    vals = z.cx()
    if np.any(np.abs(vals) <= eps):
        raise ZeroHolonomyError("cannot take log of zero holonomy")
    return NaturalPoint(model, [cmath.log(x) for x in vals])


def dual_lattice(model: AbelianVarietyModel) -> list[tuple[Scalar, ...]]:
    """The 2d generators of the dual lattice: for each period generator
    lambda_k, the antilinear part w of the functional a with
    a(lambda_j) = 2 pi i delta_{jk}."""
    gens = model.dual_generators
    return [_float_scalars(gens[:, k]) for k in range(2 * model.d)]


def natural_split(p: NaturalPoint):
    """The (u, w) split of the exponents: linear part u along the periods,
    antilinear part w.  Returns a pair of numpy vectors."""
    return p.model.split_solve(p.cx())


def natural_project(p: NaturalPoint) -> DualPoint:
    """Project to the dual torus: keep the antilinear part of the
    exponents modulo the dual lattice."""
    _, w = natural_split(p)
    return DualPoint(p.model, w)


def gstar_act(p: NaturalPoint, u) -> NaturalPoint:
    """Translate the exponents by the linear functional u . lambda_j: the
    action of a global 1-form on the flat structure.  The projection to
    the dual torus is unchanged."""
    uvec = _as_complex_vec(u)
    if uvec.shape != (p.model.d,):
        raise ValueError("need d coefficients")
    return NaturalPoint(p.model, p.cx() + uvec @ p.model.period)


def hodge_scale(h: HodgePoint) -> NaturalPoint:
    """Identify the chart at tau != 0 with the natural chart: the base
    contributes through the antilinear splitting, the fiber through
    u / tau.  At tau = 1 and u = 0 this is the splitting itself."""
    model = h.xhat.model
    tau = h.tau.cx
    if abs(tau) <= model.frame.eps_eq:
        raise TauZeroError("chart map undefined at tau = 0")
    u = _as_complex_vec(h.u) / tau
    w = h.xhat.cx()
    return NaturalPoint(model, model.split_assemble(u, w))
