"""Complex tori from period data and their dual tori.

A model is d-dimensional complex space modulo the lattice spanned by the
2d columns of a period matrix.  It carries what the fiber charts of
``moduli`` need from the torus:

* the (u, w) splitting of exponents a in C^{2d} into a linear part u
  along the periods and an antilinear part w, a_j = u . lambda_j +
  w . conj(lambda_j);
* the dual lattice, the antilinear functionals taking 2 pi i Z values on
  the periods, and DualPoint, a point w of C^d modulo it: the line
  bundle on the dual torus behind a rank-1 chart point;
* fold_imag, the canonical branch representative Im in (-pi, pi] of a
  natural-chart exponent.

A rank-1 module is a length-1 point of the ``moduli`` charts, and
``moduli.rank1_identify`` reads it as a line bundle plus a fiber
coordinate.  Transcendental maps force floating point here, so every
model owns a ToleranceFrame; canonical representatives (imaginary parts
in (-pi, pi], lattice coordinates in [0, 1)) make comparisons
meaningful.  The dual lattice is computed once per model and cached; the
computation is deterministic, so racing a recompute is harmless.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DegeneratePeriodMatrixError
from .linalg import DEFAULT_FRAME, FLOAT, Scalar, ToleranceFrame

__all__ = [
    "AbelianVarietyModel",
    "DualPoint",
    "fold_imag",
    "square_model",
]

TWO_PI = 2.0 * math.pi


def fold_imag(a: complex) -> complex:
    """Canonical branch representative: shift by 2 pi i so Im lies in
    (-pi, pi]."""
    k = math.floor((math.pi - a.imag) / TWO_PI)
    return complex(a.real, a.imag + TWO_PI * k)


class AbelianVarietyModel:
    """A torus presented by a d x 2d period matrix with columns spanning
    over the reals.  Owns the tolerance frame for all derived charts.
    The periods, and the dual generators, span when the least singular
    value of their real form exceeds eps_rank times the largest, so c Pi
    is refused or accepted with Pi."""

    def __init__(self, period, frame: ToleranceFrame | None = None):
        Pi = np.array(period, dtype=np.complex128)
        if Pi.ndim != 2 or Pi.shape[1] != 2 * Pi.shape[0]:
            raise ValueError("period matrix must be d x 2d")
        self.d = Pi.shape[0]
        self.period = Pi
        self.frame = frame or DEFAULT_FRAME
        self._real_span(Pi, "period columns")
        # a(lambda_j) = u . lambda_j + w . conj(lambda_j) as rows of [Pi^T | conj(Pi)^T]
        self._split = np.hstack([Pi.T, Pi.conj().T])
        self._dual = None
        self._dual_real_inv = None

    # ------------------------------------------------------------------

    def _real_span(self, A: np.ndarray, what: str) -> np.ndarray:
        """[Re A; Im A] for the d x 2d matrix A, refused unless its columns
        span over R: its least singular value exceeds eps_rank times the largest."""
        real = np.vstack([A.real, A.imag])
        s = np.linalg.svd(real, compute_uv=False)
        if s[-1] <= self.frame.eps_rank * s[0]:
            raise DegeneratePeriodMatrixError(f"{what} do not span over R")
        return real

    def _dual_data(self):
        if self._dual is None:
            n = 2 * self.d
            try:
                full = np.linalg.solve(self._split, (2j * math.pi) * np.eye(n))
            except np.linalg.LinAlgError:
                raise DegeneratePeriodMatrixError("antilinear splitting system is singular") from None
            gens = full[self.d :, :]  # d x 2d, column k = k-th dual generator
            real = self._real_span(gens, "dual generators")
            self._dual = full
            self._dual_real_inv = np.linalg.inv(real)
        return self._dual, self._dual_real_inv

    @property
    def dual_generators(self) -> np.ndarray:
        """d x 2d complex matrix whose columns generate the dual lattice:
        column k is the w-part of the exponent shift 2 pi i e_k."""
        return self._dual_data()[0][self.d :, :]

    @property
    def dual_fiber_generators(self) -> np.ndarray:
        """d x 2d complex matrix, column k the u-part of the exponent
        shift 2 pi i e_k whose w-part is dual generator k."""
        return self._dual_data()[0][: self.d, :]

    def split_solve(self, a: np.ndarray):
        """Split exponents a into (u, w) with a_j = u.lambda_j + w.conj(lambda_j)."""
        x = np.linalg.solve(self._split, np.asarray(a, dtype=np.complex128))
        return x[: self.d], x[self.d :]

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
        return self.dual_generators @ np.asarray(t, dtype=np.float64)

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
            "tolerances": self.frame.to_json(),
        }

    @staticmethod
    def from_json(obj) -> "AbelianVarietyModel":
        period = [[complex(p[0], p[1]) for p in row] for row in obj["period"]]
        tol = obj.get("tolerances")
        return AbelianVarietyModel(period, ToleranceFrame.from_json(tol) if tol else None)


# ----------------------------------------------------------------------
# points


class DualPoint:
    """A point of the dual torus: w in C^d modulo the dual lattice, held
    by its canonical representative with lattice coordinates in [0, 1).
    lattice_shift holds the integer dual-lattice coordinates of the
    vector removed from w to reach it."""

    __slots__ = ("model", "w", "coords", "lattice_shift")

    def __init__(self, model: AbelianVarietyModel, w):
        vec = np.array([Scalar.of(FLOAT, c).cx for c in w], dtype=np.complex128)
        if vec.shape != (model.d,):
            raise ValueError("need d dual coordinates")
        t = model.dual_coords(vec)
        eps = model.frame.eps_lattice
        snapped = np.where(np.abs(t - np.round(t)) <= eps, np.round(t), t)
        shift = np.floor(snapped)
        frac = snapped - shift
        wrap = frac >= 1.0  # guard against -0 epsilon flooring
        self.model = model
        self.coords = np.where(wrap, 0.0, frac)
        self.lattice_shift = np.where(wrap, shift + 1.0, shift)
        self.w = tuple(map(Scalar.from_complex, model.dual_from_coords(frac)))

    def close_to(self, other: "DualPoint", tol: float | None = None) -> bool:
        tol = tol if tol is not None else self.model.frame.eps_lattice
        dt = self.coords - other.coords
        dt = dt - np.round(dt)  # circular distance on each coordinate
        return bool(np.abs(dt).max() <= tol)

    def __repr__(self):
        return f"DualPoint({[c.cx for c in self.w]})"

    def to_json(self):
        return {"space": "dual", "w": [c.to_json() for c in self.w]}


def square_model(d: int, frame: ToleranceFrame | None = None) -> AbelianVarietyModel:
    """The product of d square tori: period matrix [Id | i Id]."""
    return AbelianVarietyModel(np.hstack([np.eye(d), 1j * np.eye(d)]), frame)
