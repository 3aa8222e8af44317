"""Complex linear algebra over two interchangeable scalar backends.

Everything downstream works over one of two modes:

``exact``
    Gaussian rationals a + bi with a, b rational.  A matrix keeps Python
    int numerators (real and imaginary grids) over one common
    denominator; a :class:`Scalar` entry is two ``Fraction`` values in
    lowest terms.  Results are reproducible bit for bit: rank, kernels,
    solutions and inverses come from fraction-free Gauss-Jordan
    elimination over the Gaussian integers, eigenvalues from a verified
    search for roots of the characteristic polynomial.  When the
    characteristic polynomial does not split into linear factors over the
    Gaussian rationals, eigenvalue-dependent operations raise
    :class:`~abelmod.errors.NonSplitCharPolyError`.

``float``
    IEEE complex128 backed by numpy.  Rank decisions go through singular
    values thresholded by an explicit :class:`ToleranceFrame`; nothing is
    compared for equality without a tolerance.

A computation never silently mixes modes; combining an exact matrix with
a float one raises :class:`~abelmod.errors.ModeMismatchError`.

This module is the only one that knows how a :class:`Matrix` is stored
(integer grids over one denominator when exact, a numpy array when
float); ``Fraction`` values are built only where a :class:`Scalar` leaves
a matrix (``Matrix[i, j]``, ``entries``, ``trace``, ``to_json``).
Callers stay mode-blind through this surface:

* construction: ``Matrix.exact``, ``Matrix.flt``, ``Matrix.identity``,
  ``Matrix.zeros``, ``Matrix.column`` and ``Matrix.diag`` (both taking a
  ``frame``), ``Matrix.block_diag``, ``Scalar.of``;
* access and assembly: ``Matrix[i, j]``, ``col``, ``submatrix``,
  ``strict_lower``, variadic ``hstack`` / ``vstack``, ``kron``;
* decisions: ``Scalar.negligible(eps)`` and ``Matrix.negligible(scale)``,
  an exact-zero test in exact mode and ``norm <= eps_eq * scale`` in
  float mode; ``Scalar.sort_key`` for canonical ordering;
* elimination: ``rank``, ``kernel_basis``, ``solve``, ``solve_matrix``,
  ``inverse``, and the incremental :class:`Span`;
* spectra: ``char_poly`` and ``exact_roots`` (exact only),
  ``eigenvalues``, ``eigenspace`` (the canonically smallest eigenvalue
  and its eigenspace) and ``complete_basis``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import mul
from typing import Sequence

import numpy as np

from .errors import (
    ModeMismatchError,
    NonSplitCharPolyError,
    NoSolutionError,
)

EXACT = "exact"
FLOAT = "float"

_Q0 = Fraction(0)
_Q1 = Fraction(1)

__all__ = [
    "EXACT",
    "FLOAT",
    "Scalar",
    "ToleranceFrame",
    "Matrix",
    "Span",
    "INVARIANCE_SLACK",
    "SOLVE_SLACK",
    "rank",
    "kernel_basis",
    "solve",
    "solve_matrix",
    "inverse",
    "char_poly",
    "exact_roots",
    "eigenvalues",
    "eigenspace",
    "complete_basis",
]

# Float residual slack, in units of eps_eq times the data scale: a flag is
# invariant when the strict lower part of the adapted tuple is within
# INVARIANCE_SLACK, and solve_matrix accepts a least-squares solution whose
# residual is within SOLVE_SLACK.
INVARIANCE_SLACK = 10
SOLVE_SLACK = 100


def _to_q(x) -> Fraction:
    """Coerce x to an exact rational.  Strings use the 'p/q' form."""
    if isinstance(x, (int, str)):
        return Fraction(x)
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        if x != int(x):
            raise ValueError(f"refusing to coerce non-integral float {x!r} to exact")
        return Fraction(int(x))
    raise TypeError(f"cannot coerce {type(x).__name__} to exact rational")


class Scalar:
    """A complex number tagged with its arithmetic mode.

    Exact scalars hold two rationals (re, im); float scalars hold two
    doubles.  Arithmetic between different modes is an error.
    """

    __slots__ = ("mode", "re", "im")

    def __init__(self, mode: str, re, im):
        self.mode = mode
        self.re = re
        self.im = im

    @staticmethod
    def exact(re=0, im=0) -> "Scalar":
        return Scalar(EXACT, _to_q(re), _to_q(im))

    @staticmethod
    def flt(re=0.0, im=0.0) -> "Scalar":
        return Scalar(FLOAT, float(re), float(im))

    @staticmethod
    def from_complex(z) -> "Scalar":
        z = complex(z)
        return Scalar(FLOAT, z.real, z.imag)

    @staticmethod
    def zero(mode: str) -> "Scalar":
        return Scalar(mode, _Q0, _Q0) if mode == EXACT else Scalar(FLOAT, 0.0, 0.0)

    @staticmethod
    def one(mode: str) -> "Scalar":
        return Scalar(mode, _Q1, _Q0) if mode == EXACT else Scalar(FLOAT, 1.0, 0.0)

    @staticmethod
    def of(mode: str, x) -> "Scalar":
        """x itself when it is a Scalar, else x (int, rational, 'p/q'
        string; any number in float mode) as a scalar of the given mode."""
        if isinstance(x, Scalar):
            return x
        return Scalar.exact(x) if mode == EXACT else Scalar.from_complex(complex(x))

    @property
    def cx(self) -> complex:
        return complex(self.re, self.im)

    def to_float(self) -> "Scalar":
        return self if self.mode == FLOAT else Scalar.from_complex(self.cx)

    def is_zero(self) -> bool:
        return not (self.re or self.im)

    def negligible(self, eps: float) -> bool:
        """Exactly zero in exact mode; |z| <= eps in float mode."""
        if self.mode == EXACT:
            return not (self.re or self.im)
        return abs(self) <= eps

    def sort_key(self):
        """Canonical ordering by (Re, Im); exact ties between rationals
        that round to the same doubles break on their text."""
        if self.mode == EXACT:
            return (float(self.re), float(self.im), str(self.re), str(self.im))
        return (self.re, self.im, "", "")

    def _chk(self, other: "Scalar"):
        if self.mode != other.mode:
            raise ModeMismatchError(f"{self.mode} scalar combined with {other.mode} scalar")

    def __add__(self, other: "Scalar") -> "Scalar":
        self._chk(other)
        return Scalar(self.mode, self.re + other.re, self.im + other.im)

    def __sub__(self, other: "Scalar") -> "Scalar":
        self._chk(other)
        return Scalar(self.mode, self.re - other.re, self.im - other.im)

    def __mul__(self, other: "Scalar") -> "Scalar":
        self._chk(other)
        a, b, c, d = self.re, self.im, other.re, other.im
        return Scalar(self.mode, a * c - b * d, a * d + b * c)

    def __truediv__(self, other: "Scalar") -> "Scalar":
        self._chk(other)
        c, d = other.re, other.im
        den = c * c + d * d
        if not den:
            raise ZeroDivisionError("scalar division by zero")
        a, b = self.re, self.im
        return Scalar(self.mode, (a * c + b * d) / den, (b * c - a * d) / den)

    def __neg__(self) -> "Scalar":
        return Scalar(self.mode, -self.re, -self.im)

    def conj(self) -> "Scalar":
        return Scalar(self.mode, self.re, -self.im)

    def abs2(self):
        """|z|^2, exact in exact mode."""
        return self.re * self.re + self.im * self.im

    def __abs__(self) -> float:
        return math.hypot(float(self.re), float(self.im))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.mode == other.mode and self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.mode, self.re, self.im))

    def __repr__(self):
        if self.mode == EXACT:
            return f"Scalar.exact('{self.re}', '{self.im}')"
        return f"Scalar.flt({self.re!r}, {self.im!r})"

    def to_json(self):
        if self.mode == EXACT:
            return {"re": str(self.re), "im": str(self.im)}
        return {"re": self.re, "im": self.im}

    @staticmethod
    def from_json(obj, mode: str) -> "Scalar":
        if mode == EXACT:
            return Scalar.exact(obj["re"], obj["im"])
        return Scalar.flt(float(obj["re"]), float(obj["im"]))


@dataclass(frozen=True)
class ToleranceFrame:
    """Thresholds owned by float-mode data.

    eps_rank gates singular values in rank decisions, eps_eq is the scale
    for approximate equality, eps_lattice the coarser tolerance used when
    snapping lattice coordinates to integers.
    """

    eps_rank: float = 1e-9
    eps_eq: float = 1e-9
    eps_lattice: float = 1e-7

    def __post_init__(self):
        if not (self.eps_rank > 0 and self.eps_eq > 0 and self.eps_lattice > 0):
            raise ValueError("tolerances must be positive")
        if self.eps_eq > self.eps_lattice:
            raise ValueError("eps_eq must not exceed eps_lattice")


DEFAULT_FRAME = ToleranceFrame()


class Matrix:
    """Dense matrix over one scalar mode.

    Exact storage is a triple ``(D, R, I)``: the entry (i, j) is
    ``(R[i][j] + I[i][j] i) / D`` with Python ints, one common
    denominator ``D > 0`` and ``gcd(D, every numerator) == 1``, so equal
    matrices have equal storage.  Float storage is a numpy complex128
    array plus the owning :class:`ToleranceFrame`.  Instances are treated
    as immutable, and exact grid rows may be shared between them; all
    operations return new matrices.
    """

    __slots__ = ("mode", "rows", "cols", "_a", "frame")

    def __init__(self, mode, rows, cols, data, frame=None):
        self.mode = mode
        self.rows = rows
        self.cols = cols
        self._a = data
        self.frame = frame if frame is not None else (DEFAULT_FRAME if mode == FLOAT else None)

    # ------------------------------------------------------------------
    # construction

    @staticmethod
    def exact(entries: Sequence[Sequence]) -> "Matrix":
        """Build an exact matrix.  Entries may be ints, 'p/q' strings,
        rationals, (re, im) pairs, or exact Scalars."""
        data = []
        for row in entries:
            r = []
            for x in row:
                if isinstance(x, Scalar):
                    if x.mode != EXACT:
                        raise ModeMismatchError("float scalar in exact matrix")
                    r.append(x)
                elif isinstance(x, tuple):
                    r.append(Scalar.exact(x[0], x[1]))
                elif isinstance(x, complex):
                    r.append(Scalar.exact(x.real, x.imag))
                else:
                    r.append(Scalar.exact(x))
            data.append(r)
        rows = len(data)
        cols = len(data[0]) if rows else 0
        if any(len(r) != cols for r in data):
            raise ValueError("ragged rows")
        return _from_scalars(data, rows, cols)

    @staticmethod
    def flt(entries, frame: ToleranceFrame | None = None) -> "Matrix":
        a = np.array(entries, dtype=np.complex128)
        if a.ndim != 2:
            raise ValueError("need a 2-d array")
        return Matrix(FLOAT, a.shape[0], a.shape[1], a, frame or DEFAULT_FRAME)

    @staticmethod
    def identity(n: int, mode: str, frame: ToleranceFrame | None = None) -> "Matrix":
        if mode == EXACT:
            R = [[0] * n for _ in range(n)]
            for i in range(n):
                R[i][i] = 1
            return Matrix(EXACT, n, n, (1, R, _zero_grid(n, n)))
        return Matrix.flt(np.eye(n, dtype=np.complex128), frame)

    @staticmethod
    def zeros(rows: int, cols: int, mode: str, frame: ToleranceFrame | None = None) -> "Matrix":
        if mode == EXACT:
            return Matrix(EXACT, rows, cols, (1, _zero_grid(rows, cols), _zero_grid(rows, cols)))
        return Matrix.flt(np.zeros((rows, cols), dtype=np.complex128), frame)

    @staticmethod
    def column(values: Sequence[Scalar], frame: ToleranceFrame | None = None) -> "Matrix":
        vals = list(values)
        if not vals:
            raise ValueError("empty column")
        mode = vals[0].mode
        if mode == EXACT:
            return _from_scalars([[v] for v in vals], len(vals), 1)
        return Matrix.flt(np.array([[v.cx] for v in vals]), frame)

    @staticmethod
    def diag(values: Sequence[Scalar], frame: ToleranceFrame | None = None) -> "Matrix":
        vals = list(values)
        n = len(vals)
        mode = vals[0].mode
        if mode == EXACT:
            z = Scalar.zero(EXACT)
            return _from_scalars([[vals[i] if i == j else z for j in range(n)] for i in range(n)], n, n)
        return Matrix.flt(np.diag([v.cx for v in vals]), frame)

    @staticmethod
    def block_diag(blocks: Sequence["Matrix"]) -> "Matrix":
        """Square blocks along the diagonal, zeros elsewhere; the frame is
        the first block's."""
        first = blocks[0]
        for B in blocks[1:]:
            first._chk(B)
        n = sum(B.rows for B in blocks)
        if first.mode == FLOAT:
            a = np.zeros((n, n), dtype=np.complex128)
            off = 0
            for B in blocks:
                a[off : off + B.rows, off : off + B.rows] = B._a
                off += B.rows
            return Matrix(FLOAT, n, n, a, first.frame)
        D, parts = _common_denominator(blocks)
        R, I = [], []
        off = 0
        for B, (BR, BI) in zip(blocks, parts):
            left, right = [0] * off, [0] * (n - off - B.rows)
            R.extend(left + r + right for r in BR)
            I.extend(left + r + right for r in BI)
            off += B.rows
        return Matrix(EXACT, n, n, (D, R, I))

    # ------------------------------------------------------------------
    # access

    def __getitem__(self, ij) -> Scalar:
        i, j = ij
        if self.mode == EXACT:
            D, R, I = self._a
            return Scalar(EXACT, Fraction(R[i][j], D), Fraction(I[i][j], D))
        z = self._a[i, j]
        return Scalar(FLOAT, z.real, z.imag)

    def col(self, j: int) -> "Matrix":
        return self.submatrix(0, self.rows, j, j + 1)

    def col_scalars(self, j: int) -> list[Scalar]:
        return [self[i, j] for i in range(self.rows)]

    def submatrix(self, r0: int, r1: int, c0: int, c1: int) -> "Matrix":
        """Rows r0..r1-1 and columns c0..c1-1, as a new matrix."""
        if self.mode == FLOAT:
            return Matrix(FLOAT, r1 - r0, c1 - c0, self._a[r0:r1, c0:c1].copy(), self.frame)
        D, R, I = self._a
        return _exact(D, [r[c0:c1] for r in R[r0:r1]], [r[c0:c1] for r in I[r0:r1]], r1 - r0, c1 - c0)

    def strict_lower(self) -> "Matrix":
        """The entries below the diagonal, zeros elsewhere."""
        if self.mode == FLOAT:
            return Matrix(FLOAT, self.rows, self.cols, np.tril(self._a, -1), self.frame)
        D, R, I = self._a
        c = self.cols
        keep = [min(i, c) for i in range(self.rows)]
        R = [r[:k] + [0] * (c - k) for r, k in zip(R, keep)]
        I = [r[:k] + [0] * (c - k) for r, k in zip(I, keep)]
        return _exact(D, R, I, self.rows, c)

    def to_numpy(self) -> np.ndarray:
        if self.mode == FLOAT:
            return self._a.copy()
        D, R, I = self._a
        # int / int is correctly rounded, as float(Fraction) is
        return np.array(
            [[complex(x / D, y / D) for x, y in zip(rr, ri)] for rr, ri in zip(R, I)],
            dtype=np.complex128,
        ).reshape(self.rows, self.cols)

    def to_float(self, frame: ToleranceFrame | None = None) -> "Matrix":
        """Explicit mode conversion (the only sanctioned exact-to-float path)."""
        return Matrix.flt(self.to_numpy(), frame or (self.frame or DEFAULT_FRAME))

    def entries(self) -> list[list[Scalar]]:
        return [[self[i, j] for j in range(self.cols)] for i in range(self.rows)]

    # ------------------------------------------------------------------
    # arithmetic

    def _chk(self, other: "Matrix"):
        if self.mode != other.mode:
            raise ModeMismatchError(f"{self.mode} matrix combined with {other.mode} matrix")

    def __add__(self, other: "Matrix") -> "Matrix":
        self._chk(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in add")
        if self.mode == FLOAT:
            return Matrix(FLOAT, self.rows, self.cols, self._a + other._a, self.frame)
        D, ((Ra, Ia), (Rb, Ib)) = _common_denominator((self, other))
        R = [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(Ra, Rb)]
        I = [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(Ia, Ib)]
        return _exact(D, R, I, self.rows, self.cols)

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._chk(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in subtract")
        if self.mode == FLOAT:
            return Matrix(FLOAT, self.rows, self.cols, self._a - other._a, self.frame)
        D, ((Ra, Ia), (Rb, Ib)) = _common_denominator((self, other))
        R = [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(Ra, Rb)]
        I = [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(Ia, Ib)]
        return _exact(D, R, I, self.rows, self.cols)

    def __neg__(self) -> "Matrix":
        if self.mode == FLOAT:
            return Matrix(FLOAT, self.rows, self.cols, -self._a, self.frame)
        D, R, I = self._a
        return Matrix(EXACT, self.rows, self.cols, (D, _negated(R), _negated(I)))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        self._chk(other)
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matmul")
        if self.mode == FLOAT:
            return Matrix(FLOAT, self.rows, other.cols, self._a @ other._a, self.frame)
        Da, AR, AI = self._a
        Db, BR, BI = other._a
        m = other.cols
        # columns of B, and of its imaginary part only when it has one;
        # a vanishing row of A (real or imaginary part) costs no products
        bre = list(zip(*BR)) or [()] * m
        bim = list(zip(*BI)) if any(map(any, BI)) else None
        R, I = [], []
        for ar, ai in zip(AR, AI):
            nr, ni = any(ar), any(ai)
            rr = [sum(map(mul, ar, c)) for c in bre] if nr else [0] * m
            ri = [sum(map(mul, ai, c)) for c in bre] if ni else [0] * m
            if bim is not None:
                if ni:
                    rr = [s - sum(map(mul, ai, c)) for s, c in zip(rr, bim)]
                if nr:
                    ri = [s + sum(map(mul, ar, c)) for s, c in zip(ri, bim)]
            R.append(rr)
            I.append(ri)
        return _exact(Da * Db, R, I, self.rows, m)

    def scale(self, c: Scalar) -> "Matrix":
        if self.mode != c.mode:
            raise ModeMismatchError("scaling with scalar of different mode")
        if self.mode == FLOAT:
            return Matrix(FLOAT, self.rows, self.cols, self._a * c.cx, self.frame)
        D, R, I = self._a
        dc = lcm(c.re.denominator, c.im.denominator)
        p = c.re.numerator * (dc // c.re.denominator)
        q = c.im.numerator * (dc // c.im.denominator)
        if q:
            R, I = (
                [[p * x - q * y for x, y in zip(rr, ri)] for rr, ri in zip(R, I)],
                [[q * x + p * y for x, y in zip(rr, ri)] for rr, ri in zip(R, I)],
            )
        else:
            R, I = [[p * x for x in r] for r in R], [[p * y for y in r] for r in I]
        return _exact(D * dc, R, I, self.rows, self.cols)

    def transpose(self) -> "Matrix":
        if self.mode == FLOAT:
            return Matrix(FLOAT, self.cols, self.rows, self._a.T.copy(), self.frame)
        D, R, I = self._a
        return Matrix(EXACT, self.cols, self.rows, (D, _transposed(R, self.cols), _transposed(I, self.cols)))

    def conj_transpose(self) -> "Matrix":
        if self.mode == FLOAT:
            return Matrix(FLOAT, self.cols, self.rows, self._a.conj().T.copy(), self.frame)
        D, R, I = self._a
        return Matrix(EXACT, self.cols, self.rows, (D, _transposed(R, self.cols), _negated(_transposed(I, self.cols))))

    def trace(self) -> Scalar:
        if self.rows != self.cols:
            raise ValueError("trace of non-square matrix")
        if self.mode == FLOAT:
            z = complex(np.trace(self._a))
            return Scalar(FLOAT, z.real, z.imag)
        D, R, I = self._a
        n = self.rows
        return Scalar(EXACT, Fraction(sum(R[i][i] for i in range(n)), D), Fraction(sum(I[i][i] for i in range(n)), D))

    def power(self, k: int) -> "Matrix":
        if self.rows != self.cols:
            raise ValueError("power of non-square matrix")
        out = Matrix.identity(self.rows, self.mode, self.frame)
        base = self
        while k:
            if k & 1:
                out = out @ base
            k >>= 1
            if k:
                base = base @ base
        return out

    def hstack(self, *others: "Matrix") -> "Matrix":
        for o in others:
            self._chk(o)
            if self.rows != o.rows:
                raise ValueError("row mismatch in hstack")
        cols = self.cols + sum(o.cols for o in others)
        if self.mode == FLOAT:
            return Matrix(FLOAT, self.rows, cols, np.hstack([self._a] + [o._a for o in others]), self.frame)
        D, parts = _common_denominator((self,) + others)
        R = [list(chain.from_iterable(rs)) for rs in zip(*(p[0] for p in parts))]
        I = [list(chain.from_iterable(rs)) for rs in zip(*(p[1] for p in parts))]
        return Matrix(EXACT, self.rows, cols, (D, R, I))

    def vstack(self, *others: "Matrix") -> "Matrix":
        for o in others:
            self._chk(o)
            if self.cols != o.cols:
                raise ValueError("column mismatch in vstack")
        rows = self.rows + sum(o.rows for o in others)
        if self.mode == FLOAT:
            return Matrix(FLOAT, rows, self.cols, np.vstack([self._a] + [o._a for o in others]), self.frame)
        D, parts = _common_denominator((self,) + others)
        R = [r for p in parts for r in p[0]]
        I = [r for p in parts for r in p[1]]
        return Matrix(EXACT, rows, self.cols, (D, R, I))

    def kron(self, other: "Matrix") -> "Matrix":
        """Kronecker product: entry (i p + k, j q + l) is self[i, j] *
        other[k, l] for other of shape p x q."""
        self._chk(other)
        rows, cols = self.rows * other.rows, self.cols * other.cols
        if self.mode == FLOAT:
            return Matrix(FLOAT, rows, cols, np.kron(self._a, other._a), self.frame)
        Da, AR, AI = self._a
        Db, BR, BI = other._a
        zeros = [0] * other.cols
        R, I = [], []
        for ar, ai in zip(AR, AI):
            for br, bi in zip(BR, BI):
                rr, ri = [], []
                for x, y in zip(ar, ai):
                    if not (x or y):
                        rr.extend(zeros)
                        ri.extend(zeros)
                    elif not y:
                        rr.extend(x * u for u in br)
                        ri.extend(x * v for v in bi)
                    else:
                        rr.extend(x * u - y * v for u, v in zip(br, bi))
                        ri.extend(x * v + y * u for u, v in zip(br, bi))
                R.append(rr)
                I.append(ri)
        return _exact(Da * Db, R, I, rows, cols)

    def norm(self) -> float:
        """Frobenius norm (float in both modes)."""
        if self.mode == FLOAT:
            return float(np.linalg.norm(self._a))
        D, R, I = self._a
        sq = sum(x * x for r in R for x in r) + sum(y * y for r in I for y in r)
        return math.sqrt(sq / (D * D))

    def is_zero(self) -> bool:
        """Entrywise exact zero test (use norms for float comparisons)."""
        if self.mode == FLOAT:
            return not self._a.any()
        _, R, I = self._a
        return not (any(map(any, R)) or any(map(any, I)))

    def negligible(self, scale: float = 1.0) -> bool:
        """Exact mode: every entry is exactly zero.  Float mode: the
        Frobenius norm is at most frame.eps_eq * scale."""
        if self.mode == EXACT:
            return self.is_zero()
        return self.norm() <= self.frame.eps_eq * scale

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.mode != other.mode or (self.rows, self.cols) != (other.rows, other.cols):
            return False
        if self.mode == FLOAT:
            return bool((self._a == other._a).all())
        return self._a == other._a

    def __hash__(self):
        if self.mode == EXACT:
            D, R, I = self._a
            return hash((EXACT, self.rows, self.cols, D, tuple(map(tuple, R)), tuple(map(tuple, I))))
        return hash((self.mode, self.rows, self.cols, tuple(self[i, j].cx for i in range(self.rows) for j in range(self.cols))))

    def close_to(self, other: "Matrix", tol: float | None = None) -> bool:
        if (self.rows, self.cols) != (other.rows, other.cols):
            return False
        tol = tol if tol is not None else (self.frame or DEFAULT_FRAME).eps_eq
        d = self.to_numpy() - other.to_numpy()
        scale = max(1.0, self.norm(), other.norm())
        return bool(np.abs(d).max() <= tol * scale)

    def __repr__(self):
        return f"<Matrix {self.mode} {self.rows}x{self.cols}>"

    # ------------------------------------------------------------------
    # serialization

    def to_json(self):
        if self.mode == EXACT:
            D, R, I = self._a
            return [
                [{"re": _q_text(x, D), "im": _q_text(y, D)} for x, y in zip(rr, ri)]
                for rr, ri in zip(R, I)
            ]
        return [[self[i, j].to_json() for j in range(self.cols)] for i in range(self.rows)]

    @staticmethod
    def from_json(obj, mode: str, frame: ToleranceFrame | None = None) -> "Matrix":
        rows = [[Scalar.from_json(x, mode) for x in row] for row in obj]
        if mode == EXACT:
            return _from_scalars(rows, len(rows), len(rows[0]) if rows else 0)
        return Matrix.flt([[s.cx for s in row] for row in rows], frame)


# ----------------------------------------------------------------------
# exact storage helpers: (D, R, I) integer grids over one denominator


def _zero_grid(rows: int, cols: int) -> list[list[int]]:
    return [[0] * cols for _ in range(rows)]


def _negated(G):
    return [[-x for x in r] for r in G]


def _transposed(G, cols: int):
    return [list(c) for c in zip(*G)] or [[] for _ in range(cols)]


def _exact(D: int, R, I, rows: int, cols: int) -> Matrix:
    """An exact matrix from numerators over D > 0, divided through by
    their common gcd with D."""
    if D != 1:
        g = gcd(D, *chain.from_iterable(R), *chain.from_iterable(I))
        if g != 1:
            D //= g
            R = [[x // g for x in r] for r in R]
            I = [[y // g for y in r] for r in I]
    return Matrix(EXACT, rows, cols, (D, R, I))


def _from_scalars(grid, rows: int, cols: int) -> Matrix:
    """An exact matrix from a grid of exact Scalars.  Over the lcm of the
    entries' reduced denominators the numerators share no factor with it."""
    D = lcm(*(q.denominator for row in grid for s in row for q in (s.re, s.im)))
    R = [[s.re.numerator * (D // s.re.denominator) for s in row] for row in grid]
    I = [[s.im.numerator * (D // s.im.denominator) for s in row] for row in grid]
    return Matrix(EXACT, rows, cols, (D, R, I))


def _common_denominator(mats):
    """(L, [(R, I) per matrix]) with every grid rescaled to L, the lcm of
    the denominators.  Stacking the rescaled grids of canonical matrices
    needs no further gcd: each prime power that divides L fully divides
    one of the denominators, and that matrix has a numerator it does not
    divide."""
    L = lcm(*(M._a[0] for M in mats))
    parts = []
    for M in mats:
        D, R, I = M._a
        f = L // D
        if f != 1:
            R = [[f * x for x in r] for r in R]
            I = [[f * y for y in r] for r in I]
        parts.append((R, I))
    return L, parts


def _q_text(n: int, D: int) -> str:
    """str(Fraction(n, D)) without building the Fraction."""
    g = gcd(n, D)
    if g == D:
        return str(n // D)
    return f"{n // g}/{D // g}"


# ----------------------------------------------------------------------
# exact elimination: fraction-free Gauss-Jordan over Z[i]
#
# A working row is a pair (x, y) of int lists, the Gaussian integers
# x[k] + y[k] i, with y None when the row is real.  Rows are kept
# primitive: the integer gcd of all their parts is 1.


def _primitive(x, y):
    """(x, y) divided by the gcd of its parts; None for the zero row."""
    g = gcd(*x, *y) if y is not None else gcd(*x)
    if g == 0:
        return None
    if g != 1:
        x = [u // g for u in x]
        if y is not None:
            y = [v // g for v in y]
    return x, y


def _cancel(row, prow, c: int):
    """pi * row - f * prow, made primitive, where pi = prow[c] and f =
    row[c]: the combination that clears column c without division.
    None when it is the zero row."""
    x, y = row
    px, py = prow
    a, b = px[c], (py[c] if py is not None else 0)
    e, f = x[c], (y[c] if y is not None else 0)
    g = gcd(a, b, e, f)
    a, b, e, f = a // g, b // g, e // g, f // g
    if y is None and py is None:
        return _primitive([a * u - e * p for u, p in zip(x, px)], None)
    zero = [0] * len(x)
    y = y if y is not None else zero
    py = py if py is not None else zero
    nx = [a * u - b * v - e * p + f * q for u, v, p, q in zip(x, y, px, py)]
    ny = [a * v + b * u - e * q - f * p for u, v, p, q in zip(x, y, px, py)]
    return _primitive(nx, ny if any(ny) else None)


def _rows(M: Matrix):
    """M's numerator rows as primitive working rows, zero rows dropped.
    The common denominator does not change the row space."""
    out = []
    for x, y in zip(M._a[1], M._a[2]):
        row = _primitive(x, y if any(y) else None)
        if row is not None:
            out.append(row)
    return out


def _nonzero_at(row, c: int) -> bool:
    return bool(row[0][c] or (row[1] is not None and row[1][c]))


def _abs2(row, c: int) -> int:
    x, y = row
    return x[c] * x[c] + (y[c] * y[c] if y is not None else 0)


def _rref_exact(M: Matrix, full: bool = True):
    """Fraction-free Gauss-Jordan elimination of M.  Returns (rows,
    pivots): rows[r] is the r-th row of the reduced row echelon form
    times its entry in column pivots[r].  With full=False only the rows
    below each pivot are cleared, which is all rank needs.

    The reduced echelon form is unique, so the choice of pivot row (the
    one with the smallest pivot) does not change the result; it only
    keeps the integers small."""
    work = _rows(M)
    done = []
    pivots = []
    for c in range(M.cols):
        if not work:
            break
        cand = [k for k, row in enumerate(work) if _nonzero_at(row, c)]
        if not cand:
            continue
        prow = work.pop(min(cand, key=lambda k: _abs2(work[k], c)))
        rest = []
        for row in work:
            if _nonzero_at(row, c):
                row = _cancel(row, prow, c)
            if row is not None:
                rest.append(row)
        work = rest
        if full:
            done = [_cancel(row, prow, c) if _nonzero_at(row, c) else row for row in done]
        done.append(prow)
        pivots.append(c)
    return done, pivots


def _reduced(rows, pivots, cols: Sequence[int]):
    """(D, R, I): the entries in columns cols of the reduced echelon rows,
    that is rows[r][j] / rows[r][pivots[r]], over one denominator."""
    parts = []
    for (x, y), p in zip(rows, pivots):
        xs = [x[j] for j in cols]
        ys = [y[j] for j in cols] if y is not None else [0] * len(xs)
        a, b = x[p], (y[p] if y is not None else 0)
        if b:
            # (u + v i) / (a + b i) = ((u a + v b) + (v a - u b) i) / (a^2 + b^2)
            den = a * a + b * b
            xs, ys = [u * a + v * b for u, v in zip(xs, ys)], [v * a - u * b for u, v in zip(xs, ys)]
        else:
            den = a  # may be negative: L // den below carries the sign
        g = gcd(den, *xs, *ys)
        if g != 1:
            den, xs, ys = den // g, [u // g for u in xs], [v // g for v in ys]
        parts.append((den, xs, ys))
    L = lcm(*(den for den, _, _ in parts))
    R = [[u * (L // den) for u in xs] for den, xs, _ in parts]
    I = [[v * (L // den) for v in ys] for den, _, ys in parts]
    return L, R, I


def _kernel(rows, pivots, n: int) -> Matrix | None:
    """The canonical kernel basis (one column per free column among the
    first n, unit in its free coordinate) read off reduced echelon rows,
    as one n x k matrix; None when there is no free column."""
    pivset = set(pivots)
    free = [c for c in range(n) if c not in pivset]
    if not free:
        return None
    D, BR, BI = _reduced(rows, pivots, free)
    R, I = _zero_grid(n, len(free)), _zero_grid(n, len(free))
    for r, p in enumerate(pivots):
        R[p] = [-u for u in BR[r]]
        I[p] = [-v for v in BI[r]]
    for k, f in enumerate(free):
        R[f][k] = D
    return Matrix(EXACT, n, len(free), (D, R, I))


def _pivot_block(rows, pivots, c0: int, c1: int, n: int) -> Matrix:
    """The n x (c1 - c0) matrix whose row p is the reduced echelon row with
    pivot p restricted to columns c0..c1-1, and zero where p is no pivot."""
    D, BR, BI = _reduced(rows, pivots, range(c0, c1))
    R, I = _zero_grid(n, c1 - c0), _zero_grid(n, c1 - c0)
    for r, p in enumerate(pivots):
        R[p], I[p] = BR[r], BI[r]
    return Matrix(EXACT, n, c1 - c0, (D, R, I))


class Span:
    """Incremental linear independence of n x 1 columns.

    Exact mode keeps one primitive Gaussian-integer row per accepted
    vector, reduced against the earlier rows by the fraction-free step
    of the Gauss-Jordan pass; float mode keeps orthonormal vectors and
    rejects a vector whose residual is at most eps_rank times its norm."""

    def __init__(self, n: int, mode: str, frame: ToleranceFrame | None = None):
        self.n = n
        self.mode = mode
        self.frame = frame or DEFAULT_FRAME
        self.basis = []  # exact: (pivot, working row); float: orthonormal numpy vectors

    @property
    def dim(self) -> int:
        return len(self.basis)

    def add(self, vec: Matrix) -> bool:
        """Try to add a column; True if it enlarged the span."""
        if self.mode == EXACT:
            _, R, I = vec._a
            y = [r[0] for r in I]
            cur = _primitive([r[0] for r in R], y if any(y) else None)
            for pivot, row in self.basis:
                if cur is None:
                    return False
                if _nonzero_at(cur, pivot):
                    cur = _cancel(cur, row, pivot)
            if cur is None:
                return False
            pivot = next(k for k in range(self.n) if _nonzero_at(cur, k))
            self.basis.append((pivot, cur))
            return True
        r = vec._a.reshape(-1)
        nrm = np.linalg.norm(r)
        if nrm == 0.0:
            return False
        for _ in range(2):  # re-orthogonalize once for stability
            for q in self.basis:
                r = r - (q.conj() @ r) * q
        rn = np.linalg.norm(r)
        if rn <= self.frame.eps_rank * nrm:
            return False
        self.basis.append(r / rn)
        return True


def rank(M: Matrix) -> int:
    """Rank: pivot count (exact) or singular values above
    eps_rank * sigma_max (float).  The zero matrix has rank 0."""
    if M.rows == 0 or M.cols == 0:
        return 0
    if M.mode == EXACT:
        return len(_rref_exact(M, full=False)[1])
    s = np.linalg.svd(M._a, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int((s > M.frame.eps_rank * s[0]).sum())


def kernel_basis(M: Matrix) -> list[Matrix]:
    """Basis of the right null space, as column matrices.

    Exact mode returns the canonical reduced-echelon kernel basis (one
    vector per free column, unit in its free coordinate).  Float mode
    returns right singular vectors belonging to singular values at or
    below the rank threshold.
    """
    if M.mode == EXACT:
        K = _kernel(*_rref_exact(M), M.cols)
        return [] if K is None else [K.col(k) for k in range(K.cols)]
    u, s, vh = np.linalg.svd(M._a)
    smax = s[0] if s.size else 0.0
    r = int((s > M.frame.eps_rank * smax).sum()) if smax > 0.0 else 0
    return [Matrix(FLOAT, M.cols, 1, vh[i].conj().reshape(-1, 1), M.frame) for i in range(r, M.cols)]


def solve(A: Matrix, b: Matrix) -> Matrix:
    """Solve A x = b (b a column).  Raises NoSolution when b is outside
    the column space; returns the least-norm solution when the system is
    underdetermined."""
    A._chk(b)
    if b.cols != 1 or b.rows != A.rows:
        raise ValueError("b must be a column of matching height")
    if A.mode == FLOAT:
        ra = rank(A)
        rab = rank(A.hstack(b))
        if rab > ra:
            raise NoSolutionError("right-hand side outside the column space")
        x, *_ = np.linalg.lstsq(A._a, b._a, rcond=None)
        return Matrix(FLOAT, A.cols, 1, x, A.frame)
    n = A.cols
    rows, pivots = _rref_exact(A.hstack(b))
    if n in pivots:
        raise NoSolutionError("right-hand side outside the column space")
    x0 = _pivot_block(rows, pivots, n, n + 1, n)
    # b is no pivot column, so the first n columns are the reduced
    # echelon form of A itself and carry its kernel
    K = _kernel(rows, pivots, n)
    if K is None:
        return x0
    # project the particular solution onto the orthogonal complement of
    # the kernel (Hermitian inner product), exactly: K^H K c = K^H x0
    Kh = K.conj_transpose()
    rows2, piv2 = _rref_exact((Kh @ K).hstack(Kh @ x0))
    return x0 - K @ _pivot_block(rows2, piv2, K.cols, K.cols + 1, K.cols)


def solve_matrix(A: Matrix, B: Matrix) -> Matrix:
    """Solve A X = B columnwise for full-column-rank A.  Exact mode reads
    X off one Gauss-Jordan pass of [A | B]; float mode uses least squares.
    Raises NoSolution when some column of B is outside the column space."""
    A._chk(B)
    if A.rows != B.rows:
        raise ValueError("row mismatch")
    if A.mode == FLOAT:
        x, res, rk, sv = np.linalg.lstsq(A._a, B._a, rcond=None)
        resid = A._a @ x - B._a
        scale = max(1.0, float(np.abs(B._a).max(initial=0.0)))
        if np.abs(resid).max(initial=0.0) > A.frame.eps_eq * scale * SOLVE_SLACK:
            raise NoSolutionError("columns outside the column space")
        return Matrix(FLOAT, A.cols, B.cols, x, A.frame)
    rows, pivots = _rref_exact(A.hstack(B))
    if any(p >= A.cols for p in pivots):
        raise NoSolutionError("columns outside the column space")
    if len(pivots) < A.cols:
        raise ValueError("coefficient matrix is column rank deficient")
    return _pivot_block(rows, pivots, A.cols, A.cols + B.cols, A.cols)


def inverse(M: Matrix) -> Matrix:
    """Exact or float inverse; raises ValueError when singular."""
    if M.rows != M.cols:
        raise ValueError("inverse of non-square matrix")
    if M.mode == FLOAT:
        if rank(M) < M.rows:
            raise ValueError("singular matrix")
        return Matrix(FLOAT, M.rows, M.cols, np.linalg.inv(M._a), M.frame)
    n = M.rows
    rows, pivots = _rref_exact(M.hstack(Matrix.identity(n, EXACT)))
    if len(pivots) < n or pivots[n - 1] != n - 1:
        raise ValueError("singular matrix")
    return _pivot_block(rows, pivots, n, 2 * n, n)


# ----------------------------------------------------------------------
# eigenvalues


def char_poly(M: Matrix) -> list[Scalar]:
    """Monic characteristic polynomial, coefficients [c0, ..., c_{n-1}, 1]
    with p(x) = sum c_k x^k.  Exact mode only (float callers use numpy
    directly)."""
    n = M.rows
    if n != M.cols:
        raise ValueError("characteristic polynomial of non-square matrix")
    # Faddeev-LeVerrier; divisions are by integers only
    coeffs = [Scalar.one(EXACT)]
    Ak = M
    cs = []
    for k in range(1, n + 1):
        if k > 1:
            Ak = M @ (Ak + Matrix.identity(n, EXACT).scale(cs[-1]))
        t = Ak.trace()
        ck = Scalar(EXACT, -t.re / k, -t.im / k)
        cs.append(ck)
    return cs[::-1] + coeffs  # [c0..c_{n-1}, 1]


def _poly_deflate(poly, lam: Scalar):
    """Exact division of the polynomial (D, A, B), coefficients (A[k] +
    B[k] i) / D, by (x - lam); the quotient in the same form, or None when
    the remainder is nonzero.  With lam = (a + b i) / q the Horner
    accumulator after j steps is an integer pair over D q^j."""
    D, A, B = poly
    q = lcm(lam.re.denominator, lam.im.denominator)
    a = lam.re.numerator * (q // lam.re.denominator)
    b = lam.im.numerator * (q // lam.im.denominator)
    n = len(A) - 1
    X, Y = A[n], B[n]
    QX, QY = [0] * n, [0] * n
    qj = 1
    for k in range(n - 1, -1, -1):
        QX[k], QY[k] = X, Y
        qj *= q
        X, Y = A[k] * qj + a * X - b * Y, B[k] * qj + a * Y + b * X
    if X or Y:
        return None
    # coefficient k is over D q^(n-1-k); bring all to D q^(n-1)
    qk = 1
    for k in range(n):
        QX[k] *= qk
        QY[k] *= qk
        qk *= q
    D *= q ** (n - 1)
    g = gcd(D, *QX, *QY)
    return D // g, [x // g for x in QX], [y // g for y in QY]


_DEN_BOUNDS = (1, 2, 6, 16, 120, 1024, 10**4, 10**6)


def _reconstruct(x: float, bound: int):
    return _to_q(Fraction(x).limit_denominator(bound))


def exact_roots(coeffs: list[Scalar]) -> list[tuple[Scalar, int]]:
    """All roots of a monic exact polynomial, with multiplicity, provided
    every root is a Gaussian rational with numerator/denominator within
    the search bounds.  Raises NonSplitCharPoly otherwise.

    Roots are located numerically, clustered, rounded to small-denominator
    Gaussian rationals and then verified by exact division; only exactly
    verified roots are accepted, so the accept path carries no floating
    point error.
    """
    D = lcm(*(q.denominator for c in coeffs for q in (c.re, c.im)))
    work = (
        D,
        [c.re.numerator * (D // c.re.denominator) for c in coeffs],
        [c.im.numerator * (D // c.im.denominator) for c in coeffs],
    )
    found: dict[tuple, int] = {}
    order: list[Scalar] = []
    while len(work[1]) > 1:
        D, A, B = work
        deg = len(A) - 1
        # int / int is correctly rounded, as float(Fraction) is
        arr = np.array([complex(x / D, y / D) for x, y in zip(A, B)], dtype=np.complex128)
        rts = np.roots(arr[::-1])
        scale = 1.0 + max(abs(r) for r in rts)
        tol = 1e-5 * scale
        # transitive clustering
        remaining = sorted(rts, key=lambda z: (z.real, z.imag))
        clusters: list[list[complex]] = []
        for z in remaining:
            for cl in clusters:
                if abs(z - cl[0]) <= tol:
                    cl.append(z)
                    break
            else:
                clusters.append([z])
        progressed = False
        for cl in clusters:
            mean = sum(cl) / len(cl)
            tried = None
            for bound in _DEN_BOUNDS:
                cand = Scalar(EXACT, _reconstruct(mean.real, bound), _reconstruct(mean.imag, bound))
                if cand == tried:
                    continue  # a looser bound gave the same rational
                tried = cand
                quot = _poly_deflate(work, cand)
                if quot is not None:
                    key = (cand.re, cand.im)
                    mult = 1
                    work = quot
                    while len(work[1]) > 1:
                        q2 = _poly_deflate(work, cand)
                        if q2 is None:
                            break
                        work = q2
                        mult += 1
                    if key in found:
                        found[key] += mult
                    else:
                        found[key] = mult
                        order.append(cand)
                    progressed = True
                    break
            if progressed:
                break
        if not progressed:
            raise NonSplitCharPolyError(f"no Gaussian-rational root found at degree {deg}")
    order.sort(key=lambda s: (s.re, s.im))
    return [(lam, found[(lam.re, lam.im)]) for lam in order]


def _float_eig_clusters(M: Matrix) -> list[tuple[complex, float]]:
    """Cluster numpy eigenvalues within eps_eq; returns (mean, spread)
    sorted by (Re, Im)."""
    w = np.linalg.eig(M._a)[0]
    scale = 1.0 + float(np.abs(w).max())
    tol = M.frame.eps_eq * scale
    clusters: list[list[complex]] = []
    for z in sorted(w, key=lambda x: (x.real, x.imag)):
        for cl in clusters:
            if abs(z - cl[0]) <= tol:
                cl.append(z)
                break
        else:
            clusters.append([z])
    out = []
    for cl in clusters:
        mean = sum(cl) / len(cl)
        out.append((mean, max(abs(z - mean) for z in cl)))
    out.sort(key=lambda t: (t[0].real, t[0].imag))
    return out


def eigenvalues(M: Matrix) -> list[Scalar]:
    """Distinct eigenvalues sorted by (Re, Im): exact roots of the
    characteristic polynomial (NonSplitCharPoly when it does not split
    over the Gaussian rationals), or numpy eigenvalues clustered within
    eps_eq."""
    if M.mode == EXACT:
        return [lam for lam, _ in exact_roots(char_poly(M))]
    return [Scalar(FLOAT, z.real, z.imag) for z, _ in _float_eig_clusters(M)]


def eigenspace(M: Matrix) -> tuple[Scalar, Matrix]:
    """The canonically smallest eigenvalue (by (Re, Im)) and a basis of
    its eigenspace as columns.

    Exact mode: the reduced-echelon kernel of M - lambda.  Float mode:
    right singular vectors of M - lambda at singular values within
    max(eps_rank * sigma_max, twice the cluster spread), falling back to
    the single best vector when thresholding rejects all (defective
    eigenvalues split by roughly sqrt(machine eps))."""
    n = M.rows
    if M.mode == EXACT:
        lam = exact_roots(char_poly(M))[0][0]
        ker = kernel_basis(M - Matrix.identity(n, EXACT).scale(lam))
        return lam, ker[0].hstack(*ker[1:])
    z, spread = _float_eig_clusters(M)[0]
    _, s, vh = np.linalg.svd(M._a - z * np.eye(n))
    smax = s[0] if s[0] > 0 else 1.0
    thresh = max(M.frame.eps_rank * smax, 2.0 * spread)
    cols = [vh[i].conj() for i in range(n) if s[i] <= thresh]
    if not cols:
        cols = [vh[n - 1].conj()]
    return Scalar(FLOAT, z.real, z.imag), Matrix(FLOAT, n, len(cols), np.array(cols).T, M.frame)


def complete_basis(w: Matrix) -> Matrix:
    """An invertible n x n matrix whose first column is the nonzero
    column w.  Exact mode appends the standard vectors that keep the
    columns independent, chosen greedily in order; float mode returns a
    unitary matrix, the QR factor of w beside every standard vector but
    the one where w is largest."""
    n = w.rows
    if w.mode == EXACT:
        span = Span(n, EXACT)
        span.add(w)
        cols = [w]
        for j in range(n):
            if len(cols) == n:
                break
            e = Matrix.exact([[1 if i == j else 0] for i in range(n)])
            if span.add(e):
                cols.append(e)
        return w.hstack(*cols[1:])
    v = w._a.reshape(-1)
    i0 = int(np.argmax(np.abs(v)))
    others = [np.eye(n)[:, j] for j in range(n) if j != i0]
    Q, _ = np.linalg.qr(np.column_stack([v] + others))
    return Matrix(FLOAT, n, n, Q, w.frame)
