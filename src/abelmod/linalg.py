"""Complex linear algebra over two interchangeable scalar backends.

Everything downstream works over one of two modes:

``exact``
    Gaussian rationals a + bi with a, b rational, kept always in lowest
    terms.  Results are reproducible bit for bit: rank and kernels come
    from fraction-free-style Gauss-Jordan elimination, eigenvalues from a
    verified search for roots of the characteristic polynomial.  When the
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
(rows of :class:`Scalar` when exact, a numpy array when float).  Callers
stay mode-blind through this surface:

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
from typing import Sequence

import numpy as np

from .errors import (
    ModeMismatchError,
    NonSplitCharPolyError,
    NoSolutionError,
)

try:
    from gmpy2 import mpq as _Q
except ImportError:  # pragma: no cover
    _Q = Fraction

EXACT = "exact"
FLOAT = "float"

_Q0 = _Q(0)
_Q1 = _Q(1)

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


def _to_q(x) -> object:
    """Coerce x to an exact rational.  Strings use the 'p/q' form."""
    if isinstance(x, (int, str)):
        return _Q(x)
    if isinstance(x, Fraction):
        return _Q(x.numerator, x.denominator)
    if type(x) is type(_Q0):
        return x
    if isinstance(x, float):
        if x != int(x):
            raise ValueError(f"refusing to coerce non-integral float {x!r} to exact")
        return _Q(int(x))
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

    Exact storage is a list of rows of :class:`Scalar`; float storage is a
    numpy complex128 array plus the owning :class:`ToleranceFrame`.
    Instances are treated as immutable; all operations return new
    matrices.
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
        return Matrix(EXACT, rows, cols, data)

    @staticmethod
    def flt(entries, frame: ToleranceFrame | None = None) -> "Matrix":
        a = np.array(entries, dtype=np.complex128)
        if a.ndim != 2:
            raise ValueError("need a 2-d array")
        return Matrix(FLOAT, a.shape[0], a.shape[1], a, frame or DEFAULT_FRAME)

    @staticmethod
    def identity(n: int, mode: str, frame: ToleranceFrame | None = None) -> "Matrix":
        if mode == EXACT:
            return Matrix.exact([[1 if i == j else 0 for j in range(n)] for i in range(n)])
        return Matrix.flt(np.eye(n, dtype=np.complex128), frame)

    @staticmethod
    def zeros(rows: int, cols: int, mode: str, frame: ToleranceFrame | None = None) -> "Matrix":
        if mode == EXACT:
            return Matrix.exact([[0] * cols for _ in range(rows)])
        return Matrix.flt(np.zeros((rows, cols), dtype=np.complex128), frame)

    @staticmethod
    def column(values: Sequence[Scalar], frame: ToleranceFrame | None = None) -> "Matrix":
        vals = list(values)
        if not vals:
            raise ValueError("empty column")
        mode = vals[0].mode
        if mode == EXACT:
            return Matrix(EXACT, len(vals), 1, [[v] for v in vals])
        return Matrix.flt(np.array([[v.cx] for v in vals]), frame)

    @staticmethod
    def diag(values: Sequence[Scalar], frame: ToleranceFrame | None = None) -> "Matrix":
        vals = list(values)
        n = len(vals)
        mode = vals[0].mode
        if mode == EXACT:
            rows = [[vals[i] if i == j else Scalar.zero(EXACT) for j in range(n)] for i in range(n)]
            return Matrix(EXACT, n, n, rows)
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
        z = Scalar.zero(EXACT)
        rows = []
        off = 0
        for B in blocks:
            for r in B._a:
                rows.append([z] * off + list(r) + [z] * (n - off - B.rows))
            off += B.rows
        return Matrix(EXACT, n, n, rows)

    # ------------------------------------------------------------------
    # access

    def __getitem__(self, ij) -> Scalar:
        i, j = ij
        if self.mode == EXACT:
            return self._a[i][j]
        z = self._a[i, j]
        return Scalar(FLOAT, z.real, z.imag)

    def col(self, j: int) -> "Matrix":
        if self.mode == EXACT:
            return Matrix(EXACT, self.rows, 1, [[self._a[i][j]] for i in range(self.rows)])
        return Matrix(FLOAT, self.rows, 1, self._a[:, j : j + 1].copy(), self.frame)

    def col_scalars(self, j: int) -> list[Scalar]:
        return [self[i, j] for i in range(self.rows)]

    def submatrix(self, r0: int, r1: int, c0: int, c1: int) -> "Matrix":
        """Rows r0..r1-1 and columns c0..c1-1, as a new matrix."""
        if self.mode == FLOAT:
            return Matrix(FLOAT, r1 - r0, c1 - c0, self._a[r0:r1, c0:c1].copy(), self.frame)
        return Matrix(EXACT, r1 - r0, c1 - c0, [row[c0:c1] for row in self._a[r0:r1]])

    def strict_lower(self) -> "Matrix":
        """The entries below the diagonal, zeros elsewhere."""
        if self.mode == FLOAT:
            return Matrix(FLOAT, self.rows, self.cols, np.tril(self._a, -1), self.frame)
        z = Scalar.zero(EXACT)
        data = [[s if j < i else z for j, s in enumerate(row)] for i, row in enumerate(self._a)]
        return Matrix(EXACT, self.rows, self.cols, data)

    def to_numpy(self) -> np.ndarray:
        if self.mode == FLOAT:
            return self._a.copy()
        return np.array(
            [[complex(self._a[i][j].re, self._a[i][j].im) for j in range(self.cols)] for i in range(self.rows)],
            dtype=np.complex128,
        )

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
        data = [
            [
                Scalar(EXACT, a.re + b.re, a.im + b.im)
                for a, b in zip(ra, rb)
            ]
            for ra, rb in zip(self._a, other._a)
        ]
        return Matrix(EXACT, self.rows, self.cols, data)

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._chk(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in subtract")
        if self.mode == FLOAT:
            return Matrix(FLOAT, self.rows, self.cols, self._a - other._a, self.frame)
        data = [
            [a if not (b.re or b.im) else Scalar(EXACT, a.re - b.re, a.im - b.im) for a, b in zip(ra, rb)]
            for ra, rb in zip(self._a, other._a)
        ]
        return Matrix(EXACT, self.rows, self.cols, data)

    def __neg__(self) -> "Matrix":
        if self.mode == FLOAT:
            return Matrix(FLOAT, self.rows, self.cols, -self._a, self.frame)
        data = [[Scalar(EXACT, -s.re, -s.im) for s in row] for row in self._a]
        return Matrix(EXACT, self.rows, self.cols, data)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        self._chk(other)
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matmul")
        if self.mode == FLOAT:
            return Matrix(FLOAT, self.rows, other.cols, self._a @ other._a, self.frame)
        B = other._a
        out = []
        for i in range(self.rows):
            arow = self._a[i]
            orow = []
            for j in range(other.cols):
                sr = _Q0
                si = _Q0
                for k in range(self.cols):
                    s = arow[k]
                    if s.re or s.im:
                        t = B[k][j]
                        if t.re or t.im:
                            sr += s.re * t.re - s.im * t.im
                            si += s.re * t.im + s.im * t.re
                orow.append(Scalar(EXACT, sr, si))
            out.append(orow)
        return Matrix(EXACT, self.rows, other.cols, out)

    def scale(self, c: Scalar) -> "Matrix":
        if self.mode != c.mode:
            raise ModeMismatchError("scaling with scalar of different mode")
        if self.mode == FLOAT:
            return Matrix(FLOAT, self.rows, self.cols, self._a * c.cx, self.frame)
        data = [
            [Scalar(EXACT, s.re * c.re - s.im * c.im, s.re * c.im + s.im * c.re) for s in row]
            for row in self._a
        ]
        return Matrix(EXACT, self.rows, self.cols, data)

    def transpose(self) -> "Matrix":
        if self.mode == FLOAT:
            return Matrix(FLOAT, self.cols, self.rows, self._a.T.copy(), self.frame)
        data = [[self._a[i][j] for i in range(self.rows)] for j in range(self.cols)]
        return Matrix(EXACT, self.cols, self.rows, data)

    def conj_transpose(self) -> "Matrix":
        if self.mode == FLOAT:
            return Matrix(FLOAT, self.cols, self.rows, self._a.conj().T.copy(), self.frame)
        data = [[self._a[i][j].conj() for i in range(self.rows)] for j in range(self.cols)]
        return Matrix(EXACT, self.cols, self.rows, data)

    def trace(self) -> Scalar:
        if self.rows != self.cols:
            raise ValueError("trace of non-square matrix")
        if self.mode == FLOAT:
            z = complex(np.trace(self._a))
            return Scalar(FLOAT, z.real, z.imag)
        sr, si = _Q0, _Q0
        for i in range(self.rows):
            sr += self._a[i][i].re
            si += self._a[i][i].im
        return Scalar(EXACT, sr, si)

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
        data = [list(r) for r in self._a]
        for o in others:
            for row, extra in zip(data, o._a):
                row.extend(extra)
        return Matrix(EXACT, self.rows, cols, data)

    def vstack(self, *others: "Matrix") -> "Matrix":
        for o in others:
            self._chk(o)
            if self.cols != o.cols:
                raise ValueError("column mismatch in vstack")
        rows = self.rows + sum(o.rows for o in others)
        if self.mode == FLOAT:
            return Matrix(FLOAT, rows, self.cols, np.vstack([self._a] + [o._a for o in others]), self.frame)
        return Matrix(EXACT, rows, self.cols, [list(r) for M in (self,) + others for r in M._a])

    def kron(self, other: "Matrix") -> "Matrix":
        """Kronecker product: entry (i p + k, j q + l) is self[i, j] *
        other[k, l] for other of shape p x q."""
        self._chk(other)
        rows, cols = self.rows * other.rows, self.cols * other.cols
        if self.mode == FLOAT:
            return Matrix(FLOAT, rows, cols, np.kron(self._a, other._a), self.frame)
        z = Scalar.zero(EXACT)
        zeros = [z] * other.cols
        data = []
        for ra in self._a:
            for rb in other._a:
                row = []
                for a in ra:
                    if not (a.re or a.im):
                        row.extend(zeros)
                    elif a.re == 1 and not a.im:
                        row.extend(rb)
                    else:
                        row.extend(a * b if b.re or b.im else z for b in rb)
                data.append(row)
        return Matrix(EXACT, rows, cols, data)

    def norm(self) -> float:
        """Frobenius norm (float in both modes)."""
        if self.mode == FLOAT:
            return float(np.linalg.norm(self._a))
        return math.sqrt(sum(float(s.abs2()) for row in self._a for s in row))

    def is_zero(self) -> bool:
        """Entrywise exact zero test (use norms for float comparisons)."""
        if self.mode == FLOAT:
            return not self._a.any()
        return all(s.is_zero() for row in self._a for s in row)

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
        return all(a == b for ra, rb in zip(self._a, other._a) for a, b in zip(ra, rb))

    def __hash__(self):
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
        return [[self[i, j].to_json() for j in range(self.cols)] for i in range(self.rows)]

    @staticmethod
    def from_json(obj, mode: str, frame: ToleranceFrame | None = None) -> "Matrix":
        rows = [[Scalar.from_json(x, mode) for x in row] for row in obj]
        if mode == EXACT:
            return Matrix(EXACT, len(rows), len(rows[0]) if rows else 0, rows)
        return Matrix.flt([[s.cx for s in row] for row in rows], frame)


# ----------------------------------------------------------------------
# exact Gauss-Jordan machinery


def _normalized(row: list[Scalar], c: int) -> list[Scalar]:
    """row divided by its entry in column c (nonzero)."""
    piv = row[c]
    pr_, pi_ = piv.re, piv.im
    den = pr_ * pr_ + pi_ * pi_
    inv_re, inv_im = pr_ / den, -pi_ / den
    return [
        Scalar(EXACT, s.re * inv_re - s.im * inv_im, s.re * inv_im + s.im * inv_re) if s.re or s.im else s
        for s in row
    ]


def _subtract_multiple(tgt: list[Scalar], src: list[Scalar], f: Scalar, start: int) -> None:
    """tgt[j] -= f * src[j] in place for j >= start (src is zero before)."""
    ref, imf = f.re, f.im
    for j in range(start, len(src)):
        s = src[j]
        if s.re or s.im:
            t = tgt[j]
            tgt[j] = Scalar(EXACT, t.re - (ref * s.re - imf * s.im), t.im - (ref * s.im + imf * s.re))


def _rref_exact(data: list[list[Scalar]], ncols: int):
    """Reduced row echelon form of a list-of-rows copy.  Returns
    (rref rows, pivot column list)."""
    rows = [list(r) for r in data]
    nrows = len(rows)
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, nrows):
            if rows[i][c].re or rows[i][c].im:
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        rows[r] = _normalized(rows[r], c)
        for i in range(nrows):
            if i == r:
                continue
            f = rows[i][c]
            if f.re or f.im:
                _subtract_multiple(rows[i], rows[r], f, c)
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


class Span:
    """Incremental linear independence of n x 1 columns.

    Exact mode keeps one row per accepted vector, reduced by the
    elimination step of the Gauss-Jordan pass and scaled to 1 at its
    pivot; float mode keeps orthonormal vectors and rejects a vector
    whose residual is at most eps_rank times its norm."""

    def __init__(self, n: int, mode: str, frame: ToleranceFrame | None = None):
        self.n = n
        self.mode = mode
        self.frame = frame or DEFAULT_FRAME
        self.basis = []  # exact: (pivot, reduced row); float: orthonormal numpy vectors

    @property
    def dim(self) -> int:
        return len(self.basis)

    def add(self, vec: Matrix) -> bool:
        """Try to add a column; True if it enlarged the span."""
        if self.mode == EXACT:
            cur = [row[0] for row in vec._a]
            for pivot, row in self.basis:
                c = cur[pivot]
                if c.re or c.im:
                    _subtract_multiple(cur, row, c, pivot)
            pivot = next((k for k, s in enumerate(cur) if s.re or s.im), None)
            if pivot is None:
                return False
            self.basis.append((pivot, _normalized(cur, pivot)))
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
        _, pivots = _rref_exact(M._a, M.cols)
        return len(pivots)
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
        rref, pivots = _rref_exact(M._a, M.cols)
        pivset = set(pivots)
        free = [c for c in range(M.cols) if c not in pivset]
        basis = []
        for f in free:
            vec = [Scalar.zero(EXACT) for _ in range(M.cols)]
            vec[f] = Scalar.one(EXACT)
            for r_i, p in enumerate(pivots):
                vec[p] = -rref[r_i][f]
            basis.append(Matrix(EXACT, M.cols, 1, [[v] for v in vec]))
        return basis
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
    aug = A.hstack(b)
    rref, pivots = _rref_exact(aug._a, aug.cols)
    if A.cols in pivots:
        raise NoSolutionError("right-hand side outside the column space")
    x = [Scalar.zero(EXACT) for _ in range(A.cols)]
    for r_i, p in enumerate(pivots):
        x[p] = rref[r_i][A.cols]
    x0 = Matrix(EXACT, A.cols, 1, [[v] for v in x])
    ker = kernel_basis(A)
    if not ker:
        return x0
    # project the particular solution onto the orthogonal complement of
    # the kernel (Hermitian inner product), exactly
    K = ker[0]
    for k in ker[1:]:
        K = K.hstack(k)
    Kh = K.conj_transpose()
    G = Kh @ K
    rhs = Kh @ x0
    aug2 = G.hstack(rhs)
    rr2, piv2 = _rref_exact(aug2._a, aug2.cols)
    c = [Scalar.zero(EXACT) for _ in range(K.cols)]
    for r_i, p in enumerate(piv2):
        if p < K.cols:
            c[p] = rr2[r_i][K.cols]
    corr = K @ Matrix(EXACT, K.cols, 1, [[v] for v in c])
    return x0 - corr


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
    aug = A.hstack(B)
    rref, pivots = _rref_exact(aug._a, aug.cols)
    if any(p >= A.cols for p in pivots):
        raise NoSolutionError("columns outside the column space")
    if len(pivots) < A.cols:
        raise ValueError("coefficient matrix is column rank deficient")
    data = [rref[r][A.cols :] for r in range(A.cols)]
    return Matrix(EXACT, A.cols, B.cols, data)


def inverse(M: Matrix) -> Matrix:
    """Exact or float inverse; raises ValueError when singular."""
    if M.rows != M.cols:
        raise ValueError("inverse of non-square matrix")
    if M.mode == FLOAT:
        if rank(M) < M.rows:
            raise ValueError("singular matrix")
        return Matrix(FLOAT, M.rows, M.cols, np.linalg.inv(M._a), M.frame)
    aug = M.hstack(Matrix.identity(M.rows, EXACT))
    rref, pivots = _rref_exact(aug._a, aug.cols)
    if len(pivots) < M.rows or pivots[M.rows - 1] != M.rows - 1:
        raise ValueError("singular matrix")
    data = [row[M.cols :] for row in rref[: M.rows]]
    return Matrix(EXACT, M.rows, M.cols, data)


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


def _poly_eval(coeffs: list[Scalar], x: Scalar) -> Scalar:
    acc = Scalar.zero(EXACT)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _poly_deflate(coeffs: list[Scalar], lam: Scalar) -> list[Scalar] | None:
    """Divide by (x - lam); returns quotient coefficients or None when the
    remainder is nonzero."""
    n = len(coeffs) - 1
    out = [None] * n
    acc = coeffs[n]
    for k in range(n - 1, -1, -1):
        out[k] = acc
        acc = coeffs[k] + lam * acc
    if acc.is_zero():
        return out
    return None


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
    work = list(coeffs)
    found: dict[tuple, int] = {}
    order: list[Scalar] = []
    while len(work) > 1:
        deg = len(work) - 1
        arr = np.array([c.cx for c in work], dtype=np.complex128)
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
            for bound in _DEN_BOUNDS:
                cand = Scalar(EXACT, _reconstruct(mean.real, bound), _reconstruct(mean.imag, bound))
                quot = _poly_deflate(work, cand)
                if quot is not None:
                    key = (cand.re, cand.im)
                    mult = 1
                    work = quot
                    while len(work) > 1:
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
