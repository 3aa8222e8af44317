"""Complex linear algebra over two interchangeable scalar backends.

Everything downstream works over one of two modes:

``exact``
    Gaussian rationals a + bi with a, b rational.  A matrix keeps Python
    int numerators (real and imaginary grids) over one common
    denominator; a :class:`Scalar` entry is two ``Fraction`` values in
    lowest terms.  Results are reproducible bit for bit: rank, kernels,
    solutions and inverses come from fraction-free Gauss-Jordan
    elimination over the Gaussian integers.  Eigenvalues are the roots of
    the characteristic polynomial, which rescaled by the lcm D of its
    coefficient denominators are Gaussian integers over D: each is found
    by an integer Newton walk from a float root of the polynomial scaled
    by a power of two, and accepted only when it divides the polynomial
    exactly over Z[i].  When the characteristic polynomial does not split
    into linear factors over the Gaussian rationals, eigenvalue-dependent
    operations raise :class:`~abelmod.errors.NonSplitCharPolyError`.
    Points sort by their exact (Re, Im).  The float scales of exact data
    (``Matrix.norm``, ``abs``), which exact decisions ignore, are
    ``math.inf`` past the double range.

``float``
    IEEE complex128 backed by numpy.  Rank decisions go through singular
    values thresholded by an explicit :class:`ToleranceFrame`; nothing is
    compared for equality without a tolerance.  Frobenius norms are
    ``math.inf`` only past the double range.

A computation never silently mixes modes; combining an exact matrix with
a float one raises :class:`~abelmod.errors.ModeMismatchError`.

This module is the only one that knows how a :class:`Matrix` is stored
(integer grids over one denominator when exact, a numpy array when
float).  ``Fraction`` values are built where a :class:`Scalar` leaves a
matrix (``Matrix[i, j]``, the coefficients of ``char_poly``, the roots
of ``exact_roots``, the points of ``primary_decomposition``), where
``Poly.terms`` is read (``from_numerators``), and in ``Scalar.exact``.  Exact matrices are read in without them:
``Matrix.exact``, ``Matrix.from_json``, ``Matrix.column`` and
``Matrix.diag`` share one grid reader that takes each entry as
(numerator, denominator) pairs.  It reads plain integer and 'p/q' text
directly; any other scalar text (decimals, exponents, whitespace,
underscores, non-ASCII digits) goes through ``Fraction``, so every value
stays the one ``Fraction`` gives.  An all-int grid is stored as it is.
The exact spectral kernel works on the integer grids too: ``char_poly``
runs Faddeev-LeVerrier on the Gaussian-integer numerators, where each
division is exact over Z[i], and ``primary_decomposition`` reads each
generalized eigenspace off the Taylor coefficients of the adjugate's
columns at its root, with no n x n elimination, and forms its
restrictions and separation test on numerators; it computes no float
scale (``norm``) of exact data.
A document's ``"mode"`` is read by ``parse_mode``, which refuses
anything but ``"exact"`` and ``"float"``.  Callers stay mode-blind
through this surface:

* construction: ``Matrix.exact``, ``Matrix.flt``, ``Matrix.identity``,
  ``Matrix.zeros``, ``Matrix.column`` and ``Matrix.diag`` (both taking a
  ``frame``), ``Matrix.block_diag``, ``Scalar.of``;
* numerators: ``to_numerators`` turns Scalars into (re, im) pairs over
  one denominator, Gaussian integers over the lcm of their denominators
  when exact and the float parts over 1 when float, and
  ``from_numerators`` turns them back; ``dalgebra.Poly`` does all its
  arithmetic on these pairs;
* access and assembly: ``Matrix[i, j]``, ``col``, ``submatrix``,
  ``strict_lower``, variadic ``hstack`` / ``vstack``, ``kron``;
* decisions: ``Scalar.negligible(eps)`` and ``Matrix.negligible(scale)``,
  an exact-zero test in exact mode and ``norm <= eps_eq * scale`` in
  float mode; ``Scalar.equal_within(other, tol)``, identity for two
  exact values; ``Scalar.sort_key`` for canonical ordering;
* ``Scalar.exp`` and ``Scalar.log``, exact at exact 0 and 1 respectively;
* elimination: ``rank``, ``kernel_basis``, ``solve_matrix`` (``solve``
  is its one-column case), ``inverse``, and the incremental
  :class:`Span`, which serves the staircase walk of ``adhm``: it forms
  the images of the marking under the members itself, and in exact mode
  reads the multiplication matrices off the reductions of the rejected
  border images, on Gaussian-integer lists with no solve (float mode
  solves);
* spectra: ``char_poly`` and ``exact_roots`` (exact only); in float
  mode every decision that two computed eigenvalues are one point is
  taken by ``_eigen_groups``, relative to the matrix's own scale and to
  each eigenvalue's condition number, one call serving a stack of
  matrices (L, or the restrictions of all the pieces of one length);
* flags: ``null_vector`` (one vector of a kernel, with no threshold in
  float mode), ``complete_basis``, and ``flag_basis``, which deflates a
  commuting tuple along its joint spectrum with both (in float mode on
  one stack of the trailing blocks per step);
* ``all_nilpotent``, ``Matrix.is_nilpotent`` for a list of matrices,
  with one norm call in float mode;
* joint spectra: ``primary_decomposition``, the support points of a
  commuting tuple with their multiplicities, joint generalized
  eigenspaces and restrictions, by the eigenvalue method in both modes:
  exact pieces come off the Faddeev-LeVerrier adjugate
  (``_exact_pieces``), float ones off singular vectors and restricted
  per piece length (``_restrict``).
"""

from __future__ import annotations

import cmath
import math
import re
from contextlib import suppress
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import add, mul, sub
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
    "parse_mode",
    "Scalar",
    "to_numerators",
    "from_numerators",
    "ToleranceFrame",
    "Matrix",
    "Span",
    "INVARIANCE_SLACK",
    "SOLVE_SLACK",
    "rank",
    "kernel_basis",
    "null_vector",
    "solve",
    "solve_matrix",
    "inverse",
    "char_poly",
    "exact_roots",
    "primary_decomposition",
    "complete_basis",
    "flag_basis",
    "all_nilpotent",
]

# Float residual slack, in units of eps_eq times the data scale: a flag or
# a subspace is invariant when the strict lower part of the adapted tuple,
# or the residual of the restriction, is within INVARIANCE_SLACK, and
# solve_matrix accepts a least-squares solution whose residual is within
# SOLVE_SLACK.
INVARIANCE_SLACK = 10
SOLVE_SLACK = 100


def parse_mode(value) -> str:
    """The arithmetic mode an input document names, "exact" or "float";
    any other value is a ValueError."""
    if value == EXACT or value == FLOAT:
        return value
    raise ValueError(f"unknown mode {value!r} (expected {EXACT!r} or {FLOAT!r})")


# an ASCII integer or 'p/q': the scalar text that skips Fraction's parser
_PLAIN_Q = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def _to_q(x) -> Fraction:
    """Coerce x to an exact rational.  Strings take Fraction's forms
    ('p/q', decimals, exponents); a zero denominator is a ValueError."""
    if isinstance(x, (int, str)):
        try:
            return Fraction(x)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {x!r}") from None
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        if x != int(x):
            raise ValueError(f"refusing to coerce non-integral float {x!r} to exact")
        return Fraction(int(x))
    raise TypeError(f"cannot coerce {type(x).__name__} to exact rational")


def _q_pair(x) -> tuple[int, int]:
    """The numerator and positive denominator of _to_q(x), in lowest
    terms.  Plain integer and 'p/q' strings are read without Fraction."""
    if isinstance(x, str):
        m = _PLAIN_Q.fullmatch(x)
        if m:
            p, q = m.groups()
            if q is None:
                return int(p), 1
            p, q = int(p), int(q)
            if q:
                g = gcd(p, q)
                return p // g, q // g
    x = _to_q(x)
    return x.numerator, x.denominator


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

    def exp(self) -> "Scalar":
        """e^z: exact 1 at an exact 0, a float everywhere else."""
        if self.mode == EXACT and self.is_zero():
            return Scalar.one(EXACT)
        return Scalar.from_complex(cmath.exp(self.cx))

    def log(self) -> "Scalar":
        """The principal logarithm: exact 0 at an exact 1, a float
        everywhere else (Im in (-pi, pi])."""
        if self == Scalar.one(EXACT):
            return Scalar.zero(EXACT)
        return Scalar.from_complex(cmath.log(self.cx))

    def equal_within(self, other: "Scalar", tol: float, fold=None) -> bool:
        """Identical when both are exact (never read as floats), otherwise
        |fold(self - other)| <= tol, fold (if given) reducing a difference
        modulo a chart's periods."""
        if self.mode == other.mode == EXACT:
            return self.re == other.re and self.im == other.im
        d = self.cx - other.cx
        return abs(fold(d) if fold else d) <= tol

    def sort_key(self):
        """Canonical ordering by (Re, Im), compared exactly in exact mode
        and as doubles in float mode; a float value equal to an exact one
        sorts first."""
        return (self.re, self.im, self.mode == EXACT)

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
        return Scalar(self.mode, *_quotient(self.re, self.im, other.re, other.im))

    def __neg__(self) -> "Scalar":
        return Scalar(self.mode, -self.re, -self.im)

    def __abs__(self) -> float:
        """|z| as a float; math.inf past the double range."""
        try:
            return math.hypot(float(self.re), float(self.im))
        except OverflowError:
            return math.inf

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
        if parse_mode(mode) == EXACT:
            return Scalar.exact(obj["re"], obj["im"])
        return Scalar.flt(float(obj["re"]), float(obj["im"]))


def to_numerators(mode: str, values: Sequence[Scalar]) -> tuple[int, list[tuple]]:
    """(D, [(re, im), ...]): the values as numerator pairs over one
    denominator.  Exact values become Gaussian integers over the lcm D of
    their denominators, sharing no factor with it; float values are their
    two parts as Python floats over D = 1.  A value of another mode is a
    ModeMismatchError."""
    values = list(values)
    if any(x.mode != mode for x in values):
        raise ModeMismatchError(f"scalar of another mode among {mode} values")
    if mode != EXACT:
        return 1, [(float(x.re), float(x.im)) for x in values]
    D = lcm(*(q.denominator for x in values for q in (x.re, x.im)))
    return D, [(x.re.numerator * (D // x.re.denominator), x.im.numerator * (D // x.im.denominator)) for x in values]


def from_numerators(mode: str, D: int, pairs) -> list[Scalar]:
    """The Scalars (re + im i) / D of numerator pairs over D, as
    to_numerators gives them (D is 1 in float mode)."""
    if mode == EXACT:
        return [Scalar(EXACT, Fraction(a, D), Fraction(b, D)) for a, b in pairs]
    return [Scalar(FLOAT, a, b) for a, b in pairs]


def _quotient(a, b, c, d):
    """(re, im) of (a + b i) / (c + d i), rational or float parts alike;
    ZeroDivisionError when c^2 + d^2 is 0."""
    den = c * c + d * d
    if not den:
        raise ZeroDivisionError("scalar division by zero")
    return (a * c + b * d) / den, (b * c - a * d) / den


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
        if not all(0 < x < math.inf for x in (self.eps_rank, self.eps_eq, self.eps_lattice)):
            raise ValueError("tolerances must be positive and finite")
        if self.eps_eq > self.eps_lattice:
            raise ValueError("eps_eq must not exceed eps_lattice")

    def to_json(self):
        return {"eps_rank": self.eps_rank, "eps_eq": self.eps_eq, "eps_lattice": self.eps_lattice}

    @staticmethod
    def from_json(obj) -> "ToleranceFrame":
        return ToleranceFrame(obj["eps_rank"], obj["eps_eq"], obj["eps_lattice"])


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
        rationals, (re, im) pairs, or exact Scalars; ragged or empty
        grids are a ValueError."""
        return _from_grid(entries, _entry_parts)

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
            return _from_grid([[v] for v in vals], _entry_parts)
        return Matrix.flt(np.array([[v.cx] for v in vals]), frame)

    @staticmethod
    def diag(values: Sequence[Scalar], frame: ToleranceFrame | None = None) -> "Matrix":
        vals = list(values)
        n = len(vals)
        mode = vals[0].mode
        if mode == EXACT:
            grid = [[vals[i] if i == j else 0 for j in range(n)] for i in range(n)]
            return _from_grid(grid, _entry_parts)
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

    # ------------------------------------------------------------------
    # arithmetic

    def _chk(self, other: "Matrix"):
        if self.mode != other.mode:
            raise ModeMismatchError(f"{self.mode} matrix combined with {other.mode} matrix")

    def _entrywise(self, other: "Matrix", op, what: str) -> "Matrix":
        self._chk(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError(f"shape mismatch in {what}")
        if self.mode == FLOAT:
            return Matrix(FLOAT, self.rows, self.cols, op(self._a, other._a), self.frame)
        D, ((Ra, Ia), (Rb, Ib)) = _common_denominator((self, other))
        R = [list(map(op, ra, rb)) for ra, rb in zip(Ra, Rb)]
        I = [list(map(op, ra, rb)) for ra, rb in zip(Ia, Ib)]
        return _exact(D, R, I, self.rows, self.cols)

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._entrywise(other, add, "add")

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._entrywise(other, sub, "subtract")

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
        R, I = _grid_mul(AR, AI, BR, BI, other.cols)
        return _exact(Da * Db, R, I, self.rows, other.cols)

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

    def power(self, k: int) -> "Matrix":
        if self.rows != self.cols:
            raise ValueError("power of non-square matrix")
        if not k:
            return Matrix.identity(self.rows, self.mode, self.frame)
        return _power(self, k)

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
        pairs = [(ar, ai, br, bi) for ar, ai in zip(AR, AI) for br, bi in zip(BR, BI)]
        if any(map(any, AI)) or any(map(any, BI)):
            R = [[x * u - y * v for x, y in zip(ar, ai) for u, v in zip(br, bi)] for ar, ai, br, bi in pairs]
            I = [[x * v + y * u for x, y in zip(ar, ai) for u, v in zip(br, bi)] for ar, ai, br, bi in pairs]
        else:
            # two real factors, as criterion 2's exact members are: no
            # imaginary products
            R = [[x * u for x in ar for u in br] for ar, _, br, _ in pairs]
            I = _zero_grid(rows, cols)
        return _exact(Da * Db, R, I, rows, cols)

    def norm(self) -> float:
        """Frobenius norm, a float in both modes: math.inf only past the
        double range (see :func:`_frobenius`); in exact mode math.inf once
        its square is past it."""
        if self.mode == FLOAT:
            return _frobenius(self._a)
        D, R, I = self._a
        sq = sum(x * x for r in R for x in r) + sum(y * y for r in I for y in r)
        try:
            return math.sqrt(sq / (D * D))
        except OverflowError:
            return math.inf

    def is_zero(self) -> bool:
        """Entrywise exact zero test (use norms for float comparisons)."""
        if self.mode == FLOAT:
            return not self._a.any()
        _, R, I = self._a
        return not (any(map(any, R)) or any(map(any, I)))

    def negligible(self, scale: float) -> bool:
        """Exact mode: every entry is exactly zero.  Float mode: the
        Frobenius norm is at most frame.eps_eq * scale, scale being the
        size of the data the matrix comes from (a fixed one is absolute)."""
        if self.mode == EXACT:
            return self.is_zero()
        return self.norm() <= self.frame.eps_eq * scale

    def commutes_with(self, other: "Matrix") -> bool:
        """Exact mode: the two products are equal.  Float mode: the
        commutator's Frobenius norm is at most eps_eq |self| |other|."""
        AB, BA = self @ other, other @ self
        if self.mode == EXACT:
            return AB == BA
        return (AB - BA).negligible(max(self.norm() * other.norm(), 1e-300))

    def is_nilpotent(self) -> bool:
        """Whether M^n vanishes for n x n M (see :func:`all_nilpotent`)."""
        return all_nilpotent([self])

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
        if parse_mode(mode) == EXACT:
            return _from_grid(obj, lambda x: (*_q_pair(x["re"]), *_q_pair(x["im"])))
        return Matrix.flt([[complex(float(x["re"]), float(x["im"])) for x in row] for row in obj], frame)


def all_nilpotent(mats: Sequence[Matrix]) -> bool:
    """Whether M^n vanishes for every n x n M of mats, of one size and
    mode: exactly in exact mode, within eps_eq max(1, |M|)^n (Frobenius)
    in float mode, where M^n is taken on the arrays and one _norms call
    serves every M and M^n.  Where that bound is past the double range,
    |M| > 1 and the test is homogeneous of degree n, so it is made on M
    scaled by a power of two to a norm near 1."""
    n = mats[0].rows
    if mats[0].mode == EXACT or not n:
        return all(M.power(n).is_zero() for M in mats)
    # a power that overflows is past the bound too, and is taken again scaled
    with np.errstate(over="ignore", invalid="ignore"):
        powers = [_power(M._a, n) for M in mats]
    norms = _norms(powers + [M._a for M in mats])
    for M, top, size in zip(mats, norms, norms[len(mats) :]):
        try:
            small = top <= M.frame.eps_eq * max(1.0, size) ** n
        except OverflowError:
            e = -math.frexp(size)[1]
            a = np.ldexp(M._a.real, e) + 1j * np.ldexp(M._a.imag, e)
            top, size = _norms((_power(a, n), a))
            small = top <= M.frame.eps_eq * size**n
        if not small:
            return False
    return True


# ----------------------------------------------------------------------
# exact storage helpers: (D, R, I) integer grids over one denominator


def _frobenius(a: np.ndarray) -> float:
    """The Frobenius norm of a complex array (see :func:`_norms`)."""
    return _norms((a,))[0]


@np.errstate(over="ignore")
def _norms(arrays) -> list[float]:
    """The Frobenius norms of complex arrays, such as the slices of a
    stack, under one errstate.  Only where the plain sum of squares
    overflows (norms past about 1.3e154), or underflows past the normal
    range with an entry nonzero, are the parts first scaled by np.ldexp
    to a largest entry near 1, as LAPACK's nrm2 does (Blue, ACM TOMS 4,
    1978); a factor 2.0**-e would overflow at a subnormal largest entry.
    numpy does not warn of the overflow.  The plain sum is
    np.linalg.norm's own, so it has its bits, without its per-call
    checks."""
    out = []
    for a in arrays:
        x = a.ravel(order="K")
        xr, xi = x.real, x.imag
        r = math.sqrt(xr.dot(xr) + xi.dot(xi))
        if not (_ROOT_TINY <= r < math.inf or not (r or np.count_nonzero(x)) or not np.isfinite(x).all()):
            e = -math.frexp(max(np.abs(xr).max(), np.abs(xi).max()))[1]
            xr, xi = np.ldexp(xr, e), np.ldexp(xi, e)
            r = float(np.ldexp(math.sqrt(xr.dot(xr) + xi.dot(xi)), -e))
        out.append(r)
    return out


def _power(base, k: int):
    """base^k for k >= 1, Matrix or numpy array, by repeated squaring."""
    out = None
    while True:
        if k & 1:
            out = base if out is None else out @ base
        k >>= 1
        if not k:
            return out
        base = base @ base


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


def _grid_mul(AR, AI, BR, BI, m: int):
    """(R, I): the product of the Gaussian-integer grids A = AR + AI i and
    B = BR + BI i, B with m columns."""
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
    return R, I


def _diag_sum(G) -> int:
    return sum(G[i][i] for i in range(len(G)))


def _entry_parts(x) -> tuple[int, int, int, int]:
    """An exact matrix entry (int, 'p/q' string, rational, (re, im) pair,
    complex or exact Scalar) as (a, b, c, d) for a/b + (c/d) i."""
    if isinstance(x, Scalar):
        if x.mode != EXACT:
            raise ModeMismatchError("float scalar in exact matrix")
        return x.re.numerator, x.re.denominator, x.im.numerator, x.im.denominator
    if isinstance(x, tuple):
        return (*_q_pair(x[0]), *_q_pair(x[1]))
    if isinstance(x, complex):
        return (*_q_pair(x.real), *_q_pair(x.imag))
    return (*_q_pair(x), 0, 1)


def _from_grid(grid, parts) -> Matrix:
    """An exact matrix from a grid of entries; parts(x) gives the entry x
    as (a, b, c, d), the Gaussian rational a/b + (c/d) i with both
    fractions in lowest terms and b, d > 0.  Over the lcm of the
    denominators the numerators share no factor with it.  An all-int grid
    needs no parts.  Ragged or empty grids are a ValueError."""
    R = [list(r) for r in grid]
    rows = len(R)
    cols = len(R[0]) if rows else 0
    if not cols or any(len(r) != cols for r in R):
        raise ValueError("an exact matrix needs nonempty rows of equal length")
    if all(type(x) is int for r in R for x in r):
        return Matrix(EXACT, rows, cols, (1, R, _zero_grid(rows, cols)))
    P = [[parts(x) for x in r] for r in R]
    D = lcm(*(p[1] for r in P for p in r), *(p[3] for r in P for p in r))
    R = [[a * (D // b) for a, b, _, _ in r] for r in P]
    I = [[c * (D // d) for _, _, c, d in r] for r in P]
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


def _pivot_block(rows, pivots, cols: Sequence[int], n: int) -> Matrix:
    """The n x len(cols) matrix whose row p is the reduced echelon row with
    pivot p restricted to columns cols, and zero where p is no pivot."""
    D, BR, BI = _reduced(rows, pivots, cols)
    R, I = _zero_grid(n, len(cols)), _zero_grid(n, len(cols))
    for r, p in enumerate(pivots):
        R[p], I[p] = BR[r], BI[r]
    return Matrix(EXACT, n, len(cols), (D, R, I))


def _kernel(rows, pivots, n: int) -> Matrix | None:
    """The canonical kernel basis (one column per free column among the
    first n, unit in its free coordinate) read off reduced echelon rows,
    as one n x k matrix; None when there is no free column."""
    pivset = set(pivots)
    free = [c for c in range(n) if c not in pivset]
    if not free:
        return None
    K = -_pivot_block(rows, pivots, free, n)
    D, R, _ = K._a
    for k, f in enumerate(free):
        R[f][k] = D
    return K


def _gauss_matvec(R, I, x, y):
    """(R + I i)(x + y i) for int grids R, I and int lists x, y, with I,
    y and the imaginary part of the result None when zero: the
    one-column case of _grid_mul on flat lists, which the staircase walk
    runs once per image."""
    re = [sum(map(mul, r, x)) for r in R]
    im = [sum(map(mul, r, y)) for r in R] if y is not None else None
    if I is not None:
        ix = [sum(map(mul, r, x)) for r in I]
        if y is not None:
            re = [a - sum(map(mul, r, y)) for a, r in zip(re, I)]
        im = ix if im is None else [a + b for a, b in zip(im, ix)]
    return re, (im if im is not None and any(im) else None)


class Span:
    """The images of a marking v under monomials in the commuting members
    B, and their span.

    ``add(parent, j)`` offers B_j w, for w the accepted image numbered
    parent (v itself when parent is None), and accepts it iff it is
    independent of the images accepted so far.  ``matrix`` is the matrix
    of accepted images, and once n are accepted ``mult_matrices`` gives
    each member in their basis: the M_j with B_j P = P M_j.

    Exact mode forms each image on Gaussian-integer lists over one
    denominator D, with no Matrix per image, and reduces it by the
    fraction-free step of the Gauss-Jordan pass against one primitive
    row per accepted image.  A working row carries, after its n vector
    entries, its coordinates over the accepted images (n slots) and one
    slot for the candidate, which starts at D: the row is
    sum_k t_k P_k + s w.  A rejected image w leaves its coordinates
    -t / s behind, so ``mult_matrices`` reads column a of M_j off the
    image offered for x_j x^a, or a unit column when that image was
    accepted (the linear algebra of Moller-Buchberger and FGLM).  Float
    mode keeps the accepted directions as the orthonormal rows of one
    array Q, takes a candidate's residual by two block Gram-Schmidt passes
    r - Q^T conj(Q) r, rejects it when that residual is at most eps_rank
    times its norm (and every vector once the span is full, without
    forming it), and solves P M_j = B_j P by least squares in
    ``mult_matrices``."""

    def __init__(self, B: Sequence[Matrix], v: Matrix):
        self.B = B
        self.v = v
        self.n = v.rows
        self.frame = B[0].frame or DEFAULT_FRAME
        self._images = []  # exact: (D, x, y) in lowest terms; float: n x 1 numpy arrays
        self._coords = []  # exact: per offered image, a row whose k-th coordinate is row[k] / row[n]
        if v.mode == EXACT:
            self._basis = []  # (pivot, working row) per accepted image
            self._members = [(D, R, I if any(map(any, I)) else None) for D, R, I in (M._a for M in B)]
        else:
            self._basis = np.empty((self.n, self.n), dtype=np.complex128)  # rows < dim: orthonormal Q

    @property
    def dim(self) -> int:
        return len(self._images)

    def add(self, parent: int | None = None, j: int = 0) -> bool:
        """Offer B_j times accepted image parent (the marking when parent
        is None); True if it enlarged the span."""
        n = self.n
        if self.v.mode == FLOAT:
            if len(self._images) == n:
                return False
            img = self.v._a if parent is None else self.B[j]._a @ self._images[parent]
            r = img.reshape(-1)
            nrm = _frobenius(r)
            if nrm == 0.0:
                return False
            d = len(self._images)
            if d:
                Q = self._basis[:d]
                Qc = Q.conj()
                for _ in range(2):  # re-orthogonalize once for stability
                    r = r - (Qc @ r) @ Q
            rn = _frobenius(r)
            if rn <= self.frame.eps_rank * nrm:
                return False
            self._basis[d] = r / rn
            self._images.append(img)
            return True
        if parent is None:
            D, R, I = self.v._a
            y = [r[0] for r in I]
            img = (D, [r[0] for r in R], y if any(y) else None)
        else:
            D, R, I = self._members[j]
            den, x, y = self._images[parent]
            x, y = _gauss_matvec(R, I, x, y)
            den *= D
            g = gcd(den, *x, *y) if y is not None else gcd(den, *x)
            if g != 1:
                den, x, y = den // g, [u // g for u in x], (None if y is None else [u // g for u in y])
            img = (den, x, y)
        den, x, y = img
        pad = [0] * n
        cur = (x + pad + [den], None if y is None else y + pad + [0])
        for pivot, row in self._basis:
            if _nonzero_at(cur, pivot):
                cur = _cancel(cur, row, pivot)
        x, y = cur
        k = len(self._images)
        if any(x[:n]) or (y is not None and any(y[:n])):
            # the candidate is image k: its slot moves to slot k
            x[n + k], x[2 * n] = x[2 * n], 0
            if y is not None:
                y[n + k], y[2 * n] = y[2 * n], 0
            self._basis.append((next(c for c in range(n) if _nonzero_at(cur, c)), cur))
            self._images.append(img)
            unit = [0] * (n + 1)
            unit[k] = unit[n] = 1
            self._coords.append((unit, None))
            return True
        self._coords.append((x[n:-1] + [-x[-1]], None if y is None else y[n:-1] + [-y[-1]]))
        return False

    def matrix(self) -> Matrix:
        """The accepted images as the columns of one n x dim matrix."""
        if self.v.mode == FLOAT:
            return Matrix(FLOAT, self.n, self.dim, np.hstack(self._images), self.v.frame)
        L = lcm(*(den for den, _, _ in self._images))
        scaled = [(L // den, x, y) for den, x, y in self._images]
        R = [list(row) for row in zip(*([f * u for u in x] for f, x, _ in scaled))]
        I = [list(row) for row in zip(*([f * u for u in y] if y is not None else [0] * self.n for f, _, y in scaled))]
        return Matrix(EXACT, self.n, self.dim, (L, R, I))

    def mult_matrices(self, offered: Sequence[Sequence[int]]) -> list[Matrix]:
        """The members in the basis P of the n accepted images: the M_j
        with B_j P = P M_j.  offered[j][a] numbers (in the order of the
        add calls) an image offered with the value B_j P_a.  Exact mode
        reads the columns off those images' reductions; float mode solves
        with solve_matrix and reads no offered image."""
        n = self.n
        if self.v.mode == FLOAT:
            P = self.matrix()
            return [solve_matrix(P, Bj @ P) for Bj in self.B]
        out = []
        for cols in offered:
            D, R, I = _reduced([self._coords[c] for c in cols], [n] * n, range(n))
            out.append(Matrix(EXACT, n, n, (D, _transposed(R, n), _transposed(I, n))))
        return out


def rank(M: Matrix) -> int:
    """Rank: pivot count (exact) or singular values above
    eps_rank * sigma_max (float).  The zero matrix has rank 0."""
    if M.rows == 0 or M.cols == 0:
        return 0
    if M.mode == EXACT:
        return len(_rref_exact(M, full=False)[1])
    return _svd_rank(np.linalg.svd(M._a, compute_uv=False), M.frame)


def _svd_rank(s: np.ndarray, frame: ToleranceFrame) -> int:
    """The count of singular values s (in descending order) above
    eps_rank * s_max: 0 when there are none or s_max is 0."""
    if s.size == 0 or not s[0] > 0.0:
        return 0
    return int((s > frame.eps_rank * s[0]).sum())


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
    r = _svd_rank(s, M.frame)
    return [Matrix(FLOAT, M.cols, 1, vh[i].conj().reshape(-1, 1), M.frame) for i in range(r, M.cols)]


def null_vector(M: Matrix) -> Matrix:
    """One column x with M x = 0, or as near as M allows.  Exact mode: the
    first vector of the canonical reduced-echelon kernel basis (ValueError
    when M has full column rank).  Float mode: the right singular vector
    of the least singular value, with no threshold, so a matrix within
    rounding of a singular one gives that one's null vector."""
    if M.mode == EXACT:
        K = _kernel(*_rref_exact(M), M.cols)
        if K is None:
            raise ValueError("matrix has full column rank")
        return K.col(0)
    return Matrix(FLOAT, M.cols, 1, _least_singular_vector(M._a).reshape(-1, 1), M.frame)


def _least_singular_vector(a: np.ndarray) -> np.ndarray:
    """The right singular vector of the least singular value of a."""
    return np.linalg.svd(a)[2][-1].conj()


def solve(A: Matrix, b: Matrix) -> Matrix:
    """Solve A x = b for one column b: solve_matrix's one-column case."""
    if b.cols != 1:
        raise ValueError("b must be a column")
    return _solve(A, b)


def solve_matrix(A: Matrix, B: Matrix) -> Matrix:
    """Solve A X = B columnwise for full-column-rank A.  Exact mode reads
    X off one Gauss-Jordan pass of [A | B]; float mode uses least squares.
    Raises NoSolution when some column of B is outside the column space
    (float mode: when the residual exceeds SOLVE_SLACK eps_eq max(1, |B|)),
    and ValueError when exact A is column rank deficient."""
    return _solve(A, B)


def _solve(A: Matrix, B: Matrix) -> Matrix:
    """The body of solve and solve_matrix.  Both call it, so a wrapper
    around either public name (bench/tracing.py) sees one call."""
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
    return _pivot_block(rows, pivots, range(A.cols, A.cols + B.cols), A.cols)


def inverse(M: Matrix) -> Matrix:
    """Exact or float inverse; raises ValueError when singular."""
    if M.rows != M.cols:
        raise ValueError("inverse of non-square matrix")
    if M.mode == FLOAT:
        return Matrix(FLOAT, M.rows, M.cols, _float_inverse(M._a, M.frame), M.frame)
    n = M.rows
    rows, pivots = _rref_exact(M.hstack(Matrix.identity(n, EXACT)))
    if len(pivots) < n or pivots[n - 1] != n - 1:
        raise ValueError("singular matrix")
    return _pivot_block(rows, pivots, range(n, 2 * n), n)


def _float_inverse(a: np.ndarray, frame: ToleranceFrame) -> np.ndarray:
    """The inverse of the float square array a; ValueError when its rank
    (see :func:`rank`) is short."""
    if _svd_rank(np.linalg.svd(a, compute_uv=False), frame) < a.shape[0]:
        raise ValueError("singular matrix")
    return np.linalg.inv(a)


# ----------------------------------------------------------------------
# eigenvalues


def char_poly(M: Matrix) -> list[Scalar]:
    """Monic characteristic polynomial, coefficients [c0, ..., c_{n-1}, 1]
    with p(x) = sum c_k x^k.  Exact mode only (float callers use numpy
    directly)."""
    n = M.rows
    if n != M.cols:
        raise ValueError("characteristic polynomial of non-square matrix")
    # Faddeev-LeVerrier on the Gaussian-integer numerators N = D M:
    # A_1 = N, A_k = N (A_(k-1) + c_(n-k+1) Id) and c_(n-k) = -tr(A_k) / k,
    # a division that is exact over Z[i] because every c is a Gaussian
    # integer.  p_M(x) = D^-n p_N(D x), so c_(n-k) of M is that of N / D^k.
    D, NR, NI = M._a
    AR, AI = NR, NI
    cs = []  # (re, im) of c_(n-1), ..., c_0 of N
    for k in range(1, n + 1):
        if k > 1:
            a, b = cs[-1]
            AR = [r[:i] + [r[i] + a] + r[i + 1 :] for i, r in enumerate(AR)]
            if b:
                AI = [r[:i] + [r[i] + b] + r[i + 1 :] for i, r in enumerate(AI)]
            AR, AI = _grid_mul(NR, NI, AR, AI, n)
        cs.append((-_diag_sum(AR) // k, -_diag_sum(AI) // k))
    out = [Scalar(EXACT, Fraction(a, D**k), Fraction(b, D**k)) for k, (a, b) in enumerate(cs, 1)]
    return out[::-1] + [Scalar.one(EXACT)]  # [c0..c_{n-1}, 1]


def _divide(P, y):
    """Synthetic division over Z[i] of P, coefficient pairs (re, im) from
    degree 0 up, by (x - y): the quotient and the remainder P(y)."""
    a, b = y
    X = Y = 0
    Q = []
    for A, B in reversed(P):
        Q.append((X, Y))
        X, Y = A + a * X - b * Y, B + a * Y + b * X
    return Q[:0:-1], (X, Y)


def _taylor(P, y, count: int):
    """The first count Taylor coefficients P^(j)(y) / j! of P at y."""
    t = []
    for _ in range(count):
        P, r = _divide(P, y)
        t.append(r)
    return t


def _nearest(x: float, e: int) -> int:
    """The integer nearest to x * 2^e, computed exactly."""
    a, b = x.as_integer_ratio()
    a, b = (a << e, b) if e >= 0 else (a, b << -e)
    return (2 * a + b) // (2 * b)


def _scaled_roots(t):
    """(s, u): the roots 2^s u of sum_j t_j x^j, for Gaussian integers t_j
    with t_n nonzero, the u as the float roots of that polynomial over
    t_n 2^(s n).  s = max_j ceil((b_j - b_n + 1) / (n - j)), b_j the bit
    length of t_j, keeps every coefficient below sqrt 2 and, by Fujiwara's
    bound, every |u| below 2^(3/2), however large or small the roots; the
    u come out within about eps."""
    n = len(t) - 1
    bits = [max(abs(a), abs(b)).bit_length() for a, b in t]
    s = max((-((bits[n] - 1 - b) // (n - j)) for j, b in enumerate(bits[:n]) if b), default=0)
    # t_j / 2^e_j: int / int is correctly rounded, as float(Fraction) is
    es = [s * (n - j) + bits[n] for j in range(n + 1)]
    co = [complex(a / (1 << e), b / (1 << e)) if e >= 0 else complex(a << -e, b << -e) for (a, b), e in zip(t, es)]
    return s, np.roots(co[::-1])


def _seeds(P, c, near: bool):
    """Gaussian integers near the roots of P as seen from the Gaussian
    integer c: c + w for the roots w of P(c + w), from its exact Taylor
    coefficients t_j by _scaled_roots (at c = 0 they are P's own
    coefficients, taken as they are).  With near (c is then where a walk
    stopped short, so t_0 = P(c) is nonzero), the reciprocals of the
    nonzero roots v of the reversed polynomial sum_j t_(n-j) v^j are
    added (a v that underflows to 0 is a root too far to seed from c):
    they place the w nearest c within about eps |w|, so a cluster of roots
    too tight to tell apart from far away separates when seen from within."""
    t = P if c == (0, 0) else _taylor(P, c, len(P))
    s, u = _scaled_roots(t)
    out = [(w, s) for w in u]
    if near:
        r, z = _scaled_roots(t[::-1])
        out += [(1 / w, -r) for w in z if w]
    return [(c[0] + _nearest(w.real, e), c[1] + _nearest(w.imag, e)) for w, e in out]


def _newton(P, y):
    """Walk the Gaussian integer y towards a root of P by Newton steps on
    P / P', rounded to Z[i]; P / P' has each root of P as a simple root,
    so the walk converges quadratically at multiple roots too.  The walk
    ends where the rounded step is zero or the exact step is no shorter
    than the one before.  It visits no point twice and keeps to where the
    step, about y minus the mean root when |y| is large, is shorter than
    the first one, so it ends."""
    last = None
    while True:
        p0, p1, p2 = _taylor(P, y, 3)
        # step P P' / (P'^2 - P P''), as u / (c + d i)
        u = (p0[0] * p1[0] - p0[1] * p1[1], p0[0] * p1[1] + p0[1] * p1[0])
        c = p1[0] * p1[0] - p1[1] * p1[1] - 2 * (p0[0] * p2[0] - p0[1] * p2[1])
        d = 2 * (p1[0] * p1[1] - p0[0] * p2[1] - p0[1] * p2[0])
        n = c * c + d * d
        size = (u[0] * u[0] + u[1] * u[1], n)  # |step|^2 as a fraction
        if not n or (last is not None and size[0] * last[1] >= last[0] * n):
            return y
        s = ((2 * (u[0] * c + u[1] * d) + n) // (2 * n), (2 * (u[1] * c - u[0] * d) + n) // (2 * n))
        if s == (0, 0):
            return y
        y, last = (y[0] - s[0], y[1] - s[1]), size


def _integer_poly(coeffs: list[Scalar], D: int):
    """The coefficient pairs of D^n p(y / D), from degree 0 up, for the
    monic exact polynomial p = [c_0, ..., c_(n-1), 1]: the Gaussian
    integers c_k D^(n - k), formed on integers; the denominator of each
    c_k divides D^(n - k)."""
    n = len(coeffs) - 1
    out = []
    for k, c in enumerate(coeffs):
        s = D ** (n - k)
        out.append((c.re.numerator * (s // c.re.denominator), c.im.numerator * (s // c.im.denominator)))
    return out


def exact_roots(coeffs: list[Scalar]) -> list[tuple[Scalar, int]]:
    """All roots of a monic exact polynomial with their multiplicities,
    sorted by (Re, Im).  Raises NonSplitCharPoly when they are not all
    Gaussian rationals.

    With D the lcm of the coefficient denominators, y = D x turns the
    polynomial into a monic one over Z[i], which is integrally closed, so
    every Gaussian-rational root is a Gaussian integer over D.  The float
    roots of the polynomial seed integer Newton walks (:func:`_newton`);
    a walk's end point is accepted only when exact synthetic division over
    Z[i] leaves no remainder, and dividing again gives its multiplicity.
    When a pass leaves roots unfound, the next pass seeds from a point
    where a walk stopped short, with the seeds of the roots nearest it
    added (:func:`_seeds` with near), so a cluster of roots too tight for
    the first float roots comes apart; two passes in a row that find
    nothing mean the rest does not split.  The accept path carries no
    floating point error.
    """
    D = lcm(*(q.denominator for c in coeffs for q in (c.re, c.im)))
    P = _integer_poly(coeffs, D)
    roots = []
    center, stuck, near = (0, 0), False, False
    while len(P) > 1:
        found, stall = False, None
        for y in _seeds(P, center, near):
            y = _newton(P, y)
            mult = 0
            while not any((q := _divide(P, y))[1]):
                P, mult = q[0], mult + 1
            if mult:
                roots.append((Scalar(EXACT, Fraction(y[0], D), Fraction(y[1], D)), mult))
                found = True
            elif stall is None:
                stall = y
        if stuck and not found:
            raise NonSplitCharPolyError(f"no Gaussian-rational root found at degree {len(P) - 1}")
        center, stuck, near = stall or (0, 0), not found, stall is not None
    roots.sort(key=lambda t: (t[0].re, t[0].im))
    return roots


_EPS, _ROOT_TINY = float(np.finfo(np.float64).eps), math.sqrt(np.finfo(np.float64).tiny)
_HUGE = float(np.finfo(np.float64).max)


def _radius(S: np.ndarray, sizes, eps_eq) -> list[float]:
    """For each float n x n slice A of the stack S, of size |A| (sizes)
    and frame resolution in eps_eq, the widest radius within which
    computed eigenvalues, with rounding errors of about eps |A|, count as
    one point: max(|A - tr(A)/n| eps^(1/(n+1)), eps_eq |A|), the scatter a
    defective block of length up to n puts on computed eigenvalues, which
    moves with a rescaling and not with a shift, and the frame's
    resolution.  :func:`_eigen_groups` narrows it for each eigenvalue."""
    n = S.shape[-1]
    spread = _norms(S - (np.trace(S, axis1=1, axis2=2) / n)[:, None, None] * np.eye(n))
    return [max(r * _EPS ** (1.0 / (n + 1)), e * s) for r, e, s in zip(spread, eps_eq, sizes)]


def _eigen_groups(S: np.ndarray, radius, size, error, eps_eq: float) -> list[list[list[complex]]]:
    """The eigenvalues of each float matrix M in the stack S, with
    multiplicity, in groups, one per point: numpy eigenvalues merged
    transitively, z with u when |z - u| <= max(r_z, r_u).  M is within
    error of the matrix it stands for (radius, size and error are lists,
    one value per slice), and each r_z is 8 n error kappa_z,
    kappa_z = |x| |y| / |y^H x| the condition number of z from its right
    and left eigenvectors, clipped to [eps_eq size, radius].  A simple
    eigenvalue of a far-from-normal matrix so keeps a radius of its own
    first-order error, while the k computed eigenvalues of a defective
    block, on a ring of radius rho with kappa about rho / (k error),
    merge: neighbours on the ring are at most 2 rho sin(pi / k) apart.
    One eig, one inv and one norm serve the stack, which may hold L, or
    the restrictions of every piece of one length; only a slice whose
    eigenvectors are singular gets kappa = inf."""
    n = S.shape[-1]
    w, X = np.linalg.eig(S)
    with np.errstate(all="ignore"):
        try:
            Y = np.linalg.inv(X)
        except np.linalg.LinAlgError:
            Y = np.full_like(X, np.inf)
            for Xj, Yj in zip(X, Y):
                with suppress(np.linalg.LinAlgError):
                    Yj[...] = np.linalg.inv(Xj)
        # numpy's eigenvectors have unit length, and the rows of X^-1
        # are the left eigenvectors scaled to y^H x = 1
        kappa = np.linalg.norm(Y, axis=2)
    kappa = np.where(np.isfinite(kappa), kappa, np.inf)
    error, floor, radius = (np.array(v)[:, None] for v in (error, np.multiply(eps_eq, size), radius))
    out = []
    for zs, rs in zip(w.tolist(), np.clip(8 * n * error * kappa, floor, radius).tolist()):
        groups: list[list[tuple[complex, float]]] = []
        for z, r in zip(zs, rs):
            near = [g for g in groups if min(abs(z - u) - max(r, s) for u, s in g) <= 0]
            groups = [g for g in groups if all(g is not h for h in near)]
            groups.append([(z, r)] + [e for g in near for e in g])
        out.append([[z for z, _ in g] for g in groups])
    return out


def _one_point(R: Matrix) -> bool:
    """Whether the exact square matrix R has a single eigenvalue: k R -
    tr(R) is nilpotent, (k R - tr(R))^k = 0 for R of size k, formed on
    R's numerators, where no denominator or gcd is needed."""
    _, RR, RI = R._a
    k = R.rows
    tr, ti = _diag_sum(RR), _diag_sum(RI)
    NR = [[k * x for x in r] for r in RR]
    NI = [[k * y for y in r] for r in RI]
    for i in range(k):
        NR[i][i] -= tr
        NI[i][i] -= ti
    return Matrix(EXACT, k, k, (1, NR, NI)).is_nilpotent()


def _trace_mean(R: Matrix) -> Scalar:
    """tr(R) / k for exact R of size k, read off R's numerators."""
    k = R.rows
    D, RR, RI = R._a
    return Scalar(EXACT, Fraction(_diag_sum(RR), k * D), Fraction(_diag_sum(RI), k * D))


def _adjugate_column(NR, NI, P, c: int):
    """Column c of adj(x - N), for the n x n Gaussian-integer grid N =
    NR + NI i (NI None when zero) with characteristic polynomial P
    (coefficient pairs from degree 0 up), as n polynomials in the form of
    P, one per coordinate.  By Faddeev-LeVerrier, adj(x - N) =
    sum_j x^(n-1-j) U_j with U_0 = Id and U_j = N U_(j-1) + c_(n-j) Id,
    so the column costs n - 1 matrix-vector products."""
    n = len(NR)
    x, y = [0] * n, None
    x[c] = 1
    us = [(x, y)]
    for j in range(1, n):
        x, y = _gauss_matvec(NR, NI, x, y)
        a, b = P[n - j]
        x[c] += a
        if b:
            y = y or [0] * n
            y[c] += b
        us.append((x, y))
    return [[(x[i], y[i] if y is not None else 0) for x, y in reversed(us)] for i in range(n)]


def _reverse_echelon(vecs, n: int):
    """(rows, pivots): a basis of the span of the nonzero working rows
    vecs in which each row's last nonzero coordinate is its pivot, zero
    in every other row, with the pivots ascending.  Read with _reduced,
    its rows are the canonical reduced-echelon kernel basis of any matrix
    whose kernel is that span.  One vector is its own basis, pivoted at
    its last nonzero coordinate; more are eliminated with the columns
    reversed."""
    if len(vecs) == 1:
        x, y = vecs[0]
        return vecs, [max(i for i in range(n) if x[i] or (y is not None and y[i]))]
    R = [x[::-1] for x, _ in vecs]
    I = [[0] * n if y is None else y[::-1] for _, y in vecs]
    rows, pivots = _rref_exact(Matrix(EXACT, len(vecs), n, (1, R, I)))
    rows = [(x[::-1], None if y is None else y[::-1]) for x, y in reversed(rows)]
    return rows, [n - 1 - p for p in reversed(pivots)]


def _exact_pieces(B: list[Matrix], L: Matrix):
    """The pieces (p, k, E, R) of exact L, one per root of its
    characteristic polynomial in the order of exact_roots: the point p
    (the trace means of the R_j), the root's multiplicity k,
    the canonical reduced-echelon kernel basis E of (L - lam)^k, the
    identity at its pivot coordinates, and the rows R_j of B_j E at those
    coordinates, so B_j E = E R_j; None when some R_j has more than one
    eigenvalue.

    Nothing is eliminated at an n x n size.  With N = D L on L's
    numerators, each root is mu = D lam, a Gaussian integer, and
    adj(x - N) = p_N(x) (x - N)^-1.  Over the generalized eigenspace G
    of mu that is a polynomial, and over the other ones a multiple of
    (x - mu)^k, so the first k Taylor coefficients at mu of a column
    adj(x - N) e_c span the cyclic subspace of N that the part of e_c in
    G generates; over all columns they span G.  Columns c = 0, 1, ... are
    taken (each formed once per L) until they span k dimensions, and E
    is read off them (:func:`_reverse_echelon`): a simple root needs one
    nonzero vector and no elimination.  When column 0 alone spans G, G
    is cyclic for L, so each R_j, commuting with L's restriction there,
    is a polynomial in it and has one eigenvalue; other pieces of more
    than one dimension are tested (:func:`_one_point`).  Members
    commute with L, so they keep G invariant, and nothing else is
    tested."""
    n = L.rows
    coeffs = char_poly(L)
    roots = exact_roots(coeffs)
    if len(roots) == 1:
        if n > 1 and not all(map(_one_point, B)):
            return None
        return [(tuple(map(_trace_mean, B)), n, Matrix.identity(n, EXACT), list(B))]
    D, NR, NI = L._a
    NI = NI if any(map(any, NI)) else None
    P = _integer_poly(coeffs, D)  # p_N(x) = D^n p_L(x / D)
    columns = []
    pieces = []
    for lam, k in roots:
        # mu = D lam, a Gaussian integer, so each denominator of lam divides D
        mu = (lam.re.numerator * (D // lam.re.denominator), lam.im.numerator * (D // lam.im.denominator))
        vecs = []
        for c in range(n):
            if c == len(columns):
                columns.append(_adjugate_column(NR, NI, P, c))
            ts = [_taylor(poly, mu, k) for poly in columns[c]]
            for r in range(k):
                x, y = [t[r][0] for t in ts], [t[r][1] for t in ts]
                if any(y):
                    vecs.append((x, y))
                elif any(x):
                    vecs.append((x, None))
            if vecs:
                vecs, pivots = _reverse_echelon(vecs, n)
                if len(pivots) == k:
                    break
        DE, CR, CI = _reduced(vecs, pivots, range(n))
        ER, EI = _transposed(CR, k), _transposed(CI, k)
        R = []
        for Bj in B:
            DB, BR, BI = Bj._a
            # R_j = (B_j E)_pivots = (B_j)_pivots E, over DB DE
            FR, FI = _grid_mul([BR[f] for f in pivots], [BI[f] for f in pivots], ER, EI, k)
            R.append(_exact(DB * DE, FR, FI, k, k))
        if k > 1 and c and not all(map(_one_point, R)):
            return None
        pieces.append((tuple(map(_trace_mean, R)), k, Matrix(EXACT, n, k, (DE, ER, EI)), R))
    return pieces


def _restrict(S: np.ndarray, sizes: list[float], Et: np.ndarray, eps_eq: float):
    """(R, e) for the stack S of m float members B_j, of sizes |B_j|, and
    the stack Et of p bases of one length k, E^T of an orthonormal basis
    E of a space L keeps invariant (or the identity, taken as E): the
    (p, m, k, k) stack of restrictions R_j = E^H B_j E and their errors
    e_j = eps |B_j| + |B_j E - E R_j|, m per basis, R_j being an exact
    restriction of B_j - (B_j E - E R_j) E^H; None when some B_j E is
    farther than INVARIANCE_SLACK eps_eq |B_j| from E R_j.  B_j E, R_j
    and E R_j are each one batched matmul over the p m pairs, and each
    E is read transposed, as the rows of Et: numpy's matmul rounds a
    column-major operand differently from a row-major one."""
    p, k, n = Et.shape
    E = Et[:, None] if k == n else Et.transpose(0, 2, 1)[:, None]
    BE = S[None] @ E
    R = (E if k == n else Et.conj()[:, None]) @ BE
    res = _norms((BE - E @ R).reshape(-1, n, k))
    sizes = sizes * p
    if any(e > eps_eq * (INVARIANCE_SLACK * s) for e, s in zip(res, sizes)):
        return None
    return R, [_EPS * s + e for e, s in zip(res, sizes)]


def _grown_bases(L: np.ndarray, groups: list[list[complex]], eye: np.ndarray) -> np.ndarray:
    """E^T, as k rows, for each basis E of the invariant space of float L
    that one of the p groups of k eigenvalues w_i spans, as one (p, k, n)
    stack (see :func:`_float_pieces`)."""
    n, (p, k) = L.shape[0], np.shape(groups)
    W = np.reshape(groups, (p, k, 1, 1))
    V, Q = np.zeros((p, n, 0), dtype=np.complex128), eye
    for i in range(k - 1):
        A = L - W[:, i] * eye
        vh = np.linalg.svd((A - V @ (V.conj().transpose(0, 2, 1) @ A)) @ Q)[2]
        V = np.concatenate([V, Q @ vh[:, -1:].conj().transpose(0, 2, 1)], axis=2)
        Q = Q @ vh[:, :-1].conj().transpose(0, 2, 1)
    A = L - W[:, -1] * eye
    return np.linalg.svd(A - V @ (V.conj().transpose(0, 2, 1) @ A))[2][:, n - k :].conj()


def _float_pieces(S: np.ndarray, L: np.ndarray, sizes: list, radii: list, size: float, frame: ToleranceFrame):
    """The pieces (p, k, E, R) of float L of the given size, one per group
    of its eigenvalues (:func:`_eigen_groups`), restricted by
    :func:`_restrict`, with p_j = tr(R_j) / k; None when a member does not
    keep a piece invariant or some R_j of a piece of more than one
    dimension holds more than one point.  R_j, within e_j of the member's
    exact restriction, holds one point when its eigenvalues form one group
    within the radius r_j and at the size |B_j| of that member, so a piece
    counts as one point exactly when the eigenvalues it holds would merge
    as eigenvalues of the member.  The pieces of one length are grown,
    restricted and grouped together, one numpy call over their stack for
    each step.

    E is the identity when the group holds every eigenvalue.  Otherwise
    it grows an invariant V one direction at a time: step i < k adds the
    least right singular vector of the projected operator
    (Id - V V^H)(L - w_i) on the orthogonal complement of V, so no step
    drops a direction V holds where L - w_i has a kernel of more than one
    dimension (Jordan blocks of different lengths at one point).  E is
    {x : (L - w_k) x in V}, the k smallest right singular vectors of that
    operator over the whole space; the simple groups (k = 1) share one
    stacked SVD.  Each w_i is an eigenvalue of a matrix within rounding
    of L, so the count, not a threshold, fixes the dimension, and a step
    compares the new direction with the rest of the spectrum at a gap
    that stays linear: a k-th power would compress it like gap^k.
    Matrices are built for the pieces returned only."""
    n, m, eps_eq = L.shape[0], S.shape[0], frame.eps_eq
    eye = np.eye(n, dtype=np.complex128)
    (groups,) = _eigen_groups(L[None], _radius(L[None], [size], [eps_eq]), [size], [_EPS * size], eps_eq)
    pieces = [None] * len(groups)
    for k in dict.fromkeys(map(len, groups)):
        at = [i for i, g in enumerate(groups) if len(g) == k]
        if k == n:
            Et = eye[None]
        elif k == 1:
            simple = [groups[i][0] for i in at]
            Et = np.linalg.svd(L - np.reshape(simple, (-1, 1, 1)) * eye)[2][:, n - 1 :].conj()
        else:
            Et = _grown_bases(L, [groups[i] for i in at], eye)
        piece = _restrict(S, sizes, Et, eps_eq)
        if piece is None:
            return None
        R, errors = piece
        R = R.reshape(-1, k, k)
        if k > 1 and any(len(g) > 1 for g in _eigen_groups(R, radii * len(at), sizes * len(at), errors, eps_eq)):
            return None
        traces = np.trace(R, axis1=1, axis2=2).tolist()
        for j, i in enumerate(at):
            # tr(R_j) / k by the formula of Scalar.__truediv__
            point = tuple(Scalar(FLOAT, *_quotient(z.real, z.imag, float(k), 0.0)) for z in traces[j * m : (j + 1) * m])
            R_i = [Matrix(FLOAT, k, k, Rj, frame) for Rj in R[j * m : (j + 1) * m]]
            pieces[i] = (point, k, Matrix(FLOAT, n, k, eye if k == n else Et[j].T, frame), R_i)
    return pieces


def primary_decomposition(B: Sequence[Matrix]) -> list[tuple[tuple[Scalar, ...], int, Matrix, list[Matrix]]]:
    """The joint generalized eigenspaces of commuting n x n matrices B_j.

    Exact members must commute exactly: their restrictions are read off
    without testing that each member keeps the eigenspaces of L
    invariant.  CommutingTuple checks this on construction, and the
    multiplication matrices of an ideal normal form commute by
    construction.  Float members are tested (see below).

    One entry (p, k, E, R) per support point p, the joint eigenvalue
    tuple: its multiplicity k, a basis E of its joint generalized
    eigenspace as n x k columns, and the restrictions R_j with
    B_j E = E R_j.  Entries are sorted by p, coordinatewise (Re, Im).

    This is the eigenvalue method (Cox, Little, O'Shea, Using Algebraic
    Geometry, ch. 2 sec. 4; Moeller and Stetter 1995): for t = 0, 1, 2,
    ... split L = sum_j t^j w_j B_j at its eigenvalues, restrict every
    member to each generalized eigenspace E of L, and read the point as
    p_j = tr R_j / k.  The t is accepted when L separates the points:
    when every R_j has a single eigenvalue.  Two distinct points collide
    under at most m - 1 values of t, so some t up to
    (m - 1) n (n - 1) / 2 separates them all.  Past that bound
    NonSplitCharPoly is raised.

    Exact mode (w_j = 1) reads E off the Faddeev-LeVerrier adjugate of
    L at each root (:func:`_exact_pieces`): the canonical reduced-echelon
    kernel basis of (L - lam)^k, with no n x n elimination and no float.
    It raises NonSplitCharPoly, past the bound or from exact_roots, only
    when the spectrum of some member is not Gaussian rational: a
    separating L then does not split.

    Float mode resolves what its frame resolves (:func:`_float_pieces`).
    It stacks the m members once, and their sizes and radii are each one
    numpy call over the stack; at each t the restrictions to the pieces
    of one length, and the eigenvalue groups of those restrictions, are
    one call per length.
    The eigenvalues of B_j merge within at most r_j, the larger of the
    scatter |B_j - tr(B_j)/n| eps^(1/(n+1)) of a defective block and the
    rounding scale eps_eq |B_j|, and within less where their condition
    numbers bound their error more tightly (:func:`_eigen_groups`).
    w_j = 1 / r_j, so each member counts in units of its own resolution
    whatever its scale beside the others (w_j = 1 for B_j = 0, and the
    largest double where 1 / r_j overflows).
    Eigenvalues of L merge by the same rule taken from L, with the size
    sum_j t^j w_j |B_j|.  A piece passes when B_j E is within
    INVARIANCE_SLACK eps_eq |B_j| of E R_j (:func:`_restrict`) and the
    eigenvalues of each R_j merge by the rule of B_j.  This is the
    frame's limit: points closer than eps_eq |L| merge."""
    B = list(B)
    first = B[0]
    n, m, mode = first.rows, len(B), first.mode
    weights = [1] * m
    if mode == FLOAT:
        S = np.stack([Bj._a for Bj in B])
        sizes = _norms(Bj._a for Bj in B)
        radii = _radius(S, sizes, [Bj.frame.eps_eq for Bj in B])
        # held finite where 1 / r_j overflows; every other weight keeps its bits
        weights = [min(1 / r, _HUGE) if r else 1 for r in radii]
    for t in range(1 + (m - 1) * n * (n - 1) // 2):
        L = first if weights[0] == 1 else first.scale(Scalar.of(mode, weights[0]))
        if t:
            for j, Bj in enumerate(B[1:], 1):
                L = L + Bj.scale(Scalar.of(mode, weights[j] * t**j))
        if mode == EXACT:
            pieces = _exact_pieces(B, L)
        else:
            size = sum(w * s * t**j for j, (w, s) in enumerate(zip(weights, sizes)))
            pieces = _float_pieces(S, L._a, sizes, radii, size, L.frame)
        if pieces is not None:
            return sorted(pieces, key=lambda piece: tuple(c.sort_key() for c in piece[0]))
    raise NonSplitCharPolyError("no combination of the members separates the joint spectrum")


def complete_basis(w: Matrix) -> Matrix:
    """An invertible n x n matrix whose first column is the nonzero
    column w.  Exact mode appends every standard vector e_j but the one
    at the last nonzero coordinate of w, in order; float mode returns a
    unitary matrix, the QR factor of w beside every standard vector but
    the one where w is largest."""
    n = w.rows
    if w.mode == EXACT:
        last = max(i for i in range(n) if not w[i, 0].is_zero())
        eye = Matrix.identity(n, EXACT)
        return w.hstack(*(eye.col(j) for j in range(n) if j != last))
    return Matrix(FLOAT, n, n, _unitary_completion(w._a.reshape(-1)), w.frame)


def _unitary_completion(v: np.ndarray) -> np.ndarray:
    """complete_basis in float mode, for the nonzero vector v."""
    n = v.shape[0]
    i0 = int(np.argmax(np.abs(v)))
    X = np.zeros((n, n), dtype=np.complex128)
    X[:, 0] = v
    X[[j for j in range(n) if j != i0], range(1, n)] = 1
    return np.linalg.qr(X)[0]


def flag_basis(B: Sequence[Matrix], points) -> Matrix:
    """An invertible g whose leading columns span a complete flag that
    the commuting n x n members B_j keep invariant, found by deflating
    along points (the joint spectrum, in order): g^-1 B_j g is upper
    triangular with diagonal points.  Step i takes a null vector
    (null_vector) of the stacked B_j - p_j on the trailing block at the
    i-th point p, completes it to a basis P (complete_basis), conjugates
    the trailing block by P and keeps its trailing (k - 1) x (k - 1)
    block, so no step solves an eigenproblem.  In exact mode that vector
    is the first of the canonical reduced-echelon joint eigenspace.
    Float mode holds the m trailing blocks as one (m, k, k) stack: the
    null vector is the least right singular vector of the stack read as
    (m k) x k, P is unitary, and P's inverse passes the rank test of
    inverse; g accumulates the steps."""
    n, mode, frame = B[0].rows, B[0].mode, B[0].frame
    if mode == FLOAT:
        S = np.stack([M._a for M in B])
        g = np.eye(n, dtype=np.complex128)
        for offset, p in enumerate(points[: n - 1]):
            k = n - offset
            shifted = S - np.eye(k, dtype=np.complex128) * np.array([c.cx for c in p])[:, None, None]
            P = _unitary_completion(_least_singular_vector(shifted.reshape(-1, k)))
            S = (_float_inverse(P, frame) @ S @ P)[:, 1:, 1:].copy()
            if offset:  # embed P into the ambient space at the current offset
                P, block = np.eye(n, dtype=np.complex128), P
                P[offset:, offset:] = block
            g = g @ P
        return Matrix(FLOAT, n, n, g, frame)
    g = Matrix.identity(n, mode, frame)
    current = list(B)
    for offset in range(n - 1):
        k = n - offset
        eye = Matrix.identity(k, mode, frame)
        shifted = [M - eye.scale(c) for M, c in zip(current, points[offset])]
        P = complete_basis(null_vector(shifted[0].vstack(*shifted[1:])))
        Pi = inverse(P)
        current = [(Pi @ M @ P).submatrix(1, k, 1, k) for M in current]
        # embed P into the ambient space at the current offset
        if offset:
            P = Matrix.block_diag([Matrix.identity(offset, mode, frame), P])
        g = g @ P
    return g
