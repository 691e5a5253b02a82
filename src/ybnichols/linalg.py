"""Rank and row-space computations over the fields provided by :mod:`exact`.

Braiding operators permute tensor-basis words up to a scalar, so operators
are stored as monomial maps (one target index and one scalar per basis
index), never as dense matrices.  Rank questions reduce to inserting image
vectors into an incrementally maintained echelon basis.

Two layers:

* a reference layer over arbitrary field elements (``MonomialOperator``,
  ``RowSpace``, ``rank``) -- simple, fully reduced echelon, used directly at
  small sizes and as the oracle that the fast layer is checked against;
* fast numpy kernels: fraction-free elimination of integer-cyclotomic rows
  (``ExactIntRows``) and elimination mod p (``ModRows``), which carry the
  large symmetrizer degrees.
"""

from __future__ import annotations

import math
from bisect import bisect
from fractions import Fraction
from functools import lru_cache, reduce

import numpy as np

from .exact import CycloElement, _reduction_rows, euler_phi


class DimensionMismatch(ValueError):
    """Operands act on spaces of different dimensions."""


# ---------------------------------------------------------------------------
# monomial operators


class MonomialOperator:
    """A linear map sending basis vector b to scalar[b] times basis target[b]."""

    __slots__ = ("target", "scalar")

    def __init__(self, target, scalar) -> None:
        target = tuple(target)
        scalar = tuple(scalar)
        if len(target) != len(scalar):
            raise DimensionMismatch("target and scalar lengths differ")
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "scalar", scalar)

    def __setattr__(self, name, value):
        raise AttributeError("MonomialOperator is immutable")

    @property
    def dimension(self) -> int:
        return len(self.target)

    @classmethod
    def identity(cls, dimension: int, one) -> "MonomialOperator":
        return cls(range(dimension), (one,) * dimension)

    def compose(self, inner: "MonomialOperator") -> "MonomialOperator":
        """self after inner (apply ``inner`` first)."""
        if inner.dimension != self.dimension:
            raise DimensionMismatch("composition of mismatched operators")
        target = tuple(self.target[t] for t in inner.target)
        scalar = tuple(
            inner.scalar[b] * self.scalar[inner.target[b]] for b in range(self.dimension)
        )
        return MonomialOperator(target, scalar)

    def __eq__(self, other):
        if not isinstance(other, MonomialOperator):
            return NotImplemented
        return self.target == other.target and self.scalar == other.scalar

    def __hash__(self):
        return hash((self.target, self.scalar))


def apply(op: MonomialOperator, v):
    """Apply a monomial operator to a dense vector of field elements.

    The target map need not be injective; colliding images accumulate.
    """
    if len(v) != op.dimension:
        raise DimensionMismatch(f"operator dim {op.dimension}, vector dim {len(v)}")
    if not v:
        return []
    out = [None] * len(v)
    for b, x in enumerate(v):
        if not x:
            continue
        t = op.target[b]
        term = op.scalar[b] * x
        out[t] = term if out[t] is None else out[t] + term
    zero = v[0] * 0
    return [zero if x is None else x for x in out]


# ---------------------------------------------------------------------------
# reference row space


class RowSpace:
    """Reduced echelon row basis with incremental insertion.

    Invariants: pivot columns strictly increasing, each pivot entry is 1 and
    its column is zero in every other row.  Mutation is single-writer.
    """

    __slots__ = ("dimension", "rows", "pivots")

    def __init__(self, dimension: int) -> None:
        self.dimension = dimension
        self.rows: list[list] = []
        self.pivots: list[int] = []

    @property
    def rank(self) -> int:
        return len(self.rows)

    def insert(self, v) -> bool:
        """Extend the span by v; True iff v was already in the span."""
        if len(v) != self.dimension:
            raise DimensionMismatch(f"ambient dim {self.dimension}, vector dim {len(v)}")
        w = list(v)
        for row, piv in zip(self.rows, self.pivots):
            c = w[piv]
            if c:
                w = [a - c * b for a, b in zip(w, row)]
        j = next((i for i, x in enumerate(w) if x), None)
        if j is None:
            return True
        pv = w[j]
        w = [x / pv for x in w]
        for idx, row in enumerate(self.rows):
            c = row[j]
            if c:
                self.rows[idx] = [a - c * b for a, b in zip(row, w)]
        pos = bisect(self.pivots, j)
        self.rows.insert(pos, w)
        self.pivots.insert(pos, j)
        return False


def rank(rows) -> int:
    """Rank of the span of the given dense vectors, field-exact."""
    rows = list(rows)
    if not rows:
        return 0
    rs = RowSpace(len(rows[0]))
    for v in rows:
        rs.insert(v)
    return rs.rank


# ---------------------------------------------------------------------------
# fast layer: integer-cyclotomic vectors


_INT64_GUARD = 1 << 62


@lru_cache(maxsize=None)
def _struct_tensor(order: int) -> tuple:
    """Structure constants of the power basis: x^a * x^b = sum_c S[a][b][c] x^c.

    Integer because the cyclotomic polynomial is monic over Z.
    """
    phi = euler_phi(order)
    rows = _reduction_rows(order) if phi > 1 else ()
    S = np.zeros((phi, phi, phi), dtype=np.int64)
    for a in range(phi):
        for b in range(phi):
            k = a + b
            if k < phi:
                S[a, b, k] = 1
            else:
                S[a, b, :] = rows[k - phi]
    return (phi, S)


class CycloCtx:
    """Numpy-side context for one cyclotomic order: structure constants and
    conversions between CycloElements and integer coefficient vectors.

    ``mul_bound`` is max_c sum_{a,b} |S[a,b,c]|: every coefficient of a
    product x * y, and every partial sum formed while computing it, is at
    most max|x| * max|y| * mul_bound in absolute value.
    """

    __slots__ = ("order", "phi", "struct", "mul_bound")

    def __init__(self, order: int) -> None:
        self.order = order
        self.phi, self.struct = _struct_tensor(order)
        self.mul_bound = int(np.abs(self.struct).sum(axis=(0, 1)).max())

    def to_int_vec(self, x: CycloElement):
        """(numerator vector, denominator) with x = vector / denominator; the
        numerators are Python ints of any size."""
        if x.order != self.order:
            raise ValueError("order mismatch")
        den = reduce(math.lcm, (c.denominator for c in x.coeffs), 1)
        return [int(c * den) for c in x.coeffs], den

    def to_int_array(self, elements):
        """(numerators, denominator) with element t = numerators[t] / den over
        one common denominator: an (n, phi) array, int64 when every entry is
        below ``_INT64_GUARD`` in absolute value, else object."""
        vecs = [self.to_int_vec(x) for x in elements]
        den = reduce(math.lcm, (d for _, d in vecs), 1)
        nums = np.array([[c * (den // d) for c in vec] for vec, d in vecs], dtype=object)
        return (nums.astype(np.int64) if _max_abs(nums) < _INT64_GUARD else nums), den

    def to_element(self, vec, den: int = 1) -> CycloElement:
        return CycloElement(self.order, [Fraction(int(v), den) for v in vec])


def _as_object(arr):
    """The array with Python-int entries (arbitrary precision)."""
    return arr if arr.dtype == object else arr.astype(object)


def _max_abs(arr) -> int:
    if arr.size == 0:
        return 0
    if arr.dtype == object:
        return max((abs(int(v)) for v in arr.reshape(-1)), default=0)
    return int(np.abs(arr).max())


def _cyclo_product(a, b, ctx: CycloCtx):
    """Entry-wise product of (..., phi) power-basis vectors: the outer product
    of each pair, contracted against the structure tensor."""
    phi = ctx.phi
    if phi == 1:
        return a * b
    outer = a[..., :, None] * b[..., None, :]
    return outer.reshape(outer.shape[:-2] + (phi * phi,)) @ ctx.struct.reshape(phi * phi, phi)


def mul_rows_by_scalar(arr, svec, ctx: CycloCtx):
    """Multiply every row of an (L, phi) coefficient array by one cyclotomic
    integer scalar (a phi-vector).  Works on int64 and object arrays.

    No overflow check: on int64 operands the caller guarantees
    max|arr| * max|svec| * ctx.mul_bound < 2^63 (``ExactIntRows.insert``
    checks this before every elimination step and promotes otherwise).
    """
    return _cyclo_product(arr, svec, ctx)


def mul_rows_elementwise(arr, s_arr, ctx: CycloCtx):
    """Entry-wise product of two (..., phi) coefficient arrays; leading axes
    broadcast, and an object operand makes the product object."""
    return _cyclo_product(arr, s_arr, ctx)


def strip_content(arr):
    """Divide an integer array by the gcd of its entries (primitive form)."""
    if arr.dtype == object:
        g = 0
        for v in arr.reshape(-1):
            if v:
                g = math.gcd(g, abs(int(v)))
                if g == 1:
                    return arr
        if g > 1:
            return arr // g
        return arr
    nz = arr[arr != 0]
    if nz.size == 0:
        return arr
    g = int(np.gcd.reduce(np.abs(nz).reshape(-1)))
    if g > 1:
        return arr // g
    return arr


class ExactIntRows:
    """Fraction-free echelon basis of integer-cyclotomic rows.

    Rows are (L, phi) integer arrays (numerators; rows are kept primitive, so
    denominators drop out of every span question).  Elimination uses
    cross-multiplication by pivot scalars, never division, and promotes to
    arbitrary-precision object arrays if int64 would overflow.
    """

    __slots__ = ("ctx", "length", "rows", "pivots", "_peaks", "_object_mode")

    def __init__(self, ctx: CycloCtx, length: int) -> None:
        self.ctx = ctx
        self.length = length
        self.rows: list[np.ndarray] = []
        self.pivots: list[int] = []
        # (largest absolute entry of the row, of its pivot entry) per row,
        # recorded once: stored rows never change, and object mode reads none
        self._peaks: list[tuple[int, int] | None] = []
        self._object_mode = False

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _promote(self):
        if not self._object_mode:
            self._object_mode = True
            self.rows = [_as_object(r) for r in self.rows]

    def insert(self, arr) -> bool:
        """Reduce arr against the basis and extend on independence."""
        if arr.shape != (self.length, self.ctx.phi):
            raise DimensionMismatch("row shape mismatch")
        if arr.dtype == object and not self._object_mode:
            self._promote()
        w = _as_object(arr).copy() if self._object_mode else arr.astype(np.int64, copy=True)
        w = strip_content(w)
        for idx in range(len(self.rows)):
            piv = self.pivots[idx]
            pv = w[piv]
            if not np.any(pv != 0):
                continue
            row = self.rows[idx]
            if not self._object_mode:
                row_max, piv_max = self._peaks[idx]
                bound = 2 * self.ctx.mul_bound * max(_max_abs(w) * piv_max, row_max * _max_abs(pv))
                if bound >= _INT64_GUARD:
                    self._promote()
                    w = _as_object(w)
                    row = self.rows[idx]
                    pv = w[piv]
            w = mul_rows_by_scalar(w, row[piv], self.ctx) - mul_rows_by_scalar(
                row, pv, self.ctx
            )
            w = strip_content(w)
        nz = np.flatnonzero((w != 0).any(axis=1))
        if nz.size == 0:
            return True
        j = int(nz[0])
        pos = bisect(self.pivots, j)
        self.rows.insert(pos, w)
        self.pivots.insert(pos, j)
        self._peaks.insert(pos, None if self._object_mode else (_max_abs(w), _max_abs(w[j])))
        return False


def lone_rows(arrays, p: int | None = None) -> list:
    """The row each array leaves as the only insert into its own empty row
    space, or None for a zero array: ``ExactIntRows`` when ``p`` is None,
    ``ModRows(p)`` otherwise.

    Exactly, that row is the array over the gcd of its entries (sign kept);
    mod p, it is the array mod p scaled so its first nonzero entry is 1.
    Rows match ``insert`` bit for bit, in value and dtype, but the arrays of
    one dtype share one concatenation, one gcd (or first-entry) reduction and
    one division, instead of one elimination each.
    """
    out = [None] * len(arrays)
    for dtype in {a.dtype for a in arrays}:
        picks = [t for t, a in enumerate(arrays) if a.dtype == dtype]
        lengths = np.array([arrays[t].size for t in picks], dtype=np.int64)
        starts = np.cumsum(lengths) - lengths
        flat = np.concatenate([arrays[t].reshape(-1) for t in picks])
        if p is None:
            content = np.gcd.reduceat(np.abs(flat), starts)
            keep = content != 0
            flat = flat // np.repeat(np.where(keep, content, 1), lengths)
        else:
            flat = np.mod(flat, p)
            nz = np.flatnonzero(flat)
            # the first nonzero entry of each array that has one
            owner = np.searchsorted(starts, nz, side="right") - 1
            segs, first = np.unique(owner, return_index=True)
            keep = np.zeros(len(picks), dtype=bool)
            keep[segs] = True
            inverse = np.zeros(len(picks), dtype=np.int64)
            inverse[segs] = [pow(int(v), p - 2, p) for v in flat[nz[first]].tolist()]
            flat = flat * np.repeat(inverse, lengths) % p
        for t, start, kept in zip(picks, starts.tolist(), keep.tolist()):
            if kept:
                out[t] = flat[start : start + arrays[t].size].reshape(arrays[t].shape)
    return out


class ModRows:
    """Echelon basis of vectors over F_p, pivot-normalized, numpy int64."""

    __slots__ = ("p", "length", "rows", "pivots")

    def __init__(self, p: int, length: int) -> None:
        self.p = p
        self.length = length
        self.rows: list[np.ndarray] = []
        self.pivots: list[int] = []

    @property
    def rank(self) -> int:
        return len(self.rows)

    def insert(self, vec) -> bool:
        if vec.shape != (self.length,):
            raise DimensionMismatch("vector shape mismatch")
        p = self.p
        w = np.mod(vec, p)
        for row, piv in zip(self.rows, self.pivots):
            c = int(w[piv])
            if c:
                w = (w - c * row) % p
        nz = np.flatnonzero(w)
        if nz.size == 0:
            return True
        j = int(nz[0])
        inv = pow(int(w[j]), p - 2, p)
        w = w * inv % p
        pos = bisect(self.pivots, j)
        self.rows.insert(pos, w)
        self.pivots.insert(pos, j)
        return False
