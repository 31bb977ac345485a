"""The h-point basis transform, its inverse, and polynomial operations.

forward() maps basis-domain coefficients (d_0, ..., d_{h-1}) to the h
evaluations of sum d_i X_i at the points indexed c ^ shift for
c = 0..h-1.  It runs lg(h) in-place butterfly levels; at level i each
pair (u, v) at stride 2^i becomes

    u' = u + f * v,   v' = u' + v,

where f is the precomputed normalized factor for the pair's block
combined with the shift.  inverse() runs the levels in the opposite
order with the reformulated pair (v = u' + v', u = u' + f*v).

forward_rows() and inverse_rows() are the one implementation: they
transform every column of an (h x stripes) array at once, each level
one reshape into (blocks, 2, half * stripes) whose block halves are
whole rows sharing one factor.  At shift 0, block 0's factor is
W_i(0) = 0 at every level, so that block's multiply is skipped and only
its v += u runs.  The array must be C-contiguous,
so that each reshape is a view of it.  forward() and inverse() are
their one-column view, list in and list out.

Symbols are SYMBOL_DTYPE[r]: uint8 at r=8, uint16 at r=16.  The
kernels read the butterfly factors BasisTables.w_hat and the field
tables FieldTables.arrays, read-only arrays each built once by the
object that owns it.  Multiplying rows by constants takes one of three
routes, chosen by field width and row width.  At r=8 a row at least
_PAIR_MIN symbols wide is multiplied two symbols per lookup: a
65,536-entry uint16 table of its factor f times every symbol pair is
built for that row alone, and the row is gathered through it as a
uint16 view, chunk by chunk, so no table outlives its row (caching
all 255 would take 32 MiB).  A narrower row, a strided one, and the
last symbol of an odd-width one take the flat route: the 256 x 256
product table gathered at the flat index (f << 8) | v, one gather
covering as many whole rows as fit in a chunk, so the many short
blocks of a one-column call cost a few calls per level.  At r=16 a
product table would not fit, so the multiply adds logs and looks the
sum up in the exp table stored twice over, so no modular reduction is
needed; zero operands are masked explicitly.

Every operation is exact; OpCounter instrumentation counts the field
additions and multiplications the kernels execute, level by level, so
a skipped block 0 costs only its v half's additions.  For h-point
transforms:

    shift outside the point set:  h lg h adds, (h/2) lg h muls
    shift zero:                   h lg h - h + 1 adds, (h/2) lg h - h + 1 muls
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import BasisTables
from .field import SYMBOL_DTYPE, FieldTables

# Indices per table gather at r=8; numpy converts its indices to an
# 8-byte-per-index buffer.
_CHUNK = 1 << 16

# Narrowest r=8 row multiplied through its own pair table.  Building a
# table costs about 25 us, so narrow rows lose: the two routes tie at
# 32,768 symbols a row, the pair route is 1.3x slower at 16,384 and
# about 1.2x faster from 40,960 up (2-core Xeon, numpy 2.4).
_PAIR_MIN = 1 << 16


@dataclass
class CoeffVec:
    """Basis-domain coefficients; length must be a power of two."""

    data: list[int]

    def __len__(self) -> int:
        return len(self.data)


@dataclass
class EvalVec:
    """Evaluations at points indexed c ^ shift, c = 0..h-1."""

    data: list[int]
    shift: int = 0

    def __len__(self) -> int:
        return len(self.data)


@dataclass
class OpCounter:
    """Running totals of field additions and multiplications."""

    adds: int = 0
    muls: int = 0


def symbols(ft: FieldTables, a: np.ndarray) -> np.ndarray:
    """a in ft's symbol dtype; in another dtype, every value must lie in [0, 2^r).

    A wider dtype can hold values outside the field, which the table
    gathers would read as other entries: those are rejected, and so is
    a dtype that is not integer (float, bool, object), which a cast
    would truncate.
    """
    if a.dtype == SYMBOL_DTYPE[ft.r]:
        return a
    if a.dtype.kind not in "iu":
        raise ValueError(f"symbols must be integers in [0, {ft.order}), got dtype {a.dtype}")
    if ((a < 0) | (a >= ft.order)).any():
        raise ValueError(f"symbols must lie in [0, {ft.order})")
    return a.astype(SYMBOL_DTYPE[ft.r])


def column(bt: BasisTables, data: list[int], shift: int = 0) -> np.ndarray:
    """A size-h vector as the (h x 1) array the row kernels run on."""
    h = len(data)
    if h < 1 or h & (h - 1):
        raise ValueError(f"transform size must be a power of two, got {h}")
    if h > bt.max_h:
        raise ValueError(f"transform size {h} exceeds table capacity {bt.max_h}")
    if not 0 <= shift < bt.ft.order:
        raise ValueError(f"shift {shift} outside field of size {bt.ft.order}")
    return symbols(bt.ft, np.asarray(data).reshape(h, 1))


def forward(bt: BasisTables, coeffs: CoeffVec, shift: int = 0,
            ops: OpCounter | None = None) -> EvalVec:
    """Transform coefficients into evaluations at points c ^ shift."""
    a = column(bt, coeffs.data, shift)
    forward_rows(bt, a, shift, ops)
    return EvalVec(a[:, 0].tolist(), shift)


def inverse(bt: BasisTables, evals: EvalVec,
            ops: OpCounter | None = None) -> CoeffVec:
    """Recover the coefficients whose forward transform is `evals`."""
    a = column(bt, evals.data, evals.shift)
    inverse_rows(bt, a, evals.shift, ops)
    return CoeffVec(a[:, 0].tolist())


def mul_rows(ft: FieldTables, v: np.ndarray, factors: np.ndarray) -> np.ndarray:
    """Product of each row v[b] with the field scalar factors[b]."""
    arrays = ft.arrays
    out = np.empty(v.shape, dtype=arrays.exp.dtype)
    if ft.r == 16:
        np.take(arrays.exp, arrays.log[v] + arrays.log[factors][:, None], out=out)
        out[(v == 0) | (factors == 0)[:, None]] = 0
        return out
    rows, width = v.shape
    paired = 0  # leading symbols of each row done through its pair table
    if width >= _PAIR_MIN and v.strides[1] == 1:
        paired = width & ~1
        for b in range(rows):
            # pair[(hi << 8) | lo] = f*hi << 8 | f*lo: symmetric in the two
            # bytes, so right in either byte order of the uint16 views.
            f = int(factors[b])
            row = arrays.product[f << 8:(f + 1) << 8]
            pair = ((row.astype(np.uint16) << 8)[:, None] | row).ravel()
            v2 = v[b, :paired].view(np.uint16)
            out2 = out[b, :paired].view(np.uint16)
            for s in range(0, paired // 2, _CHUNK):
                np.take(pair, v2[s:s + _CHUNK], out=out2[s:s + _CHUNK], mode="wrap")
    # The flat gather takes the rest: every symbol of a narrow or strided
    # row, and the last symbol of an odd-width paired one.
    group = max(1, _CHUNK // max(width - paired, 1))
    high = factors.astype(np.uint16)[:, None] << 8
    for b in range(0, rows, group):
        for s in range(paired, width, _CHUNK):
            # For field symbols (f << 8) | v lies inside the 65,536-entry
            # table, so mode="wrap" changes no result; it gathers faster
            # than the default mode, which checks every index.
            np.take(arrays.product, high[b:b + group] | v[b:b + group, s:s + _CHUNK],
                    out=out[b:b + group, s:s + _CHUNK], mode="wrap")
    return out


def _level(bt: BasisTables, a: np.ndarray, i: int, shift: int,
           ops: OpCounter | None):
    """Level i's u and v block halves (views of a), factors, and z.

    z is 1 when block 0's factor is zero, as it is at shift 0, and the
    kernels skip that block's multiply; else 0.
    """
    if not a.flags.c_contiguous:
        # reshape would copy, and the level would be lost in the copy
        raise ValueError("row kernels transform C-contiguous arrays in place")
    h = a.shape[0]
    blocks = h >> (i + 1)
    pairs = a.reshape(blocks, 2, a.size // (2 * blocks))
    factors = bt.w_hat[i][:blocks]
    if shift:
        factors = factors ^ bt.eval_w_hat(i, shift)
    z = int(factors[0] == 0)
    if ops is not None:
        zero = z << i  # rows in the skipped u half
        stripes = a.size // h
        ops.adds += (h - zero) * stripes
        ops.muls += (h // 2 - zero) * stripes
    return pairs[:, 0], pairs[:, 1], factors, z


def forward_rows(bt: BasisTables, a: np.ndarray, shift: int = 0,
                 ops: OpCounter | None = None) -> None:
    """forward() on every column of an (h x stripes) array, in place."""
    for i in reversed(range(a.shape[0].bit_length() - 1)):
        u, v, factors, z = _level(bt, a, i, shift, ops)
        u[z:] ^= mul_rows(bt.ft, v[z:], factors[z:])
        v ^= u


def inverse_rows(bt: BasisTables, a: np.ndarray, shift: int = 0,
                 ops: OpCounter | None = None) -> None:
    """inverse() on every column of an (h x stripes) array, in place."""
    for i in range(a.shape[0].bit_length() - 1):
        u, v, factors, z = _level(bt, a, i, shift, ops)
        v ^= u
        u[z:] ^= mul_rows(bt.ft, v[z:], factors[z:])


def degree(coeffs: CoeffVec) -> int | None:
    """Largest index with a nonzero coefficient; None for the zero vector.

    Valid because the i-th basis polynomial has degree exactly i.
    """
    for j in range(len(coeffs.data) - 1, -1, -1):
        if coeffs.data[j]:
            return j
    return None


def poly_mul(bt: BasisTables, a: CoeffVec, b: CoeffVec) -> CoeffVec:
    """Product of two basis-domain polynomials, returned at twice the size.

    Both inputs are zero-extended to 2h, transformed, multiplied
    pointwise, and inverse-transformed.  Exact whenever the product
    degree fits, which holds for any pair of size-h inputs.
    """
    h = len(a.data)
    if len(b.data) != h:
        raise ValueError("poly_mul operands must have equal length")
    h2 = 2 * h
    if h2 > bt.max_h:
        raise ValueError(f"product size {h2} exceeds table capacity {bt.max_h}")
    ea = forward(bt, CoeffVec(a.data + [0] * h), 0)
    eb = forward(bt, CoeffVec(b.data + [0] * h), 0)
    mul = bt.ft.mul
    prod = EvalVec([mul(x, y) for x, y in zip(ea.data, eb.data)], 0)
    return inverse(bt, prod)
