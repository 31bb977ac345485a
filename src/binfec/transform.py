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

Symbols are SYMBOL_DTYPE[r]: uint8 at r=8, uint16 at r=16, and the
kernels reject rows of any other dtype before writing anything.  They
read the butterfly factors BasisTables.w_hat and the field tables
FieldTables.arrays, read-only arrays each built once by the object that
owns it.  At r=8, mul_rows copies each row into a bytearray and
translates it through FieldArrays.product_rows[f], the 256 bytes of its
factor f times every symbol: one C byte-table lookup per symbol, with
no index buffer and no table built per call.  Rows are translated in
pieces of about _PIECE bytes (several whole rows, or part of a wide
one), and each piece is stored into the output or, for a butterfly,
XORed straight into u.  Each row costs 0.5-1 us beyond its 0.5 ns a
byte, which a one-column call pays on every one of its short rows.  At
r=16 a product table would not fit, so the multiply adds logs and
looks the sum up in the exp table stored twice over, so no modular
reduction is needed; zero operands are masked explicitly.

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

# Symbols per translated piece of r=8 work, whose copies stay below
# glibc's 128 KiB mmap threshold.  Eight 256 KiB rows took 1.59 ns a
# symbol in 16 KiB pieces, 1.24 in 64 KiB pieces and 1.19-1.21 in
# 128-256 KiB ones (medians of 15).
_PIECE = 1 << 16


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
    lookups would read as other entries: those are rejected, and so is
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


def mul_rows(ft: FieldTables, v: np.ndarray, factors: np.ndarray,
             add_to: np.ndarray | None = None) -> np.ndarray:
    """Product of each row v[b] with the field scalar factors[b].

    Returned as a new array or, given add_to, added (XORed) into its rows,
    which are returned: a butterfly's u += f * v with no product array.
    """
    _check_symbols(ft, v)
    arrays = ft.arrays
    if ft.r == 16:
        product = np.take(arrays.exp, arrays.log[v] + arrays.log[factors][:, None])
        product[(v == 0) | (factors == 0)[:, None]] = 0
        return product if add_to is None else _add(add_to, product)
    out = np.empty(v.shape, np.uint8) if add_to is None else add_to
    store = np.copyto if add_to is None else _add
    rows, width = v.shape
    tables = [arrays.product_rows[f] for f in factors.tolist()]
    # pieces of about _PIECE symbols: several whole rows, or part of one
    group, piece = max(1, _PIECE // max(width, 1)), max(1, min(width, _PIECE))
    for b in range(0, rows, group):
        for s in range(0, width, piece):
            part = v[b:b + group, s:s + piece]
            translated = [bytearray(row).translate(table)
                          for row, table in zip(part, tables[b:b + group])]
            product = np.frombuffer(b"".join(translated), np.uint8)
            store(out[b:b + group, s:s + piece], product.reshape(part.shape))
    return out


def _check_symbols(ft: FieldTables, a: np.ndarray) -> None:
    # another dtype would be misread: at r=8, translate reads its bytes
    if a.dtype != SYMBOL_DTYPE[ft.r]:
        raise ValueError(f"row kernels take {np.dtype(SYMBOL_DTYPE[ft.r])} symbols "
                         f"at r={ft.r}, got dtype {a.dtype}")


def _check_in_place(ft: FieldTables, a: np.ndarray) -> None:
    # checked before the level loop, which an h = 1 array never enters
    if not a.flags.c_contiguous:
        # reshape would copy, and the level would be lost in the copy
        raise ValueError("row kernels transform C-contiguous arrays in place")
    _check_symbols(ft, a)


def _add(dest: np.ndarray, product: np.ndarray) -> np.ndarray:
    dest ^= product
    return dest


def _level(bt: BasisTables, a: np.ndarray, i: int, shift: int,
           ops: OpCounter | None):
    """Level i's u and v block halves (views of a), factors, and z.

    z is 1 when block 0's factor is zero, as it is at shift 0, and the
    kernels skip that block's multiply; else 0.
    """
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
    _check_in_place(bt.ft, a)
    for i in reversed(range(a.shape[0].bit_length() - 1)):
        u, v, factors, z = _level(bt, a, i, shift, ops)
        mul_rows(bt.ft, v[z:], factors[z:], add_to=u[z:])
        v ^= u


def inverse_rows(bt: BasisTables, a: np.ndarray, shift: int = 0,
                 ops: OpCounter | None = None) -> None:
    """inverse() on every column of an (h x stripes) array, in place."""
    _check_in_place(bt.ft, a)
    for i in range(a.shape[0].bit_length() - 1):
        u, v, factors, z = _level(bt, a, i, shift, ops)
        v ^= u
        mul_rows(bt.ft, v[z:], factors[z:], add_to=u[z:])


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
