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
their one-column view, list in and list out; each takes the shift of
the evaluation points.  degree() and poly_mul() also work on lists.

Symbols are SYMBOL_DTYPE[r]: uint8 at r=8, uint16 at r=16.  The kernels
reject rows of any other dtype before writing anything, and column() is
the one place the codec converts values to it.  The kernels read the
butterfly factors BasisTables.w_hat and the field tables
FieldTables.arrays, read-only arrays each built once by the object that
owns it.  mul_rows multiplies rows in pieces of about _PIECE symbols
(several whole rows, or part of a wide one), and stores each piece into
the output, which may be the input itself, or, for a butterfly, XORs it
straight into u: whatever the rows' size, a multiply holds one piece's
temporaries.  At r=8 each row of a piece is copied into a bytearray and
translated through FieldArrays.product_rows[f], the 256 bytes of its
factor f times every symbol: one C byte-table lookup per symbol, with no
index buffer and no table built per call.  Each row costs 0.5-1 us
beyond its 0.5 ns a byte, which a one-column call pays on every one of
its short rows.  At r=16 a product table would not fit, so the multiply
adds logs and looks the sum up in the exp table stored twice over, so no
modular reduction is needed; zero operands are masked explicitly.

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

# Symbols per piece of a multiply.  At r=8 a piece's copies stay below
# glibc's 128 KiB mmap threshold: eight 256 KiB rows took 1.59 ns a
# symbol in 16 KiB pieces, 1.24 in 64 KiB pieces and 1.19-1.21 in
# 128-256 KiB ones (medians of 15).  At r=16, whose index arrays take
# 12 bytes a symbol, pieces took half the time of whole arrays from
# 128K symbols up (16 x 8,192: 1.2 against 2.4 ms) and the same below.
_PIECE = 1 << 16


@dataclass
class OpCounter:
    """Running totals of field additions and multiplications."""

    adds: int = 0
    muls: int = 0


def column(bt: BasisTables, data: list[int], shift: int = 0) -> np.ndarray:
    """A size-h vector as a new (h x 1) array of symbols: the codec's one conversion.

    A value outside [0, 2^r) would be read by the table lookups as another
    entry, and a cast would truncate one that is not an integer: both are refused.
    """
    h = len(data)
    if h < 1 or h & (h - 1):
        raise ValueError(f"transform size must be a power of two, got {h}")
    if h > bt.max_h:
        raise ValueError(f"transform size {h} exceeds table capacity {bt.max_h}")
    if not 0 <= shift < bt.ft.order:
        raise ValueError(f"shift {shift} outside field of size {bt.ft.order}")
    a = np.asarray(data).reshape(h, 1)
    if a.dtype.kind not in "iu":
        raise ValueError(f"symbols must be integers in [0, {bt.ft.order}), got dtype {a.dtype}")
    if ((a < 0) | (a >= bt.ft.order)).any():
        raise ValueError(f"symbols must lie in [0, {bt.ft.order})")
    return a.astype(SYMBOL_DTYPE[bt.ft.r])


def forward(bt: BasisTables, coeffs: list[int], shift: int = 0,
            ops: OpCounter | None = None) -> list[int]:
    """Transform coefficients into evaluations at points c ^ shift."""
    a = column(bt, coeffs, shift)
    forward_rows(bt, a, shift, ops)
    return a[:, 0].tolist()


def inverse(bt: BasisTables, evals: list[int], shift: int = 0,
            ops: OpCounter | None = None) -> list[int]:
    """Recover the coefficients whose forward transform at `shift` is `evals`."""
    a = column(bt, evals, shift)
    inverse_rows(bt, a, shift, ops)
    return a[:, 0].tolist()


def mul_rows(ft: FieldTables, v: np.ndarray, factors: np.ndarray,
             add_to: np.ndarray | None = None,
             out: np.ndarray | None = None) -> np.ndarray:
    """Product of each row v[b] with the field scalar factors[b].

    Returned as a new array; or stored into the rows of out, which may be
    v itself, to scale v in place; or, given add_to, added (XORed) into
    its rows: a butterfly's u += f * v with no product array.  The rows
    written are returned.
    """
    check_symbols(ft, v)
    arrays = ft.arrays
    store = np.copyto if add_to is None else _add
    if add_to is not None:
        out = add_to
    elif out is None:
        out = np.empty(v.shape, v.dtype)
    rows, width = v.shape
    if ft.r == 8:
        tables = [arrays.product_rows[f] for f in factors.tolist()]
    else:
        logs, zero = arrays.log[factors][:, None], (factors == 0)[:, None]
    # pieces of about _PIECE symbols: several whole rows, or part of one
    group, piece = max(1, _PIECE // max(width, 1)), max(1, min(width, _PIECE))
    for b in range(0, rows, group):
        for s in range(0, width, piece):
            part = v[b:b + group, s:s + piece]
            if ft.r == 8:
                translated = [bytearray(row).translate(table)
                              for row, table in zip(part, tables[b:b + group])]
                product = np.frombuffer(b"".join(translated), np.uint8).reshape(part.shape)
            else:
                product = np.take(arrays.exp, arrays.log[part] + logs[b:b + group])
                product[(part == 0) | zero[b:b + group]] = 0
            store(out[b:b + group, s:s + piece], product)
    return out


def check_symbols(ft: FieldTables, a: np.ndarray) -> None:
    # another dtype would be misread: at r=8, translate reads its bytes
    if a.dtype != SYMBOL_DTYPE[ft.r]:
        raise ValueError(f"row kernels take {np.dtype(SYMBOL_DTYPE[ft.r])} symbols "
                         f"at r={ft.r}, got dtype {a.dtype}")


def check_in_place(ft: FieldTables, a: np.ndarray) -> None:
    # checked before the level loop, which an h = 1 array never enters
    if not a.flags.c_contiguous:
        # reshape would copy, and the level would be lost in the copy
        raise ValueError("row kernels transform C-contiguous arrays in place")
    check_symbols(ft, a)


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
    check_in_place(bt.ft, a)
    for i in reversed(range(a.shape[0].bit_length() - 1)):
        u, v, factors, z = _level(bt, a, i, shift, ops)
        mul_rows(bt.ft, v[z:], factors[z:], add_to=u[z:])
        v ^= u


def inverse_rows(bt: BasisTables, a: np.ndarray, shift: int = 0,
                 ops: OpCounter | None = None) -> None:
    """inverse() on every column of an (h x stripes) array, in place."""
    check_in_place(bt.ft, a)
    for i in range(a.shape[0].bit_length() - 1):
        u, v, factors, z = _level(bt, a, i, shift, ops)
        v ^= u
        mul_rows(bt.ft, v[z:], factors[z:], add_to=u[z:])


def degree(coeffs: list[int]) -> int | None:
    """Largest index with a nonzero coefficient; None for the zero vector.

    Valid because the i-th basis polynomial has degree exactly i.
    """
    for j in range(len(coeffs) - 1, -1, -1):
        if coeffs[j]:
            return j
    return None


def poly_mul(bt: BasisTables, a: list[int], b: list[int]) -> list[int]:
    """Product of two basis-domain polynomials, returned at twice the size.

    Both inputs are zero-extended to 2h, transformed, multiplied
    pointwise, and inverse-transformed.  Exact whenever the product
    degree fits, which holds for any pair of size-h inputs.
    """
    h = len(a)
    if len(b) != h:
        raise ValueError("poly_mul operands must have equal length")
    h2 = 2 * h
    if h2 > bt.max_h:
        raise ValueError(f"product size {h2} exceeds table capacity {bt.max_h}")
    ea = forward(bt, a + [0] * h)
    eb = forward(bt, b + [0] * h)
    mul = bt.ft.mul
    return inverse(bt, [mul(x, y) for x, y in zip(ea, eb)])
