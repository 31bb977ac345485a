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
whole rows sharing one factor.  The block whose point is zero needs no
special case: its factor is W_i(0) = 0.  The array must be C-contiguous,
so that each reshape is a view of it.  forward() and inverse() are
their one-column view, list in and list out.

Multiplying rows by constants takes one route per field width.  At
r=8 symbols are uint8 and a 256 x 256 product table turns the multiply
into a gather at the flat index (f << 8) | v.  One gather covers as
many whole rows as fit in a chunk, so the many short blocks of a
one-column call cost a few calls per level, and a row wider than a
chunk is gathered chunk by chunk, so the index buffer stays small.
At r=16 a product table would not fit, so symbols are uint16 and the
multiply adds logs and looks the sum up in an exp table stored twice
over, so no modular reduction is needed; zero operands are masked
explicitly.

Every operation is exact; OpCounter instrumentation counts the field
additions and multiplications per level, where the block whose point
is zero costs only its v half's additions.  For h-point transforms:

    shift outside the point set:  h lg h adds, (h/2) lg h muls
    shift zero:                   h lg h - h + 1 adds, (h/2) lg h - h + 1 muls
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .basis import BasisTables
from .field import FieldTables, derived

# Symbols per table gather at r=8; numpy converts its indices to an
# 8-byte-per-symbol buffer.
_CHUNK = 1 << 16


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


class BasisArrays(NamedTuple):
    """BasisTables' butterfly factors and derivative products as arrays."""

    w_hat: list[np.ndarray]
    b_prod: np.ndarray
    b_prod_inv: np.ndarray


def symbol_dtype(ft: FieldTables) -> np.dtype:
    """uint8 at r=8, uint16 at r=16."""
    return np.dtype(np.uint8 if ft.r == 8 else np.uint16)


def column(bt: BasisTables, data: list[int], shift: int = 0) -> np.ndarray:
    """A size-h vector as the (h x 1) array the row kernels run on."""
    h = len(data)
    if h < 1 or h & (h - 1):
        raise ValueError(f"transform size must be a power of two, got {h}")
    if h > bt.max_h:
        raise ValueError(f"transform size {h} exceeds table capacity {bt.max_h}")
    if not 0 <= shift < bt.ft.order:
        raise ValueError(f"shift {shift} outside field of size {bt.ft.order}")
    # int64 first: numpy scalars cast to a narrower dtype would wrap.
    a = np.array(data, dtype=np.int64).reshape(h, 1)
    if ((a < 0) | (a >= bt.ft.order)).any():
        raise ValueError(f"symbols must lie in [0, {bt.ft.order})")
    return a.astype(symbol_dtype(bt.ft))


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


def forward_counted(bt: BasisTables, coeffs: CoeffVec,
                    shift: int = 0) -> tuple[EvalVec, OpCounter]:
    """forward() plus exact counts of the field operations executed."""
    ops = OpCounter()
    return forward(bt, coeffs, shift, ops), ops


def inverse_counted(bt: BasisTables, evals: EvalVec) -> tuple[CoeffVec, OpCounter]:
    """inverse() plus exact counts of the field operations executed."""
    ops = OpCounter()
    return inverse(bt, evals, ops), ops


@derived
def _field_arrays(ft: FieldTables) -> tuple[np.ndarray, ...]:
    """r=8: (flat product table,); r=16: (int32 logs, doubled exp table)."""
    exp = np.asarray(ft.exp, dtype=symbol_dtype(ft))
    log = np.asarray(ft.log, dtype=np.int32)
    if ft.r == 16:
        return log, np.concatenate((exp, exp))
    table = exp[(log[:, None] + log[None, :]) % ft.mult_order]
    table[0, :] = table[:, 0] = 0
    return (table.ravel(),)


@derived
def basis_arrays(bt: BasisTables) -> BasisArrays:
    """bt's w_hat levels, b_prod and b_prod_inv as symbol arrays."""
    dtype = symbol_dtype(bt.ft)
    return BasisArrays([np.asarray(w, dtype=dtype) for w in bt.w_hat],
                       np.asarray(bt.b_prod, dtype=dtype),
                       np.asarray(bt.b_prod_inv, dtype=dtype))


def mul_rows(ft: FieldTables, v: np.ndarray, factors: np.ndarray) -> np.ndarray:
    """Product of each row v[b] with the field scalar factors[b]."""
    out = np.empty(v.shape, dtype=symbol_dtype(ft))
    if ft.r == 16:
        log, exp2 = _field_arrays(ft)
        np.take(exp2, log[v] + log[factors][:, None], out=out)
        out[(v == 0) | (factors == 0)[:, None]] = 0
        return out
    (table,) = _field_arrays(ft)
    rows, width = v.shape
    group = max(1, _CHUNK // max(width, 1))
    high = factors.astype(np.uint16)[:, None] << 8
    for b in range(0, rows, group):
        for s in range(0, width, _CHUNK):
            # For field symbols (f << 8) | v lies inside the 65,536-entry
            # table, so mode="wrap" changes no result; it gathers faster
            # than the default mode, which checks every index.
            np.take(table, high[b:b + group] | v[b:b + group, s:s + _CHUNK],
                    out=out[b:b + group, s:s + _CHUNK], mode="wrap")
    return out


def _level(bt: BasisTables, a: np.ndarray, i: int, shift: int,
           ops: OpCounter | None):
    """Level i's u and v block halves (views of a) and factors."""
    if not a.flags.c_contiguous:
        # reshape would copy, and the level would be lost in the copy
        raise ValueError("row kernels transform C-contiguous arrays in place")
    h = a.shape[0]
    blocks = h >> (i + 1)
    pairs = a.reshape(blocks, 2, a.size // (2 * blocks))
    factors = basis_arrays(bt).w_hat[i][:blocks]
    if shift:
        factors = factors ^ bt.eval_w_hat(i, shift)
    if ops is not None:
        half = 1 << i
        zero = half if shift < h and not shift & ((half << 1) - 1) else 0
        stripes = a.size // h
        ops.adds += (h - zero) * stripes
        ops.muls += (h // 2 - zero) * stripes
    return pairs[:, 0], pairs[:, 1], factors


def forward_rows(bt: BasisTables, a: np.ndarray, shift: int = 0,
                 ops: OpCounter | None = None) -> None:
    """forward() on every column of an (h x stripes) array, in place."""
    for i in reversed(range(a.shape[0].bit_length() - 1)):
        u, v, factors = _level(bt, a, i, shift, ops)
        u ^= mul_rows(bt.ft, v, factors)
        v ^= u


def inverse_rows(bt: BasisTables, a: np.ndarray, shift: int = 0,
                 ops: OpCounter | None = None) -> None:
    """inverse() on every column of an (h x stripes) array, in place."""
    for i in range(a.shape[0].bit_length() - 1):
        u, v, factors = _level(bt, a, i, shift, ops)
        v ^= u
        u ^= mul_rows(bt.ft, v, factors)


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
