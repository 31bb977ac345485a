"""Formal derivative of a basis-domain polynomial.

In characteristic 2 the derivative of each basis polynomial X_i
collapses to a sum of lower basis polynomials scaled by the constants
W'_l, so the derivative of sum d_i X_i is again basis-domain:

    out[j] = sum over l not in bits(j), j + 2^l < h  of  W'_l * d[j + 2^l]

derivative_direct() computes that straight, costing up to lg(h)
multiplications per coefficient; it is the reference the tests hold
the fast method to.  derivative_fast() folds the W'_l factors into the
subset products B_i precomputed in BasisTables: scaling the inputs by
B_i first makes every inner sum factor-free, and one multiply by 1/B_j
finishes each output, for at most 2h multiplications total.  It is the
one-column view of derivative_rows(), which differentiates every
column of an (h x stripes) array at once with the same row kernel the
transform uses, so like the transform it takes a power-of-two length
up to the tables' capacity.  Both methods produce identical output.

Coefficients at or beyond the vector length are treated as zero, which
is the only sound reading for a polynomial of degree below h.
"""

from __future__ import annotations

import numpy as np

from .basis import BasisTables
from .transform import CoeffVec, OpCounter, basis_arrays, column, mul_rows


def derivative_direct(bt: BasisTables, coeffs: CoeffVec) -> CoeffVec:
    """Derivative by the direct per-coefficient formula."""
    d = coeffs.data
    h = len(d)
    levels = h.bit_length() - 1
    mul = bt.ft.mul
    w_prime = bt.w_prime
    out = [0] * h
    for j in range(h):
        acc = 0
        for l in range(levels):
            if j >> l & 1:
                continue
            src = j + (1 << l)
            if src < h and d[src]:
                acc ^= mul(w_prime[l], d[src])
        out[j] = acc
    return CoeffVec(out)


def derivative_fast(bt: BasisTables, coeffs: CoeffVec,
                    ops: OpCounter | None = None) -> CoeffVec:
    """Derivative via pre/post scaling; at most 2h multiplications."""
    return CoeffVec(derivative_rows(bt, column(bt, coeffs.data), ops)[:, 0].tolist())


def derivative_rows(bt: BasisTables, a: np.ndarray,
                    ops: OpCounter | None = None) -> np.ndarray:
    """derivative_fast() of every column of an (h x stripes) array.

    Level l adds scaled coefficient j + 2^l into output j (bit l of j
    clear), one XOR of reshaped halves.  Counted per column as the
    direct sum: (h/2) lg h - (h - 1) additions (the first term into
    each output is no addition), h + (nonzero outputs) multiplications.
    a is left as it is, in any memory layout; the result is a new array.
    """
    h = a.shape[0]
    arrays = basis_arrays(bt)
    scaled = mul_rows(bt.ft, a, arrays.b_prod[:h])
    acc = np.zeros_like(scaled)
    for l in range(h.bit_length() - 1):
        shape = (h >> (l + 1), 2, a.size // (h >> l))
        acc.reshape(shape)[:, 0] ^= scaled.reshape(shape)[:, 1]
    if ops is not None:
        stripes = a.size // h
        ops.adds += (h // 2 * (h.bit_length() - 1) - (h - 1)) * stripes
        ops.muls += h * stripes + int(np.count_nonzero(acc))
    return mul_rows(bt.ft, acc, arrays.b_prod_inv[:h])
