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
finishes each output, for at most 2h multiplications total.  Both
take and return a list of h coefficients: derivative_fast() is the
one-column view of derivative_rows(), which differentiates every
column of an (h x stripes) array at once with the same row kernel the
transform uses, so like the transform it takes a power-of-two length
up to the tables' capacity, and can stop at the first k outputs,
which is all a decode reads.  Both methods produce identical output.

Coefficients at or beyond the vector length are treated as zero, which
is the only sound reading for a polynomial of degree below h.
"""

from __future__ import annotations

import numpy as np

from .basis import BasisTables
from .transform import OpCounter, check_in_place, column, mul_rows


def derivative_direct(bt: BasisTables, coeffs: list[int]) -> list[int]:
    """Derivative by the direct per-coefficient formula."""
    h = len(coeffs)
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
            if src < h and coeffs[src]:
                acc ^= mul(w_prime[l], coeffs[src])
        out[j] = acc
    return out


def derivative_fast(bt: BasisTables, coeffs: list[int],
                    ops: OpCounter | None = None) -> list[int]:
    """Derivative via pre/post scaling; at most 2h multiplications."""
    return derivative_rows(bt, column(bt, coeffs), ops)[:, 0].tolist()


def derivative_rows(bt: BasisTables, a: np.ndarray,
                    ops: OpCounter | None = None, k: int | None = None) -> np.ndarray:
    """First k outputs of derivative_fast() on every column of (h x stripes) a.

    k is a power of two up to h (the default).  Level l adds scaled
    coefficient j + 2^l into output j (bit l of j clear).  For the
    levels below lg k that is one XOR of reshaped halves within
    [0, k); at each level l from lg k up, every output j < k takes
    scaled coefficient j + 2^l, one XOR of rows [2^l, 2^l + k).  So
    only the rows [0, k) and [2^l, 2^l + k) for lg k <= l < lg h are
    scaled.  Counted per column as the direct sum, with
    T = (k/2) lg k + k (lg h - lg k) terms:

        additions        T - k at k < h (every output has a term),
                         (h/2) lg h - (h - 1) at k = h (all but the last)
        multiplications  k (1 + lg h - lg k) + (nonzero outputs)

    a is C-contiguous symbols, as the transform kernels take.  Its rows
    [0, k) are scaled in place, with no copy made, and its rows from k up
    are left as they are; the result is a new (k x stripes) array.
    """
    check_in_place(bt.ft, a)
    h = a.shape[0]
    k = h if k is None else k
    if not 1 <= k <= h or k & (k - 1):
        raise ValueError(f"k must be a power of two up to {h}, got {k}")
    stripes = a.size // h
    scaled = mul_rows(bt.ft, a[:k], bt.b_prod[:k], out=a[:k])
    acc = np.zeros(scaled.shape, scaled.dtype)  # C order, so that each reshape is a view
    for l in range(k.bit_length() - 1):
        shape = (k >> (l + 1), 2, stripes << l)
        acc.reshape(shape)[:, 0] ^= scaled.reshape(shape)[:, 1]
    higher = range(k.bit_length() - 1, h.bit_length() - 1)
    for l in higher:
        rows = slice(1 << l, (1 << l) + k)
        mul_rows(bt.ft, a[rows], bt.b_prod[rows], add_to=acc)
    if ops is not None:
        terms = k // 2 * (k.bit_length() - 1) + k * len(higher)
        ops.adds += (terms - k + (k == h)) * stripes
        ops.muls += k * (1 + len(higher)) * stripes + int(np.count_nonzero(acc))
    return mul_rows(bt.ft, acc, bt.b_prod_inv[:k], out=acc)
