"""Erasure-locator evaluation via Walsh-Hadamard transforms.

The locator polynomial of an erasure set E is the product of (x + e)
over the erased elements e.  Its value at every field point, and the
value of its formal derivative at every erased point, share one
formula in the log domain: a convolution of the erasure indicator with
the discrete-log table, indexed by XOR.  The Walsh-Hadamard transform
diagonalizes XOR-convolution, so both sets of values come out of
three length-h transforms over the integers mod 2^r - 1 (of the
indicator, of the log table, and one back) plus pointwise work, as one
array indexed by position, when every erasure lies in the subspace
[0, h).  Because 2^r is congruent to 1 modulo 2^r - 1, the
length-2^r transform is its own inverse and needs no normalization
step; a shorter one is scaled by 2^(r - lg h), its inverse length.
(F. Didier, "Efficient erasure decoding of Reed-Solomon codes",
arXiv:0901.1886.)

fwht() is the one transform: it takes an integer array and returns a
new int64 array of residues.  The log and exp tables are read from
FieldTables.arrays.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from .field import FieldTables


def fwht(data: np.ndarray, modulus: int) -> np.ndarray:
    """Walsh-Hadamard transform over Z_modulus of an integer array.

    Length must be a power of two; each butterfly maps (a, b) to
    (a + b, a - b).  Returns a new int64 array reduced into
    [0, modulus); data is left as it is.  The input is reduced first
    and the butterflies run unreduced, one reshape per level, so
    entries stay below length * modulus in magnitude: ValueError when
    that reaches 2^62, where int64 could overflow, and for values that
    are not integers.
    """
    a = np.asarray(data)
    if a.dtype.kind not in "iu" or not np.can_cast(a.dtype, np.int64):
        raise ValueError(f"values must be integers that fit int64, got {a.dtype}")
    n = len(a)
    if n & (n - 1):
        raise ValueError(f"length must be a power of two, got {n}")
    if n * modulus >= 1 << 62:
        raise ValueError(f"length {n} times modulus {modulus} overflows int64")
    a = a.astype(np.int64) % modulus
    half = 1
    while half < n:
        pairs = a.reshape(-1, 2, half)
        x, y = pairs[:, 0], pairs[:, 1]
        diff = x - y
        x += y
        y[...] = diff
        half <<= 1
    a %= modulus
    return a


def locator_values(ft: FieldTables, erasures: Iterable[int],
                   h: int | None = None) -> np.ndarray:
    """Locator values for an erasure set, all positions of [0, h) at once.

    h is a power of two up to 2^r (the default), and the erasures lie
    in [0, h).  Entry j of the returned length-h symbol array is the
    locator's value at j for every surviving position j, and its formal
    derivative at j for every erased position j; all are nonzero.

    Never forms the locator polynomial itself: works entirely in the
    log domain, where products over erased elements become sums.  The
    erased positions contribute log(0) = 0 to their own entry, which is
    exactly what turns that entry into the derivative value.  [0, h) is
    closed under XOR, so the convolution runs at length h over log[:h];
    two length-h transforms multiply it by h, and 2^(r - lg h) undoes
    that, since h * 2^(r - lg h) = 2^r is 1 modulo 2^r - 1.
    """
    n = ft.order
    h = n if h is None else h
    if not 1 <= h <= n or h & (h - 1):
        raise ValueError(f"h must be a power of two up to {n}, got {h}")
    positions = np.asarray(erasures if isinstance(erasures, np.ndarray)
                           else list(erasures))
    if not positions.size:
        raise ValueError("erasure set must not be empty")
    if positions.dtype.kind not in "iu":
        raise ValueError(f"erasure positions must be integers, got {positions.dtype}")
    outside = positions[(positions < 0) | (positions >= h)]
    if outside.size:
        raise ValueError(f"erasure position {outside[0]} outside [0, {h})")
    indicator = np.bincount(positions.astype(np.intp), minlength=h)
    if indicator.max() > 1:
        raise ValueError("duplicate erasure positions")
    if positions.size > h - 1:
        raise ValueError("erasure set must leave at least one survivor")

    m = ft.mult_order
    log = fwht(ft.arrays.log[:h], m)
    mixed = fwht(indicator, m) * log % m
    return ft.arrays.exp[fwht(mixed, m) * (n // h) % m]
