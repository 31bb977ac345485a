"""Erasure-locator evaluation via Walsh-Hadamard transforms.

The locator polynomial of an erasure set E is the product of (x + e)
over the erased elements e.  Its value at every field point, and the
value of its formal derivative at every erased point, share one
formula in the log domain: a convolution of the erasure indicator with
the discrete-log table, indexed by XOR.  The Walsh-Hadamard transform
diagonalizes XOR-convolution, so both sets of values come out of two
length-2^r transforms over the integers mod 2^r - 1 plus pointwise
work, as one array indexed by position.  Because 2^r is congruent to 1
modulo 2^r - 1, the transform is its own inverse and no normalization
step exists.

The log table's transform and the exp table as an array depend only on
the field, so they are computed once per FieldTables and cached.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from .field import FieldTables, derived
from .transform import symbol_dtype

# ResidueVec: a list of ints in [0, modulus), transformed in place.
ResidueVec = list[int]


def fwht(data: ResidueVec, modulus: int) -> ResidueVec:
    """In-place Walsh-Hadamard transform over Z_modulus.

    Length must be a power of two; each butterfly maps (a, b) to
    (a + b, a - b), and the result is reduced into [0, modulus).
    Raises ValueError when length * modulus reaches 2^62, where the
    unreduced int64 butterflies could overflow.
    """
    n = len(data)
    if n & (n - 1):
        raise ValueError(f"length must be a power of two, got {n}")
    if n * modulus >= 1 << 62:
        raise ValueError(f"length {n} times modulus {modulus} overflows int64")
    data[:] = _fwht(np.array(data, dtype=np.int64) % modulus, modulus).tolist()
    return data


def _fwht(a: np.ndarray, modulus: int) -> np.ndarray:
    """fwht() on an int64 array of residues, in place: one reshape per level.

    The butterflies run unreduced and one remainder ends the transform:
    entries stay below len(a) * modulus in magnitude, below 2^32 for
    the field sizes here.
    """
    half = 1
    while half < len(a):
        pairs = a.reshape(-1, 2, half)
        x, y = pairs[:, 0], pairs[:, 1]
        diff = x - y
        x += y
        y[...] = diff
        half <<= 1
    a %= modulus
    return a


@derived
def _fwht_of_log(ft: FieldTables) -> np.ndarray:
    """The log table's transform, read-only."""
    a = _fwht(np.array(ft.log, dtype=np.int64), ft.mult_order)
    a.flags.writeable = False
    return a


@derived
def _exp_table(ft: FieldTables) -> np.ndarray:
    """ft.exp as a read-only symbol array."""
    a = np.asarray(ft.exp, dtype=symbol_dtype(ft))
    a.flags.writeable = False
    return a


def locator_values(ft: FieldTables, erasures: Iterable[int]) -> np.ndarray:
    """Locator values for an erasure set, all positions at once.

    Entry j of the returned length-2^r symbol array is the locator's
    value at j for every surviving position j, and its formal
    derivative at j for every erased position j; all are nonzero.

    Never forms the locator polynomial itself: works entirely in the
    log domain, where products over erased elements become sums.  The
    erased positions contribute log(0) = 0 to their own entry, which is
    exactly what turns that entry into the derivative value.
    """
    positions = np.asarray(erasures if isinstance(erasures, np.ndarray)
                           else list(erasures))
    if not positions.size:
        raise ValueError("erasure set must not be empty")
    n = ft.order
    outside = positions[(positions < 0) | (positions >= n)]
    if outside.size:
        raise ValueError(f"erasure position {outside[0]} outside field of size {n}")
    indicator = np.bincount(positions.astype(np.intp), minlength=n)
    if indicator.max() > 1:
        raise ValueError("duplicate erasure positions")
    if positions.size > n - 1:
        raise ValueError("erasure set must leave at least one survivor")

    m = ft.mult_order
    mixed = _fwht(indicator, m) * _fwht_of_log(ft) % m
    return _exp_table(ft)[_fwht(mixed, m)]
