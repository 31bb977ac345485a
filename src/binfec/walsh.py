"""Erasure-locator evaluation via Walsh-Hadamard transforms.

The locator polynomial of an erasure set E is the product of (x + e)
over the erased elements e.  Its value at every field point, and the
value of its formal derivative at every erased point, share one
formula in the log domain: a convolution of the erasure indicator with
the discrete-log table, indexed by XOR.  The Walsh-Hadamard transform
diagonalizes XOR-convolution, so both sets of values come out of two
length-2^r transforms over the integers mod 2^r - 1 plus pointwise
work.  Because 2^r is congruent to 1 modulo 2^r - 1, the transform is
its own inverse and no normalization step exists.

The log table's transform depends only on the field, so it is computed
once per FieldTables and cached.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .field import FieldTables, derived

# ResidueVec: a list of ints in [0, modulus), transformed in place.
ResidueVec = list[int]


@dataclass
class LocatorValues:
    """Locator values split by position class.

    pi_bar[j] is the locator value at j for every surviving position;
    pi_prime[j] is the locator's formal derivative at j for every
    erased position.  Both are nonzero for distinct erasures.
    """

    pi_bar: dict[int, int]
    pi_prime: dict[int, int]


def fwht(data: ResidueVec, modulus: int) -> ResidueVec:
    """In-place Walsh-Hadamard transform over Z_modulus.

    Length must be a power of two; each butterfly maps (a, b) to
    (a + b, a - b) reduced into [0, modulus).
    """
    n = len(data)
    if n & (n - 1):
        raise ValueError(f"length must be a power of two, got {n}")
    data[:] = _fwht(np.array(data, dtype=np.int64), modulus).tolist()
    return data


def _fwht(a: np.ndarray, modulus: int) -> np.ndarray:
    """fwht() on an int64 array, in place: one reshape per level."""
    half = 1
    while half < len(a):
        pairs = a.reshape(-1, 2, half)
        x, y = pairs[:, 0], pairs[:, 1]
        diff = x - y
        x += y
        x %= modulus
        np.remainder(diff, modulus, out=y)
        half <<= 1
    return a


@derived
def _fwht_of_log(ft: FieldTables) -> np.ndarray:
    """The log table's transform, read-only."""
    a = _fwht(np.array(ft.log, dtype=np.int64), ft.mult_order)
    a.flags.writeable = False
    return a


def locator_values(ft: FieldTables, erasures: Iterable[int]) -> LocatorValues:
    """Locator values for an erasure set, all positions at once.

    Never forms the locator polynomial itself: works entirely in the
    log domain, where products over erased elements become sums.  The
    erased positions contribute log(0) = 0 to their own entry, which is
    exactly what turns that entry into the derivative value.
    """
    positions = list(erasures)
    erased = set(positions)
    if not erased:
        raise ValueError("erasure set must not be empty")
    if len(erased) != len(positions):
        raise ValueError("duplicate erasure positions")
    n = ft.order
    if len(erased) > n - 1:
        raise ValueError("erasure set must leave at least one survivor")
    for e in erased:
        if not 0 <= e < n:
            raise ValueError(f"erasure position {e} outside field of size {n}")

    m = ft.mult_order
    indicator = np.zeros(n, dtype=np.int64)
    indicator[positions] = 1
    mixed = _fwht(indicator, m) * _fwht_of_log(ft) % m
    values = np.asarray(ft.exp)[_fwht(mixed, m)].tolist()

    pi_bar: dict[int, int] = {}
    pi_prime: dict[int, int] = {}
    for j, value in enumerate(values):
        if j in erased:
            pi_prime[j] = value
        else:
            pi_bar[j] = value
    return LocatorValues(pi_bar, pi_prime)
