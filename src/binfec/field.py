"""GF(2^r) arithmetic with an XOR-compatible element ordering.

Field elements are plain ints in [0, 2^r).  The element with index i is
the linear combination of basis elements selected by the bits of i, and
the basis is fixed to the polynomial basis 1, x, x^2, ..., x^(r-1).
Under that choice the representation of element i is the integer i
itself, so field addition is XOR of indices: elem(a) + elem(b) =
elem(a ^ b).  Every module above this one relies on that identity.

Multiplication and inversion go through full log/exp tables built once
per (r, reduction polynomial) pair.  log[0] is stored as 0; the zero
element is handled by explicit branches, never by the table.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

# Primitive reduction polynomials, one per supported bit width.
DEFAULT_POLY = {
    8: 0x11D,    # x^8 + x^4 + x^3 + x^2 + 1
    16: 0x1100B, # x^16 + x^12 + x^3 + x + 1
}

SUPPORTED_R = (8, 16)

# The generator the log table is built from: element index 2 is the
# polynomial x, which is primitive for both default reduction polynomials.
ALPHA = 2


@dataclass(frozen=True)
class FieldParams:
    """Fixed parameters of a GF(2^r) instance."""

    r: int
    reduction_poly: int

    def __post_init__(self) -> None:
        if self.r not in SUPPORTED_R:
            raise ValueError(f"unsupported field width r={self.r}; supported: {SUPPORTED_R}")
        if self.reduction_poly.bit_length() != self.r + 1:
            raise ValueError(
                f"reduction polynomial {self.reduction_poly:#x} must have degree {self.r}"
            )

    @property
    def order(self) -> int:
        return 1 << self.r


class FieldTables:
    """Immutable log/exp tables for one GF(2^r) instance.

    exp[j] = ALPHA^j for j in [0, 2^r - 1); log[exp[j]] = j.  Safe to
    share across threads once built.
    """

    def __init__(self, params: FieldParams, log: list[int], exp: list[int]):
        self.params = params
        self.r = params.r
        self.order = params.order          # 2^r
        self.mult_order = params.order - 1 # size of the multiplicative group
        self.log = log
        self.exp = exp

    def add(self, a: int, b: int) -> int:
        """Field addition: XOR of representations (= XOR of indices)."""
        return a ^ b

    def mul(self, a: int, b: int) -> int:
        """Field multiplication via log/exp lookup."""
        if a == 0 or b == 0:
            return 0
        return self.exp[(self.log[a] + self.log[b]) % self.mult_order]

    def inv(self, a: int) -> int:
        """Multiplicative inverse; raises ZeroDivisionError on 0."""
        if a == 0:
            raise ZeroDivisionError("zero has no multiplicative inverse")
        return self.exp[(self.mult_order - self.log[a]) % self.mult_order]

    def div(self, a: int, b: int) -> int:
        """a / b, raising ZeroDivisionError when b is 0."""
        if b == 0:
            raise ZeroDivisionError("division by zero field element")
        if a == 0:
            return 0
        return self.exp[(self.log[a] - self.log[b]) % self.mult_order]


def build_tables(params: FieldParams) -> FieldTables:
    """Build log/exp tables by repeated multiplication by ALPHA.

    Rejects reduction polynomials for which ALPHA does not generate the
    full multiplicative group: reducible polynomials and primitive-free
    choices both surface here, because ALPHA's powers then fail to
    visit all 2^r - 1 nonzero residues exactly once.
    """
    r = params.r
    order = params.order
    poly = params.reduction_poly

    log = [-1] * order
    exp = [0] * (order - 1)
    val = 1
    for i in range(order - 1):
        if log[val] != -1:
            raise ValueError(
                f"reduction polynomial {poly:#x} is not primitive for r={r}: "
                f"alpha={ALPHA} cycles after {i} steps"
            )
        exp[i] = val
        log[val] = i
        val = _mul_slow(val, ALPHA, poly, r)
    if val != 1:
        # Can only happen for a reducible modulus where ALPHA is not a unit.
        raise ValueError(f"reduction polynomial {poly:#x} is reducible for r={r}")
    log[0] = 0  # convention: log of zero is stored as 0, and never consulted
    return FieldTables(params, log, exp)


def tables_for(r: int, reduction_poly: int | None = None) -> FieldTables:
    """Build tables for bit width r with the default (or given) polynomial."""
    poly = DEFAULT_POLY[r] if reduction_poly is None else reduction_poly
    return build_tables(FieldParams(r=r, reduction_poly=poly))


def derived(build):
    """Decorator: build(tables) runs once per table set, kept on the tables."""
    def get(owner):
        forms = owner.__dict__.setdefault("_derived", {})
        if build not in forms:
            forms.setdefault(build, build(owner))  # the first build wins a race
        return forms[build]
    return functools.wraps(build)(get)


def _mul_slow(a: int, b: int, poly: int, r: int) -> int:
    # Carry-less shift-and-xor multiply, reduced bit by bit.  Only used
    # during table construction; everything else uses the tables.
    top = 1 << r
    p = 0
    while b:
        if b & 1:
            p ^= a
        b >>= 1
        a <<= 1
        if a & top:
            a ^= poly
    return p
