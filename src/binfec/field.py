"""GF(2^r) arithmetic with an XOR-compatible element ordering.

Field elements are plain ints in [0, 2^r).  The element with index i is
the linear combination of basis elements selected by the bits of i, and
the basis is fixed to the polynomial basis 1, x, x^2, ..., x^(r-1).
Under that choice the representation of element i is the integer i
itself, so field addition is XOR of indices: elem(a) + elem(b) =
elem(a ^ b).  Every module above this one relies on that identity.

Each supported width r has one fixed primitive reduction polynomial,
DEFAULT_POLY[r], and one numpy symbol dtype, SYMBOL_DTYPE[r]: the
little-endian r/8-byte integer that shard payloads store on disk and
the only dtype the row kernels take.  Scalar multiplication and
inversion go through full log/exp lists.  log[0] is stored as 0; the
zero element is handled by explicit branches, never by the table.
FieldTables.arrays holds the read-only tables the row kernels read,
the same log/exp tables as numpy arrays and, at r=8, the product table
as bytes; they are built with the tables, and this module imports numpy
only inside FieldTables.__init__.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    import numpy as np

# The primitive reduction polynomial of each supported bit width.
DEFAULT_POLY = {
    8: 0x11D,    # x^8 + x^4 + x^3 + x^2 + 1
    16: 0x1100B, # x^16 + x^12 + x^3 + x + 1
}

# The numpy dtype of one symbol of each width, in memory and on disk.
SYMBOL_DTYPE = {8: "u1", 16: "<u2"}

# The generator the log table is built from: element index 2 is the
# polynomial x, which is primitive for both default reduction polynomials.
ALPHA = 2


class FieldArrays(NamedTuple):
    """One field's tables as read-only numpy arrays.

    exp holds the exp table twice over, so exp[log[a] + log[b]] needs no
    modular reduction; log is int32, log[0] = 0; inv[a] is a's inverse,
    inv[0] = 0.  product_rows, at r=8 only, holds the 256 rows of the
    product table, read-only 256-byte views of one 65,536-byte buffer
    with product_rows[a][b] = a * b, the tables that bytearray.translate
    takes; it is None at r=16.
    """

    exp: np.ndarray
    log: np.ndarray
    inv: np.ndarray
    product_rows: tuple[memoryview, ...] | None


class FieldTables:
    """Immutable log/exp tables for one GF(2^r) instance.

    exp[j] = ALPHA^j for j in [0, 2^r - 1); log[exp[j]] = j.  arrays
    holds the log, exp and inverse tables as read-only numpy arrays and,
    at r=8, the product table's rows as read-only bytes views.
    Safe to share across threads.
    """

    def __init__(self, r: int, log: list[int], exp: list[int]):
        import numpy as np

        self.r = r
        self.order = 1 << r                # 2^r
        self.mult_order = self.order - 1   # size of the multiplicative group
        self.log = log
        self.exp = exp

        m = self.mult_order
        exp_a = np.array(exp * 2, dtype=SYMBOL_DTYPE[r])
        log_a = np.array(log, dtype=np.int32)
        inv = exp_a[m - log_a]
        inv[0] = 0
        product_rows = None
        if r == 8:
            product = exp_a[log_a[:, None] + log_a[None, :]]
            product[0, :] = product[:, 0] = 0
            view = memoryview(product.tobytes())  # bytes: the views are read-only
            product_rows = tuple(view[f << 8:(f + 1) << 8] for f in range(256))
        for a in (exp_a, log_a, inv):
            a.flags.writeable = False
        self.arrays = FieldArrays(exp_a, log_a, inv, product_rows)

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


def tables_for(r: int) -> FieldTables:
    """Build log/exp tables for bit width r by repeated multiplication by ALPHA.

    Checks the constant DEFAULT_POLY[r]: a polynomial for which ALPHA
    does not generate the full multiplicative group (reducible, or not
    primitive) surfaces here, because ALPHA's powers then fail to visit
    all 2^r - 1 nonzero residues exactly once.
    """
    if r not in DEFAULT_POLY:
        raise ValueError(f"unsupported field width r={r}; supported: {sorted(DEFAULT_POLY)}")
    poly = DEFAULT_POLY[r]
    order = 1 << r
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
        val <<= 1  # times ALPHA, the polynomial x, reduced by poly
        if val >> r:
            val ^= poly
    if val != 1:
        # Can only happen for a reducible modulus where ALPHA is not a unit.
        raise ValueError(f"reduction polynomial {poly:#x} is reducible for r={r}")
    log[0] = 0  # convention: log of zero is stored as 0, and never consulted
    return FieldTables(r, log, exp)

