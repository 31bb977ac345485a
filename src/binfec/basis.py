"""Subspace vanishing polynomials and the product basis built from them.

W_j(x) is the monic polynomial of degree 2^j whose roots are exactly
the elements with indices 0..2^j-1 (an F_2-subspace, so W_j is
linearized: W_j(x + y) = W_j(x) + W_j(y)).  The basis polynomial X_i is
the product of the normalized factors W_j(x)/W_j(elem(2^j)) over the
set bits j of i; deg X_i = i.

BasisTables precomputes everything the transform and the formal
derivative need:

  * W_j evaluated on the r basis elements, so any W_j(x) is an XOR of
    at most r stored values (linearity),
  * the normalization denominators W_j(elem(2^j)),
  * the per-level butterfly factors for block starts, h - 1 entries
    total for a size-h transform,
  * the derivative constants W'_l and their subset products B_i with
    inverses.

The butterfly factors and the subset products are built once, as the
read-only symbol arrays the row kernels read; the r-entry tables are
lists.  Tables are immutable after build and safe to share.  numpy is
imported when tables are built, not with this module.  The eval_*_naive
functions are deliberately simple reference paths used as test oracles.
"""

from __future__ import annotations

from collections.abc import Sequence

from .field import SYMBOL_DTYPE, FieldTables


class BasisTables:
    """Precomputed factors for transforms up to max_h points."""

    def __init__(self, ft: FieldTables, max_h: int):
        import numpy as np

        if max_h < 1 or max_h & (max_h - 1):
            raise ValueError(f"max_h must be a power of two, got {max_h}")
        if max_h > ft.order:
            raise ValueError(f"max_h={max_h} exceeds field size {ft.order}")
        self.ft = ft
        self.max_h = max_h
        self.levels = max_h.bit_length() - 1  # lg(max_h)

        r = ft.r
        mul = ft.mul

        # w_on_basis[i][b] = W_i(elem(2^b)).  Row 0 is W_0(x) = x; each
        # next row applies W_{i+1}(x) = W_i(x) * (W_i(x) + W_i(elem(2^i))).
        rows = [[1 << b for b in range(r)]]
        for i in range(r - 1):
            prev = rows[i]
            norm = prev[i]
            rows.append([mul(t, t ^ norm) for t in prev])
        self.w_on_basis: list[list[int]] = rows

        # Normalization denominators W_i(elem(2^i)); nonzero because
        # elem(2^i) lies outside the root subspace of W_i.
        self.w_norm: list[int] = [rows[i][i] for i in range(r)]
        for i, wn in enumerate(self.w_norm):
            if wn == 0:
                raise AssertionError(f"degenerate normalization at level {i}")
        self.inv_norm: list[int] = [ft.inv(wn) for wn in self.w_norm]

        # Butterfly factors for block starts: w_hat[i][b] is the
        # normalized W_i at the element indexed b * 2^(i+1).  Levels sum
        # to max_h/2 + max_h/4 + ... + 1 = max_h - 1 entries.  W_i is
        # linear, so each row doubles by XOR with its next power-of-two
        # entry.
        self.w_hat: list[np.ndarray] = []
        for i in range(self.levels):
            row = np.zeros(1, dtype=SYMBOL_DTYPE[r])
            for t in range(i + 1, self.levels):
                row = np.concatenate((row, row ^ self.eval_w_hat(i, 1 << t)))
            row.flags.writeable = False
            self.w_hat.append(row)

        # Formal-derivative constants: W'_l is the (constant) formal
        # derivative of the normalized W_l, i.e. the product of all
        # nonzero elements with index < 2^l divided by W_l(elem(2^l)).
        log, exp, m = ft.log, ft.exp, ft.mult_order
        w_prime = []
        acc = 0  # running log-sum of elements 1 .. 2^l - 1 (empty product: exp[0] = 1)
        for l in range(r):
            w_prime.append(mul(exp[acc % m], self.inv_norm[l]))
            if l < r - 1:
                for j in range(1 << l, 1 << (l + 1)):
                    acc += log[j]
        self.w_prime: list[int] = w_prime

        # Subset products B_i = prod of W'_j over set bits j of i, plus
        # inverses, for every coefficient index a size-max_h vector has.
        # Built as logs: B_i for i in [2^j, 2^(j+1)) is B_(i - 2^j) W'_j.
        # Every W'_j is nonzero, so every B_i is too.
        b_log = np.zeros(max_h, dtype=np.int64)
        for j in range(self.levels):
            b_log[1 << j:2 << j] = (b_log[:1 << j] + log[w_prime[j]]) % m
        self.b_prod: np.ndarray = ft.arrays.exp[b_log]
        self.b_prod_inv: np.ndarray = ft.arrays.exp[(m - b_log) % m]
        self.b_prod.flags.writeable = False
        self.b_prod_inv.flags.writeable = False

    # -- evaluation ----------------------------------------------------

    def eval_w(self, i: int, x: int) -> int:
        """W_i(x) via linearity: XOR of W_i on the set bits of x."""
        row = self.w_on_basis[i]
        acc = 0
        b = 0
        while x:
            if x & 1:
                acc ^= row[b]
            x >>= 1
            b += 1
        return acc

    def eval_w_hat(self, i: int, j: int) -> int:
        """Normalized factor W_i(elem(j)) / W_i(elem(2^i))."""
        return self.ft.mul(self.eval_w(i, j), self.inv_norm[i])

    def eval_x_naive(self, i: int, x: int) -> int:
        """Basis polynomial X_i at x, as the explicit product of factors.

        O(r) field operations; reference path only.
        """
        acc = 1
        j = 0
        while i:
            if i & 1:
                acc = self.ft.mul(acc, self.eval_w_hat(j, x))
            i >>= 1
            j += 1
        return acc

    def eval_poly_naive(self, coeffs: Sequence[int], x: int) -> int:
        """Evaluate sum_i coeffs[i] * X_i(x) term by term (test oracle)."""
        mul = self.ft.mul
        acc = 0
        for i, d in enumerate(coeffs):
            if d:
                acc ^= mul(d, self.eval_x_naive(i, x))
        return acc


def build_basis_tables(ft: FieldTables, max_h: int) -> BasisTables:
    """Build transform/derivative tables for sizes up to max_h."""
    return BasisTables(ft, max_h)
