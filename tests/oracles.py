"""Independent reference implementations used as test oracles.

Everything here recomputes its quantity from first principles: bit-by-
bit carry-less multiplication, explicit root products, monomial-basis
polynomial algebra, brute-force search.  None of it shares code with
the butterfly, derivative, or FWHT paths it is used to check.
"""

from __future__ import annotations

import numpy as np


def clmul_reduce(a: int, b: int, poly: int, r: int) -> int:
    """Carry-less shift-and-xor multiply, reduced bit by bit."""
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


def clmul_order(x: int, poly: int, r: int) -> int:
    """Multiplicative order of x modulo poly (by repeated multiplication)."""
    v = clmul_reduce(x, 1, poly, r)
    o = 1
    while v != 1:
        v = clmul_reduce(v, x, poly, r)
        o += 1
        if o > (1 << r):
            raise AssertionError("element is not invertible")
    return o


def clmul_inverse(a: int, poly: int, r: int) -> int:
    """Inverse by exhaustive search over the field."""
    for b in range(1, 1 << r):
        if clmul_reduce(a, b, poly, r) == 1:
            return b
    raise AssertionError(f"{a} has no inverse")


def w_direct(ft, j: int, x: int) -> int:
    """W_j(x) as the explicit product over its 2^j roots."""
    p = 1
    for i in range(1 << j):
        p = ft.mul(p, x ^ i)
    return p


def x_direct(bt, i: int, x: int) -> int:
    """X_i(x) as explicit root products divided by the norms."""
    ft = bt.ft
    p = 1
    for j in range(ft.r):
        if i >> j & 1:
            p = ft.mul(p, ft.div(w_direct(ft, j, x), w_direct(ft, j, 1 << j)))
    return p


def locator_direct(ft, erased, j: int) -> int:
    """Product of (j + y) over erased y != j: locator or its derivative."""
    p = 1
    for y in erased:
        if y != j:
            p = ft.mul(p, j ^ y)
    return p


class LocatorOracle:
    """Direct-product locator values for all positions, via log sums."""

    def __init__(self, ft):
        self.ft = ft
        self._log = np.asarray(ft.log, dtype=np.int64)
        self._exp = np.asarray(ft.exp, dtype=np.int64)
        self._m = ft.mult_order

    def values(self, erased: set[int]) -> list[int]:
        """values[j] = prod over erased y != j of (j ^ y), every j."""
        es = np.fromiter(erased, dtype=np.int64)
        out = []
        for j in range(self.ft.order):
            pts = (j ^ es)
            pts = pts[pts != 0]  # y == j contributes nothing
            out.append(int(self._exp[int(self._log[pts].sum() % self._m)]))
        return out


class NaiveEvaluator:
    """Termwise sum(d_i * X_i(x)) over a precomputed X_i(x) matrix.

    The matrix comes from the production naive evaluator (itself pinned
    against explicit root products in the basis tests); this class only
    memoizes those values so acceptance sweeps stay inside their time
    budgets.  The transform never touches any of this.
    """

    def __init__(self, bt):
        self.bt = bt
        ft = bt.ft
        n = bt.max_h
        self._x = np.array(
            [[bt.eval_x_naive(i, x) for x in range(ft.order)] for i in range(n)],
            dtype=np.int64)
        self._log = np.asarray(ft.log, dtype=np.int64)
        self._exp = np.asarray(ft.exp, dtype=np.int64)
        self._m = ft.mult_order

    def eval_at(self, coeffs, points) -> list[int]:
        pts = np.asarray(points, dtype=np.int64)
        acc = np.zeros(len(pts), dtype=np.int64)
        for i, d in enumerate(coeffs):
            if d:
                xv = self._x[i, pts]
                term = self._exp[(self._log[xv] + self._log[d]) % self._m]
                acc ^= np.where(xv == 0, 0, term)
        return [int(v) for v in acc]


# -- monomial-basis polynomial algebra ---------------------------------

def mono_mul(ft, a: list[int], b: list[int]) -> list[int]:
    """Convolution product of monomial coefficient lists."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] ^= ft.mul(ai, bj)
    return out


def mono_scale(ft, a: list[int], c: int) -> list[int]:
    return [ft.mul(v, c) for v in a]


def mono_eval(ft, coeffs: list[int], x: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = ft.mul(acc, x) ^ c
    return acc


def mono_derivative(coeffs: list[int]) -> list[int]:
    """Characteristic-2 formal derivative: even-degree terms vanish."""
    out = [0] * max(1, len(coeffs) - 1)
    for j in range(1, len(coeffs)):
        if j & 1:
            out[j - 1] = coeffs[j]
    return out


def lagrange_eval(ft, xs: list[int], ys: list[int], x: int) -> int:
    """Value at x of the degree < len(xs) polynomial through (xs, ys).

    Monomial-form Lagrange interpolation; in characteristic 2 every
    difference x - xs[j] is the XOR x ^ xs[j].
    """
    acc = 0
    for i, (xi, yi) in enumerate(zip(xs, ys)):
        if not yi:
            continue
        num = den = 1
        for j, xj in enumerate(xs):
            if j != i:
                num = ft.mul(num, x ^ xj)
                den = ft.mul(den, xi ^ xj)
        acc ^= ft.mul(yi, ft.div(num, den))
    return acc


def w_monomial(ft, j: int) -> list[int]:
    """Monomial coefficients of W_j from its linear factors."""
    poly = [1]
    for i in range(1 << j):
        poly = mono_mul(ft, poly, [i, 1])
    return poly


def x_monomial(bt, i: int) -> list[int]:
    """Monomial coefficients of the basis polynomial X_i."""
    ft = bt.ft
    poly = [1]
    scale = 1
    for j in range(ft.r):
        if i >> j & 1:
            poly = mono_mul(ft, poly, w_monomial(ft, j))
            scale = ft.mul(scale, w_direct(ft, j, 1 << j))
    return mono_scale(ft, poly, ft.inv(scale))


def basis_to_monomial(bt, coeffs) -> list[int]:
    """Expand sum(d_i * X_i) into monomial coefficients."""
    ft = bt.ft
    out = [0] * max(1, len(coeffs))
    for i, d in enumerate(coeffs):
        if d:
            for j, c in enumerate(x_monomial(bt, i)):
                out[j] ^= ft.mul(d, c)
    return out
