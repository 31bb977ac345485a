"""Whole-file codec: every stripe of a file encoded or decoded at once.

Stripes are independent codewords that share one butterfly schedule, so
the shard CLI stores a file's codewords shard-major: an (n x stripes)
array whose row j is shard j's payload, exactly as it sits on disk.
Every butterfly level is then one reshape of the array into
(blocks, 2, half * stripes), where each block's u and v halves are
contiguous runs of whole rows and the block shares a single factor, so
a level multiplies each block by one constant.  The shift's block
needs no special case: its factor is W_i(0) = 0 by linearity.  The
derivative is one XOR of reshaped halves per level.  The arithmetic
and the results equal the scalar transform symbol for symbol (tests
pin this against the scalar codec).

Multiplying a run of symbols by one constant takes one of two routes,
one per field width.  At r=8 symbols are uint8 and a 256 x 256 product
table turns the multiply into a gather of one table row, done in
chunks so the gather's index buffer stays small.  At r=16 a product
table would not fit, so symbols are uint16 and the multiply adds logs
and looks the sum up in an exp table stored twice over, which makes a
modular reduction unnecessary; zero operands are masked explicitly.
"""

from __future__ import annotations

import numpy as np

from .basis import BasisTables
from .rs import CodeParams, TooManyErasuresError
from .walsh import locator_values

# Symbols per table gather at r=8; its index buffer is 8 bytes a symbol.
_CHUNK = 1 << 16


class BatchCodec:
    """Shard-major encoder/decoder for one (CodeParams, BasisTables) pair."""

    def __init__(self, cp: CodeParams, bt: BasisTables):
        if bt.ft.r != cp.r:
            raise ValueError(f"basis tables built for r={bt.ft.r}, code needs r={cp.r}")
        if bt.max_h < cp.n:
            raise ValueError(f"basis tables capacity {bt.max_h} below n={cp.n}")
        self.cp = cp
        self.bt = bt
        self.ft = ft = bt.ft
        self.dtype = np.dtype(np.uint8 if cp.r == 8 else np.uint16)
        exp = np.asarray(ft.exp, dtype=self.dtype)
        log = np.asarray(ft.log, dtype=np.int32)
        if cp.r == 8:
            table = exp[(log[:, None] + log[None, :]) % ft.mult_order]
            table[0, :] = table[:, 0] = 0
            self._table = table
        else:
            self._log = log
            self._exp2 = np.concatenate((exp, exp))
        self._w_hat = [np.asarray(w, dtype=self.dtype) for w in bt.w_hat]
        self._b_prod = np.asarray(bt.b_prod[:cp.n], dtype=self.dtype)
        self._b_inv = np.asarray(bt.b_prod_inv[:cp.n], dtype=self.dtype)

    def _mul(self, v: np.ndarray, factors: np.ndarray) -> np.ndarray:
        """Product of each row v[b] with the field scalar factors[b]."""
        out = np.empty(v.shape, dtype=self.dtype)
        if self.cp.r == 16:
            np.take(self._exp2, self._log[v] + self._log[factors][:, None], out=out)
            out[(v == 0) | (factors == 0)[:, None]] = 0
            return out
        width = v.shape[1]
        for b, f in enumerate(factors.tolist()):
            row = self._table[f]
            for s in range(0, width, _CHUNK):
                np.take(row, v[b, s:s + _CHUNK], out=out[b, s:s + _CHUNK])
        return out

    def _level(self, a: np.ndarray, i: int, shift: int):
        """Level i's u and v block halves (views of C-contiguous a) and factors."""
        blocks = a.shape[0] >> (i + 1)
        pairs = a.reshape(blocks, 2, a.size // (2 * blocks))
        factors = self._w_hat[i][:blocks]
        if shift:
            factors = factors ^ self.bt.eval_w_hat(i, shift)
        return pairs[:, 0], pairs[:, 1], factors

    # -- transforms over rows (row j = codeword position j) --------------

    def _forward_inplace(self, a: np.ndarray, shift: int) -> None:
        for i in reversed(range(a.shape[0].bit_length() - 1)):
            u, v, factors = self._level(a, i, shift)
            u ^= self._mul(v, factors)
            v ^= u

    def _inverse_inplace(self, a: np.ndarray, shift: int) -> None:
        for i in range(a.shape[0].bit_length() - 1):
            u, v, factors = self._level(a, i, shift)
            v ^= u
            u ^= self._mul(v, factors)

    def _derivative(self, a: np.ndarray) -> np.ndarray:
        h = a.shape[0]
        scaled = self._mul(a, self._b_prod[:h])
        acc = np.zeros_like(a)
        for l in range(h.bit_length() - 1):
            shape = (h >> (l + 1), 2, a.size // (h >> l))
            acc.reshape(shape)[:, 0] ^= scaled.reshape(shape)[:, 1]
        return self._mul(acc, self._b_inv[:h])

    # -- public API ------------------------------------------------------

    def encode(self, messages: np.ndarray) -> np.ndarray:
        """Encode a (k x stripes) message array into (n x stripes) shards."""
        cp = self.cp
        if messages.shape[0] != cp.k:
            raise ValueError(f"message rows {messages.shape[0]} != k={cp.k}")
        if messages.dtype != self.dtype and (
                (messages < 0) | (messages >= self.ft.order)).any():
            raise ValueError(f"message symbols must lie in [0, {self.ft.order})")
        out = np.empty((cp.n, messages.shape[1]), dtype=self.dtype)
        out[:cp.k] = messages
        coeffs = out[:cp.k].copy()
        self._inverse_inplace(coeffs, 0)
        for i in range(1, cp.n // cp.k):
            block = out[i * cp.k:(i + 1) * cp.k]
            block[...] = coeffs
            self._forward_inplace(block, i * cp.k)
        return out

    def decode(self, received: np.ndarray, erased: set[int]) -> np.ndarray:
        """Recover the (k x stripes) messages; erased rows are ignored."""
        cp = self.cp
        n, k = cp.n, cp.k
        if received.shape[0] != n:
            raise ValueError(f"received rows {received.shape[0]} != n={n}")
        out = received[:k].astype(self.dtype)
        if not erased:
            return out
        if len(erased) > n - k:
            raise TooManyErasuresError(
                f"{len(erased)} erasures exceed repair capacity {n - k}")

        loc = locator_values(self.ft, erased)
        pi_row = np.zeros(n, dtype=self.dtype)
        pi_row[list(loc.pi_bar)] = list(loc.pi_bar.values())

        phi = self._mul(received, pi_row)
        self._inverse_inplace(phi, 0)
        dcoeffs = self._derivative(phi)
        self._forward_inplace(dcoeffs, 0)

        lost = sorted(j for j in erased if j < k)
        inv = np.array([self.ft.inv(loc.pi_prime[j]) for j in lost], dtype=self.dtype)
        out[lost] = self._mul(dcoeffs[lost], inv)
        return out
