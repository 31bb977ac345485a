"""Whole-file codec: every stripe of a file encoded or decoded at once.

Stripes are independent codewords that share one butterfly schedule, so
the shard CLI stores a file's codewords shard-major: an (n x stripes)
array whose row j is shard j's payload, exactly as it sits on disk.
The codec runs the same pipeline as binfec.rs, but on all stripes at
once through the row kernels of binfec.transform and
binfec.derivative; binfec.rs is their one-stripe view.
"""

from __future__ import annotations

import numpy as np

from .basis import BasisTables
from .derivative import derivative_rows
from .rs import CodeParams, TooManyErasuresError
from .transform import forward_rows, inverse_rows, mul_rows, symbol_dtype
from .walsh import locator_values


class BatchCodec:
    """Shard-major encoder/decoder for one (CodeParams, BasisTables) pair."""

    def __init__(self, cp: CodeParams, bt: BasisTables):
        if bt.ft.r != cp.r:
            raise ValueError(f"basis tables built for r={bt.ft.r}, code needs r={cp.r}")
        if bt.max_h < cp.n:
            raise ValueError(f"basis tables capacity {bt.max_h} below n={cp.n}")
        self.cp = cp
        self.bt = bt
        self.ft = bt.ft
        self.dtype = symbol_dtype(bt.ft)

    # -- phases over rows (row j = codeword position j), one method each
    # so that perfbench/trace.py can time them by name ------------------

    def _forward_inplace(self, a: np.ndarray, shift: int) -> None:
        forward_rows(self.bt, a, shift)

    def _inverse_inplace(self, a: np.ndarray, shift: int) -> None:
        inverse_rows(self.bt, a, shift)

    def _derivative(self, a: np.ndarray) -> np.ndarray:
        return derivative_rows(self.bt, a)

    def _symbols(self, a: np.ndarray, ignored: set[int] = frozenset()) -> np.ndarray:
        # a in the codec's dtype, rows in `ignored` read as zero.  A wider
        # dtype can hold values outside the field, which the table
        # gathers would read as other entries: those are rejected.
        if a.dtype == self.dtype:
            return a
        a = a.astype(np.int64)
        a[sorted(ignored)] = 0
        if ((a < 0) | (a >= self.ft.order)).any():
            raise ValueError(f"symbols must lie in [0, {self.ft.order})")
        return a.astype(self.dtype)

    # -- public API ------------------------------------------------------

    def encode(self, messages: np.ndarray) -> np.ndarray:
        """Encode a (k x stripes) message array into (n x stripes) shards."""
        cp = self.cp
        if messages.shape[0] != cp.k:
            raise ValueError(f"message rows {messages.shape[0]} != k={cp.k}")
        messages = self._symbols(messages)
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
        if len(erased) > n - k:
            raise TooManyErasuresError(
                f"{len(erased)} erasures exceed repair capacity {n - k}")
        received = self._symbols(received, erased)
        out = received[:k].copy()
        if not erased:
            return out

        loc = locator_values(self.ft, erased)
        pi_row = np.zeros(n, dtype=self.dtype)
        pi_row[list(loc.pi_bar)] = list(loc.pi_bar.values())

        phi = mul_rows(self.ft, received, pi_row)
        self._inverse_inplace(phi, 0)
        dcoeffs = self._derivative(phi)
        self._forward_inplace(dcoeffs, 0)

        lost = sorted(j for j in erased if j < k)
        inv = np.array([self.ft.inv(loc.pi_prime[j]) for j in lost], dtype=self.dtype)
        out[lost] = mul_rows(self.ft, dcoeffs[lost], inv)
        return out
