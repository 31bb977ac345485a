"""The Reed-Solomon codec pipeline, run on every stripe of a file at once.

Stripes are independent codewords that share one butterfly schedule, so
the shard CLI stores a file's codewords shard-major: an (n x stripes)
array whose row j is shard j's payload, exactly as it sits on disk.

Encoding interprets each stripe's k message symbols as evaluations of
a unique degree-< k polynomial at the first k field points, recovers
its basis-domain coefficients with one k-point inverse transform, and
evaluates the remaining n - k points in k-point blocks with shifted
forward transforms: O(n lg k) field operations, and the first k rows
are the message verbatim.

Decoding multiplies the surviving rows by the erasure locator, which
extends each damaged evaluation vector to the full product polynomial
F * locator, a polynomial that is zero at every erased point.  One
n-point inverse transform, a formal derivative, and one n-point
forward transform later, each erased value falls out as
F'hat(j) / locator'(j): O(n lg n) total.

Every step is a row kernel of binfec.transform or binfec.derivative.
This is the only copy of the pipeline: binfec.rs.encode and decode are
its one-column view.
"""

from __future__ import annotations

import numpy as np

from .basis import BasisTables
from .derivative import derivative_rows
from .rs import CodeParams, TooManyErasuresError
from .transform import OpCounter, forward_rows, inverse_rows, mul_rows, symbol_dtype
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

    def _forward_inplace(self, a: np.ndarray, shift: int,
                         ops: OpCounter | None = None) -> None:
        forward_rows(self.bt, a, shift, ops)

    def _inverse_inplace(self, a: np.ndarray, shift: int,
                         ops: OpCounter | None = None) -> None:
        inverse_rows(self.bt, a, shift, ops)

    def _derivative(self, a: np.ndarray, ops: OpCounter | None = None) -> np.ndarray:
        return derivative_rows(self.bt, a, ops)

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

    def encode(self, messages: np.ndarray,
               ops: OpCounter | None = None) -> np.ndarray:
        """Encode a (k x stripes) message array into (n x stripes) shards."""
        cp = self.cp
        if messages.shape[0] != cp.k:
            raise ValueError(f"message rows {messages.shape[0]} != k={cp.k}")
        messages = self._symbols(messages)
        out = np.empty((cp.n, messages.shape[1]), dtype=self.dtype)
        out[:cp.k] = messages
        coeffs = out[:cp.k].copy()
        self._inverse_inplace(coeffs, 0, ops)
        for i in range(1, cp.n // cp.k):
            block = out[i * cp.k:(i + 1) * cp.k]
            block[...] = coeffs
            self._forward_inplace(block, i * cp.k, ops)
        return out

    def decode(self, received: np.ndarray, erased: set[int],
               ops: OpCounter | None = None) -> np.ndarray:
        """Recover the (k x stripes) messages; erased rows are ignored.

        Any erasure count up to n - k takes the same pipeline; with no
        erasures it returns a copy of the data rows.  ops, if given,
        also counts the locator scaling (one multiplication per survivor)
        and the final division (one per lost data row), per stripe.
        """
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

        # Erased rows are the locator's roots, so they scale to zero.
        phi = mul_rows(self.ft, received, pi_row)
        self._inverse_inplace(phi, 0, ops)
        dcoeffs = self._derivative(phi, ops)
        self._forward_inplace(dcoeffs, 0, ops)

        lost = sorted(j for j in erased if j < k)
        inv = np.array([self.ft.inv(loc.pi_prime[j]) for j in lost], dtype=self.dtype)
        out[lost] = mul_rows(self.ft, dcoeffs[lost], inv)
        if ops is not None:
            ops.muls += (len(loc.pi_bar) + len(lost)) * received.shape[1]
        return out
