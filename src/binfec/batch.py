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

Decoding takes only the surviving rows, as a {position: row} map.  If
every data position survives, its rows are the message.  Otherwise the
survivors, each scaled by the erasure locator, are evaluations of the
product F * locator, which is zero at every erased point.  One n-point
inverse transform, a formal derivative, and one n-point forward
transform later, each lost data value falls out as
F'hat(j) / locator'(j): O(n lg n) total.

Every step is a row kernel of binfec.transform or binfec.derivative.
This is the only copy of the pipeline: binfec.rs.encode and decode are
its one-column view.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .basis import BasisTables
from .derivative import derivative_rows
from .transform import (OpCounter, forward_rows, inverse_rows, inverse_table, mul_rows,
                        symbol_dtype)
from .walsh import locator_values


class TooManyErasuresError(ValueError):
    """More erasures than the code can repair (above n - k)."""


@dataclass(frozen=True)
class CodeParams:
    """Code geometry: n = 2^r total symbols, k of them message symbols."""

    r: int
    k: int

    def __post_init__(self) -> None:
        if self.k < 1 or self.k & (self.k - 1):
            raise ValueError(f"k must be a power of two, got {self.k}")
        if self.k > self.n:
            raise ValueError(f"k={self.k} exceeds code length n={self.n}")

    @property
    def n(self) -> int:
        return 1 << self.r

    @property
    def parity(self) -> int:
        return self.n - self.k


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

    def _symbols(self, a: np.ndarray) -> np.ndarray:
        # a as (rows x stripes) in the codec's dtype.  A wider dtype can
        # hold values outside the field, which the table gathers would
        # read as other entries: those are rejected.
        if a.ndim != 2:
            raise ValueError(f"expected a (rows x stripes) array, got shape {a.shape}")
        if a.dtype == self.dtype:
            return a
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

    def decode(self, survivors: Mapping[int, np.ndarray],
               ops: OpCounter | None = None) -> np.ndarray:
        """Recover the (k x stripes) messages from their surviving rows.

        survivors maps codeword positions in [0, n) to rows of equal
        length: row j holds position j of every stripe.  Any k or more
        survivors decode.  When every data position survives, its rows
        are returned with no field arithmetic and ops is left as it is;
        otherwise ops, if given, also counts the locator scaling (one
        multiplication per survivor) and the final division (one per
        lost data row), per stripe.
        """
        n, k = self.cp.n, self.cp.k
        if not all(0 <= j < n for j in survivors):
            raise ValueError(f"survivor positions must lie in [0, {n})")
        if len(survivors) < k:
            raise TooManyErasuresError(
                f"{n - len(survivors)} erasures exceed repair capacity {n - k}")
        lost = [j for j in range(k) if j not in survivors]
        known = sorted(survivors) if lost else range(k)
        # np.stack checks that every row has the same shape
        rows = self._symbols(np.stack([survivors[j] for j in known]))
        if not lost:
            return rows

        known = np.array(known)
        erased = np.ones(n, dtype=bool)
        erased[known] = False
        loc = locator_values(self.ft, np.flatnonzero(erased))
        # Erased points are the locator's roots, so their rows stay zero.
        phi = np.zeros((n, rows.shape[1]), dtype=self.dtype)
        phi[known] = mul_rows(self.ft, rows, loc[known])
        self._inverse_inplace(phi, 0, ops)
        dcoeffs = self._derivative(phi, ops)
        self._forward_inplace(dcoeffs, 0, ops)

        kept = k - len(lost)  # known[:kept] are the surviving data rows
        out = np.empty((k, rows.shape[1]), dtype=self.dtype)
        out[known[:kept]] = rows[:kept]
        out[lost] = mul_rows(self.ft, dcoeffs[lost], inverse_table(self.ft)[loc[lost]])
        if ops is not None:
            ops.muls += (len(known) + len(lost)) * rows.shape[1]
        return out
