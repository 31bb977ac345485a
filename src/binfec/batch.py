"""The Reed-Solomon codec pipeline, run on every stripe of a file at once.

Stripes are independent codewords that share one butterfly schedule, so
the codec takes many at once, shard-major: an (n x stripes) array whose
row j is shard j's payload, exactly as it sits on disk.  The shard CLI
passes a file one chunk of stripes at a time, so that its memory does
not grow with the file.

Encoding interprets each stripe's k message symbols as evaluations of
a unique degree-< k polynomial at the first k field points, recovers
its basis-domain coefficients with one k-point inverse transform, and
evaluates the remaining n - k points in k-point blocks with shifted
forward transforms: O(n lg k) field operations, and the first k rows
are the message verbatim.

Decoding takes only the surviving rows, as a {position: row} map, and
uses the k lowest-index ones.  If every data position survives, its
rows are the message.  Otherwise let h be the smallest power of two
(at least k) whose prefix [0, h) holds those k survivors: [0, h) is a
subspace, and the code restricted to it is an (h, k) Reed-Solomon code
in the same basis, with every other position of [0, h) erased.  The
survivors, each scaled by the erasure locator, are evaluations of the
product F * locator, which is zero at every erased point.  One h-point
inverse transform, the formal derivative's first k coefficients, and
one k-point forward transform later, each lost data value falls out as
F'hat(j) / locator'(j): O(h lg h) total, n lg n at most.

Every step is a row kernel of binfec.transform or binfec.derivative.
This is the only copy of the pipeline: binfec.rs.encode and decode are
its one-column view.  CodeParams (re-exported) is binfec.shardfile's,
the one geometry value that the shard header and the CLI take too.
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from .basis import BasisTables
from .derivative import derivative_rows
from .field import SYMBOL_DTYPE
from .shardfile import CodeParams
from .transform import OpCounter, forward_rows, inverse_rows, mul_rows, symbols
from .walsh import locator_values


class TooManyErasuresError(ValueError):
    """More erasures than the code can repair (above n - k)."""


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
        self.dtype = np.dtype(SYMBOL_DTYPE[cp.r])
        # (survivor positions used, erased mask, locator_values) of the
        # last repair: a file's chunks repeat one survivor set, and the
        # locator costs about 9 ms at r=16.
        self._locator: tuple[bytes, np.ndarray, np.ndarray] | None = None

    # -- phases over rows (row j = codeword position j), one method each
    # so that perfbench/trace.py can time them by name ------------------

    def _forward_inplace(self, a: np.ndarray, shift: int,
                         ops: OpCounter | None = None) -> None:
        forward_rows(self.bt, a, shift, ops)

    def _inverse_inplace(self, a: np.ndarray, shift: int,
                         ops: OpCounter | None = None) -> None:
        inverse_rows(self.bt, a, shift, ops)

    def _derivative(self, a: np.ndarray, ops: OpCounter | None = None) -> np.ndarray:
        return derivative_rows(self.bt, a, ops, self.cp.k)

    def _symbols(self, a: np.ndarray) -> np.ndarray:
        # a as (rows x stripes) in the codec's dtype
        if a.ndim != 2:
            raise ValueError(f"expected a (rows x stripes) array, got shape {a.shape}")
        return symbols(self.ft, a)

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

        survivors maps codeword positions in [0, n) to 1-D rows of equal
        length: row j holds position j of every stripe.  Any k or more
        survivors decode, and every row is checked, but only the k
        lowest-index ones are used.  When every data position survives,
        its rows are returned with no field arithmetic and ops is left
        as it is.  Otherwise the repair runs an h-point inverse
        transform, h the smallest power of two (at least k) above the
        highest survivor used, and a k-point forward transform; ops, if
        given, also counts the locator scaling (one multiplication per
        survivor used) and the final division (one per lost data row),
        per stripe.  A repair that uses the same survivor positions as
        the one before, as every chunk of a streamed file does, reuses
        its erasure locator.
        """
        n, k = self.cp.n, self.cp.k
        if not all(0 <= j < n for j in survivors):
            raise ValueError(f"survivor positions must lie in [0, {n})")
        if len(survivors) < k:
            raise TooManyErasuresError(
                f"{n - len(survivors)} erasures exceed repair capacity {n - k}")
        positions = sorted(survivors)
        rows = [survivors[j] for j in positions]
        shapes = {row.shape for row in rows}
        if len(shapes) != 1 or len(next(iter(shapes))) != 1:
            raise ValueError(f"survivor rows must be 1-D of one length, got {shapes}")
        (width,) = shapes.pop()
        rows = self._symbols(np.concatenate(rows).reshape(len(rows), width))[:k]
        last = int(positions[k - 1])
        if last == k - 1:  # every data row survives
            return rows

        known = np.array(positions[:k])
        key, memo = known.tobytes(), self._locator
        if memo is None or memo[0] != key:
            # [0, h) holds the k survivors used; the code restricted to
            # that subspace is an (h, k) code in the same basis.
            h = max(k, 1 << last.bit_length())
            erased = np.ones(h, dtype=bool)
            erased[known] = False
            memo = self._locator = key, erased, locator_values(self.ft, np.flatnonzero(erased), h)
        _, erased, loc = memo
        h = len(erased)
        # Erased points are the locator's roots, so their rows stay zero.
        phi = np.zeros((h, width), dtype=self.dtype)
        phi[known] = mul_rows(self.ft, rows, loc[known])
        self._inverse_inplace(phi, 0, ops)
        # X_i for i >= k vanishes on [0, k): only the derivative's first
        # k coefficients reach the lost data points.
        dcoeffs = self._derivative(phi, ops)
        del phi
        self._forward_inplace(dcoeffs, 0, ops)

        lost = np.flatnonzero(erased[:k])
        kept = k - len(lost)  # known[:kept] are the surviving data rows
        out = np.empty((k, width), dtype=self.dtype)
        out[known[:kept]] = rows[:kept]
        out[lost] = mul_rows(self.ft, dcoeffs[lost], self.ft.arrays.inv[loc[lost]])
        if ops is not None:
            ops.muls += (k + len(lost)) * width
        return out
