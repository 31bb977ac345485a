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
are the message verbatim.  Each block depends only on the coefficients,
so encode_blocks yields the codewords one k-row block at a time, all
computed into one reused buffer: the CLI writes each block to its
shards before the next is computed, so an encode holds one block, not
n/k of them.  encode copies the blocks into one (n x stripes) array.

Decoding is repair(positions), the codec's one decode: a plan, made once
for any number of stripes, from the k survivors a decode reads (the k
lowest, for each caller).  h is the smallest power of two (at least k)
whose prefix [0, h) holds them.  [0, h) is a subspace: the code
restricted to it is an (h, k) Reed-Solomon code in the same basis, with
every other position of [0, h) erased.  At h = k the survivors are the
message, which the plan's rebuild returns.  Otherwise they, each scaled
by the erasure locator (computed once, in the plan), are evaluations of
the product F * locator, which is zero at every erased point.  One
h-point inverse transform, the formal derivative's first k coefficients,
and one k-point forward transform later, each lost data value falls out
as F'hat(j) / locator'(j): O(h lg h) a stripe, n lg n at most.

A repaired window of W stripes has a fixed working set beside its k
survivor rows: the (h x W) workspace that the inverse transform runs
in and the derivative scales in place, and the derivative's (k x W)
sum, which becomes the output, plus one multiply's piece of about 64K
symbols.  In a CLI window at r=8, 512 KiB of survivors, that peaks at
1.7 MiB for h = 2k.

Every step is a row kernel of binfec.transform or binfec.derivative.
This is the only copy of the pipeline: binfec.rs.encode and decode are
its one-column view.  CodeParams (re-exported) is binfec.shardfile's,
the one geometry value that the shard header and the CLI take too.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from .basis import BasisTables
from .derivative import derivative_rows
from .field import SYMBOL_DTYPE
from .shardfile import CodeParams
from .transform import OpCounter, check_symbols, forward_rows, inverse_rows, mul_rows
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

    def encode_blocks(self, messages: np.ndarray, ops: OpCounter | None = None):
        """Yield the codewords of (k x stripes) messages a k-row block at a time.

        Each item is (first position, (k x stripes) rows): the message
        rows at 0, then the shifted forward block at each multiple of k,
        in position order up to n.  Every block is computed into one
        buffer, so a block's rows are valid only until the next block is
        asked for: a caller that keeps them copies them.  The messages
        (in the codec's dtype) are checked when the first block is asked for.
        """
        cp = self.cp
        if messages.ndim != 2 or messages.shape[0] != cp.k:
            raise ValueError(f"expected a (k={cp.k} x stripes) array, got shape {messages.shape}")
        check_symbols(self.ft, messages)
        coeffs = messages.copy()  # C order, as the kernels need
        yield 0, coeffs
        inverse_rows(self.bt, coeffs, 0, ops)
        block = np.empty_like(coeffs)
        for first in range(cp.k, cp.n, cp.k):
            block[...] = coeffs
            forward_rows(self.bt, block, first, ops)
            yield first, block

    def encode(self, messages: np.ndarray,
               ops: OpCounter | None = None) -> np.ndarray:
        """Encode a (k x stripes) message array into (n x stripes) shards."""
        blocks = self.encode_blocks(messages, ops)
        _, data = next(blocks)
        out = np.empty((self.cp.n, data.shape[1]), dtype=self.dtype)
        out[:self.cp.k] = data
        for first, block in blocks:
            out[first:first + self.cp.k] = block
        return out

    def repair(self, positions: Iterable[int]):
        """Plan a repair from the k distinct survivor positions a decode uses: (h, rebuild).

        h is the smallest power of two, at least k, whose prefix [0, h) holds
        them.  rebuild(rows, ops=None) maps their (k x stripes) rows, in
        position order and the codec's dtype, to the k data rows: at h = k
        the rows themselves.  Otherwise ops, if given, also counts the locator
        scaling (one multiplication per survivor) and the division (one per
        lost data row), per stripe.  rows is left as it is.  Fewer than k
        positions raise TooManyErasuresError.  A rebuild of W stripes allocates
        the (h x W) workspace and the (k x W) array that the derivative sums
        into and that becomes the output.  The derivative scales both in
        place, and every multiply works a piece at a time, so at its peak a
        rebuild holds those two arrays and one piece's temporaries.
        """
        n, k = self.cp.n, self.cp.k
        positions = sorted(positions)
        if len(positions) < k:
            raise TooManyErasuresError(
                f"{n - len(positions)} erasures exceed repair capacity {n - k}")
        if len(set(positions)) != k or len(positions) != k or \
                not 0 <= positions[0] <= positions[-1] < n:
            raise ValueError(f"a repair takes {k} distinct positions in [0, {n})")
        h = max(k, 1 << int(positions[-1]).bit_length())
        if h == k:  # every data row survives: the rows are the message
            def copy(rows: np.ndarray, ops: OpCounter | None = None) -> np.ndarray:
                check_symbols(self.ft, rows)
                return rows
            return h, copy

        known = np.array(positions)
        is_erased = np.ones(h, dtype=bool)
        is_erased[known] = False
        erased = np.flatnonzero(is_erased)  # setdiff1d would import numpy.ma
        loc = locator_values(self.ft, erased, h)
        lost, kept = erased[erased < k], known[known < k]  # data positions
        scale, divide = loc[known], self.ft.arrays.inv[loc[lost]]

        def rebuild(rows: np.ndarray, ops: OpCounter | None = None) -> np.ndarray:
            width = rows.shape[1]
            # Erased points are the locator's roots, so their rows stay zero.
            phi = np.zeros((h, width), dtype=self.dtype)
            phi[known] = mul_rows(self.ft, rows, scale)
            inverse_rows(self.bt, phi, 0, ops)
            # X_i for i >= k vanishes on [0, k): only the derivative's first
            # k coefficients reach the lost data points.  phi is scaled in place.
            out = derivative_rows(self.bt, phi, ops, k)
            del phi
            forward_rows(self.bt, out, 0, ops)
            out[lost] = mul_rows(self.ft, out[lost], divide)
            out[kept] = rows[:len(kept)]
            if ops is not None:
                ops.muls += (k + len(lost)) * width
            return out

        return h, rebuild
