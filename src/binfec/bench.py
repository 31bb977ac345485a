"""Timing and operation-count measurements for one code configuration."""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from .basis import build_basis_tables
from .field import tables_for
from .rs import CodeParams, ErasurePattern, decode, encode
from .transform import OpCounter

CSV_HEADER = "n,k,encode_s,decode_s,adds,muls"


@dataclass
class BenchResult:
    r: int
    k: int
    stripes: int
    encode_s: float
    decode_s: float
    adds: int
    muls: int

    @property
    def n(self) -> int:
        return 1 << self.r

    def csv_line(self) -> str:
        return (f"{self.n},{self.k},{self.encode_s:.6f},{self.decode_s:.6f},"
                f"{self.adds},{self.muls}")


def run_bench(r: int = 16, k: int | None = None, size: int | None = None,
              seed: int = 0) -> BenchResult:
    """Encode and decode a random payload, timing binfec.rs stripe by stripe.

    The payload covers `size` bytes (default: one stripe).  Decoding
    erases n - k positions chosen by the seeded RNG.  Field-operation
    totals come from an instrumented re-run of one stripe, outside the
    timed sections, and are deterministic for a fixed seed.
    """
    n = 1 << r
    if k is None:
        k = n // 2
    cp = CodeParams(r, k)
    ft = tables_for(r)
    bt = build_basis_tables(ft, n)
    rng = random.Random(seed)

    stripe_bytes = k * (r // 8)
    if size is None:
        size = stripe_bytes
    stripes = max(1, -(-size // stripe_bytes))
    messages = [[rng.randrange(n) for _ in range(k)] for _ in range(stripes)]

    t0 = time.perf_counter()
    codewords = [encode(cp, bt, m) for m in messages]
    encode_s = time.perf_counter() - t0

    erased = frozenset(rng.sample(range(n), n - k))
    pattern = ErasurePattern(n, erased)
    received = [[0 if j in erased else s for j, s in enumerate(cw.symbols)]
                for cw in codewords]

    t0 = time.perf_counter()
    decoded = [decode(cp, bt, ft, rx, pattern) for rx in received]
    decode_s = time.perf_counter() - t0

    if decoded != messages:
        raise RuntimeError("benchmark decode did not round-trip")

    ops = OpCounter()
    encode(cp, bt, messages[0], ops)
    decode(cp, bt, ft, received[0], pattern, ops)
    return BenchResult(r, k, stripes, encode_s, decode_s, ops.adds, ops.muls)
