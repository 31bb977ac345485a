"""Timing and operation-count measurements for one code configuration."""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

import numpy as np

from .basis import build_basis_tables
from .batch import BatchCodec, CodeParams
from .field import tables_for
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
    """Encode and decode a random payload with BatchCodec, the CLI's codec.

    The payload covers `size` bytes (default: one stripe), and one
    encode and one decode each run over all of its stripes at once.
    Decoding erases n - k positions chosen by the seeded RNG.
    Field-operation totals come from an instrumented re-run of the
    first stripe, outside the timed sections, and are deterministic for
    a fixed seed.
    """
    n = 1 << r
    if k is None:
        k = n // 2
    cp = CodeParams(r, k)
    codec = BatchCodec(cp, build_basis_tables(tables_for(r), n))
    rng = random.Random(seed)

    stripe_bytes = k * (r // 8)
    if size is None:
        size = stripe_bytes
    stripes = max(1, -(-size // stripe_bytes))
    messages = np.array([[rng.randrange(n) for _ in range(k)] for _ in range(stripes)],
                        dtype=codec.dtype).T

    t0 = time.perf_counter()
    received = codec.encode(messages)
    encode_s = time.perf_counter() - t0

    erased = set(rng.sample(range(n), n - k))
    survivors = {j: received[j] for j in range(n) if j not in erased}

    t0 = time.perf_counter()
    decoded = codec.decode(survivors)
    decode_s = time.perf_counter() - t0

    if not (decoded == messages).all():
        raise RuntimeError("benchmark decode did not round-trip")

    ops = OpCounter()
    codec.encode(messages[:, :1], ops)
    codec.decode({j: row[:1] for j, row in survivors.items()}, ops)
    return BenchResult(r, k, stripes, encode_s, decode_s, ops.adds, ops.muls)
