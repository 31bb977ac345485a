"""Timing and operation-count measurements for one code configuration."""

from __future__ import annotations

import random
import time

import numpy as np

from .basis import build_basis_tables
from .batch import BatchCodec, CodeParams
from .field import tables_for
from .transform import OpCounter


def run_bench(r: int = 16, k: int | None = None, size: int | None = None,
              seed: int = 0) -> dict:
    """Encode and decode a random payload with BatchCodec, the CLI's codec.

    The payload covers `size` bytes (default: one stripe), and one
    encode and one decode each run over all of its stripes at once.
    Decoding erases n - k positions chosen by the seeded RNG and times
    the CLI's decode: a repair planned on the k survivors and its rebuild.
    Field-operation totals come from an instrumented re-run of the
    first stripe, outside the timed sections, and are deterministic for
    a fixed seed.  The dict holds r, n, k, stripes, erasures, encode_s,
    decode_s, adds and muls, in that order.
    """
    n = 1 << r
    if k is None:
        k = n // 2
    cp = CodeParams(r, k)
    codec = BatchCodec(cp, build_basis_tables(tables_for(r), n))
    rng = random.Random(seed)

    if size is None:
        size = cp.stripe_bytes
    stripes = max(1, -(-size // cp.stripe_bytes))
    messages = np.array([[rng.randrange(n) for _ in range(k)] for _ in range(stripes)],
                        dtype=codec.dtype).T

    t0 = time.perf_counter()
    received = codec.encode(messages)
    encode_s = time.perf_counter() - t0

    erased = set(rng.sample(range(n), n - k))
    known = [j for j in range(n) if j not in erased]
    rows = received[known]

    t0 = time.perf_counter()
    _, rebuild = codec.repair(known)
    decoded = rebuild(rows)
    decode_s = time.perf_counter() - t0

    if not (decoded == messages).all():
        raise RuntimeError("benchmark decode did not round-trip")

    ops = OpCounter()
    codec.encode(messages[:, :1], ops)
    rebuild(rows[:, :1].copy(), ops)
    return {"r": r, "n": n, "k": k, "stripes": stripes, "erasures": n - k,
            "encode_s": encode_s, "decode_s": decode_s, "adds": ops.adds, "muls": ops.muls}
