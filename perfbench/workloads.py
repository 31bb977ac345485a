"""Workload definitions shared by the spawner and the traced run.

Standard library only: the spawner imports this module and must stay a
small process (see run.py).  Every input is derived from the seed, so
the same seed gives the same file bytes and the same lost shards.

Erasures are limited to what the v1 shard format can detect: deleted
files and truncated files.  Flipped payload bytes and foreign headers
are deliberately absent; v1 has no checksum and takes the first header
as consensus, so those inputs give wrong output or a failed decode, and
a benchmark of them would measure a defect, not the codec.
"""

from __future__ import annotations

import hashlib
import os
import random
import sys
from dataclasses import dataclass

SHARD_GLOB_SUFFIX = ".lchs"


@dataclass(frozen=True)
class Workload:
    name: str
    r: int
    k: int
    size: int          # input bytes
    deleted: int       # shard files removed after encode
    truncated: int     # shard files cut short after encode
    parity_only: bool  # lose parity shards only (decode takes the all-data path)

    @property
    def n(self) -> int:
        return 1 << self.r


WORKLOADS = {w.name: w for w in (
    # Data and parity lost at full capacity (124 deleted + 4 truncated =
    # n - k = 128): the batch decode kernel is most of decode time and
    # file I/O is light, so codec-kernel changes show here.
    Workload("r8-rebuild", 8, 128, 4 << 20, 124, 4, False),
    # Parity lost only: decode takes the all-data path and bypasses the
    # codec, while encode runs 15 shifted 16-point forward blocks per
    # stripe.  Exposes a decode change that costs encode, or a codec
    # change that should leave decode alone.
    Workload("r8-lowrate-healthy", 8, 16, 4 << 20, 120, 4, True),
    # 65,536 shard files, a 65,536-point FWHT locator and r=16 table
    # set-up.  Run by hand only: encode is bound by creating 65,536
    # files, which on a disk-backed checkout swings from 3 s to 23 s.
    Workload("r16-wide", 16, 32768, 1 << 20, 32764, 4, False),
)}


def make_input(w: Workload, seed: int) -> bytes:
    return random.Random(f"input:{w.name}:{seed}").randbytes(w.size)


def lost_shards(w: Workload, seed: int) -> tuple[list[int], list[int]]:
    """(deleted, truncated) shard indices for this workload and seed."""
    rng = random.Random(f"loss:{w.name}:{seed}")
    pool = range(w.k, w.n) if w.parity_only else range(w.n)
    lost = rng.sample(pool, w.deleted + w.truncated)
    return sorted(lost[:w.deleted]), sorted(lost[w.deleted:])


def shard_paths(shard_dir: str) -> list[str]:
    """Shard files in index order (names are zero-padded indices)."""
    return sorted(os.path.join(shard_dir, f) for f in os.listdir(shard_dir)
                  if f.endswith(SHARD_GLOB_SUFFIX))


def damage(w: Workload, seed: int, shard_dir: str) -> list[int]:
    """Delete and truncate the seeded shards; returns all erased indices.

    Raises RuntimeError when encode did not leave exactly n shard files.
    """
    paths = shard_paths(shard_dir)
    if len(paths) != w.n:
        raise RuntimeError(f"encode left {len(paths)} shard files, expected {w.n}")
    deleted, truncated = lost_shards(w, seed)
    for j in deleted:
        os.remove(paths[j])
    for j in truncated:
        os.truncate(paths[j], os.path.getsize(paths[j]) // 2)
    return sorted(deleted + truncated)


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


if __name__ == "__main__":
    # python3 workloads.py WORKLOAD SEED OUT: write the seeded input file.
    name, seed, out = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    with open(out, "wb") as fh:
        fh.write(make_input(WORKLOADS[name], seed))
