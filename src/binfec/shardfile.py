"""Shard file format and whole-file stripe packing.

A shard file is a 21-byte header followed by that shard's symbols, one
per stripe, in stripe order.  Symbols are little-endian, r/8 bytes
wide.  Header layout (all integers little-endian):

    offset  size  field
    0       4     magic "LCHS"
    4       1     version (1)
    5       1     r (8 or 16)
    6       1     log2(k)
    7       2     shard index
    9       8     original file length in bytes
    17      4     reduction polynomial

Stripe s of a file covers its bytes [s*k*w, (s+1)*k*w) where w = r/8;
symbol j of that stripe is bytes [j*w, (j+1)*w) of the slice.  Data
shards (index < k) therefore carry the original bytes verbatim, and
the file is padded with zeros up to a whole number of stripes (the
header's original length says where to cut on reassembly).  In memory
a file is a shard-major (shards x stripes) symbol array: row j is
shard j's payload as stored, so the file's bytes are the transpose of
its k data rows, and writing or reading a shard moves one row.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

MAGIC = b"LCHS"
VERSION = 1
_HEADER = struct.Struct("<4sBBBHQI")
HEADER_SIZE = _HEADER.size

SHARD_SUFFIX = ".lchs"


class ShardFormatError(ValueError):
    """Corrupt or foreign shard file."""


class InsufficientShardsError(RuntimeError):
    """Fewer usable shards than the k required for reconstruction."""


@dataclass(frozen=True)
class ShardHeader:
    r: int
    log2_k: int
    shard_index: int
    original_length: int
    reduction_poly: int

    @property
    def k(self) -> int:
        return 1 << self.log2_k

    @property
    def n(self) -> int:
        return 1 << self.r

    @property
    def symbol_width(self) -> int:
        return self.r // 8

    @property
    def stripe_count(self) -> int:
        stripe_bytes = self.k * self.symbol_width
        return -(-self.original_length // stripe_bytes) if self.original_length else 0

    def with_index(self, index: int) -> "ShardHeader":
        return ShardHeader(self.r, self.log2_k, index,
                           self.original_length, self.reduction_poly)

    def same_file(self, other: "ShardHeader") -> bool:
        """True when two headers describe shards of the same encoding."""
        return (self.r == other.r and self.log2_k == other.log2_k
                and self.original_length == other.original_length
                and self.reduction_poly == other.reduction_poly)

    def pack(self) -> bytes:
        return _HEADER.pack(MAGIC, VERSION, self.r, self.log2_k,
                            self.shard_index, self.original_length,
                            self.reduction_poly)

    @classmethod
    def unpack(cls, raw: bytes) -> "ShardHeader":
        if len(raw) < HEADER_SIZE:
            raise ShardFormatError("truncated shard header")
        magic, version, r, log2_k, index, length, poly = _HEADER.unpack(raw[:HEADER_SIZE])
        if magic != MAGIC:
            raise ShardFormatError(f"bad magic {magic!r}")
        if version != VERSION:
            raise ShardFormatError(f"unsupported shard version {version}")
        if r not in (8, 16):
            raise ShardFormatError(f"unsupported field width r={r}")
        if log2_k >= r:
            raise ShardFormatError(f"log2_k={log2_k} out of range for r={r}")
        if index >= (1 << r):
            raise ShardFormatError(f"shard index {index} out of range")
        return cls(r, log2_k, index, length, poly)


def _symbol_dtype(r: int) -> np.dtype:
    return np.dtype("<u2" if r == 16 else "u1")


def bytes_to_stripes(data: bytes, k: int, r: int) -> np.ndarray:
    """File bytes as a read-only (k x stripes) symbol view, zero-padded."""
    width = r // 8
    stripe_bytes = k * width
    pad = -len(data) % stripe_bytes
    if pad:
        data = data + b"\0" * pad
    flat = np.frombuffer(data, dtype=_symbol_dtype(r))
    return flat.reshape(-1, k).T


def stripes_to_bytes(matrix: np.ndarray, r: int, length: int) -> bytes:
    """Reassemble file bytes from a (k x stripes) array, cut to length."""
    return matrix.T.astype(_symbol_dtype(r), copy=False).tobytes()[:length]


def shard_filename(index: int) -> str:
    return f"shard-{index:05d}{SHARD_SUFFIX}"


def write_shards(outdir: str, header: ShardHeader, codewords: np.ndarray) -> list[str]:
    """Write one shard file per row of (n x stripes) codewords; returns the paths."""
    os.makedirs(outdir, exist_ok=True)
    dtype = _symbol_dtype(header.r)
    paths = []
    for j in range(header.n):
        path = os.path.join(outdir, shard_filename(j))
        with open(path, "wb") as fh:
            fh.write(header.with_index(j).pack())
            fh.write(codewords[j].astype(dtype, copy=False).tobytes())
        paths.append(path)
    return paths


def read_shards(paths: list[str]) -> tuple[ShardHeader, dict[int, np.ndarray], list[str]]:
    """Read shard files, keeping the ones consistent with each other.

    Returns the consensus header (shard_index zeroed), a map from shard
    index to its symbol row, and human-readable notes about files
    that were skipped.  Consensus is the first parseable header; any
    shard disagreeing with it on a shared field counts as missing.
    """
    consensus: ShardHeader | None = None
    columns: dict[int, np.ndarray] = {}
    skipped: list[str] = []
    for path in sorted(paths):
        try:
            with open(path, "rb") as fh:
                raw = fh.read()
            header = ShardHeader.unpack(raw)
        except (OSError, ShardFormatError) as exc:
            skipped.append(f"{path}: {exc}")
            continue
        if consensus is None:
            consensus = header.with_index(0)
        elif not header.same_file(consensus):
            skipped.append(f"{path}: header disagrees with other shards")
            continue
        size = len(raw) - HEADER_SIZE
        expected = header.stripe_count * header.symbol_width
        if size != expected:
            skipped.append(f"{path}: payload is {size} bytes, expected {expected}")
            continue
        if header.shard_index in columns:
            skipped.append(f"{path}: duplicate shard index {header.shard_index}")
            continue
        columns[header.shard_index] = np.frombuffer(
            raw, dtype=_symbol_dtype(header.r), offset=HEADER_SIZE)
    if consensus is None:
        raise InsufficientShardsError("no readable shard files found")
    return consensus, columns, skipped
