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
    17      4     reduction polynomial, always DEFAULT_POLY[r]

Stripe s of a file covers its bytes [s*k*w, (s+1)*k*w) where w = r/8;
symbol j of that stripe is bytes [j*w, (j+1)*w) of the slice.  Data
shards (index < k) therefore carry the original bytes verbatim, and
the file is padded with zeros up to a whole number of stripes (the
header's original length says where to cut on reassembly).  In memory
a file is a shard-major (shards x stripes) symbol array: row j is
shard j's payload as stored, so the file's bytes are the transpose of
its k data rows, and writing or reading a shard moves one row.

Reading and reassembly need no numpy: a decode that finds every data
shard only interleaves their payloads.  numpy is imported by the
functions that build or take arrays, when they are first called.
"""

from __future__ import annotations

import os
import struct
from collections import Counter
from dataclasses import dataclass

from .field import DEFAULT_POLY, SYMBOL_DTYPE

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
        return ShardHeader(self.r, self.log2_k, index, self.original_length)

    @property
    def encoding(self) -> tuple[int, int, int]:
        """The fields that every shard of one encoding shares."""
        return self.r, self.log2_k, self.original_length

    def same_file(self, other: "ShardHeader") -> bool:
        """True when two headers describe shards of the same encoding."""
        return self.encoding == other.encoding

    def pack(self) -> bytes:
        return _HEADER.pack(MAGIC, VERSION, self.r, self.log2_k,
                            self.shard_index, self.original_length,
                            DEFAULT_POLY[self.r])

    @classmethod
    def unpack(cls, raw: bytes) -> "ShardHeader":
        if len(raw) < HEADER_SIZE:
            raise ShardFormatError("truncated shard header")
        magic, version, r, log2_k, index, length, poly = _HEADER.unpack(raw[:HEADER_SIZE])
        if magic != MAGIC:
            raise ShardFormatError(f"bad magic {magic!r}")
        if version != VERSION:
            raise ShardFormatError(f"unsupported shard version {version}")
        if r not in DEFAULT_POLY:
            raise ShardFormatError(f"unsupported field width r={r}")
        if poly != DEFAULT_POLY[r]:
            raise ShardFormatError(f"reduction polynomial {poly:#x} is not {DEFAULT_POLY[r]:#x}")
        if log2_k >= r:
            raise ShardFormatError(f"log2_k={log2_k} out of range for r={r}")
        if index >= (1 << r):
            raise ShardFormatError(f"shard index {index} out of range")
        return cls(r, log2_k, index, length)


# Output bytes interleaved per pass of stripes_to_bytes: the pass's
# scattered writes then stay in cache (1 MiB measured fastest on a
# 2-core Xeon: ~13 ms for 4 MiB at k=128, against ~29 ms in one pass).
_BLOCK_BYTES = 1 << 20


def bytes_to_stripes(data: bytes, k: int, r: int):
    """File bytes as a read-only (k x stripes) symbol view, zero-padded."""
    import numpy as np

    width = r // 8
    stripe_bytes = k * width
    pad = -len(data) % stripe_bytes
    if pad:
        data = data + b"\0" * pad
    flat = np.frombuffer(data, dtype=SYMBOL_DTYPE[r])
    return flat.reshape(-1, k).T


def _byte_view(row) -> memoryview:
    view = memoryview(row)
    return view.cast("B") if view.c_contiguous else memoryview(view.tobytes())


def stripes_to_bytes(rows, r: int, length: int) -> bytearray:
    """Reassemble file bytes from k data rows, cut to length.

    rows holds k >= 1 equal-length buffers, row j being data shard j's
    payload as stored (bytes, a memoryview, or a row of a symbol array
    in the on-disk byte order).  Symbol j of every stripe is scattered
    from row j a block of stripes at a time.
    """
    views = [_byte_view(row) for row in rows]
    k, width, size = len(views), r // 8, len(views[0])
    step = k * width
    out = bytearray(size * k)
    block = max(1, _BLOCK_BYTES // step) * width  # row bytes per pass
    for start in range(0, size, block):
        stop = start + block
        for j, view in enumerate(views):
            for b in range(width):
                out[start * k + j * width + b:stop * k:step] = view[start + b:stop:width]
    del out[length:]
    return out


def shard_filename(index: int) -> str:
    return f"shard-{index:05d}{SHARD_SUFFIX}"


def write_shards(outdir: str, header: ShardHeader, codewords) -> list[str]:
    """Write one shard file per row of (n x stripes) codewords; returns the paths."""
    import numpy as np

    os.makedirs(outdir, exist_ok=True)
    dtype = SYMBOL_DTYPE[header.r]
    paths = []
    for j in range(header.n):
        path = os.path.join(outdir, shard_filename(j))
        with open(path, "wb") as fh:
            fh.write(header.with_index(j).pack())
            fh.write(np.ascontiguousarray(codewords[j], dtype=dtype))
        paths.append(path)
    return paths


def _read_header(path: str) -> tuple[ShardHeader, int]:
    """A shard file's header and payload size, reading only the header."""
    with open(path, "rb", buffering=0) as fh:
        header = ShardHeader.unpack(fh.read(HEADER_SIZE))
        return header, os.fstat(fh.fileno()).st_size - HEADER_SIZE


def _read_payload(path: str, header: ShardHeader) -> memoryview:
    """The payload of a shard file whose header and size were checked before."""
    with open(path, "rb", buffering=0) as fh:
        raw = fh.read()
    size = header.stripe_count * header.symbol_width
    if raw[:HEADER_SIZE] != header.pack() or len(raw) != HEADER_SIZE + size:
        raise ShardFormatError("changed while being read")
    return memoryview(raw)[HEADER_SIZE:]


def read_shards(paths: list[str]) -> tuple[ShardHeader, dict[int, memoryview], list[str]]:
    """Read the k shard payloads a decode uses, checking every shard's header.

    Every file's header is read and its payload size taken from the file
    system.  The consensus is the encoding (r, log2 k, original length)
    that most readable headers carry; a tie goes to the first file in
    path order.  A shard of another encoding, with the wrong payload
    size, or repeating an index counts as missing.  Payloads are then
    read for the k lowest-index usable shards only: every data shard
    when all are present, else the data shards present and the lowest
    parity shards.  Usable shards left unread are erasures to the
    decoder, which stays within its n - k capacity.

    Returns the consensus header (shard_index zeroed), a map from shard
    index to its payload bytes (all usable shards when fewer than k),
    and human-readable notes about files that were skipped.
    """
    headers: list[tuple[str, ShardHeader, int]] = []
    skipped: list[str] = []
    for path in sorted(paths):
        try:
            headers.append((path, *_read_header(path)))
        except (OSError, ShardFormatError) as exc:
            skipped.append(f"{path}: {exc}")
    if not headers:
        raise InsufficientShardsError("no readable shard files found")
    # most_common keeps first-seen order among equal counts
    r, log2_k, length = Counter(h.encoding for _, h, _ in headers).most_common(1)[0][0]
    consensus = ShardHeader(r, log2_k, 0, length)
    usable: dict[int, tuple[str, ShardHeader]] = {}
    for path, header, size in headers:
        if not header.same_file(consensus):
            skipped.append(f"{path}: header disagrees with other shards")
            continue
        expected = header.stripe_count * header.symbol_width
        if size != expected:
            skipped.append(f"{path}: payload is {size} bytes, expected {expected}")
            continue
        if header.shard_index in usable:
            skipped.append(f"{path}: duplicate shard index {header.shard_index}")
            continue
        usable[header.shard_index] = (path, header)
    columns: dict[int, memoryview] = {}
    for index in sorted(usable):
        if len(columns) == consensus.k:
            break
        path, header = usable[index]
        try:
            columns[index] = _read_payload(path, header)
        except (OSError, ShardFormatError) as exc:
            skipped.append(f"{path}: {exc}")
    return consensus, columns, skipped
