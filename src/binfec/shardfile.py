"""Code geometry, shard file format, stripe packing, and chunked shard I/O.

CodeParams(r, k), the one geometry value that the header, the CLI and
the codec all take, fixes n, the symbol width, the stripe and the chunk.

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
a run of stripes is a shard-major (shards x stripes) symbol array: row
j is shard j's payload as stored, so the file's bytes are the
transpose of its k data rows, and writing or reading a shard moves one
row.

Files are read and written one chunk of about CHUNK_BYTES of file
bytes at a time: read_chunks reads the input into one reused buffer,
and Shard.read reads one window of a shard's payload.  An encode writes
its shards in three passes: create_shards creates or empties all n
files, append_shards writes a run of a chunk's rows (an encode's k-row
block) at their offset in their shards, in any chunk order and from
any process, and write_headers writes the n headers last.  A shard
file is opened for one access and closed again, so the number of open
files stays one however large n is.
Every open is non-blocking, so a FIFO at a shard's name fails at once:
a decode skips it with a note and an encode stops with an error.

Reading and reassembly need no numpy: a decode that finds every data
shard only interleaves their payloads.  numpy is imported by the
functions that build or take arrays, when they are first called.  A
healthy decode loads this module, so it imports only field and light
stdlib modules: no dataclasses, which brings inspect.
"""

from __future__ import annotations

import os
import struct
from collections import Counter
from typing import NamedTuple

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


# File bytes per chunk of a streamed encode or decode, rounded down to
# whole stripes.  Peak memory is a few chunks, not the file: an encode
# holds the input chunk, its coefficients and one k-row codeword block,
# each a chunk's size, whatever n/k is.  At 512 KiB a chunk's
# transposes stay in cache: the codec alone (2-core Xeon) encodes a
# 4 MiB file at k=128 in 0.064 s chunk by chunk, against 0.080 s in one
# pass, and repairs it at k=128 in the same time either way.
CHUNK_BYTES = 512 << 10


class CodeParams(NamedTuple("CodeParams", [("r", int), ("k", int)])):
    """An (n = 2^r, k) code's geometry, k a power of two up to n; a hashable value.

    Every way of building one checks its fields: _make, and so _replace,
    goes through __new__.
    """

    __slots__ = ()

    def __new__(cls, r: int, k: int) -> "CodeParams":
        if r not in DEFAULT_POLY:
            raise ValueError(f"r must be one of {sorted(DEFAULT_POLY)}, got {r}")
        if k < 1 or k & (k - 1):
            raise ValueError(f"k must be a power of two, got {k}")
        if k > 1 << r:
            raise ValueError(f"k={k} exceeds code length n={1 << r}")
        return super().__new__(cls, r, k)

    @classmethod
    def _make(cls, iterable) -> "CodeParams":
        return cls(*iterable)

    @property
    def n(self) -> int:
        return 1 << self.r

    @property
    def width(self) -> int:
        """Bytes per symbol."""
        return self.r // 8

    @property
    def stripe_bytes(self) -> int:
        """File bytes per stripe: k symbols."""
        return self.k * self.width

    @property
    def chunk_stripes(self) -> int:
        """Stripes per chunk: about CHUNK_BYTES of file, at least one stripe."""
        return max(1, CHUNK_BYTES // self.stripe_bytes)

    def repair_stripes(self, h: int) -> int:
        """Stripes per chunk of a decode that repairs at h points.

        chunk_stripes, or fewer when h > 2k, so that the repair's
        (h x stripes) array holds at most 2 x CHUNK_BYTES.
        """
        return max(1, min(self.chunk_stripes, 2 * CHUNK_BYTES // (h * self.width)))


class ShardHeader(NamedTuple):
    """A shard file's header fields; immutable, equal and hashed by value.

    An encoding's shards share all but shard_index: _replace(shard_index=0).
    """

    code: CodeParams
    shard_index: int
    original_length: int

    @property
    def stripe_count(self) -> int:
        return -(-self.original_length // self.code.stripe_bytes)

    @property
    def payload_size(self) -> int:
        """Bytes after the header: one symbol per stripe."""
        return self.stripe_count * self.code.width

    def pack(self) -> bytes:
        r, k = self.code
        return _HEADER.pack(MAGIC, VERSION, r, k.bit_length() - 1, self.shard_index,
                            self.original_length, DEFAULT_POLY[r])

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
        # checked first: CodeParams raises ValueError, which read_shards lets through
        return cls(CodeParams(r, 1 << log2_k), index, length)


def bytes_to_stripes(data: bytes, code: CodeParams):
    """File bytes as a read-only (k x stripes) symbol view, zero-padded."""
    import numpy as np

    pad = -len(data) % code.stripe_bytes
    if pad:
        data = data + b"\0" * pad
    flat = np.frombuffer(data, dtype=SYMBOL_DTYPE[code.r])
    return flat.reshape(-1, code.k).T


def _byte_view(row) -> memoryview:
    view = memoryview(row)
    return view.cast("B") if view.c_contiguous else memoryview(view.tobytes())


def stripes_to_bytes(rows, r: int, length: int) -> bytearray:
    """Reassemble file bytes from k data rows, cut to length.

    rows holds k >= 1 equal-length buffers, row j being data shard j's
    payload as stored (bytes, a memoryview, or a row of a symbol array
    in the on-disk byte order).  Symbol j of every stripe is scattered
    from row j.
    """
    views = [_byte_view(row) for row in rows]
    k, width, size = len(views), r // 8, len(views[0])
    step = k * width
    out = bytearray(size * k)
    for j, view in enumerate(views):
        for b in range(width):
            out[j * width + b::step] = view[b::width]
    del out[length:]
    return out


def shard_filename(index: int) -> str:
    return f"shard-{index:05d}{SHARD_SUFFIX}"


def _fill(fh, buf: bytearray) -> int:
    """Read fh into buf until buf is full or fh ends; the bytes read."""
    view, got = memoryview(buf), 0
    # an interactive stream may return a short read before its end
    while got < len(buf) and (size := fh.readinto(view[got:])):
        got += size
    return got


def read_chunks(fh, code: CodeParams):
    """Yield a file's bytes from fh one chunk at a time, as (chunk, length).

    chunk is a memoryview of code.chunk_stripes whole stripes or
    fewer, the last stripe zero-padded; it is valid until the next
    chunk is asked for, as one buffer is reused throughout.  length is
    None until the last chunk, which carries the number of bytes read
    in all.  fh is a BufferedReader: after a full chunk fh.peek(1)
    waits for the next byte or the end, so a file whose length is not
    known in advance, such as a pipe, still ends with its length.  An
    empty file gives one empty chunk.
    """
    stripe_bytes = code.stripe_bytes
    buf, total = bytearray(code.chunk_stripes * stripe_bytes), 0
    while True:
        got = _fill(fh, buf)
        total += got
        last = got < len(buf) or not fh.peek(1)
        stop = -(-got // stripe_bytes) * stripe_bytes
        buf[got:stop] = bytes(stop - got)
        yield memoryview(buf)[:stop], total if last else None
        if last:
            return


def pwrite_all(fd: int, data, offset: int) -> None:
    """Write all of data to fd at offset, whatever os.pwrite returns."""
    # os.pwrite may write less than it was given; write the rest
    view = _byte_view(data)
    while view:
        written = os.pwrite(fd, view, offset)
        view, offset = view[written:], offset + written


def _write_shard(outdir: str, index: int, data, offset: int, create: bool = False) -> None:
    # opened for this one write, so at most one shard is open at a time
    # (n reaches 65,536); create also empties the file
    flags = os.O_WRONLY | os.O_NONBLOCK | (os.O_CREAT | os.O_TRUNC if create else 0)
    fd = os.open(os.path.join(outdir, shard_filename(index)), flags, 0o666)
    try:
        pwrite_all(fd, data, offset)
    finally:
        os.close(fd)


def create_shards(outdir: str, code: CodeParams) -> None:
    """Create, or empty, the n shard files of an encode, before any is written."""
    for j in range(code.n):
        _write_shard(outdir, j, b"", 0, create=True)


def append_shards(outdir: str, rows, first: int, offset: int) -> None:
    """Write rows[i] into shard file first + i at payload offset.

    rows is a run of codeword rows, such as one k-row block of an
    encode: row i is shard first + i's payload for the chunk's stripes.
    offset is the payload bytes each shard holds before the chunk.  The
    files exist already (create_shards), and chunks may be written in
    any order, by any process.  The first HEADER_SIZE bytes are left
    unwritten, so they read as zeros, which no decode accepts.
    """
    for j, row in enumerate(rows, first):
        _write_shard(outdir, j, row, HEADER_SIZE + offset)


def write_headers(outdir: str, header: ShardHeader) -> None:
    """Write the header of each of the n shards, the last step of an encode.

    Until then every shard reads as unreadable: the shards of an encode
    that stops early are unreadable, not wrong.
    """
    for j in range(header.code.n):
        _write_shard(outdir, j, header._replace(shard_index=j).pack(), 0)


def _probe(path: str, offset: int = 0, size: int = 0) -> tuple[bytes, int, bytes]:
    """A file's header bytes, its size and payload bytes [offset, offset + size).

    O_NONBLOCK keeps a FIFO's open from waiting for a writer; pread then fails.
    """
    fd = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
    try:
        return (os.pread(fd, HEADER_SIZE, 0), os.fstat(fd).st_size,
                os.pread(fd, size, HEADER_SIZE + offset) if size else b"")
    finally:
        os.close(fd)


def _read_header(path: str) -> tuple[ShardHeader, int]:
    """A shard file's header and payload size, reading only the header."""
    raw, size, _ = _probe(path)
    return ShardHeader.unpack(raw), size - HEADER_SIZE


class Shard:
    """A shard file whose header was read and agrees with the consensus."""

    def __init__(self, path: str, header: ShardHeader):
        self.path = path
        self.header = header
        # what the file must still hold: its header bytes and its size
        self._expected = header.pack(), HEADER_SIZE + header.payload_size

    def read(self, offset: int, size: int) -> bytes:
        """Payload bytes [offset, offset + size).

        The file is opened for this read only, so a decode holds no
        shard open between reads, and its header bytes and size are
        checked again with it: a shard that changed since its header was
        read, or that ends before the window does, raises
        ShardFormatError.
        """
        raw, file_size, data = _probe(self.path, offset, size)
        if len(data) != size or (raw, file_size) != self._expected:
            raise ShardFormatError(f"{self.path}: changed while being read")
        return data


def read_shards(paths: list[str]) -> tuple[ShardHeader, dict[int, Shard], list[str]]:
    """Check every shard's header and choose the k shards a decode reads.

    Every file's header is read and its payload size taken from the file
    system.  The consensus is the encoding (code and original length,
    the header with index 0) that most readable headers carry; a tie goes
    to the first file in path order.  A shard of another encoding, with
    the wrong payload size, or named shard-NNNNN.lchs but holding another
    index counts as missing.  So does every file whose index another
    usable file also claims, with a note that names the others: headers
    cannot tell the real shard from a foreign one, so that index is an
    erasure.  The k lowest-index usable shards are then chosen: every
    data shard when all are present, else the data shards present and
    the lowest parity shards.  Each is opened to check its header and
    size again, and one that changed since its header was read is
    skipped, the next usable shard taking its place.  Usable shards left
    unchosen are erasures to the decoder, which stays within its n - k
    capacity.  No payload byte is read here: a decode reads the chosen
    shards a window at a time with Shard.read.

    Returns the consensus header (shard_index zeroed), a map from shard
    index to its Shard for the chosen shards in index order (all usable
    shards when fewer than k), and human-readable notes about files that
    were skipped.
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
    counts = Counter(h._replace(shard_index=0) for _, h, _ in headers)
    # max returns the first of equal counts, and a Counter keeps first-seen
    # order; most_common(1) would do the same but imports heapq
    consensus = max(counts, key=counts.get)
    claims: dict[int, list[tuple[str, ShardHeader]]] = {}
    for path, header, size in headers:
        if header._replace(shard_index=0) != consensus:
            skipped.append(f"{path}: header disagrees with other shards")
            continue
        if size != header.payload_size:
            skipped.append(f"{path}: payload is {size} bytes, expected {header.payload_size}")
            continue
        # a flipped index bit must not pass one shard's payload off as another's
        name = os.path.basename(path)
        stem = name.removeprefix("shard-").removesuffix(SHARD_SUFFIX)
        if stem.isdecimal() and name == shard_filename(int(stem)) \
                and int(stem) != header.shard_index:
            skipped.append(f"{path}: header says shard index {header.shard_index}")
            continue
        claims.setdefault(header.shard_index, []).append((path, header))
    usable: dict[int, tuple[str, ShardHeader]] = {}
    for index, found in claims.items():
        if len(found) == 1:
            usable[index] = found[0]
            continue
        for path, _ in found:
            others = ", ".join(other for other, _ in found if other != path)
            skipped.append(f"{path}: duplicate shard index {index}, also claimed by {others}")
    chosen: dict[int, Shard] = {}
    for index in sorted(usable):
        if len(chosen) == consensus.code.k:
            break
        shard = Shard(*usable[index])
        try:
            shard.read(0, 0)  # an empty read checks the header and size
        except ShardFormatError as exc:  # its message names the file
            skipped.append(str(exc))
            continue
        except OSError as exc:
            skipped.append(f"{shard.path}: {exc}")
            continue
        chosen[index] = shard
    return consensus, chosen, skipped
