"""Command-line tool: shard files with erasure coding and rebuild them.

Subcommands:

    encode    split a file into n = 2^r shard files, any k of which
              can rebuild it
    decode    rebuild the original file from a directory of shards
    selftest  run the built-in consistency suites
    bench     time encode/decode for one configuration and print a CSV
              line with field-operation counts

encode and decode stream the file: each handles one chunk of about
shardfile.CHUNK_BYTES of file bytes at a time, so their memory does not
grow with the file.  Encode appends each chunk's codewords to the
shards one k-row block at a time, as each is computed, and writes the
headers with the last chunk, so its input may be a pipe.  It refuses a
directory holding shard files that it would not overwrite, which a
later decode would count among the new shards.
Decode reads each chunk's window of the k chosen shards, repairs or
interleaves it, and writes the file beside --out under a temporary
name, renamed onto --out only when the whole file is written.  A
repair at h > 2k points takes fewer stripes a chunk, so that its
(h x stripes) array stays within two chunks' bytes.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys

from .field import tables_for
from .shardfile import (
    CodeParams,
    InsufficientShardsError,
    SHARD_SUFFIX,
    ShardFormatError,
    ShardHeader,
    append_shards,
    bytes_to_stripes,
    read_chunks,
    read_shards,
    shard_filename,
    stripes_to_bytes,
)

# This module and the ones above import no numpy and no dataclasses: a
# decode that finds every data shard only interleaves their payloads, so
# it loads cli, shardfile and field only.  Encode, the repair decode,
# selftest and bench import numpy, the basis and the codec when they run.


def _shard_paths(folder: str) -> list[str]:
    """The *.lchs files in folder, sorted, skipping hidden names as a glob does."""
    try:
        names = os.listdir(folder)
    except OSError:  # missing, or not a directory
        return []
    return sorted(os.path.join(folder, name) for name in names
                  if name.endswith(SHARD_SUFFIX) and not name.startswith("."))


def _codec(code: CodeParams):
    """The codec of an (n = 2^r, k) code, its tables built."""
    from .basis import build_basis_tables
    from .batch import BatchCodec

    return BatchCodec(code, build_basis_tables(tables_for(code.r), code.n))


def _cmd_encode(args: argparse.Namespace) -> int:
    # the geometry is checked before _codec imports numpy and builds tables
    code = CodeParams(args.r, args.k)
    # a shard header holds log2(k) below r
    if code.k >= code.n:
        raise ValueError(f"k must be below n={code.n}, got {code.k}")
    codec = _codec(code)
    own = {shard_filename(j) for j in range(code.n)}
    stale = [p for p in _shard_paths(args.outdir) if os.path.basename(p) not in own]
    if stale:
        raise ValueError(f"{args.outdir} holds {len(stale)} shard file(s) that this encode "
                         f"would not overwrite, such as {stale[0]}; a decode would count "
                         f"them among the new shards")

    offset = 0  # payload bytes in each shard so far
    with open(args.input, "rb") as fh:
        os.makedirs(args.outdir, exist_ok=True)
        for chunk, length in read_chunks(fh, code):
            header = None if length is None else ShardHeader(code, 0, length)
            # each k-row block is written before the next is computed
            for first, rows in codec.encode_blocks(bytes_to_stripes(chunk, code)):
                append_shards(args.outdir, rows, first, offset, header)
            offset += len(chunk) // code.k
    print(f"wrote {code.n} shards ({offset // code.width} stripes, k={code.k}, n={code.n}) "
          f"to {args.outdir}")
    return 0


def _repair(codec, columns: dict[int, bytes]):
    """The (k x stripes) data rows rebuilt by the codec from k shard payloads."""
    import numpy as np

    return codec.decode({j: np.frombuffer(p, codec.dtype) for j, p in columns.items()})


@contextlib.contextmanager
def _replacing(path: str):
    """A new file beside path, renamed onto it if the block completes, else removed."""
    folder, name = os.path.split(path)
    temp = os.path.join(folder, f".{name}.{os.getpid()}.tmp")
    fh = open(temp, "xb")
    try:
        with fh:
            yield fh
        os.replace(temp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(temp)
        raise


def _cmd_decode(args: argparse.Namespace) -> int:
    header, shards, skipped = read_shards(_shard_paths(args.shards))
    for note in skipped:
        print(f"warning: skipping {note}", file=sys.stderr)

    code = header.code
    if len(shards) < code.k:
        raise InsufficientShardsError(
            f"have {len(shards)} usable shards, need at least {code.k}")

    # systematic when every data shard is present: no field arithmetic
    codec = None if all(j in shards for j in range(code.k)) else _codec(code)
    step, width = code.chunk_stripes, code.width
    if codec is not None:
        step = code.repair_stripes(codec.repair_points(shards))
    with _replacing(args.output) as out:
        for start in range(0, header.stripe_count, step):
            window = start * width, min(step, header.stripe_count - start) * width
            columns = {j: shard.read(*window) for j, shard in shards.items()}
            rows = list(columns.values()) if codec is None else _repair(codec, columns)
            out.write(stripes_to_bytes(rows, code.r,
                                       header.original_length - start * code.stripe_bytes))
    print(f"reconstructed {header.original_length} bytes from {len(shards)} shards "
          f"to {args.output}")
    return 0


def _cmd_selftest(args: argparse.Namespace) -> int:
    from .selftest import run_selftest

    return 1 if run_selftest() else 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from .bench import CSV_HEADER, run_bench

    result = run_bench(r=args.r, k=args.k, size=args.size, seed=args.seed)
    print(f"encode: {result.encode_s:.3f} s for {result.stripes} stripe(s), "
          f"(n,k)=({result.n},{result.k})")
    print(f"decode: {result.decode_s:.3f} s with {result.n - result.k} erasures")
    print(CSV_HEADER)
    print(result.csv_line())
    return 0


def main(argv: list[str] | None = None) -> int:
    # Before numpy's first import: binfec never calls BLAS, and starting
    # OpenBLAS's worker threads costs ~70 ms of every run.  A value the
    # user has set wins.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    parser = argparse.ArgumentParser(
        prog="binfec",
        description="Erasure-code files into shards; any k of n rebuild the original.")
    sub = parser.add_subparsers(dest="command", required=True)

    enc = sub.add_parser("encode", help="split a file into shards")
    enc.add_argument("--in", dest="input", required=True, metavar="FILE")
    enc.add_argument("--out", dest="outdir", required=True, metavar="DIR")
    enc.add_argument("--r", type=int, default=8, choices=(8, 16),
                     help="field width; n = 2^r shards (default 8)")
    enc.add_argument("--k", type=int, default=128,
                     help="data shards, a power of two below 2^r (default 128)")
    enc.set_defaults(func=_cmd_encode)

    dec = sub.add_parser("decode", help="rebuild a file from shards")
    dec.add_argument("--shards", required=True, metavar="DIR")
    dec.add_argument("--out", dest="output", required=True, metavar="FILE")
    dec.set_defaults(func=_cmd_decode)

    st = sub.add_parser("selftest", help="run built-in consistency suites")
    st.set_defaults(func=_cmd_selftest)

    ben = sub.add_parser("bench", help="time encode/decode for one configuration")
    ben.add_argument("--r", type=int, default=16, choices=(8, 16))
    ben.add_argument("--k", type=int, default=None,
                     help="data symbols per codeword (default n/2)")
    ben.add_argument("--size", type=int, default=None, metavar="BYTES",
                     help="payload size (default: one stripe)")
    ben.add_argument("--seed", type=int, default=0)
    ben.set_defaults(func=_cmd_bench)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, InsufficientShardsError, ShardFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
