"""Command-line tool: shard files with erasure coding and rebuild them.

Subcommands:

    encode    split a file into n = 2^r shard files, any k of which
              can rebuild it
    decode    rebuild the original file from a directory of shards
    selftest  run the built-in consistency suites
    bench     time encode/decode for one configuration and print a CSV
              line with field-operation counts
"""

from __future__ import annotations

import argparse
import glob
import os
import sys

from .basis import build_basis_tables
from .field import SYMBOL_DTYPE, tables_for
from .shardfile import (
    InsufficientShardsError,
    SHARD_SUFFIX,
    ShardFormatError,
    ShardHeader,
    bytes_to_stripes,
    read_shards,
    stripes_to_bytes,
    write_shards,
)

# This module and the ones above import no numpy: a decode that finds
# every data shard only interleaves their payloads.  Encode, the repair
# decode, selftest and bench import numpy and the codec when they run.


def _cmd_encode(args: argparse.Namespace) -> int:
    from .batch import BatchCodec, CodeParams

    r, k = args.r, args.k
    cp = CodeParams(r, k)
    if k >= cp.n:  # a shard header holds log2(k) below r
        raise ValueError(f"k must be below n={cp.n}, got {k}")
    with open(args.input, "rb") as fh:
        data = fh.read()

    ft = tables_for(r)
    bt = build_basis_tables(ft, cp.n)
    header = ShardHeader(r=r, log2_k=k.bit_length() - 1, shard_index=0,
                         original_length=len(data))

    stripes = bytes_to_stripes(data, k, r)
    codewords = BatchCodec(cp, bt).encode(stripes)
    paths = write_shards(args.outdir, header, codewords)
    print(f"wrote {len(paths)} shards ({stripes.shape[1]} stripes, k={k}, n={cp.n}) "
          f"to {args.outdir}")
    return 0


def _repair(header: ShardHeader, columns: dict[int, memoryview]):
    """The (k x stripes) data rows rebuilt by the codec from k shard payloads."""
    import numpy as np

    from .batch import BatchCodec, CodeParams

    ft = tables_for(header.r)
    codec = BatchCodec(CodeParams(header.r, header.k), build_basis_tables(ft, header.n))
    dtype = SYMBOL_DTYPE[header.r]
    return codec.decode({j: np.frombuffer(p, dtype) for j, p in columns.items()})


def _cmd_decode(args: argparse.Namespace) -> int:
    paths = sorted(glob.glob(os.path.join(args.shards, "*" + SHARD_SUFFIX)))
    header, columns, skipped = read_shards(paths)
    for note in skipped:
        print(f"warning: skipping {note}", file=sys.stderr)

    k = header.k
    if len(columns) < k:
        raise InsufficientShardsError(
            f"have {len(columns)} usable shards, need at least {k}")

    if all(j in columns for j in range(k)):
        rows = [columns[j] for j in range(k)]  # systematic: no field arithmetic
    else:
        rows = _repair(header, columns)
    data = stripes_to_bytes(rows, header.r, header.original_length)

    with open(args.output, "wb") as fh:
        fh.write(data)
    print(f"reconstructed {len(data)} bytes from {len(columns)} shards "
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
