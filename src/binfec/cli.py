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
grow with the file.  Encode refuses a directory holding shard files
that it would not overwrite, which a later decode would count among the
new shards.  It then creates or empties all n shard files in a pass of
their own, in a second process while this one builds the codec's
tables, appends each chunk's codewords to them one k-row block at a
time, as each is computed, and writes the n headers last, once every
chunk is written, so its input may be a pipe.
Decode reads each chunk's window of the k chosen shards, repairs or
interleaves it, and writes it at its offset in a file beside --out
under a temporary name, renamed onto --out only when the whole file is
written.  A repair at h > 2k points takes fewer stripes a chunk, so
that its (h x stripes) array stays within two chunks' bytes.

The chunks of a stripe-by-stripe code share nothing but read-only
tables, so encode and the repair decode share them out among worker
processes, one per CPU this process may run on (run binfec under
`taskset` to use fewer) and at most one a chunk: worker w of W handles
chunks w, w + W, ...  The workers are forked once the codec's tables
exist; this process is worker 0.  A pipe as input, which only one
process can read, and a decode that finds every data shard, which only
interleaves payloads, run in this process alone.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import os
import stat
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
    create_shards,
    pwrite_all,
    read_chunks,
    read_shards,
    shard_filename,
    stripes_to_bytes,
    write_headers,
)

# This module and the ones above import no numpy and no dataclasses: a
# decode that finds every data shard, or any shard at k=1, only
# interleaves payloads, so it loads cli, shardfile and field only.
# Encode, the repair decode, selftest and bench import numpy, the basis
# and the codec when they run.


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


# The failures main reports as one "error: ..." line and exit status 1.
_REPORTED = (ValueError, OSError, InsufficientShardsError, ShardFormatError)


def _worker_count(chunks: int) -> int:
    """Processes to share chunks among: one per CPU this process may run on, at most one a chunk."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, chunks))


def _run_worker(share, w: int, workers: int, parent: int, report: int) -> None:
    """Run share(w, workers) in a forked child, then end the child; never returns.

    A failure is written to the report pipe as the text main would print.
    os._exit skips the parent's cleanup, which the child inherited on its stack.
    """
    status = 1
    try:
        for _ in share(w, workers):
            if os.getppid() != parent:
                break  # the parent is gone: nothing would use the rest
        else:
            status = 0
    except BaseException as exc:
        if isinstance(exc, _REPORTED):
            text = str(exc)
        else:  # a fault, not a reported failure: keep where it happened
            import traceback
            text = traceback.format_exc()
        os.write(report, text.encode(errors="replace"))
    finally:
        os._exit(status)


def _run_in_workers(share, workers: int) -> None:
    """Run share(w, workers) for every w in range(workers): w = 0 here, the rest forked.

    share is a generator function that does worker w's part of the
    work and yields after each chunk of it; a child stops there if this
    process has gone, so a killed run leaves no worker behind.  Forking
    is safe because this process starts no threads (main keeps
    OpenBLAS to one).  Every child is reaped before this returns, and
    killed first if this process's own share failed.  The first
    child's failure is then raised as a ChildProcessError, an OSError,
    carrying the child's error text.
    """
    # a child inherits unflushed output and would print it again
    sys.stdout.flush()
    sys.stderr.flush()
    parent, children = os.getpid(), []  # (pid, read end of its report pipe)
    failed = True
    try:
        for w in range(1, workers):
            report_r, report_w = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(report_r)
                _run_worker(share, w, workers, parent, report_w)
            os.close(report_w)
            children.append((pid, report_r))
        for _ in share(0, workers):
            pass
        failed = False
    finally:
        errors = []
        if failed and children:
            import signal  # 1 ms of import that a healthy decode never needs

            for pid, _ in children:
                os.kill(pid, signal.SIGTERM)
        for pid, report_r in children:
            with open(report_r, "rb") as report:  # read to the end, so no child blocks writing
                text = report.read().decode(errors="replace")
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            if status and not failed:
                errors.append(text or f"worker process {pid} ended with status {status}")
    if errors:
        raise ChildProcessError(errors[0])


def _cmd_encode(args: argparse.Namespace) -> int:
    # the geometry is checked before _codec imports numpy and builds tables
    code = CodeParams(args.r, args.k)
    # a shard header holds log2(k) below r
    if code.k >= code.n:
        raise ValueError(f"k must be below n={code.n}, got {code.k}")
    own = {shard_filename(j) for j in range(code.n)}
    stale = [p for p in _shard_paths(args.outdir) if os.path.basename(p) not in own]
    if stale:
        raise ValueError(f"{args.outdir} holds {len(stale)} shard file(s) that this encode "
                         f"would not overwrite, such as {stale[0]}; a decode would count "
                         f"them among the new shards")

    # set in this process, worker 0: codec by prepare, and header by
    # encode_share once it has read the whole input
    codec = header = None

    with open(args.input, "rb") as fh:
        info = os.fstat(fh.fileno())
        workers = (_worker_count(-(-info.st_size // (code.chunk_stripes * code.stripe_bytes)))
                   if stat.S_ISREG(info.st_mode) else 1)

        def encode_share(w: int, workers: int):
            nonlocal header
            # every worker reads the whole input, each through its own
            # file offset, and encodes only its own chunks
            src = fh if w == 0 else open(args.input, "rb")
            offset = 0  # payload bytes in each shard before this chunk
            for i, (chunk, length) in enumerate(read_chunks(src, code)):
                if i % workers == w:
                    # each k-row block is written before the next is computed
                    for first, rows in codec.encode_blocks(bytes_to_stripes(chunk, code)):
                        append_shards(args.outdir, rows, first, offset)
                    yield
                offset += len(chunk) // code.k
            header = ShardHeader(code, 0, length)

        def prepare(w: int, workers: int):
            # with two processes, creating the n files (tens of ms of
            # file system time) overlaps the tables' import and build
            nonlocal codec
            if w == workers - 1:
                create_shards(args.outdir, code)
            if w == 0:
                codec = _codec(code)
            yield

        os.makedirs(args.outdir, exist_ok=True)
        _run_in_workers(prepare, _worker_count(2))
        _run_in_workers(encode_share, workers)
    write_headers(args.outdir, header)
    print(f"wrote {code.n} shards ({header.stripe_count} stripes, k={code.k}, n={code.n}) "
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

    # no field arithmetic when every data shard is present, or at k=1,
    # where every shard holds the file (each block is a 1-point transform)
    codec = None if code.k == 1 or all(j in shards for j in range(code.k)) else _codec(code)
    step, width = code.chunk_stripes, code.width
    if codec is not None:
        step = code.repair_stripes(codec.repair_points(shards))
    starts = range(0, header.stripe_count, step)
    with _replacing(args.output) as out:

        def decode_share(w: int, workers: int):
            for start in starts[w::workers]:
                window = start * width, min(step, header.stripe_count - start) * width
                columns = {j: shard.read(*window) for j, shard in shards.items()}
                rows = list(columns.values()) if codec is None else _repair(codec, columns)
                tail = header.original_length - start * code.stripe_bytes
                pwrite_all(out.fileno(), stripes_to_bytes(rows, code.r, tail),
                           start * code.stripe_bytes)
                yield

        _run_in_workers(decode_share, 1 if codec is None else _worker_count(len(starts)))
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
    except _REPORTED as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        # The interpreter's collections at exit walk every object numpy
        # created, about 30 ms of each run that imported it; frozen
        # objects are skipped.  Nothing binfec owns waits on them: it
        # closes every file it opens in a with or finally block before
        # this.
        gc.freeze()


if __name__ == "__main__":
    sys.exit(main())
