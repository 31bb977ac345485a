"""Command-line tool: shard files with erasure coding and rebuild them.

Subcommands:

    encode    split a file into n = 2^r shard files, any k of which
              can rebuild it
    decode    rebuild the original file from a directory of shards
    selftest  run the built-in consistency suites
    bench     time encode/decode for one configuration and print one
              JSON object with its field-operation counts

encode and decode stream the file: each handles one chunk of about
shardfile.CHUNK_BYTES of file bytes at a time, so their memory does not
grow with the file.  Encode refuses a directory holding shard files
that it would not overwrite, which a later decode would count among the
new shards, or one of whose shard files is its input.  It then creates
or empties all n shard files in a pass of their own, in a second
process while this one builds the codec's tables, appends each chunk's
codewords to them one k-row block at a time, as each is computed, and
writes the n headers last, once every chunk is written, so its input
may be a pipe.
Decode reads each chunk's window of the k chosen shards, repairs or
interleaves it (a repair copies each payload, as it is read, into the
one array it repairs), and writes it at its offset in a file under a
temporary name beside the file --out names, through any symlink, renamed
onto that file only when the whole file is written; an --out that is a
FIFO, device or directory is refused.  A repair is planned once, locator
and all, before any worker forks.  At h > 2k points it takes fewer
stripes a chunk, so that its (h x stripes) array stays within two
chunks' bytes.

The chunks of a stripe-by-stripe code share nothing but read-only
tables, so encode and decode share them out among worker processes,
one per CPU this process may run on (run binfec under `taskset` to use
fewer) and at most one a chunk: worker w of W handles chunks w, w + W,
...  The workers are forked once the codec's tables, if any, exist;
this process is worker 0.  An encode worker reads the file this
process opened, or fails.  A pipe as input, which only one process can
read, runs in this process alone.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import signal
import stat
import sys

from .field import tables_for
from .shardfile import (
    CodeParams,
    InsufficientShardsError,
    SHARD_SUFFIX,
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
_REPORTED = (ValueError, OSError, InsufficientShardsError)


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
    signal.signal(signal.SIGTERM, signal.SIG_DFL)  # the parent's kill ends this child at once
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
    for stream in filter(None, (sys.stdout, sys.stderr)):  # None when closed at start
        stream.flush()
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
        if failed:
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
    # set in this process, worker 0: codec by prepare, and header by
    # encode_share once it has read the whole input
    codec = header = None
    changed = f"{args.input} changed while being read"

    with open(args.input, "rb") as fh:
        info = os.fstat(fh.fileno())
        own = {shard_filename(j) for j in range(code.n)}
        paths = _shard_paths(args.outdir)
        stale = [p for p in paths if os.path.basename(p) not in own]
        if stale:
            raise ValueError(f"{args.outdir} holds {len(stale)} shard file(s) that this encode "
                             f"would not overwrite, such as {stale[0]}; a decode would count "
                             f"them among the new shards")
        # creating the shards empties them, so none may be the input
        for p in paths:
            if os.path.exists(p) and os.path.samestat(os.stat(p), info):
                raise ValueError(f"{p} is the input file, which this encode would overwrite")
        workers = (_worker_count(-(-info.st_size // (code.chunk_stripes * code.stripe_bytes)))
                   if stat.S_ISREG(info.st_mode) else 1)

        def encode_share(w: int, workers: int):
            nonlocal header
            # every worker reads the whole input, each through its own
            # file offset, and encodes only its own chunks; each must read
            # the file this process opened, as it was then
            src = fh if w == 0 else open(args.input, "rb")
            if not os.path.samestat(os.fstat(src.fileno()), info):
                raise ValueError(changed)
            offset = 0  # payload bytes in each shard before this chunk
            for i, (chunk, length) in enumerate(read_chunks(src, code)):
                if i % workers == w:
                    # each k-row block is written before the next is computed
                    for first, rows in codec.encode_blocks(bytes_to_stripes(chunk, code)):
                        append_shards(args.outdir, rows, first, offset)
                    yield
                offset += len(chunk) // code.k
            if workers > 1 and length != info.st_size:
                raise ValueError(changed)
            header = ShardHeader(code, 0, length)

        def prepare(w: int, workers: int):
            # with two processes, creating the n files overlaps the
            # tables' import and build: 256 files take only 2-3 ms in a
            # fresh directory, yet at k=128 the overlap saves 8-13 ms
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


@contextlib.contextmanager
def _replacing(path: str):
    """A new file beside path's target, renamed onto it if the block completes, else removed."""
    path = os.path.realpath(path)  # a symlink keeps pointing at the file it names
    if os.path.exists(path) and not os.path.isfile(path):  # a FIFO, device or directory
        raise ValueError(f"{path} is not a regular file")
    folder, name = os.path.split(path)
    temp = os.path.join(folder, f".{name}.{os.getpid()}.tmp")
    fh = open(temp, "xb")
    try:
        with fh:
            if os.path.isfile(path):  # the replacement keeps the file's permission bits
                os.fchmod(fh.fileno(), stat.S_IMODE(os.stat(path).st_mode))
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
    h, rebuild, width = code.k, None, code.width
    if code.k > 1 and not all(j in shards for j in range(code.k)):
        import numpy as np

        codec = _codec(code)
        # planned once, before any worker forks: every worker shares its locator
        h, rebuild = codec.repair(shards)
    step = code.repair_stripes(h)
    starts = range(0, header.stripe_count, step)
    with _replacing(args.output) as out:

        def decode_share(w: int, workers: int):
            for start in starts[w::workers]:
                stripes = min(step, header.stripe_count - start)
                window = start * width, stripes * width
                if rebuild is None:
                    rows = [shard.read(*window) for shard in shards.values()]
                else:  # each payload is copied into the window's one array as it is read
                    rows = np.empty((code.k, stripes), codec.dtype)
                    for row, shard in zip(rows, shards.values()):
                        row[:] = np.frombuffer(shard.read(*window), codec.dtype)
                    rows = rebuild(rows)
                tail = header.original_length - start * code.stripe_bytes
                pwrite_all(out.fileno(), stripes_to_bytes(rows, code.r, tail),
                           start * code.stripe_bytes)
                yield

        _run_in_workers(decode_share, _worker_count(len(starts)))
    print(f"reconstructed {header.original_length} bytes from {len(shards)} shards "
          f"to {args.output}")
    return 0


def _cmd_selftest(args: argparse.Namespace) -> int:
    from .selftest import run_selftest

    return 1 if run_selftest() else 0


def _cmd_bench(args: argparse.Namespace) -> int:
    import json

    from .bench import run_bench

    print(json.dumps(run_bench(r=args.r, k=args.k, size=args.size, seed=args.seed)))
    return 0


def main(argv: list[str] | None = None) -> int:
    # Before numpy's first import, whatever the caller set: binfec never calls BLAS,
    # and an OpenBLAS thread would make every worker fork from a multi-threaded process.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
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


def run() -> None:
    """The entry point of `python -m binfec.cli` and the binfec script: main, then os._exit.

    SIGTERM exits with status 128 + SIGTERM through SystemExit, so a decode's
    temporary file is removed and every worker is killed and reaped first.
    os._exit skips the teardown, which walks every object numpy made.  Every
    file is closed by then; a failed flush of stdout or stderr fails the run.
    """
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    status = main()
    for stream in filter(None, (sys.stdout, sys.stderr)):  # None when closed at start
        try:
            stream.flush()
        except (OSError, ValueError):  # a closed pipe or stream
            status = status or 1
    os._exit(status)


if __name__ == "__main__":
    run()
