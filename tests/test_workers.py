"""Encode and decode share a file's chunks among forked workers, one per CPU.

Each run is a child process pinned to one CPU or to two, started in a
session of its own, so that any process of the run still alive after
it ends can be found by its session id.
"""

import contextlib
import os
import random
import signal
import subprocess
import sys
import time

import pytest

import binfec
import binfec.shardfile as shardfile
from binfec.shardfile import HEADER_SIZE, shard_filename

SRC = os.path.dirname(os.path.dirname(os.path.abspath(binfec.__file__)))
ENV = dict(os.environ, PYTHONPATH=SRC)
CPUS = sorted(os.sched_getaffinity(0))

# argv: CHUNK_BYTES, then the CLI's arguments; PATCH code may come first
_RUN = """\
import sys
import binfec.shardfile
binfec.shardfile.CHUNK_BYTES = int(sys.argv[1])
from binfec.cli import main
sys.exit(main(sys.argv[2:]))
"""

# the same through run(), the entry point of `python -m binfec.cli`
_RUN_ENTRY = """\
import sys
import binfec.shardfile
binfec.shardfile.CHUNK_BYTES = int(sys.argv[1])
from binfec.cli import run
del sys.argv[1]
run()
"""


def _alive_in_session(sid):
    """Processes of session sid that have not ended (zombies excluded)."""
    alive = []
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            if os.getsid(int(name)) != sid:
                continue
            with open(f"/proc/{name}/stat") as fh:
                state = fh.read().rsplit(")", 1)[1].split()[0]
        except OSError:  # ended meanwhile
            continue
        if state != "Z":
            alive.append(int(name))
    return alive


def _start(cpus, *args, chunk=None, patch="", script=_RUN):
    """Start the CLI pinned to cpus (None: unpinned), in a session of its own."""
    pin = None if cpus is None else (lambda: os.sched_setaffinity(0, cpus))
    return subprocess.Popen(
        [sys.executable, "-c", patch + script, str(chunk or shardfile.CHUNK_BYTES),
         *map(str, args)], env=ENV, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True, preexec_fn=pin)


def _cli(cpus, *args, chunk=None, patch=""):
    """Run the CLI to its end: (exit code, stderr); no process of the run outlives it."""
    proc = _start(cpus, *args, chunk=chunk, patch=patch)
    _, err = proc.communicate(timeout=300)
    assert _alive_in_session(proc.pid) == []
    return proc.returncode, err


def _ok(cpus, *args, chunk=None):
    code, err = _cli(cpus, *args, chunk=chunk)
    assert code == 0, err
    assert "error" not in err


def _one_and_two():
    if len(CPUS) < 2:
        pytest.skip("needs two CPUs")
    return {CPUS[0]}, set(CPUS[:2])


def _files(folder):
    return {name: (folder / name).read_bytes() for name in os.listdir(folder)}


# (r, k, chunk bytes, file bytes): several chunks and a short tail; None
# keeps CHUNK_BYTES.  At r=16 every chunk writes 65,536 files, so a
# chunk is two stripes and the file two chunks.  At k=1 every shard
# holds the file, so a chunk is 4 KiB.
@pytest.mark.parametrize("r, k, chunk, size", [
    (8, 16, None, 3 * shardfile.CHUNK_BYTES + 5),
    (8, 128, None, 2 * shardfile.CHUNK_BYTES + 1_000),
    (16, 16, 64, 64 + 5),
    (8, 1, 4096, 3 * 4096 + 5),
])
def test_one_or_two_workers_write_the_same_bytes(tmp_path, r, k, chunk, size):
    one, two = _one_and_two()
    data = random.Random(140 + r + k).randbytes(size)
    src = tmp_path / "in.bin"
    src.write_bytes(data)
    shards = {}
    for name, cpus in (("one", one), ("two", two)):
        shards[name] = tmp_path / name
        _ok(cpus, "encode", "--in", src, "--out", shards[name], "--r", r, "--k", k, chunk=chunk)
    assert _files(shards["one"]) == _files(shards["two"])

    # "two" keeps every shard, a healthy decode; "one" loses two data
    # shards, a repair, or at k=1 shards 0 and 1, a copy of shard 2
    for j in [1, k - 1, *range(k + 2, 2 * k)]:
        os.remove(shards["one"] / shard_filename(j))
    for folder in shards.values():
        for name, cpus in (("one", one), ("two", two)):
            out = tmp_path / f"{name}.bin"
            _ok(cpus, "decode", "--shards", folder, "--out", out, chunk=chunk)
            assert out.read_bytes() == data, (folder, name)


# Shard.read, patched in the run: the process named by FAILS truncates
# shard 0 before it reads a window of it, so that read raises
# ShardFormatError.  It waits first: by then worker 0 has finished its
# one window, or the worker is asleep for a minute, unless it is killed.
_FAIL_A_SHARE = """\
import os, time
import binfec.shardfile as shardfile
parent, read = os.getpid(), shardfile.Shard.read
def failing_read(self, offset, size):
    if size and self.path.endswith("shard-00000.lchs"):
        if (os.getpid() == parent) == (FAILS == "parent"):
            time.sleep(0.5)
            os.truncate(self.path, shardfile.HEADER_SIZE + 1)
        elif FAILS == "parent":
            time.sleep(60)
    return read(self, offset, size)
shardfile.Shard.read = failing_read
"""


@pytest.mark.parametrize("fails", ["worker", "parent"])
def test_a_failed_share_fails_the_decode_and_leaves_no_output(tmp_path, fails):
    _, two = _one_and_two()
    data = random.Random(141).randbytes(shardfile.CHUNK_BYTES + 100)  # two windows at k=16
    src, shards, out = tmp_path / "in.bin", tmp_path / "shards", tmp_path / "out" / "o.bin"
    src.write_bytes(data)
    out.parent.mkdir()
    _ok(two, "encode", "--in", src, "--out", shards, "--k", 16)
    os.remove(shards / shard_filename(3))  # a repair
    start = time.monotonic()
    code, err = _cli(two, "decode", "--shards", shards, "--out", out,
                     patch=f"FAILS = {fails!r}\n" + _FAIL_A_SHARE)
    assert time.monotonic() - start < 30  # a worker left asleep was killed
    assert code == 1
    errors = [line for line in err.splitlines() if line.startswith("error: ")]
    assert errors == [f"error: {shards / shard_filename(0)}: changed while being read"], err
    assert os.listdir(out.parent) == []  # no output and no temporary file


# append_shards, patched in the run, fails in every worker but worker 0
_FAIL_AN_ENCODE_WORKER = """\
import os
import binfec.cli as cli
parent, append = os.getpid(), cli.append_shards
def failing_append(*args):
    if os.getpid() != parent:
        raise OSError("no space left for this test")
    return append(*args)
cli.append_shards = failing_append
"""


def test_an_encode_whose_worker_fails_leaves_no_readable_shard(tmp_path):
    _, two = _one_and_two()
    src, shards = tmp_path / "in.bin", tmp_path / "shards"
    src.write_bytes(random.Random(142).randbytes(2 * shardfile.CHUNK_BYTES))
    code, err = _cli(two, "encode", "--in", src, "--out", shards, "--k", 16,
                     patch=_FAIL_AN_ENCODE_WORKER)
    assert code == 1
    assert [line for line in err.splitlines() if line.startswith("error: ")] == [
        "error: no space left for this test"], err
    assert len(os.listdir(shards)) == 256
    for j in range(256):
        with open(shards / shard_filename(j), "rb") as fh:
            assert fh.read(HEADER_SIZE) == bytes(HEADER_SIZE), j
    code, err = _cli(two, "decode", "--shards", shards, "--out", tmp_path / "out.bin")
    assert code == 1 and "error: no readable shard files found" in err
    assert not (tmp_path / "out.bin").exists()


# bytes_to_stripes, patched in the run, takes 3 s a chunk in every
# worker but worker 0
_SLOW_WORKER = """\
import os, time
import binfec.cli as cli
parent, pack = os.getpid(), cli.bytes_to_stripes
def slow_pack(*args):
    if os.getpid() != parent:
        time.sleep(3)
    return pack(*args)
cli.bytes_to_stripes = slow_pack
"""


def test_workers_of_a_killed_encode_stop(tmp_path):
    _, two = _one_and_two()
    src = tmp_path / "in.bin"
    src.write_bytes(random.Random(143).randbytes(16 * shardfile.CHUNK_BYTES))
    proc = _start(two, "encode", "--in", src, "--out", tmp_path / "shards", "--k", 128,
                  patch=_SLOW_WORKER)
    try:
        deadline = time.monotonic() + 60
        while len(_alive_in_session(proc.pid)) < 2:  # the worker is forked
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.01)
    finally:
        proc.kill()
        # wait, not communicate: the worker holds the output pipes open
        proc.wait(timeout=60)
    # the worker, with 24 s of chunks left, sees its parent gone after
    # the chunk it is on
    deadline = time.monotonic() + 10
    try:
        while _alive_in_session(proc.pid):
            assert time.monotonic() < deadline, _alive_in_session(proc.pid)
            time.sleep(0.05)
    finally:
        proc.stdout.close()
        proc.stderr.close()


# Shard.read, patched in the run: each process marks its first payload
# read with a file named by its pid in MARKS, then sleeps a minute
# there unless it is killed
_MARK_AND_SLEEP = """\
import os, time
import binfec.shardfile as shardfile
read = shardfile.Shard.read
def sleeping_read(self, offset, size):
    mark = os.path.join(MARKS, str(os.getpid()))
    if size and not os.path.exists(mark):
        open(mark, "w").close()
        time.sleep(60)
    return read(self, offset, size)
shardfile.Shard.read = sleeping_read
"""


def test_a_decode_stopped_by_sigterm_leaves_no_temporary_file_or_worker(tmp_path):
    _, two = _one_and_two()
    data = random.Random(144).randbytes(shardfile.CHUNK_BYTES + 100)  # two windows at k=16
    src, shards, out = tmp_path / "in.bin", tmp_path / "shards", tmp_path / "out" / "o.bin"
    marks = tmp_path / "marks"
    src.write_bytes(data)
    out.parent.mkdir()
    marks.mkdir()
    out.write_bytes(b"old bytes")
    _ok(two, "encode", "--in", src, "--out", shards, "--k", 16)
    os.remove(shards / shard_filename(3))  # a repair
    proc = _start(two, "decode", "--shards", shards, "--out", out,
                  patch=f"MARKS = {str(marks)!r}\n" + _MARK_AND_SLEEP, script=_RUN_ENTRY)
    try:
        deadline = time.monotonic() + 60
        while len(os.listdir(marks)) < 2:  # both processes are inside a window
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.01)
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == 128 + signal.SIGTERM
        deadline = time.monotonic() + 10
        while _alive_in_session(proc.pid):
            assert time.monotonic() < deadline, _alive_in_session(proc.pid)
            time.sleep(0.05)
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate(timeout=60)
    assert os.listdir(out.parent) == ["o.bin"]  # no temporary file
    assert out.read_bytes() == b"old bytes"

