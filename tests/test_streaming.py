"""The CLI streams files a chunk at a time: chunks change no byte, memory stays flat."""

import io
import os
import random
import subprocess
import sys

import numpy as np
import pytest

import binfec
import binfec.batch as batch
import binfec.cli as cli
import binfec.shardfile as shardfile
from binfec.batch import BatchCodec, CodeParams
from binfec.cli import main
from binfec.shardfile import HEADER_SIZE, ShardHeader, bytes_to_stripes, shard_filename

from oracles import lagrange_eval

SRC = os.path.dirname(os.path.dirname(os.path.abspath(binfec.__file__)))
ENV = dict(os.environ, PYTHONPATH=SRC)


def _encode(src, outdir, r, k):
    assert main(["encode", "--in", str(src), "--out", str(outdir),
                 "--r", str(r), "--k", str(k)]) == 0


def _decode(shards, out):
    assert main(["decode", "--shards", str(shards), "--out", str(out)]) == 0
    return out.read_bytes()


def _subset(outdir, dest, indices):
    dest.mkdir()
    for j in indices:
        os.link(outdir / shard_filename(j), dest / shard_filename(j))
    return dest


@pytest.fixture
def locator_calls(monkeypatch):
    calls = []
    original = batch.locator_values

    def counting(*args, **kwargs):
        calls.append(args[1].size)
        return original(*args, **kwargs)

    monkeypatch.setattr(batch, "locator_values", counting)
    return calls


# (r, k, chunk bytes): None keeps CHUNK_BYTES.  At r=16 each chunk
# rewrites 65,536 files, so the chunk is made two stripes long.
@pytest.mark.parametrize("r, k, chunk", [(8, 16, None), (8, 128, None), (16, 16, 64)])
def test_chunk_boundaries_change_nothing(tmp_path, monkeypatch, locator_calls, bt8, bt16,
                                         r, k, chunk):
    if chunk is not None:
        monkeypatch.setattr(shardfile, "CHUNK_BYTES", chunk)
    # locator_calls counts this process's calls only, so it does all the work
    monkeypatch.setattr(cli, "_worker_count", lambda chunks: 1)
    size_of_chunk = shardfile.CHUNK_BYTES
    code = CodeParams(r, k)
    codec = BatchCodec(code, bt8 if r == 8 else bt16)
    n = code.n
    # r=8 compares every shard; r=16 the data shards and a spread of parity
    compared = range(n) if r == 8 else [*range(k), *range(k, n, 251), n - 1]
    lost = {1, k - 1}
    repair_from = sorted(set(range(k)) - lost) + [k, k + 5]
    rng = random.Random(120 + r + k)
    shards = tmp_path / "shards"  # each encode overwrites the one before
    for case, size in enumerate((0, 1, size_of_chunk - 1, size_of_chunk,
                                 size_of_chunk + 1, 3 * size_of_chunk + 5)):
        base = tmp_path / str(case)
        base.mkdir()
        data = rng.randbytes(size)
        (base / "in.bin").write_bytes(data)
        _encode(base / "in.bin", shards, r, k)

        reference = codec.encode(bytes_to_stripes(data, code))
        for j in compared:
            header = ShardHeader(code, j, size).pack()
            raw = (shards / shard_filename(j)).read_bytes()
            assert raw == header + reference[j].tobytes(), (size, j)
        assert len(os.listdir(shards)) == n

        healthy = _subset(shards, base / "data", range(k))
        assert _decode(healthy, base / "healthy.bin") == data, size
        assert locator_calls == []
        repair = _subset(shards, base / "repair", repair_from)
        assert _decode(repair, base / "repaired.bin") == data, size
        # one locator per decode, however many chunks it repairs
        assert len(locator_calls) == (1 if size else 0), size
        locator_calls.clear()


# (r, k, stripes): r=8 from one data row to k = n/2, and r=16 with
# 4,096 blocks of narrow rows
@pytest.mark.parametrize("r, k, stripes", [(8, 1, 33), (8, 2, 33), (8, 16, 33),
                                           (8, 128, 33), (16, 16, 3)])
def test_encode_blocks_are_the_codeword_in_position_order(bt8, bt16, ft8, ft16, r, k, stripes):
    code = CodeParams(r, k)
    codec = BatchCodec(code, bt8 if r == 8 else bt16)
    ft = ft8 if r == 8 else ft16
    rng = np.random.default_rng(129 + r + k)
    msgs = rng.integers(0, code.n, (k, stripes), dtype=codec.dtype)
    # copies: every block is computed into one reused buffer
    blocks = [(first, rows.copy()) for first, rows in codec.encode_blocks(msgs)]
    assert [first for first, _ in blocks] == list(range(0, code.n, k))
    assert all(rows.shape == (k, stripes) and rows.dtype == codec.dtype for _, rows in blocks)
    joined = np.concatenate([rows for _, rows in blocks])
    assert (joined == codec.encode(msgs)).all()
    assert (joined[:k] == msgs).all()
    # the Lagrange oracle at every block's first and last position (a
    # sample of the blocks at r=16) and a few others, on three stripes
    pyrng = random.Random(129 + r + k)
    firsts = range(k, code.n, k) if r == 8 else pyrng.sample(range(k, code.n, k), 40)
    positions = sorted({*firsts, *(f + k - 1 for f in firsts),
                        *pyrng.sample(range(k, code.n), 8)})
    for s in (0, stripes // 2, stripes - 1):
        ys = [int(v) for v in msgs[:, s]]
        assert [int(joined[x, s]) for x in positions] == \
            [lagrange_eval(ft, list(range(k)), ys, x) for x in positions], s


def test_encode_from_a_pipe(tmp_path):
    size = 3 * shardfile.CHUNK_BYTES + 5
    data = random.Random(121).randbytes(size)
    (tmp_path / "in.bin").write_bytes(data)
    _encode(tmp_path / "in.bin", tmp_path / "from_file", 8, 16)
    proc = subprocess.run([sys.executable, "-m", "binfec.cli", "encode", "--in", "/dev/stdin",
                           "--out", str(tmp_path / "from_pipe"), "--k", "16"],
                          input=data, env=ENV, capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    for j in range(256):
        name = shard_filename(j)
        assert ((tmp_path / "from_pipe" / name).read_bytes()
                == (tmp_path / "from_file" / name).read_bytes()), j
    os.remove(tmp_path / "from_pipe" / shard_filename(4))
    assert _decode(tmp_path / "from_pipe", tmp_path / "out.bin") == data


class _Trickle(io.RawIOBase):
    """A terminal-like raw stream that returns at most 7 bytes a read."""

    def __init__(self, data):
        self._data, self._at = data, 0

    def readable(self):
        return True

    def isatty(self):
        return True

    def readinto(self, buf):
        part = self._data[self._at:self._at + min(7, len(buf))]
        buf[:len(part)] = part
        self._at += len(part)
        return len(part)


@pytest.mark.parametrize("r, k", [(8, 4), (16, 2)])
def test_read_chunks_from_a_stream_of_short_reads(monkeypatch, r, k):
    # BufferedIOBase promises at most one raw read a call on an
    # interactive stream, so a short read must not end a chunk early
    monkeypatch.setattr(shardfile, "CHUNK_BYTES", 42)  # 10 stripes of 4 bytes
    code = CodeParams(r, k)
    stripe = code.stripe_bytes
    chunk = code.chunk_stripes * stripe
    assert chunk == 40
    rng = random.Random(126)
    for size in (0, 1, chunk - 1, chunk, chunk + 1, 2 * chunk):
        data = rng.randbytes(size)
        fh = io.BufferedReader(_Trickle(data), buffer_size=16)
        # copies: read_chunks reuses its buffer
        got = [(bytes(c), length) for c, length in shardfile.read_chunks(fh, code)]
        assert len(got) == max(1, -(-size // chunk)), size
        assert all(len(c) % stripe == 0 and len(c) <= chunk for c, _ in got), size
        assert [length for _, length in got[:-1]] == [None] * (len(got) - 1), size
        assert got[-1][1] == size
        joined = b"".join(c for c, _ in got)
        assert joined[:size] == data and joined[size:] == bytes(len(joined) - size), size


def _cli(*args):
    """Run the CLI in a child process, killed if it outlasts the timeout."""
    return subprocess.run([sys.executable, "-m", "binfec.cli", *map(str, args)], env=ENV,
                          capture_output=True, text=True, timeout=60)


def test_decode_skips_fifos_among_the_shards(tmp_path):
    data = random.Random(127).randbytes(5000)
    (tmp_path / "in.bin").write_bytes(data)
    shards = tmp_path / "shards"
    _encode(tmp_path / "in.bin", shards, 8, 16)
    # a stray FIFO, and one in place of a data shard, which is repaired
    fifos = [shards / "a-stray.lchs", shards / shard_filename(3)]
    os.remove(fifos[1])
    for fifo in fifos:
        os.mkfifo(fifo)
    proc = _cli("decode", "--shards", shards, "--out", tmp_path / "out.bin")
    assert proc.returncode == 0, proc.stderr
    for fifo in fifos:
        assert f"warning: skipping {fifo}: " in proc.stderr
    assert (tmp_path / "out.bin").read_bytes() == data


def test_encode_stops_at_a_fifo_at_a_shard_name(tmp_path):
    (tmp_path / "in.bin").write_bytes(random.Random(128).randbytes(5000))
    shards = tmp_path / "shards"
    shards.mkdir()
    fifo = shards / shard_filename(3)
    os.mkfifo(fifo)
    proc = _cli("encode", "--in", tmp_path / "in.bin", "--out", shards, "--k", "16")
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ") and str(fifo) in proc.stderr, proc.stderr


def test_encode_refuses_a_directory_holding_other_shards(tmp_path, capsys):
    # 65,280 shards of an r=16 encode would outvote the 256 of an r=8 one
    a = random.Random(122).randbytes(1000)
    b = random.Random(123).randbytes(1000)
    (tmp_path / "a.bin").write_bytes(a)
    (tmp_path / "b.bin").write_bytes(b)
    shards = tmp_path / "st"
    _encode(tmp_path / "a.bin", shards, 16, 16)
    before = {p.name: (p.stat().st_mtime_ns, p.stat().st_size) for p in shards.iterdir()}
    capsys.readouterr()
    assert main(["encode", "--in", str(tmp_path / "b.bin"), "--out", str(shards),
                 "--r", "8", "--k", "16"]) == 1
    assert "65280 shard file(s) that this encode would not overwrite" in capsys.readouterr().err
    assert {p.name: (p.stat().st_mtime_ns, p.stat().st_size)
            for p in shards.iterdir()} == before

    # shards that an encode overwrites are no obstacle, any other file is
    r8 = tmp_path / "r8"
    _encode(tmp_path / "a.bin", r8, 8, 16)
    _encode(tmp_path / "b.bin", r8, 8, 16)
    assert _decode(r8, tmp_path / "out.bin") == b
    (r8 / "a-stale.lchs").write_bytes(b"")
    capsys.readouterr()
    assert main(["encode", "--in", str(tmp_path / "a.bin"), "--out", str(r8),
                 "--r", "8", "--k", "16"]) == 1
    assert f"such as {r8 / 'a-stale.lchs'}" in capsys.readouterr().err
    assert _decode(r8, tmp_path / "out.bin") == b


@pytest.mark.parametrize("previous", [None, b"an earlier output"])
def test_failed_decode_leaves_no_partial_output(tmp_path, monkeypatch, capsys, previous):
    monkeypatch.setattr(shardfile, "CHUNK_BYTES", 16 * 8)  # 8 stripes a chunk at k=16
    data = random.Random(124).randbytes(16 * 40 + 5)  # 41 stripes: 6 chunks
    (tmp_path / "in.bin").write_bytes(data)
    _encode(tmp_path / "in.bin", tmp_path / "shards", 8, 16)
    out = tmp_path / "out.bin"
    if previous is not None:
        out.write_bytes(previous)
    victim = str(tmp_path / "shards" / shard_filename(2))
    read = shardfile.Shard.read

    def truncate_after_first_chunk(self, offset, size):
        payload = read(self, offset, size)
        if self.path == victim and size:
            os.truncate(victim, HEADER_SIZE + size)
        return payload

    monkeypatch.setattr(shardfile.Shard, "read", truncate_after_first_chunk)
    listing = sorted(os.listdir(tmp_path))
    capsys.readouterr()
    assert main(["decode", "--shards", str(tmp_path / "shards"), "--out", str(out)]) == 1
    assert f"error: {victim}: changed while being read" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == listing  # no temporary file left
    assert (out.read_bytes() if out.exists() else None) == previous


# Starts the command given in its argv and prints its exit code and
# peak RSS.  Linux counts the peak RSS of a process that starts a child
# into the child's ru_maxrss, so the starter is a fresh interpreter, not
# this one with numpy and the test data loaded.
_STARTER = """\
import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def _peak_rss_mib(*args) -> float:
    proc = subprocess.run([sys.executable, "-c", _STARTER, sys.executable, "-m", "binfec.cli",
                           *map(str, args)], env=ENV, capture_output=True, text=True,
                          timeout=300)
    code, kib = map(int, proc.stdout.split())
    assert code == 0, proc.stderr
    return kib / 1024


def test_peak_memory_does_not_grow_with_the_file(tmp_path):
    rng = random.Random(125)
    peaks = {}
    for mib in (16, 64):
        src, shards, out = tmp_path / "in.bin", tmp_path / "shards", tmp_path / "out.bin"
        with open(src, "wb") as fh:
            for _ in range(mib):
                fh.write(rng.randbytes(1 << 20))
        encode = _peak_rss_mib("encode", "--in", src, "--out", shards, "--r", 8, "--k", 128)
        for j in range(0, 128, 16):  # 8 data shards lost
            os.remove(shards / shard_filename(j))
        decode = _peak_rss_mib("decode", "--shards", shards, "--out", out)
        with open(src, "rb") as a, open(out, "rb") as b:
            while block := a.read(1 << 20):
                assert b.read(1 << 20) == block
        peaks[mib] = encode, decode
        for path in (src, out, *shards.iterdir()):
            os.remove(path)
    (encode16, decode16), (encode64, decode64) = peaks[16], peaks[64]
    assert abs(encode64 - encode16) <= 8, peaks
    assert abs(decode64 - decode16) <= 8, peaks


def test_encode_peak_memory_does_not_grow_with_n_over_k(tmp_path):
    # an encode holds one k-row codeword block, not all n/k of a chunk,
    # which at k=1 would be 128 MiB of codewords
    src = tmp_path / "in.bin"
    src.write_bytes(random.Random(130).randbytes(4 << 20))
    peaks = {}
    for k in (1, 128):
        shards = tmp_path / f"k{k}"
        peaks[k] = _peak_rss_mib("encode", "--in", src, "--out", shards, "--r", 8, "--k", k)
        os.remove(shards / shard_filename(0))
        assert _decode(shards, tmp_path / f"k{k}.bin") == src.read_bytes(), k
    assert abs(peaks[1] - peaks[128]) <= 8, peaks


def test_repair_far_above_k_decodes_in_bounded_memory(tmp_path):
    # k=2 with shards 0-200 lost: the survivors used are 201 and 202, so
    # the repair runs at h = 256 and a whole chunk's (h x stripes) array
    # would be 64 MiB; the window shrinks to 4,096 stripes, 1 MiB
    src, shards, out = tmp_path / "in.bin", tmp_path / "shards", tmp_path / "out.bin"
    src.write_bytes(random.Random(135).randbytes(1 << 20))
    _encode(src, shards, 8, 2)
    for j in range(201):
        os.remove(shards / shard_filename(j))
    peak = _peak_rss_mib("decode", "--shards", shards, "--out", out)
    assert peak < 64, peak
    assert out.read_bytes() == src.read_bytes()
