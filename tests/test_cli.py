import collections
import gc
import json
import os
import random
import signal
import stat
import subprocess
import sys

import pytest

import binfec
import binfec.cli as cli
import binfec.shardfile as shardfile
from binfec.cli import main
from binfec.rs import CodeParams, encode
from binfec.shardfile import HEADER_SIZE, shard_filename

from oracles import lagrange_eval

SRC = os.path.dirname(os.path.dirname(os.path.abspath(binfec.__file__)))


def _encode(tmp_path, data, k=128, r=8):
    src = tmp_path / "input.bin"
    src.write_bytes(data)
    outdir = tmp_path / "shards"
    assert main(["encode", "--in", str(src), "--out", str(outdir),
                 "--r", str(r), "--k", str(k)]) == 0
    return outdir


def test_round_trip_all_shards_present(tmp_path):
    data = random.Random(101).randbytes(5000)
    outdir = _encode(tmp_path, data)
    out = tmp_path / "out.bin"
    assert main(["decode", "--shards", str(outdir), "--out", str(out)]) == 0
    assert out.read_bytes() == data


def _python(code, *args):
    """Run code in a fresh interpreter that imports binfec from this tree."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", code, *map(str, args)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.fixture
def shard_reads(monkeypatch):
    """Bytes read from each shard file, counted as the OS returns them."""
    reads = collections.Counter()
    names = {}

    class CountingOS:
        def __getattr__(self, name):
            return getattr(os, name)

        def open(self, path, flags, *args):
            fd = os.open(path, flags, *args)
            names[fd] = os.path.basename(path)
            return fd

        def pread(self, fd, size, offset):
            data = os.pread(fd, size, offset)
            reads[names[fd]] += len(data)
            return data

    monkeypatch.setattr(shardfile, "os", CountingOS())
    return reads


# Modules a healthy decode must not be the first to import: numpy, the
# dataclasses machinery, heapq (Counter.most_common's), and the codec.
HEALTHY_DECODE_DENIED = {
    "numpy", "dataclasses", "inspect", "heapq",
    "binfec.basis", "binfec.batch", "binfec.transform", "binfec.derivative",
    "binfec.walsh", "binfec.rs",
}


def _decode_imports(outdir, out, chunk=None):
    """Decode outdir to out in a fresh interpreter: the modules each of its processes imported.

    The decode runs with shardfile.CHUNK_BYTES set to chunk if given.
    """
    # the entry point of `python -m binfec.cli`; each process of the run
    # lists its modules as it calls os._exit, which this one, the parent,
    # makes a SystemExit; only modules that are new after the snapshot
    # count, so whatever site preloads is not blamed
    code = ("import os, runpy, sys\n"
            "before, parent, end = set(sys.modules), os.getpid(), os._exit\n"
            "def listing_exit(status):\n"
            "    print('modules:', *sorted(set(sys.modules) - before), flush=True)\n"
            "    if os.getpid() != parent:\n"
            "        end(status)\n"
            "    sys.exit(status)\n"
            "os._exit = listing_exit\n"
            + ("" if chunk is None else
               f"import binfec.shardfile\nbinfec.shardfile.CHUNK_BYTES = {chunk}\n")
            + "runpy.run_module('binfec.cli', run_name='__main__')\n")
    stdout = _python(code, "decode", "--shards", outdir, "--out", out)
    return [set(line.split()[1:]) for line in stdout.splitlines()
            if line.startswith("modules:")]


def _assert_decode_imports_no_codec(outdir, out, windows, chunk=None):
    """Decode outdir to out in a fresh interpreter whose every process loads no numpy or codec.

    The decode reads windows windows, decoded with shardfile.CHUNK_BYTES
    set to chunk if given, so it runs in _worker_count(windows) processes.
    """
    listed = _decode_imports(outdir, out, chunk)
    assert len(listed) == cli._worker_count(windows)
    for new in listed:
        assert sorted(m for m in new if m in HEALTHY_DECODE_DENIED or m.startswith("numpy.")) == []
        assert {m for m in new if m.startswith("binfec")} == {
            "binfec", "binfec.shardfile", "binfec.field"}  # binfec.cli runs as __main__


def test_healthy_decode_imports_only_what_it_runs(tmp_path):
    # one window, and three, which the decode shares among its workers
    for size, windows in ((3000, 1), ((1 << 20) + 5, 3)):
        base = tmp_path / str(size)
        base.mkdir()
        data = random.Random(108).randbytes(size)
        outdir = _encode(base, data, k=16)
        for idx in range(16, 256, 3):
            os.remove(outdir / shard_filename(idx))
        out = base / "out.bin"
        _assert_decode_imports_no_codec(outdir, out, windows)
        assert out.read_bytes() == data


def test_k1_decode_copies_a_survivor_without_numpy(tmp_path):
    # at k=1 each block is a 1-point transform, so every shard's payload
    # is the file: the lowest survivor is copied out, with no repair; in
    # one window, and in five of 16 KiB
    data = random.Random(109).randbytes(70_001)
    outdir = _encode(tmp_path, data, k=1)
    for idx in range(201):
        os.remove(outdir / shard_filename(idx))
    for chunk, windows in ((None, 1), (16 << 10, 5)):
        out = tmp_path / f"out-{chunk}.bin"
        _assert_decode_imports_no_codec(outdir, out, windows, chunk)
        assert out.read_bytes() == data


def test_a_repair_decode_imports_no_numpy_ma(tmp_path):
    # numpy.ma costs a repair 12-19 ms and 1.3 MiB before its workers
    # fork; no step of a repair needs it, in any of its processes
    data = random.Random(114).randbytes((1 << 20) + 5)  # three windows at k=16
    outdir = _encode(tmp_path, data, k=16)
    os.remove(outdir / shard_filename(3))
    out = tmp_path / "out.bin"
    listed = _decode_imports(outdir, out)
    assert out.read_bytes() == data
    assert len(listed) == cli._worker_count(3)
    for new in listed:
        assert "numpy" in new and "numpy.ma" not in new


def test_a_healthy_decode_of_two_windows_shares_them_among_workers(tmp_path, monkeypatch):
    data = random.Random(111).randbytes(shardfile.CHUNK_BYTES + 5)  # two windows at k=16
    outdir = _encode(tmp_path, data, k=16)
    counts, run = [], cli._run_in_workers

    def counting(share, workers):
        counts.append(workers)
        return run(share, workers)

    monkeypatch.setattr(cli, "_run_in_workers", counting)
    out = tmp_path / "out.bin"
    assert main(["decode", "--shards", str(outdir), "--out", str(out)]) == 0
    assert out.read_bytes() == data
    assert counts == [cli._worker_count(2)]


@pytest.mark.parametrize("change", ["replace", "append"])
def test_an_encode_whose_input_changes_fails_and_leaves_no_readable_shard(
        tmp_path, monkeypatch, capsys, change):
    # the input changes once it is open, while the tables are built and
    # before the workers fork: a worker that reopens it by its path finds
    # another file, or every worker reads more bytes than it had
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("needs two CPUs")
    src, outdir = tmp_path / "in.bin", tmp_path / "shards"
    src.write_bytes(random.Random(112).randbytes((1 << 20) + 5))
    codec = cli._codec

    def changing(code):
        built = codec(code)
        if change == "replace":
            (tmp_path / "new.bin").write_bytes(random.Random(113).randbytes((1 << 20) + 5))
            os.replace(tmp_path / "new.bin", src)
        else:
            with open(src, "ab") as fh:
                fh.write(b"more")
        return built

    monkeypatch.setattr(cli, "_codec", changing)
    capsys.readouterr()
    assert main(["encode", "--in", str(src), "--out", str(outdir), "--k", "16"]) == 1
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if line.startswith("error: ")] == [
        f"error: {src} changed while being read"], err
    out = tmp_path / "out.bin"
    assert main(["decode", "--shards", str(outdir), "--out", str(out)]) == 1
    assert "error: no readable shard files found" in capsys.readouterr().err
    assert not out.exists()


def test_shard_paths_lists_visible_shard_files_sorted(tmp_path):
    from binfec.cli import _shard_paths

    folder = tmp_path / "odd [name]*"  # no pattern characters take effect
    folder.mkdir()
    for name in ("shard-00002.lchs", "a.lchs", ".hidden.lchs", "notes.txt", "x.lchs.tmp"):
        (folder / name).write_bytes(b"")
    assert _shard_paths(str(folder)) == [str(folder / "a.lchs"),
                                         str(folder / "shard-00002.lchs")]
    assert _shard_paths(str(tmp_path / "missing")) == []
    assert _shard_paths(str(folder / "notes.txt")) == []


def test_healthy_decode_reads_no_parity_payload(tmp_path, shard_reads):
    data = random.Random(109).randbytes(16 * 40 + 5)
    outdir = _encode(tmp_path, data, k=16)
    out = tmp_path / "out.bin"
    assert main(["decode", "--shards", str(outdir), "--out", str(out)]) == 0
    assert out.read_bytes() == data
    assert set(shard_reads) == {shard_filename(j) for j in range(256)}
    for j in range(256):
        payload_read = shard_reads[shard_filename(j)] > HEADER_SIZE
        assert payload_read == (j < 16), j


def test_repair_reads_exactly_k_payloads(tmp_path, shard_reads):
    data = random.Random(110).randbytes(16 * 40 + 5)
    outdir = _encode(tmp_path, data, k=16)
    os.remove(outdir / shard_filename(3))  # 255 survivors, one data shard lost
    out = tmp_path / "out.bin"
    assert main(["decode", "--shards", str(outdir), "--out", str(out)]) == 0
    assert out.read_bytes() == data
    read = {name for name, size in shard_reads.items() if size > HEADER_SIZE}
    assert read == {shard_filename(j) for j in range(17) if j != 3}


def test_package_names_resolve_lazily():
    code = ("import sys, binfec\n"
            "assert 'numpy' not in sys.modules\n"
            "assert set(binfec.__all__) <= set(dir(binfec))\n"
            "for name in binfec.__all__:\n"
            "    value = getattr(binfec, name)\n"
            "    home = sys.modules.get(getattr(value, '__module__', ''), binfec)\n"
            "    assert getattr(home, name) is value, name\n"
            "from binfec import *\n"
            "print(len(binfec.__all__))\n")
    assert _python(code).strip() == str(len(binfec.__all__))
    for name in binfec.__all__:
        assert getattr(binfec, name) is not None
    with pytest.raises(AttributeError):
        binfec.no_such_name


def test_round_trip_after_deleting_parity_and_data(tmp_path):
    rng = random.Random(102)
    data = rng.randbytes(3 * 128 + 17)
    outdir = _encode(tmp_path, data)
    for idx in rng.sample(range(256), 128):
        os.remove(outdir / shard_filename(idx))
    out = tmp_path / "out.bin"
    assert main(["decode", "--shards", str(outdir), "--out", str(out)]) == 0
    assert out.read_bytes() == data


def test_decode_from_data_only_and_parity_only(tmp_path):
    rng = random.Random(106)
    data = rng.randbytes(4096)
    for survivors in (range(128), range(128, 256)):
        base = tmp_path / f"case{survivors.start}"
        base.mkdir()
        outdir = _encode(base, data)
        keep = set(survivors)
        for idx in range(256):
            if idx not in keep:
                os.remove(outdir / shard_filename(idx))
        out = base / "out.bin"
        assert main(["decode", "--shards", str(outdir), "--out", str(out)]) == 0
        assert out.read_bytes() == data


def test_data_shards_hold_original_bytes(tmp_path):
    data = bytes(range(128))  # exactly one stripe at r=8, k=128
    outdir = _encode(tmp_path, data)
    for j in (0, 1, 127):
        raw = (outdir / shard_filename(j)).read_bytes()
        assert raw[HEADER_SIZE:] == bytes([j])


def test_shard_payloads_are_scalar_codeword_symbols(tmp_path, bt8, ft8):
    k = 16
    data = random.Random(107).randbytes(5 * k + 7)  # 6 stripes, the last one short
    outdir = _encode(tmp_path, data, k=k)
    padded = data + bytes(-len(data) % k)
    cp = CodeParams(8, k)
    codewords = [encode(cp, bt8, list(padded[s:s + k])).symbols
                 for s in range(0, len(padded), k)]
    # rs.encode runs the CLI's codec, so the codewords are also held to
    # the message polynomials interpolated with no basis code
    for s, cw in enumerate(codewords):
        ys = list(padded[s * k:(s + 1) * k])
        assert cw == [lagrange_eval(ft8, list(range(k)), ys, x) for x in range(256)]
    for j in range(256):
        raw = (outdir / shard_filename(j)).read_bytes()
        assert raw[HEADER_SIZE:] == bytes(cw[j] for cw in codewords)


def test_empty_file(tmp_path):
    outdir = _encode(tmp_path, b"")
    shards = sorted(outdir.iterdir())
    assert len(shards) == 256
    assert all(p.stat().st_size == HEADER_SIZE for p in shards)
    out = tmp_path / "out.bin"
    assert main(["decode", "--shards", str(outdir), "--out", str(out)]) == 0
    assert out.read_bytes() == b""


def test_insufficient_shards_errors(tmp_path, capsys):
    rng = random.Random(103)
    outdir = _encode(tmp_path, rng.randbytes(1000))
    for idx in rng.sample(range(256), 129):  # only 127 left
        os.remove(outdir / shard_filename(idx))
    out = tmp_path / "out.bin"
    assert main(["decode", "--shards", str(outdir), "--out", str(out)]) != 0
    assert "need at least 128" in capsys.readouterr().err


def _temp_files(*folders):
    """The hidden .NAME.PID.tmp files a decode may leave in folders."""
    return [name for folder in folders for name in os.listdir(folder) if name.endswith(".tmp")]


def test_decode_to_a_symlink_writes_its_target(tmp_path, capsys):
    data = random.Random(154).randbytes(1000)
    outdir = _encode(tmp_path, data, k=16)
    os.remove(outdir / shard_filename(2))  # a repair
    (tmp_path / "real").mkdir()
    target, link = tmp_path / "real" / "target.bin", tmp_path / "link.bin"
    target.write_bytes(b"old bytes")
    link.symlink_to(os.path.join("real", "target.bin"))
    assert main(["decode", "--shards", str(outdir), "--out", str(link)]) == 0
    assert link.is_symlink() and os.readlink(link) == os.path.join("real", "target.bin")
    assert target.read_bytes() == data
    assert _temp_files(tmp_path, tmp_path / "real") == []
    capsys.readouterr()


def test_decode_onto_a_file_keeps_its_permission_bits(tmp_path, capsys):
    # the new file is renamed onto the old one, so it must take the old
    # file's mode, not the umask's, before any window is written
    data = random.Random(156).randbytes(1000)
    outdir = _encode(tmp_path, data, k=16)
    os.remove(outdir / shard_filename(2))  # a repair
    out = tmp_path / "out.bin"
    out.write_bytes(b"old")
    out.chmod(0o600)
    umask = os.umask(0o022)
    try:
        assert main(["decode", "--shards", str(outdir), "--out", str(out)]) == 0
    finally:
        os.umask(umask)
    assert stat.S_IMODE(os.stat(out).st_mode) == 0o600
    assert out.read_bytes() == data
    assert _temp_files(tmp_path) == []
    capsys.readouterr()


@pytest.mark.parametrize("kind", ["fifo", "directory"])
def test_decode_refuses_an_out_that_is_not_a_regular_file(tmp_path, monkeypatch, capsys, kind):
    outdir = _encode(tmp_path, random.Random(155).randbytes(1000), k=16)
    out = tmp_path / "out"
    if kind == "fifo":
        os.mkfifo(out)
    else:
        out.mkdir()
    writes = []
    monkeypatch.setattr(cli, "pwrite_all", lambda *args: writes.append(args))
    capsys.readouterr()
    assert main(["decode", "--shards", str(outdir), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {os.path.realpath(out)} is not a regular file\n"
    assert writes == []  # refused before any window is written
    if kind == "fifo":
        assert stat.S_ISFIFO(os.stat(out).st_mode)
    else:
        assert os.listdir(out) == []
    assert _temp_files(tmp_path) == []


def test_mismatched_shard_treated_as_missing(tmp_path):
    rng = random.Random(104)
    data = rng.randbytes(2000)
    outdir = _encode(tmp_path, data)
    # corrupt one data shard's magic; decoder must fall back to repair
    target = outdir / shard_filename(3)
    raw = bytearray(target.read_bytes())
    raw[:4] = b"XXXX"
    target.write_bytes(bytes(raw))
    out = tmp_path / "out.bin"
    assert main(["decode", "--shards", str(outdir), "--out", str(out)]) == 0
    assert out.read_bytes() == data


def test_a_shard_whose_header_index_disagrees_with_its_name_is_skipped(tmp_path, capsys):
    # a flipped bit makes shard-00001.lchs claim index 5, and it sorts
    # before the real shard 5: taken for it, its payload would repair
    # the lost data shard into wrong bytes with exit 0
    data = random.Random(1).randbytes(100_000)
    outdir = _encode(tmp_path, data, k=4)
    target = outdir / shard_filename(1)
    raw = bytearray(target.read_bytes())
    raw[7] ^= 4  # the index's low byte, 1 -> 5
    target.write_bytes(bytes(raw))
    os.remove(outdir / shard_filename(4))
    out = tmp_path / "out.bin"
    assert main(["decode", "--shards", str(outdir), "--out", str(out)]) == 0
    assert out.read_bytes() == data
    err = capsys.readouterr().err
    assert f"skipping {target}: header says shard index 5" in err
    assert err.count("skipping") == 1


def test_foreign_shard_sorting_first_is_outvoted(tmp_path, capsys):
    data = random.Random(111).randbytes(3000)
    (tmp_path / "mine").mkdir()
    (tmp_path / "other").mkdir()
    outdir = _encode(tmp_path / "mine", data, k=16)
    other = _encode(tmp_path / "other", random.Random(112).randbytes(500), k=16)
    foreign = outdir / "a-foreign.lchs"
    foreign.write_bytes((other / shard_filename(5)).read_bytes())
    os.remove(outdir / shard_filename(3))  # forces a repair
    out = tmp_path / "out.bin"
    assert main(["decode", "--shards", str(outdir), "--out", str(out)]) == 0
    assert out.read_bytes() == data
    err = capsys.readouterr().err
    assert f"skipping {foreign}: header disagrees" in err
    assert err.count("skipping") == 1


def _foreign_claimant(tmp_path):
    """Two 3,000-byte files' shards at k=16, and b's shard 5 in a's folder, sorting first."""
    data = random.Random(113).randbytes(3000)
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    outdir = _encode(tmp_path / "a", data, k=16)
    other = _encode(tmp_path / "b", random.Random(114).randbytes(3000), k=16)
    foreign = outdir / "a-foreign.lchs"
    foreign.write_bytes((other / shard_filename(5)).read_bytes())
    return data, outdir, foreign


def test_every_claimant_of_a_repeated_index_is_skipped(tmp_path, capsys):
    # the foreign header equals the real shard 5's: taken for it, the
    # healthy decode would copy its payload out and exit 0 with wrong bytes
    data, outdir, foreign = _foreign_claimant(tmp_path)
    real = outdir / shard_filename(5)
    out = tmp_path / "out.bin"
    assert main(["decode", "--shards", str(outdir), "--out", str(out)]) == 0
    assert out.read_bytes() == data
    err = capsys.readouterr().err
    assert f"skipping {foreign}: duplicate shard index 5, also claimed by {real}\n" in err
    assert f"skipping {real}: duplicate shard index 5, also claimed by {foreign}\n" in err
    assert err.count("skipping") == 2


def test_a_repeated_index_that_leaves_fewer_than_k_shards_fails_cleanly(tmp_path, capsys):
    data, outdir, foreign = _foreign_claimant(tmp_path)
    for j in range(16, 256):
        os.remove(outdir / shard_filename(j))
    (tmp_path / "out").mkdir()
    out = tmp_path / "out" / "out.bin"
    assert main(["decode", "--shards", str(outdir), "--out", str(out)]) == 1
    assert "have 15 usable shards, need at least 16" in capsys.readouterr().err
    assert os.listdir(tmp_path / "out") == []  # no --out, and no temporary file


def test_encode_rejects_bad_k(tmp_path, capsys):
    src = tmp_path / "input.bin"
    src.write_bytes(b"hello")
    assert main(["encode", "--in", str(src), "--out", str(tmp_path / "s"),
                 "--k", "100"]) != 0
    assert "power of two" in capsys.readouterr().err


def test_encode_rejects_k_equal_to_n(tmp_path, capsys, monkeypatch):
    # a header stores log2(k) below r, so k = n could never be decoded;
    # the check comes before the codec's tables are built
    monkeypatch.setattr(cli, "_codec", None)
    src = tmp_path / "input.bin"
    src.write_bytes(b"hello")
    outdir = tmp_path / "s"
    assert main(["encode", "--in", str(src), "--out", str(outdir),
                 "--r", "8", "--k", "256"]) != 0
    assert "below n=256" in capsys.readouterr().err
    assert not list(tmp_path.glob("**/*" + shardfile.SHARD_SUFFIX))


@pytest.mark.parametrize("args, message", [
    (["--k", "100"], "k must be a power of two, got 100"),
    (["--k", "0"], "k must be a power of two, got 0"),
    (["--r", "8", "--k", "256"], "k must be below n=256"),
])
def test_encode_rejects_a_bad_geometry_before_numpy(tmp_path, args, message):
    src = tmp_path / "input.bin"
    src.write_bytes(b"hello")
    outdir = tmp_path / "s"
    # os._exit made a SystemExit, so that the modules can be listed after it
    code = ("import os, runpy, sys\n"
            "os._exit = sys.exit\n"
            "try:\n"
            "    runpy.run_module('binfec.cli', run_name='__main__')\n"
            "except SystemExit as exc:\n"
            "    print(' '.join(sorted(sys.modules)))\n"
            "    raise\n")
    proc = subprocess.run([sys.executable, "-c", code, "encode", "--in", str(src),
                           "--out", str(outdir), *args],
                          env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1, proc.stderr
    assert f"error: {message}" in proc.stderr
    loaded = set(proc.stdout.splitlines()[-1].split())
    assert sorted(m for m in loaded if m in HEALTHY_DECODE_DENIED or m.startswith("numpy.")) == []
    assert not outdir.exists()


def test_encode_missing_input_errors(tmp_path, capsys):
    assert main(["encode", "--in", str(tmp_path / "nope"),
                 "--out", str(tmp_path / "s")]) != 0
    capsys.readouterr()


def test_small_k_round_trip(tmp_path):
    rng = random.Random(105)
    data = rng.randbytes(777)
    outdir = _encode(tmp_path, data, k=4)
    for idx in rng.sample(range(4), 2) + rng.sample(range(4, 256), 200):
        os.remove(outdir / shard_filename(idx))
    out = tmp_path / "out.bin"
    assert main(["decode", "--shards", str(outdir), "--out", str(out)]) == 0
    assert out.read_bytes() == data


def test_main_in_process_keeps_the_callers_sigterm_handler(tmp_path):
    # only run(), the entry point, turns SIGTERM into SystemExit
    def handler(signum, frame):
        pass

    previous = signal.signal(signal.SIGTERM, handler)
    try:
        data = random.Random(145).randbytes(1000)
        outdir = _encode(tmp_path, data, k=16)
        os.remove(outdir / shard_filename(3))  # a repair
        out = tmp_path / "out.bin"
        assert main(["decode", "--shards", str(outdir), "--out", str(out)]) == 0
        assert out.read_bytes() == data
        assert signal.getsignal(signal.SIGTERM) is handler
    finally:
        signal.signal(signal.SIGTERM, previous)


def test_bench_smoke(capsys):
    assert main(["bench", "--r", "8", "--k", "16", "--size", "64"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    result = json.loads(lines[0])
    assert list(result) == ["r", "n", "k", "stripes", "erasures", "encode_s", "decode_s",
                            "adds", "muls"]
    assert (result["n"], result["k"], result["stripes"], result["erasures"]) == (256, 16, 4, 240)


def test_bench_deterministic_op_counts(capsys):
    runs = []
    for _ in range(2):
        assert main(["bench", "--r", "8", "--k", "32", "--seed", "5"]) == 0
        result = json.loads(capsys.readouterr().out)
        runs.append([result[key] for key in ("n", "k", "stripes", "adds", "muls")])
    assert runs[0] == runs[1]  # identical add/mul counts across runs


def test_selftest_command_passes(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "h=8 l=0: adds 17/17 muls 5/5" in out
    assert "FAIL" not in out
    suites = [line.split(":")[0] for line in out.splitlines() if line.startswith("ok")]
    assert suites == ["ok   " + name for name in (
        "field", "transform", "operation counts", "derivative", "locator", "codec")]


def _module(*args, stdout=subprocess.PIPE):
    """Run `python -m binfec.cli` with its output on pipes: (status, stdout, stderr).

    stdout is block-buffered, as on a pipe by default, so output that
    is not flushed before the process ends is lost.
    """
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("PYTHONUNBUFFERED", None)
    proc = subprocess.run([sys.executable, "-m", "binfec.cli", *map(str, args)], env=env,
                          stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def test_module_entry_prints_its_summary_through_a_pipe(tmp_path):
    # the entry point ends the process with os._exit, which flushes no stream
    data = random.Random(150).randbytes(100_003)
    src, shards, out = tmp_path / "in.bin", tmp_path / "shards", tmp_path / "out.bin"
    src.write_bytes(data)
    assert _module("encode", "--in", src, "--out", shards, "--k", 16) == (
        0, f"wrote 256 shards (6251 stripes, k=16, n=256) to {shards}\n", "")
    os.remove(shards / shard_filename(3))  # a repair, which forks workers
    assert _module("decode", "--shards", shards, "--out", out) == (
        0, f"reconstructed {len(data)} bytes from 16 shards to {out}\n", "")
    assert out.read_bytes() == data


def test_module_entry_exits_1_on_a_failure_and_2_on_a_usage_error(tmp_path):
    outdir = _encode(tmp_path, random.Random(151).randbytes(1000), k=16)
    for idx in range(15, 256):
        os.remove(outdir / shard_filename(idx))
    out = tmp_path / "out.bin"
    assert _module("decode", "--shards", outdir, "--out", out) == (
        1, "", "error: have 15 usable shards, need at least 16\n")
    assert not out.exists()
    status, stdout, err = _module("decode", "--shards", outdir)  # no --out
    assert (status, stdout) == (2, "")
    assert err.startswith("usage: binfec decode")


def test_module_entry_fails_when_its_summary_is_lost(tmp_path):
    # stdout is a pipe with no reader, so the flush before os._exit fails
    src = tmp_path / "in.bin"
    src.write_bytes(b"hello")
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        status, _, err = _module("encode", "--in", src, "--out", tmp_path / "s", stdout=write_end)
    finally:
        os.close(write_end)
    assert status == 1, err
    # a closed stdout is no failure: print writes nothing to it
    proc = subprocess.run([sys.executable, "-m", "binfec.cli", "encode", "--in", str(src),
                           "--out", str(tmp_path / "t")], env=dict(os.environ, PYTHONPATH=SRC),
                          stderr=subprocess.PIPE, text=True, timeout=120,
                          preexec_fn=lambda: os.close(1))
    assert (proc.returncode, proc.stderr) == (0, "")


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
@pytest.mark.skipif(cli._worker_count(2) < 2, reason="forks no worker on one CPU")
@pytest.mark.parametrize("callers_threads", [None, "4"], ids=["unset", "4"])
def test_every_fork_is_from_a_single_threaded_process(tmp_path, callers_threads):
    # whatever the caller's OPENBLAS_NUM_THREADS, main sets it to 1 before
    # numpy starts a thread of its own, so the workers fork from a
    # one-thread process
    data = tmp_path / "in.bin"
    data.write_bytes(random.Random(156).randbytes(3 * 16 * 32768 + 5))  # three chunks at k=16
    # each fork records this process's threads and whether numpy is loaded
    code = ("import json, os, sys\n"
            "from binfec.cli import main\n"
            "forks = []\n"
            "os.register_at_fork(before=lambda: forks.append(\n"
            "    [len(os.listdir('/proc/self/task')), 'numpy' in sys.modules]))\n"
            "assert main(sys.argv[1:]) == 0\n"
            "print(json.dumps(forks))\n")
    env = {name: value for name, value in os.environ.items() if name != "OPENBLAS_NUM_THREADS"}
    if callers_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = callers_threads

    def assert_forks_single_threaded(*args):
        proc = subprocess.run([sys.executable, "-c", code, *map(str, args)],
                              env=dict(env, PYTHONPATH=SRC), capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        forks = json.loads(proc.stdout.splitlines()[-1])
        assert {threads for threads, _ in forks} == {1}, forks
        assert forks[-1][1], forks  # the last fork came after numpy's import

    shards = tmp_path / "shards"
    assert_forks_single_threaded("encode", "--in", data, "--out", shards, "--k", 16)
    os.remove(shards / shard_filename(3))  # a repair, which loads numpy before it forks
    assert_forks_single_threaded("decode", "--shards", shards, "--out", tmp_path / "out.bin")
    assert (tmp_path / "out.bin").read_bytes() == data.read_bytes()


@pytest.mark.parametrize("enabled", [True, False])
def test_main_runs_its_command_with_the_callers_collector_setting(tmp_path, monkeypatch,
                                                                  capsys, enabled):
    during = []
    read_shards = cli.read_shards

    def recording(paths):
        during.append(gc.isenabled())
        return read_shards(paths)

    monkeypatch.setattr(cli, "read_shards", recording)
    (gc.enable if enabled else gc.disable)()
    try:
        outdir = _encode(tmp_path, random.Random(152).randbytes(1000), k=16)
        assert gc.isenabled() == enabled
        os.remove(outdir / shard_filename(0))
        assert main(["decode", "--shards", str(outdir), "--out", str(tmp_path / "a")]) == 0
        assert gc.isenabled() == enabled
        assert main(["decode", "--shards", str(tmp_path / "none"),
                     "--out", str(tmp_path / "b")]) == 1
        assert gc.isenabled() == enabled
    finally:
        gc.enable()
    assert during == [enabled, enabled]
    capsys.readouterr()


def test_an_encode_and_repair_leave_no_cyclic_garbage_a_chunk(tmp_path, monkeypatch, capsys):
    # a chunk's work leaves no reference cycles behind, so the collector
    # finds no more garbage in a long file than in a short one
    monkeypatch.setattr(shardfile, "CHUNK_BYTES", 16 * 64)  # 64 stripes a chunk at k=16
    monkeypatch.setattr(cli, "_worker_count", lambda chunks: 1)  # every chunk in this process
    rng = random.Random(153)

    def garbage(run, chunks):
        base = tmp_path / str(run)
        base.mkdir()
        data = rng.randbytes(chunks * shardfile.CHUNK_BYTES - 7)
        gc.collect()
        outdir = _encode(base, data, k=16)
        for idx in (*range(2, 5), *range(16, 200)):
            os.remove(outdir / shard_filename(idx))
        out = base / "out.bin"
        assert main(["decode", "--shards", str(outdir), "--out", str(out)]) == 0
        assert out.read_bytes() == data
        return gc.collect()

    gc.disable()
    try:
        garbage(0, 2)  # the first run's imports and one-time tables
        two, eight = garbage(1, 2), garbage(2, 8)
    finally:
        gc.enable()
    capsys.readouterr()
    assert eight <= two, (two, eight)
