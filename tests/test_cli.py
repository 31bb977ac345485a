import collections
import os
import random
import subprocess
import sys

import pytest

import binfec
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


def test_healthy_decode_imports_no_numpy(tmp_path):
    data = random.Random(108).randbytes(3000)
    outdir = _encode(tmp_path, data, k=16)
    for idx in range(16, 256, 3):
        os.remove(outdir / shard_filename(idx))
    out = tmp_path / "out.bin"
    code = ("import sys\n"
            "from binfec.cli import main\n"
            "assert main(sys.argv[1:]) == 0\n"
            "print('numpy' in sys.modules)\n")
    stdout = _python(code, "decode", "--shards", outdir, "--out", out)
    assert stdout.splitlines()[-1] == "False"
    assert out.read_bytes() == data


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


def test_encode_rejects_bad_k(tmp_path, capsys):
    src = tmp_path / "input.bin"
    src.write_bytes(b"hello")
    assert main(["encode", "--in", str(src), "--out", str(tmp_path / "s"),
                 "--k", "100"]) != 0
    assert "power of two" in capsys.readouterr().err


def test_encode_rejects_k_equal_to_n(tmp_path, capsys):
    # a header stores log2(k) below r, so k = n could never be decoded
    src = tmp_path / "input.bin"
    src.write_bytes(b"hello")
    outdir = tmp_path / "s"
    assert main(["encode", "--in", str(src), "--out", str(outdir),
                 "--r", "8", "--k", "256"]) != 0
    assert "below n=256" in capsys.readouterr().err
    assert not list(tmp_path.glob("**/*" + shardfile.SHARD_SUFFIX))


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


def test_bench_smoke(capsys):
    assert main(["bench", "--r", "8", "--k", "16", "--size", "64"]) == 0
    out = capsys.readouterr().out
    assert "n,k,encode_s,decode_s,adds,muls" in out
    line = out.strip().splitlines()[-1]
    assert line.startswith("256,16,")


def test_bench_deterministic_op_counts(capsys):
    lines = []
    for _ in range(2):
        assert main(["bench", "--r", "8", "--k", "32", "--seed", "5"]) == 0
        lines.append(capsys.readouterr().out.strip().splitlines()[-1])
    a = lines[0].split(",")
    b = lines[1].split(",")
    assert a[0] == b[0] and a[1] == b[1]
    assert a[4:] == b[4:]  # identical add/mul counts across runs


def test_selftest_command_passes(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "h=8 l=0: adds 17/17 muls 5/5" in out
    assert "FAIL" not in out
    suites = [line.split(":")[0] for line in out.splitlines() if line.startswith("ok")]
    assert suites == ["ok   " + name for name in (
        "field", "transform", "operation counts", "derivative", "locator", "codec")]
