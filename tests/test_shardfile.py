import os

import numpy as np
import pytest

from binfec.field import SYMBOL_DTYPE
from binfec.shardfile import (
    HEADER_SIZE,
    CodeParams,
    InsufficientShardsError,
    ShardFormatError,
    ShardHeader,
    append_shards,
    bytes_to_stripes,
    create_shards,
    read_shards,
    shard_filename,
    stripes_to_bytes,
    write_headers,
)


def _header(r=8, k=128, shard_index=0, original_length=1000):
    return ShardHeader(CodeParams(r, k), shard_index, original_length)


def test_header_pack_unpack_round_trip():
    h = _header(shard_index=42, original_length=(1 << 40) + 3)
    raw = h.pack()
    assert len(raw) == HEADER_SIZE == 21
    assert ShardHeader.unpack(raw) == h


def test_header_is_an_immutable_value():
    fields = dict(code=CodeParams(16, 32), shard_index=7, original_length=123_456)
    h = ShardHeader(**fields)
    with pytest.raises(AttributeError):
        h.shard_index = 8
    with pytest.raises(AttributeError):
        h.note = "not a field"
    assert h.shard_index == 7
    # equal, and hashed alike, exactly when all four fields are
    same = ShardHeader(**fields)
    assert same == h and hash(same) == hash(h) and {h: "found"}[same] == "found"
    others = dict(code=CodeParams(16, 64), shard_index=8, original_length=123_457)
    for name in fields:
        assert ShardHeader(**{**fields, name: others[name]}) != h, name
    moved = h._replace(shard_index=9)
    assert moved == ShardHeader(**{**fields, "shard_index": 9}) and h.shard_index == 7
    for header in (h, moved):
        assert ShardHeader.unpack(header.pack()) == header
    assert (h.code.k, h.code.n, h.code.width) == (32, 1 << 16, 2)
    assert h._replace(shard_index=0) == ShardHeader(CodeParams(16, 32), 0, 123_456)


def test_code_params_is_the_one_geometry_value():
    import binfec
    import binfec.batch
    import binfec.rs
    import binfec.shardfile

    assert binfec.CodeParams is binfec.batch.CodeParams is binfec.rs.CodeParams \
        is binfec.shardfile.CodeParams is CodeParams
    code = CodeParams(r=8, k=128)  # the keyword form, as the README writes it
    assert code == CodeParams(8, 128) and (code.r, code.k) == (8, 128)
    with pytest.raises(AttributeError):
        code.k = 64
    with pytest.raises(AttributeError):
        code.note = "not a field"
    assert {code: "found"}[CodeParams(8, 128)] == "found" and code != CodeParams(8, 64)
    for c, derived in ((code, (256, 1, 128, 4096)), (CodeParams(16, 32), (65_536, 2, 64, 8192))):
        assert (c.n, c.width, c.stripe_bytes, c.chunk_stripes) == derived, c
    # a repair window holds an (h x stripes) array of at most 1 MiB: the
    # k=128 repair at h = 256 keeps its whole chunk, a k=1 one at h = 256
    # does not, and a repair at h <= 2k always does
    assert [code.repair_stripes(h) for h in (128, 256)] == [4096, 4096]
    assert [CodeParams(8, 1).repair_stripes(h) for h in (1, 2, 4, 256)] == \
        [524_288, 524_288, 262_144, 4096]
    assert CodeParams(16, 32).repair_stripes(1 << 16) == 8


def test_code_params_checks_every_field_on_every_path():
    # a width with no field would give width 1 at r=12
    with pytest.raises(ValueError, match="r must be one of"):
        CodeParams(12, 16)
    # _replace and _make build through __new__, not tuple.__new__
    with pytest.raises(ValueError, match="power of two"):
        CodeParams(8, 16)._replace(k=3)
    with pytest.raises(ValueError, match="power of two"):
        CodeParams._make((8, 5))
    with pytest.raises(ValueError, match="exceeds code length"):
        CodeParams(8, 16)._replace(k=512)
    assert CodeParams(8, 16)._replace(r=16) == CodeParams._make((16, 16)) == CodeParams(16, 16)
    assert type(CodeParams._make((8, 2))) is CodeParams


def _raw_header(r, log2_k, index, poly=None):
    from binfec.field import DEFAULT_POLY
    from binfec.shardfile import _HEADER, MAGIC, VERSION

    return _HEADER.pack(MAGIC, VERSION, r, log2_k, index, 12,
                        DEFAULT_POLY[r] if poly is None else poly)


# (raw header, what the error names): each passes every check but one
OUT_OF_RANGE = [
    (_raw_header(8, 8, 0), "log2_k=8"),
    (_raw_header(8, 9, 0), "log2_k=9"),  # k above n: CodeParams itself would refuse it
    (_raw_header(16, 16, 0), "log2_k=16"),
    (_raw_header(16, 17, 0), "log2_k=17"),
    (_raw_header(9, 2, 0, poly=0x211), "r=9"),
    (_raw_header(8, 2, 300), "index 300"),
]


@pytest.mark.parametrize("raw, named", OUT_OF_RANGE,
                         ids=[f"r{raw[5]}-log2_k{raw[6]}-index{int.from_bytes(raw[7:9], 'little')}"
                              for raw, _ in OUT_OF_RANGE])
def test_header_rejects_fields_out_of_range(tmp_path, raw, named):
    with pytest.raises(ShardFormatError, match=named):
        ShardHeader.unpack(raw)
    paths = _write_shards(str(tmp_path), _header(k=4, original_length=12),
                          np.zeros((256, 3), dtype=np.uint8))
    with open(paths[2], "wb") as fh:
        fh.write(raw + b"\0" * 3)
    _, columns, skipped = read_shards(paths)
    assert set(columns) == {0, 1, 3, 4}
    assert len(skipped) == 1 and paths[2] in skipped[0] and named in skipped[0]


def test_header_rejects_garbage():
    with pytest.raises(ShardFormatError):
        ShardHeader.unpack(b"nope" + b"\0" * 17)
    with pytest.raises(ShardFormatError):
        ShardHeader.unpack(b"LCHS" + b"\xff" * 17)
    with pytest.raises(ShardFormatError):
        ShardHeader.unpack(b"LCHS\x01")  # truncated


def test_header_fields_little_endian():
    raw = _header(shard_index=0x0102, original_length=0x0A0B0C0D).pack()
    assert raw[:4] == b"LCHS"
    assert raw[4] == 1          # version
    assert raw[5] == 8          # r
    assert raw[6] == 7          # log2_k
    assert raw[7:9] == bytes([0x02, 0x01])
    assert raw[9:17] == bytes([0x0D, 0x0C, 0x0B, 0x0A, 0, 0, 0, 0])
    assert raw[17:21] == bytes([0x1D, 0x01, 0, 0])


def test_stripe_packing_r8_is_verbatim_bytes():
    data = bytes(range(200))
    mat = bytes_to_stripes(data, CodeParams(8, 128))
    assert mat.shape == (128, 2)
    assert mat[5, 0] == 5
    assert mat[200 - 128, 1] == 0  # zero padding
    assert stripes_to_bytes(mat, 8, len(data)) == data


def test_stripe_packing_r16_little_endian():
    data = bytes([0x01, 0x02, 0x03, 0x04])
    mat = bytes_to_stripes(data, CodeParams(16, 2))
    assert mat.shape == (2, 1)
    assert mat[0, 0] == 0x0201
    assert mat[1, 0] == 0x0403
    assert stripes_to_bytes(mat, 16, 4) == data


def test_stripes_to_bytes_interleaves_block_by_block():
    rng = np.random.default_rng(92)
    for r, k, stripes in ((8, 4, 37), (8, 16, 5), (16, 4, 23), (16, 8, 1)):
        rows = rng.integers(0, 1 << r, (k, stripes)).astype(SYMBOL_DTYPE[r])
        want = rows.T.tobytes()
        for cut in (len(want), len(want) - 3):
            # array rows, byte strings and memoryviews give the same bytes
            assert stripes_to_bytes(rows, r, cut) == want[:cut]
            assert stripes_to_bytes([row.tobytes() for row in rows], r, cut) == want[:cut]
            assert stripes_to_bytes([memoryview(row.tobytes()) for row in rows], r, cut) == want[:cut]


def _payload(shard):
    return shard.read(0, shard.header.payload_size)


def _write_shards(outdir, header, codewords):
    """Shard files holding the rows of (n x stripes) codewords, in one chunk; their paths."""
    assert codewords.dtype == SYMBOL_DTYPE[header.code.r]  # append_shards writes rows as stored
    os.makedirs(outdir, exist_ok=True)
    create_shards(outdir, header.code)
    append_shards(outdir, codewords, 0, 0)
    write_headers(outdir, header)
    return [os.path.join(outdir, shard_filename(j)) for j in range(len(codewords))]


def test_shards_written_in_any_chunk_order_read_only_once_headed(tmp_path):
    # an encode's workers append chunks in any order; until the headers
    # are written last, every shard reads as zeros where its header goes
    rng = np.random.default_rng(93)
    header = _header(k=4, original_length=4 * 5)  # 5 stripes: chunks of 3 and 2
    codewords = rng.integers(0, 256, (256, 5), dtype=np.uint8)
    outdir = str(tmp_path)
    create_shards(outdir, header.code)
    append_shards(outdir, codewords[:, 3:], 0, 3)
    append_shards(outdir, codewords[:, :3], 0, 0)
    paths = [os.path.join(outdir, shard_filename(j)) for j in range(256)]
    with open(paths[7], "rb") as fh:
        assert fh.read(HEADER_SIZE) == bytes(HEADER_SIZE)
    with pytest.raises(InsufficientShardsError):
        read_shards(paths)
    write_headers(outdir, header)
    consensus, columns, skipped = read_shards(paths)
    assert (consensus, skipped) == (header, [])
    for j in columns:
        assert _payload(columns[j]) == codewords[j].tobytes()
    # creating again empties every file
    create_shards(outdir, header.code)
    assert {os.path.getsize(p) for p in paths} == {0}


def test_write_and_read_shards_round_trip(tmp_path):
    rng = np.random.default_rng(91)
    header = _header(k=4, original_length=12)  # k=4, 3 stripes
    codewords = rng.integers(0, 256, (256, 3), dtype=np.uint8)
    paths = _write_shards(str(tmp_path), header, codewords)
    assert len(paths) == 256
    consensus, columns, skipped = read_shards(paths)
    assert skipped == []
    assert consensus == header
    assert set(columns) == set(range(4))  # the k data shards only
    for j in columns:
        assert (np.frombuffer(_payload(columns[j]), dtype=np.uint8) == codewords[j]).all()
    # with data shards missing, the lowest parity shards stand in
    _, columns, skipped = read_shards([paths[j] for j in (0, 17, 255, 3, 254)])
    assert skipped == []
    assert set(columns) == {0, 3, 17, 254}
    for j in columns:
        assert (np.frombuffer(_payload(columns[j]), dtype=np.uint8) == codewords[j]).all()


def test_read_shards_skips_mismatched_headers(tmp_path):
    header = _header(k=4, original_length=12)
    codewords = np.zeros((256, 3), dtype=np.uint8)
    paths = _write_shards(str(tmp_path), header, codewords)
    # rewrite one shard with a different geometry: treated as missing
    alien = _header(k=8, original_length=12, shard_index=7)
    with open(paths[7], "wb") as fh:
        fh.write(alien.pack() + b"\0" * 24)
    consensus, columns, skipped = read_shards(paths)
    assert 7 not in columns
    assert len(skipped) == 1 and "disagrees" in skipped[0]


def test_header_with_another_polynomial_is_foreign(tmp_path):
    # a field other than GF(2^8) mod 0x11D: same layout, bytes 17-20 differ
    raw = _header(k=4, original_length=12).pack()[:17] + (0x11B).to_bytes(4, "little")
    with pytest.raises(ShardFormatError, match="0x11b"):
        ShardHeader.unpack(raw)
    paths = _write_shards(str(tmp_path), _header(k=4, original_length=12),
                          np.zeros((256, 3), dtype=np.uint8))
    with open(paths[1], "wb") as fh:
        fh.write(raw + b"\0" * 3)
    _, columns, skipped = read_shards(paths)
    assert set(columns) == {0, 2, 3, 4}
    assert len(skipped) == 1 and paths[1] in skipped[0] and "0x11b" in skipped[0]


def test_read_shards_consensus_is_the_majority(tmp_path):
    header = _header(k=4, original_length=12)
    paths = _write_shards(str(tmp_path / "a"), header, np.zeros((256, 3), dtype=np.uint8))
    # two foreign shards that sort first, outvoted by the 256 genuine ones
    foreign = _write_shards(str(tmp_path / "0"), _header(k=8, original_length=40),
                            np.zeros((256, 2), dtype=np.uint8))[:2]
    consensus, columns, skipped = read_shards(foreign + paths)
    assert consensus == header
    assert set(columns) == set(range(4))
    assert [note.split(":")[0] for note in skipped] == foreign
    # a tie goes to the first file in path order
    consensus, _, _ = read_shards(foreign + paths[:2])
    assert consensus == _header(k=8, original_length=40)


def test_read_shards_skips_short_payloads(tmp_path):
    header = _header(k=4, original_length=12)
    paths = _write_shards(str(tmp_path), header, np.zeros((256, 3), dtype=np.uint8))
    with open(paths[3], "ab") as fh:
        fh.write(b"\0")  # payload now one byte too long
    _, columns, skipped = read_shards(paths)
    assert 3 not in columns and len(skipped) == 1


def test_read_shards_replaces_a_shard_that_changes_after_its_header(tmp_path, monkeypatch):
    import binfec.shardfile as shardfile

    header = _header(k=4, original_length=12)
    codewords = (np.arange(256 * 3).reshape(256, 3) % 251).astype(np.uint8)
    paths = _write_shards(str(tmp_path), header, codewords)
    read_header = shardfile._read_header

    def then_truncate(path):
        result = read_header(path)
        if path == paths[2]:
            os.truncate(path, HEADER_SIZE + 1)
        return result

    monkeypatch.setattr(shardfile, "_read_header", then_truncate)
    _, columns, skipped = read_shards(paths)
    assert set(columns) == {0, 1, 3, 4}
    assert len(skipped) == 1 and "changed" in skipped[0]
    assert _payload(columns[4]) == codewords[4].tobytes()


def test_read_shards_empty_dir():
    with pytest.raises(InsufficientShardsError):
        read_shards([])


def test_shard_filenames_sort_numerically():
    names = [shard_filename(i) for i in (0, 9, 10, 255, 65535)]
    assert names == sorted(names)
