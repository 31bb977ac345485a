import os

import numpy as np
import pytest

from binfec.field import SYMBOL_DTYPE
from binfec.shardfile import (
    HEADER_SIZE,
    InsufficientShardsError,
    ShardFormatError,
    ShardHeader,
    bytes_to_stripes,
    read_shards,
    shard_filename,
    stripes_to_bytes,
    write_shards,
)


def _header(**kw):
    base = dict(r=8, log2_k=7, shard_index=0, original_length=1000)
    base.update(kw)
    return ShardHeader(**base)


def test_header_pack_unpack_round_trip():
    h = _header(shard_index=42, original_length=(1 << 40) + 3)
    raw = h.pack()
    assert len(raw) == HEADER_SIZE == 21
    assert ShardHeader.unpack(raw) == h


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
    mat = bytes_to_stripes(data, k=128, r=8)
    assert mat.shape == (128, 2)
    assert mat[5, 0] == 5
    assert mat[200 - 128, 1] == 0  # zero padding
    assert stripes_to_bytes(mat, 8, len(data)) == data


def test_stripe_packing_r16_little_endian():
    data = bytes([0x01, 0x02, 0x03, 0x04])
    mat = bytes_to_stripes(data, k=2, r=16)
    assert mat.shape == (2, 1)
    assert mat[0, 0] == 0x0201
    assert mat[1, 0] == 0x0403
    assert stripes_to_bytes(mat, 16, 4) == data


def test_stripes_to_bytes_interleaves_block_by_block(monkeypatch):
    import binfec.shardfile as shardfile

    monkeypatch.setattr(shardfile, "_BLOCK_BYTES", 40)  # several passes, a short last one
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


def test_write_and_read_shards_round_trip(tmp_path):
    rng = np.random.default_rng(91)
    header = _header(log2_k=2, original_length=12)  # k=4, 3 stripes
    codewords = rng.integers(0, 256, (256, 3), dtype=np.uint16)
    paths = write_shards(str(tmp_path), header, codewords)
    assert len(paths) == 256
    consensus, columns, skipped = read_shards(paths)
    assert skipped == []
    assert consensus.same_file(header)
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
    header = _header(log2_k=2, original_length=12)
    codewords = np.zeros((256, 3), dtype=np.uint16)
    paths = write_shards(str(tmp_path), header, codewords)
    # rewrite one shard with a different geometry: treated as missing
    alien = _header(log2_k=3, original_length=12, shard_index=7)
    with open(paths[7], "wb") as fh:
        fh.write(alien.pack() + b"\0" * 24)
    consensus, columns, skipped = read_shards(paths)
    assert 7 not in columns
    assert len(skipped) == 1 and "disagrees" in skipped[0]


def test_header_with_another_polynomial_is_foreign(tmp_path):
    # a field other than GF(2^8) mod 0x11D: same layout, bytes 17-20 differ
    raw = _header(log2_k=2, original_length=12).pack()[:17] + (0x11B).to_bytes(4, "little")
    with pytest.raises(ShardFormatError, match="0x11b"):
        ShardHeader.unpack(raw)
    paths = write_shards(str(tmp_path), _header(log2_k=2, original_length=12),
                         np.zeros((256, 3), dtype=np.uint16))
    with open(paths[1], "wb") as fh:
        fh.write(raw + b"\0" * 3)
    _, columns, skipped = read_shards(paths)
    assert set(columns) == {0, 2, 3, 4}
    assert len(skipped) == 1 and paths[1] in skipped[0] and "0x11b" in skipped[0]


def test_read_shards_consensus_is_the_majority(tmp_path):
    header = _header(log2_k=2, original_length=12)
    paths = write_shards(str(tmp_path / "a"), header, np.zeros((256, 3), dtype=np.uint16))
    # two foreign shards that sort first, outvoted by the 256 genuine ones
    foreign = write_shards(str(tmp_path / "0"), _header(log2_k=3, original_length=40),
                           np.zeros((256, 2), dtype=np.uint16))[:2]
    consensus, columns, skipped = read_shards(foreign + paths)
    assert consensus == header
    assert set(columns) == set(range(4))
    assert [note.split(":")[0] for note in skipped] == foreign
    # a tie goes to the first file in path order
    consensus, _, _ = read_shards(foreign + paths[:2])
    assert consensus.same_file(_header(log2_k=3, original_length=40))


def test_read_shards_skips_short_payloads(tmp_path):
    header = _header(log2_k=2, original_length=12)
    paths = write_shards(str(tmp_path), header, np.zeros((256, 3), dtype=np.uint16))
    with open(paths[3], "ab") as fh:
        fh.write(b"\0")  # payload now one byte too long
    _, columns, skipped = read_shards(paths)
    assert 3 not in columns and len(skipped) == 1


def test_read_shards_replaces_a_shard_that_changes_after_its_header(tmp_path, monkeypatch):
    import binfec.shardfile as shardfile

    header = _header(log2_k=2, original_length=12)
    codewords = np.arange(256 * 3).reshape(256, 3) % 251
    paths = write_shards(str(tmp_path), header, codewords)
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
    assert _payload(columns[4]) == bytes(codewords[4].astype(np.uint8))


def test_read_shards_empty_dir():
    with pytest.raises(InsufficientShardsError):
        read_shards([])


def test_shard_filenames_sort_numerically():
    names = [shard_filename(i) for i in (0, 9, 10, 255, 65535)]
    assert names == sorted(names)
