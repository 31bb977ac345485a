import random

import numpy as np
import pytest

from binfec import batch
from binfec.batch import BatchCodec, CodeParams, TooManyErasuresError
from binfec.cli import _codec, _repair
from binfec.rs import ErasurePattern, decode, encode
from binfec.shardfile import bytes_to_stripes, stripes_to_bytes
from binfec.transform import OpCounter

from oracles import lagrange_eval

# k from 1 up to n/2 at r=8, with the CLI default k=128 and the low-rate k=16.
R8_KS = (1, 2, 16, 32, 128)


# rs.encode/decode are BatchCodec's one-column view: the *_matches_scalar
# tests and the r=16 round trip check that many stripes at once give what
# one column gives; the Lagrange tests below are the independent reference.


def _survivors(enc, erased):
    return {j: enc[j] for j in range(enc.shape[0]) if j not in erased}


def test_batch_encode_matches_scalar(bt8):
    rng = np.random.default_rng(81)
    for k in R8_KS:
        cp = CodeParams(8, k)
        codec = BatchCodec(cp, bt8)
        msgs = rng.integers(0, 256, (k, 20), dtype=np.uint16)
        enc = codec.encode(msgs)
        assert enc.shape == (256, 20)
        for col, full in zip(msgs.T, enc.T):
            want = encode(cp, bt8, [int(x) for x in col]).symbols
            assert want == [int(x) for x in full]


def test_batch_decode_matches_scalar(bt8, ft8):
    rng = np.random.default_rng(82)
    pyrng = random.Random(82)
    for k in R8_KS:
        cp = CodeParams(8, k)
        codec = BatchCodec(cp, bt8)
        msgs = rng.integers(0, 256, (k, 20), dtype=np.uint16)
        enc = codec.encode(msgs)
        for size in (1, (256 - k) // 2, 256 - k):
            erased = set(pyrng.sample(range(256), size))
            received = enc.copy()
            received[sorted(erased)] = 0
            dec = codec.decode(_survivors(enc, erased))
            assert (dec == msgs).all()
            for col in range(0, 20, 7):
                want = decode(cp, bt8, ft8, [int(x) for x in received[:, col]],
                              ErasurePattern.of(256, erased))
                assert want == [int(x) for x in dec[:, col]]


def test_batch_decode_no_erasures(bt8):
    rng = np.random.default_rng(83)
    cp = CodeParams(8, 16)
    codec = BatchCodec(cp, bt8)
    msgs = rng.integers(0, 256, (16, 5), dtype=np.uint16)
    enc = codec.encode(msgs)
    assert (codec.decode(_survivors(enc, set())) == msgs).all()


def test_batch_too_many_erasures(bt8):
    cp = CodeParams(8, 128)
    codec = BatchCodec(cp, bt8)
    enc = codec.encode(np.zeros((128, 2), dtype=np.uint16))
    with pytest.raises(TooManyErasuresError):
        codec.decode(_survivors(enc, set(range(129))))


def test_batch_r16_round_trip(bt16):
    rng = np.random.default_rng(84)
    pyrng = random.Random(84)
    cp = CodeParams(16, 256)
    codec = BatchCodec(cp, bt16)
    msgs = rng.integers(0, 1 << 16, (256, 3), dtype=np.uint16)
    enc = codec.encode(msgs)
    want = encode(cp, bt16, [int(x) for x in msgs[:, 0]]).symbols
    assert want == [int(x) for x in enc[:, 0]]
    erased = set(pyrng.sample(range(1 << 16), 60_000))
    assert (codec.decode(_survivors(enc, erased)) == msgs).all()


def _assert_parity_matches_lagrange(ft, k, msgs, enc, stripes, positions):
    # parity symbol x of a stripe is its message polynomial, interpolated
    # through the points 0..k-1, evaluated at x
    for s in stripes:
        ys = [int(v) for v in msgs[:, s]]
        got = [int(enc[x, s]) for x in positions]
        assert got == [lagrange_eval(ft, list(range(k)), ys, x) for x in positions]


def test_batch_multi_stripe_matches_lagrange_oracle(bt8, ft8):
    # 1,023 stripes: the low levels' narrow rows take the flat gather,
    # one gather a group of rows, and the wider ones are translated a
    # group of rows a piece; 69,999 stripes: every row is translated in
    # more than one piece, the last one ragged
    rng = np.random.default_rng(85)
    pyrng = random.Random(85)
    cp = CodeParams(8, 16)
    codec = BatchCodec(cp, bt8)
    for stripes in (1_023, 69_999):
        msgs = rng.integers(0, 256, (16, stripes), dtype=np.uint8)
        enc = codec.encode(msgs)
        assert (enc[:16] == msgs).all()
        picks = [0, stripes - 1] + pyrng.sample(range(1, stripes - 1), 3)
        _assert_parity_matches_lagrange(ft8, 16, msgs, enc, picks, range(16, 256))
        erased = set(pyrng.sample(range(256), 240))
        assert (codec.decode(_survivors(enc, erased)) == msgs).all()


def test_batch_r16_multi_stripe_matches_lagrange_oracle(bt16, ft16):
    rng = np.random.default_rng(86)
    pyrng = random.Random(86)
    n = 1 << 16
    cp = CodeParams(16, 16)
    codec = BatchCodec(cp, bt16)
    msgs = rng.integers(0, n, (16, 3), dtype=np.uint16)
    enc = codec.encode(msgs)
    assert (enc[:16] == msgs).all()
    positions = [16, n - 1] + pyrng.sample(range(17, n - 1), 200)
    _assert_parity_matches_lagrange(ft16, 16, msgs, enc, range(3), positions)
    erased = set(pyrng.sample(range(n), n - 16))
    assert (codec.decode(_survivors(enc, erased)) == msgs).all()


def test_batch_shape_validation(bt8):
    cp = CodeParams(8, 32)
    codec = BatchCodec(cp, bt8)
    with pytest.raises(ValueError):
        codec.encode(np.zeros((16, 2), dtype=np.uint16))
    with pytest.raises(ValueError):
        codec.encode(np.full((32, 2), 256, dtype=np.uint16))
    # a dtype that is not integer: a cast would truncate 1.5 to 1
    with pytest.raises(ValueError):
        BatchCodec(CodeParams(8, 2), bt8).encode(np.array([[1.5], [2.9]]))
    with pytest.raises(ValueError):
        codec.encode(np.ones((32, 2), dtype=bool))


def test_batch_decode_rejects_invalid_survivor_maps(bt8):
    codec = BatchCodec(CodeParams(8, 32), bt8)
    enc = codec.encode(np.zeros((32, 4), dtype=np.uint8))
    with pytest.raises(TooManyErasuresError):
        codec.decode({j: enc[j] for j in range(1, 32)})  # k - 1 survivors
    with pytest.raises(ValueError):
        codec.decode({j: enc[j] for j in range(1, 32)} | {256: enc[0]})
    with pytest.raises(ValueError):
        codec.decode({j: enc[j] for j in range(1, 33)} | {40: enc[40, :3]})
    with pytest.raises(ValueError):
        codec.decode({j: enc[j:j + 1] for j in range(1, 33)})  # 2-D rows


def test_batch_decode_rejects_symbols_outside_the_field(bt8):
    # a received symbol of 256 in a wider dtype must not be read as
    # another table entry
    codec = BatchCodec(CodeParams(8, 16), bt8)
    received = codec.encode(np.zeros((16, 3), dtype=np.uint8)).astype(np.uint16)
    received[20, 1] = 256
    with pytest.raises(ValueError):
        codec.decode(_survivors(received, {0}))


def test_batch_decode_takes_survivors_in_a_wider_dtype(bt8):
    # int16 rows, as a caller might hold them, decode like the codec's own
    codec = BatchCodec(CodeParams(8, 16), bt8)
    msgs = np.arange(48, dtype=np.uint8).reshape(16, 3)
    enc = codec.encode(msgs).astype(np.int16)
    dec = codec.decode(_survivors(enc, {0, 5, 17, 200}))
    assert dec.dtype == np.uint8
    assert (dec == msgs).all()


@pytest.mark.parametrize("r, k, lost", [(8, 16, set()), (8, 16, {3}), (16, 128, {0, 77})])
def test_decode_from_every_survivor_equals_decode_from_the_k_lowest(bt8, bt16, r, k, lost):
    # rows beyond the k lowest are checked but neither converted nor used
    codec = BatchCodec(CodeParams(r, k), bt8 if r == 8 else bt16)
    msgs = np.random.default_rng(89 + r + len(lost)).integers(0, 1 << r, (k, 5),
                                                              dtype=codec.dtype)
    every = _survivors(codec.encode(msgs), lost)
    lowest = dict(sorted(every.items())[:k])
    assert (codec.decode(lowest) == msgs).all()
    assert (codec.decode(every) == msgs).all()
    wider = {j: row.astype(np.int32) for j, row in every.items()}
    assert (codec.decode(wider) == msgs).all()


def test_batch_decode_of_parity_loss_does_no_field_arithmetic(bt8):
    codec = BatchCodec(CodeParams(8, 16), bt8)
    msgs = np.random.default_rng(87).integers(0, 256, (16, 5), dtype=np.uint8)
    enc = codec.encode(msgs)
    ops = OpCounter()
    assert (codec.decode(_survivors(enc, set(range(16, 256))), ops) == msgs).all()
    assert (ops.adds, ops.muls) == (0, 0)


def test_repair_r16_from_the_k_lowest_payloads(bt16):
    # _repair's glue at r=16: little-endian two-byte payloads as Shard.read
    # returns them, no shard files involved
    data = random.Random(88).randbytes(1000)
    k = 16
    code = CodeParams(16, k)
    enc = BatchCodec(code, bt16).encode(bytes_to_stripes(data, code))
    known = [j for j in range(1 << 16) if j not in {3, 10, 11, 12}][:k]
    columns = {j: memoryview(enc[j].astype("<u2").tobytes()) for j in known}
    rows = _repair(_codec(code), columns)
    assert bytes(stripes_to_bytes(rows, 16, len(data))) == data


def _lg(x):
    return x.bit_length() - 1


def _decode_counts(h, k, lost, nonzero, stripes=1):
    """(adds, muls) of a repair at h points: per stripe the h-point
    inverse, the derivative's first k outputs, the k-point forward,
    the scaling of k survivors and the lost divisions, plus one
    multiplication per nonzero derivative output."""
    higher = _lg(h) - _lg(k)
    adds = (h * _lg(h) - h + 1) + (k // 2 * _lg(k) + k * higher - k + (k == h)) \
        + (k * _lg(k) - k + 1)
    muls = (h // 2 * _lg(h) - h + 1) + k * (1 + higher) + (k // 2 * _lg(k) - k + 1) \
        + k + lost
    return adds * stripes, muls * stripes + nonzero


def _counted_decode(monkeypatch, codec, survivors):
    """codec.decode(survivors) with its OpCounter and the number of
    nonzero derivative outputs it divided."""
    nonzero = []
    original = batch.derivative_rows

    def counting(*args, **kwargs):
        out = original(*args, **kwargs)
        nonzero.append(int(np.count_nonzero(out)))
        return out

    monkeypatch.setattr(batch, "derivative_rows", counting)
    ops = OpCounter()
    out = codec.decode(survivors, ops)
    return out, ops, nonzero[0] if nonzero else 0


@pytest.mark.parametrize("r, ks", ((8, (1, 16, 64)), (16, (1, 16))))
def test_repair_runs_at_the_subspace_its_survivors_span(monkeypatch, bt8, bt16, r, ks):
    # k survivors confined to [0, h), one of them in [h/2, h), plus a few
    # above h that are checked but not used: the decode runs at h points
    # and its counts are the closed forms at h, for every h from k to n
    bt = bt8 if r == 8 else bt16
    n = 1 << r
    rng = np.random.default_rng(89)
    pyrng = random.Random(89)
    for k in ks:
        codec = BatchCodec(CodeParams(r, k), bt)
        msgs = rng.integers(0, n, (k, 3)).astype(codec.dtype)
        enc = codec.encode(msgs)
        for lg in range(_lg(k), r + 1):
            h = 1 << lg
            known = {h - 1 - pyrng.randrange(h // 2)} if h > k else set()
            known |= set(pyrng.sample(range(h // 2 if h > k else h), k - len(known)))
            extra = set(pyrng.sample(range(h, n), min(3, n - h)))
            survivors = {j: enc[j] for j in known | extra}
            assert codec.repair_points(survivors) == h, (k, h)
            out, ops, nonzero = _counted_decode(monkeypatch, codec, survivors)
            assert (out == msgs).all(), (k, h)
            lost = k - len(known & set(range(k)))
            if not lost:
                assert (ops.adds, ops.muls) == (0, 0)
                continue
            assert (ops.adds, ops.muls) == _decode_counts(h, k, lost, nonzero, 3), (k, h)


@pytest.mark.parametrize("r, k, h", ((8, 16, 32), (16, 256, 512)))
def test_one_lost_data_shard_is_repaired_at_twice_k(monkeypatch, bt8, bt16, r, k, h):
    # every shard but data shard 3 survives: the k lowest survivors end
    # at position k, so [0, 2k) holds them, far below n
    codec = BatchCodec(CodeParams(r, k), bt8 if r == 8 else bt16)
    msgs = np.random.default_rng(90).integers(0, 1 << r, (k, 1)).astype(codec.dtype)
    enc = codec.encode(msgs)
    out, ops, nonzero = _counted_decode(monkeypatch, codec, _survivors(enc, {3}))
    assert (out == msgs).all()
    assert (ops.adds, ops.muls) == _decode_counts(h, k, 1, nonzero)
