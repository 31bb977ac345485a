import random
import tracemalloc
from itertools import islice

import numpy as np
import pytest

from binfec import batch
from binfec.batch import BatchCodec, CodeParams, TooManyErasuresError
from binfec.cli import _codec
from binfec.rs import ErasurePattern, decode, encode
from binfec.shardfile import bytes_to_stripes, stripes_to_bytes
from binfec.transform import OpCounter

from oracles import lagrange_eval

# k from 1 up to n/2 at r=8, with the CLI default k=128 and the low-rate k=16.
R8_KS = (1, 2, 16, 32, 128)


# rs.encode/decode are BatchCodec's one-column view: the *_matches_scalar
# tests and the r=16 round trip check that many stripes at once give what
# one column gives; the Lagrange tests below are the independent reference.


def _decode(codec, enc, erased, ops=None):
    """The k lowest survivors of enc, repaired as the CLI repairs them."""
    known = [j for j in range(enc.shape[0]) if j not in erased][:codec.cp.k]
    _, rebuild = codec.repair(known)
    return rebuild(enc[known], ops)


def test_batch_encode_matches_scalar(bt8):
    rng = np.random.default_rng(81)
    for k in R8_KS:
        cp = CodeParams(8, k)
        codec = BatchCodec(cp, bt8)
        msgs = rng.integers(0, 256, (k, 20), dtype=codec.dtype)
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
        msgs = rng.integers(0, 256, (k, 20), dtype=codec.dtype)
        enc = codec.encode(msgs)
        for size in (1, (256 - k) // 2, 256 - k):
            erased = set(pyrng.sample(range(256), size))
            received = enc.copy()
            received[sorted(erased)] = 0
            dec = _decode(codec, enc, erased)
            assert (dec == msgs).all()
            for col in range(0, 20, 7):
                want = decode(cp, bt8, ft8, [int(x) for x in received[:, col]],
                              ErasurePattern.of(256, erased))
                assert want == [int(x) for x in dec[:, col]]


def test_batch_decode_no_erasures(bt8):
    rng = np.random.default_rng(83)
    cp = CodeParams(8, 16)
    codec = BatchCodec(cp, bt8)
    msgs = rng.integers(0, 256, (16, 5), dtype=codec.dtype)
    enc = codec.encode(msgs)
    assert (_decode(codec, enc, set()) == msgs).all()


def test_batch_too_many_erasures(bt8, ft8):
    cp = CodeParams(8, 128)
    codec = BatchCodec(cp, bt8)
    enc = codec.encode(np.zeros((128, 2), dtype=codec.dtype))
    with pytest.raises(TooManyErasuresError):
        decode(cp, bt8, ft8, enc[:, 0].tolist(), ErasurePattern.of(256, range(129)))


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
    assert (_decode(codec, enc, erased) == msgs).all()


def _assert_parity_matches_lagrange(ft, k, msgs, enc, stripes, positions):
    # parity symbol x of a stripe is its message polynomial, interpolated
    # through the points 0..k-1, evaluated at x
    for s in stripes:
        ys = [int(v) for v in msgs[:, s]]
        got = [int(enc[x, s]) for x in positions]
        assert got == [lagrange_eval(ft, list(range(k)), ys, x) for x in positions]


def test_batch_multi_stripe_matches_lagrange_oracle(bt8, ft8):
    # 1,023 stripes: every row is translated, a group of rows a piece;
    # 69,999 stripes: every row is translated in more than one piece,
    # the last one ragged
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
        assert (_decode(codec, enc, erased) == msgs).all()


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
    assert (_decode(codec, enc, erased) == msgs).all()


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


def test_repair_from_k_minus_one_positions_is_too_many_erasures(bt8):
    codec = BatchCodec(CodeParams(8, 32), bt8)
    with pytest.raises(TooManyErasuresError):
        codec.repair(range(1, 32))
    with pytest.raises(TooManyErasuresError):
        codec.repair([])


def test_batch_decode_rejects_symbols_outside_the_field(bt8, ft8):
    # a received symbol of 256 must not be read as another table entry:
    # rs.decode checks the whole received word, not only the k it uses,
    # and a rebuild takes only the codec's dtype, which holds no such value
    cp = CodeParams(8, 16)
    codec = BatchCodec(cp, bt8)
    received = codec.encode(np.zeros((16, 3), dtype=np.uint8)).astype(np.uint16)
    received[20, 1] = 256
    with pytest.raises(ValueError, match="symbols must lie in"):
        decode(cp, bt8, ft8, received[:, 1].tolist(), ErasurePattern.of(256, {0}))
    _, rebuild = codec.repair(range(1, 17))
    with pytest.raises(ValueError, match="row kernels take uint8"):
        rebuild(np.ascontiguousarray(received[1:17]))


@pytest.mark.parametrize("r, k, lost", [(8, 16, set()), (8, 16, {3}), (16, 128, {0, 77})])
def test_decode_from_every_survivor_equals_decode_from_the_k_lowest(bt8, bt16, r, k, lost):
    # rs.decode reads only the k lowest survivors: every other one may
    # be erased from its pattern, and the decode is the same
    bt = bt8 if r == 8 else bt16
    cp, n = CodeParams(r, k), 1 << r
    codec = BatchCodec(cp, bt)
    msgs = np.random.default_rng(89 + r + len(lost)).integers(0, 1 << r, (k, 5),
                                                              dtype=codec.dtype)
    enc = codec.encode(msgs)
    lowest = [j for j in range(n) if j not in lost][:k]
    only_lowest = ErasurePattern.of(n, set(range(n)) - set(lowest))
    for col in range(5):
        received = enc[:, col].tolist()
        every = decode(cp, bt, bt.ft, received, ErasurePattern.of(n, lost))
        assert every == decode(cp, bt, bt.ft, received, only_lowest) == msgs[:, col].tolist()


def test_batch_decode_of_parity_loss_does_no_field_arithmetic(bt8):
    codec = BatchCodec(CodeParams(8, 16), bt8)
    msgs = np.random.default_rng(87).integers(0, 256, (16, 5), dtype=np.uint8)
    enc = codec.encode(msgs)
    ops = OpCounter()
    assert (_decode(codec, enc, set(range(16, 256)), ops) == msgs).all()
    assert (ops.adds, ops.muls) == (0, 0)


def test_repair_r16_from_the_k_lowest_payloads(bt16):
    # the CLI's glue at r=16: little-endian two-byte payloads as Shard.read
    # returns them, joined into the k rows of one repair; no shard files
    data = random.Random(88).randbytes(1000)
    k = 16
    code = CodeParams(16, k)
    enc = BatchCodec(code, bt16).encode(bytes_to_stripes(data, code))
    known = [j for j in range(1 << 16) if j not in {3, 10, 11, 12}][:k]
    payloads = [enc[j].astype("<u2").tobytes() for j in known]
    codec = _codec(code)
    h, rebuild = codec.repair(known)
    assert h == 32
    rows = rebuild(np.frombuffer(b"".join(payloads), codec.dtype).reshape(k, -1))
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


def _counted_decode(monkeypatch, codec, enc, erased):
    """_decode(codec, enc, erased) with its OpCounter and the number of
    nonzero derivative outputs it divided."""
    nonzero = []
    original = batch.derivative_rows

    def counting(*args, **kwargs):
        out = original(*args, **kwargs)
        nonzero.append(int(np.count_nonzero(out)))
        return out

    monkeypatch.setattr(batch, "derivative_rows", counting)
    ops = OpCounter()
    out = _decode(codec, enc, erased, ops)
    return out, ops, nonzero[0] if nonzero else 0


@pytest.mark.parametrize("r, ks", ((8, (1, 16, 64)), (16, (1, 16))))
def test_repair_runs_at_the_subspace_its_survivors_span(monkeypatch, bt8, bt16, r, ks):
    # k survivors confined to [0, h), one of them in [h/2, h), plus a few
    # above h that the decode does not read: it runs at h points and its
    # counts are the closed forms at h, for every h from k to n
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
            survivors = known | extra
            assert codec.repair(sorted(survivors)[:k])[0] == h, (k, h)
            erased = set(range(n)) - survivors
            out, ops, nonzero = _counted_decode(monkeypatch, codec, enc, erased)
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
    out, ops, nonzero = _counted_decode(monkeypatch, codec, enc, {3})
    assert (out == msgs).all()
    assert (ops.adds, ops.muls) == _decode_counts(h, k, 1, nonzero)


def test_repair_takes_k_distinct_positions_in_range(bt8):
    codec = BatchCodec(CodeParams(8, 4), bt8)
    h, rebuild = codec.repair([3, 2, 1, 0])  # the data rows: the rebuild returns them
    rows = np.arange(8, dtype=codec.dtype).reshape(4, 2)
    assert h == 4 and rebuild(rows) is rows
    with pytest.raises(ValueError, match="row kernels take uint8"):
        rebuild(rows.astype(np.uint16))  # as every rebuild, it takes only the codec's dtype
    for bad in ([0, 1, 2, 3, 4], [0, 1, 1, 2], [0, 1, 2, 256], [-1, 0, 1, 2]):
        with pytest.raises(ValueError, match="distinct positions"):
            codec.repair(bad)


def test_one_repair_plan_rebuilds_any_run_of_stripes(monkeypatch, bt8):
    # the locator is computed once, by repair; rebuild reuses it for
    # every window, whatever its width, and ops counts as a fresh plan's do
    calls = []
    original = batch.locator_values

    def counting(*args, **kwargs):
        calls.append(args[1].size)
        return original(*args, **kwargs)

    monkeypatch.setattr(batch, "locator_values", counting)
    codec = BatchCodec(CodeParams(8, 16), bt8)
    msgs = np.random.default_rng(93).integers(0, 256, (16, 40), dtype=np.uint8)
    enc = codec.encode(msgs)
    known = [0, 2, *range(4, 16), 17, 30]  # data rows 1 and 3 lost, 30 below h = 32
    h, rebuild = codec.repair(reversed(known))
    assert (h, calls) == (32, [16])  # the 16 erased positions of [0, 32)
    for lo, hi in ((0, 1), (1, 17), (17, 40)):
        ops = OpCounter()
        out = rebuild(np.ascontiguousarray(enc[known, lo:hi]), ops)
        assert (out == msgs[:, lo:hi]).all(), (lo, hi)
        decoded = OpCounter()
        _, fresh = codec.repair(known)
        assert (fresh(np.ascontiguousarray(enc[known, lo:hi]), decoded) == out).all()
        assert (ops.adds, ops.muls) == (decoded.adds, decoded.muls)
    assert len(calls) == 1 + 3  # one more for each fresh plan, none for rebuild


@pytest.mark.parametrize("r, k, stripes, erased, limit_mib", (
    (8, 128, 4_096, set(random.Random(94).sample(range(256), 128)), 1.75),  # h = 256
    (8, 16, 32_768, {3}, 1.75),                                             # h = 32
    (16, 16, 8_192, {3, 10, 11, 12}, 2.50),                                 # h = 32
))
def test_one_repair_window_holds_its_workspace_and_little_more(
        bt8, bt16, r, k, stripes, erased, limit_mib):
    # a CLI window at r=8: 512 KiB of survivors in, 512 KiB of data out.
    # The (h x stripes) workspace (1 MiB) and the derivative's (k x
    # stripes) sum are the arrays alive at once: the derivative scales
    # the workspace in place and divides its own sum in place, with
    # about one translated piece of room beside them.  At r=16 the
    # log/exp multiply's index arrays set the peak.
    codec = BatchCodec(CodeParams(r, k), bt8 if r == 8 else bt16)
    msgs = np.random.default_rng(94).integers(0, 1 << r, (k, stripes)).astype(codec.dtype)
    known = [j for j in range(2 * k) if j not in erased][:k]  # positions below 2k
    h, rebuild = codec.repair(known)
    assert h == 2 * k
    # positions [0, 2k): the message rows and the first parity block
    enc = np.concatenate([block.copy() for _, block in islice(codec.encode_blocks(msgs), 2)])
    rows = np.ascontiguousarray(enc[known])
    tracemalloc.start()
    try:
        out = rebuild(rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (out == msgs).all()
    assert peak <= limit_mib * (1 << 20), peak / (1 << 20)
