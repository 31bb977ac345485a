import random

import numpy as np
import pytest

from binfec.batch import BatchCodec
from binfec.rs import CodeParams, ErasurePattern, TooManyErasuresError, decode, encode
from binfec.transform import _CHUNK

from oracles import lagrange_eval

# k from 1 up to n/2 at r=8, with the CLI default k=128 and the low-rate k=16.
R8_KS = (1, 2, 16, 32, 128)


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
            dec = codec.decode(received, erased)
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
    assert (codec.decode(enc, set()) == msgs).all()


def test_batch_too_many_erasures(bt8):
    cp = CodeParams(8, 128)
    codec = BatchCodec(cp, bt8)
    enc = codec.encode(np.zeros((128, 2), dtype=np.uint16))
    with pytest.raises(TooManyErasuresError):
        codec.decode(enc, set(range(129)))


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
    received = enc.copy()
    received[sorted(erased)] = 0
    assert (codec.decode(received, erased) == msgs).all()


def _assert_parity_matches_lagrange(ft, k, msgs, enc, stripes, positions):
    # parity symbol x of a stripe is its message polynomial, interpolated
    # through the points 0..k-1, evaluated at x
    for s in stripes:
        ys = [int(v) for v in msgs[:, s]]
        got = [int(enc[x, s]) for x in positions]
        assert got == [lagrange_eval(ft, list(range(k)), ys, x) for x in positions]


def test_batch_multi_stripe_matches_lagrange_oracle(bt8, ft8):
    # 1,023 stripes: one r=8 gather covers a group of rows, and the low
    # levels take several groups; over _CHUNK stripes: every row is
    # gathered in more than one chunk
    rng = np.random.default_rng(85)
    pyrng = random.Random(85)
    cp = CodeParams(8, 16)
    codec = BatchCodec(cp, bt8)
    for stripes in (1_023, _CHUNK + 4_464):
        msgs = rng.integers(0, 256, (16, stripes), dtype=np.uint8)
        enc = codec.encode(msgs)
        assert (enc[:16] == msgs).all()
        picks = [0, stripes - 1] + pyrng.sample(range(1, stripes - 1), 3)
        _assert_parity_matches_lagrange(ft8, 16, msgs, enc, picks, range(16, 256))
        erased = set(pyrng.sample(range(256), 240))
        received = enc.copy()
        received[sorted(erased)] = 0
        assert (codec.decode(received, erased) == msgs).all()


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
    received = enc.copy()
    received[sorted(erased)] = 0
    assert (codec.decode(received, erased) == msgs).all()


def test_batch_shape_validation(bt8):
    cp = CodeParams(8, 32)
    codec = BatchCodec(cp, bt8)
    with pytest.raises(ValueError):
        codec.encode(np.zeros((16, 2), dtype=np.uint16))
    with pytest.raises(ValueError):
        codec.encode(np.full((32, 2), 256, dtype=np.uint16))
    with pytest.raises(ValueError):
        codec.decode(np.zeros((128, 2), dtype=np.uint16), {1})


def test_batch_decode_rejects_symbols_outside_the_field(bt8):
    # a received symbol of 256 in a wider dtype must not be read as
    # another table entry
    codec = BatchCodec(CodeParams(8, 16), bt8)
    received = codec.encode(np.zeros((16, 3), dtype=np.uint8)).astype(np.uint16)
    received[20, 1] = 256
    with pytest.raises(ValueError):
        codec.decode(received, {0})


def test_batch_decode_reads_no_erased_row(bt8):
    # erased rows may hold anything, even values outside the field
    codec = BatchCodec(CodeParams(8, 16), bt8)
    msgs = np.arange(48, dtype=np.uint8).reshape(16, 3)
    received = codec.encode(msgs).astype(np.int16)
    erased = {0, 5, 17, 200}
    received[sorted(erased)] = -1
    assert (codec.decode(received, erased) == msgs).all()
    received[sorted(erased)] = 300
    assert (codec.decode(received, erased) == msgs).all()
