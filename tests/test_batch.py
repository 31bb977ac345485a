import random

import numpy as np
import pytest

from binfec.batch import BatchCodec
from binfec.rs import CodeParams, ErasurePattern, TooManyErasuresError, decode, encode

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


def test_batch_shape_validation(bt8):
    cp = CodeParams(8, 32)
    codec = BatchCodec(cp, bt8)
    with pytest.raises(ValueError):
        codec.encode(np.zeros((16, 2), dtype=np.uint16))
    with pytest.raises(ValueError):
        codec.encode(np.full((32, 2), 256, dtype=np.uint16))
    with pytest.raises(ValueError):
        codec.decode(np.zeros((128, 2), dtype=np.uint16), {1})
