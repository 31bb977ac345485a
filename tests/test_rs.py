import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binfec.basis import build_basis_tables
from binfec.field import tables_for
from binfec.rs import (
    CodeParams,
    ErasurePattern,
    TooManyErasuresError,
    decode,
    encode,
)
from binfec.transform import EvalVec, OpCounter, degree, inverse

_FT8 = tables_for(8)
_BT8 = build_basis_tables(_FT8, 256)


def _corrupt(symbols, erased, filler=0):
    return [filler if j in erased else s for j, s in enumerate(symbols)]


def test_code_params_validation():
    with pytest.raises(ValueError):
        CodeParams(8, 3)
    with pytest.raises(ValueError):
        CodeParams(8, 512)
    cp = CodeParams(8, 64)
    assert cp.n == 256 and cp.k == 64


def test_zero_message_encodes_to_zero(bt8):
    cp = CodeParams(8, 16)
    assert encode(cp, bt8, [0] * 16).symbols == [0] * 256


def test_systematic_prefix(bt8):
    rng = random.Random(61)
    for k in (2, 16, 128):
        cp = CodeParams(8, k)
        msg = [rng.randrange(256) for _ in range(k)]
        assert encode(cp, bt8, msg).symbols[:k] == msg


def test_rate_one_code_is_a_copy(bt8):
    cp = CodeParams(8, 256)
    msg = list(range(256))
    assert encode(cp, bt8, msg).symbols == msg


def test_every_symbol_interpolates_the_message(bt8):
    # (256, 4) with a one-hot message: all positions equal the naive
    # evaluation of the interpolating polynomial
    cp = CodeParams(8, 4)
    msg = [1, 0, 0, 0]
    cw = encode(cp, bt8, msg)
    coeffs = inverse(bt8, EvalVec(msg, 0))
    for j in range(256):
        assert cw.symbols[j] == bt8.eval_poly_naive(coeffs.data, j)
    for i in range(4):
        assert bt8.eval_poly_naive(coeffs.data, i) == msg[i]


def test_message_length_checked(bt8):
    with pytest.raises(ValueError):
        encode(CodeParams(8, 8), bt8, [1, 2, 3])
    # a symbol too large for int64 is out of the field like any other
    with pytest.raises(ValueError):
        encode(CodeParams(8, 2), bt8, [2**70, 1])


def test_decode_without_erasures_is_a_copy(bt8, ft8):
    rng = random.Random(62)
    cp = CodeParams(8, 32)
    msg = [rng.randrange(256) for _ in range(32)]
    cw = encode(cp, bt8, msg)
    out = decode(cp, bt8, ft8, cw.symbols, ErasurePattern.of(256, ()))
    assert out == msg


def test_all_parity_erased(bt8, ft8):
    rng = random.Random(63)
    cp = CodeParams(8, 128)
    msg = [rng.randrange(256) for _ in range(128)]
    cw = encode(cp, bt8, msg)
    erased = set(range(128, 256))
    out = decode(cp, bt8, ft8, _corrupt(cw.symbols, erased), ErasurePattern.of(256, erased))
    assert out == msg


def test_all_data_erased(bt8, ft8):
    rng = random.Random(64)
    cp = CodeParams(8, 128)
    msg = [rng.randrange(256) for _ in range(128)]
    cw = encode(cp, bt8, msg)
    erased = set(range(128))
    out = decode(cp, bt8, ft8, _corrupt(cw.symbols, erased, filler=7),
                 ErasurePattern.of(256, erased))
    assert out == msg


def test_random_full_weight_patterns(bt8, ft8):
    rng = random.Random(65)
    cp = CodeParams(8, 128)
    for _ in range(40):
        msg = [rng.randrange(256) for _ in range(128)]
        cw = encode(cp, bt8, msg)
        erased = set(rng.sample(range(256), 128))
        out = decode(cp, bt8, ft8, _corrupt(cw.symbols, erased),
                     ErasurePattern.of(256, erased))
        assert out == msg


def test_fewer_erasures_than_capacity(bt8, ft8):
    rng = random.Random(66)
    cp = CodeParams(8, 128)
    msg = [rng.randrange(256) for _ in range(128)]
    cw = encode(cp, bt8, msg)
    for size in (1, 5, 127):
        erased = set(rng.sample(range(256), size))
        out = decode(cp, bt8, ft8, _corrupt(cw.symbols, erased),
                     ErasurePattern.of(256, erased))
        assert out == msg


def test_every_erasure_count_up_to_capacity(bt8, ft8):
    rng = random.Random(67)
    cp = CodeParams(8, 64)
    msg = [rng.randrange(256) for _ in range(64)]
    cw = encode(cp, bt8, msg)
    for size in range(1, 193, 12):
        erased = set(rng.sample(range(256), size))
        out = decode(cp, bt8, ft8, _corrupt(cw.symbols, erased),
                     ErasurePattern.of(256, erased))
        assert out == msg


def test_too_many_erasures_raises(bt8, ft8):
    cp = CodeParams(8, 128)
    cw = encode(cp, bt8, [0] * 128)
    erased = set(range(129))
    with pytest.raises(TooManyErasuresError):
        decode(cp, bt8, ft8, cw.symbols, ErasurePattern.of(256, erased))


def test_mds_sweep_all_rates(bt8, ft8):
    # every k, 500 random full-weight patterns plus the structured ones
    rng = random.Random(660)
    interleaved = list(range(0, 256, 2)) + list(range(1, 256, 2))
    for k in (2, 4, 8, 16, 32, 64, 128):
        cp = CodeParams(8, k)
        capacity = 256 - k
        msg = [rng.randrange(256) for _ in range(k)]
        cw = encode(cp, bt8, msg)
        patterns = [set(rng.sample(range(256), capacity)) for _ in range(500)]
        patterns.append(set(range(k, 256)))          # all parity
        patterns.append(set(range(capacity)))        # leading prefix
        patterns.append(set(interleaved[:capacity])) # interleaved
        for erased in patterns:
            out = decode(cp, bt8, ft8, _corrupt(cw.symbols, erased),
                         ErasurePattern.of(256, erased))
            assert out == msg


def test_message_coefficients_stay_below_degree_k(bt8):
    rng = random.Random(661)
    for k in (4, 32, 128):
        cp = CodeParams(8, k)
        msg = [rng.randrange(256) for _ in range(k)]
        coeffs = inverse(bt8, EvalVec(msg, 0))
        d = degree(coeffs)
        assert d is None or d <= k - 1


def test_encode_multiplication_bound(bt8):
    rng = random.Random(662)
    for k in (4, 32, 128):
        cp = CodeParams(8, k)
        lg = k.bit_length() - 1
        ops = OpCounter()
        encode(cp, bt8, [rng.randrange(256) for _ in range(k)], ops)
        assert ops.muls <= (cp.n // k) * (k // 2) * lg


def test_interleaved_pattern_and_small_k(bt8, ft8):
    rng = random.Random(68)
    interleaved = list(range(0, 256, 2)) + list(range(1, 256, 2))
    for k in (2, 16, 64):
        cp = CodeParams(8, k)
        msg = [rng.randrange(256) for _ in range(k)]
        cw = encode(cp, bt8, msg)
        patterns = [set(interleaved[:256 - k])]
        patterns.append(set(rng.sample(range(256), 256 - k)))
        for erased in patterns:
            out = decode(cp, bt8, ft8, _corrupt(cw.symbols, erased),
                         ErasurePattern.of(256, erased))
            assert out == msg


def test_erased_symbol_values_are_ignored(bt8, ft8):
    rng = random.Random(69)
    cp = CodeParams(8, 32)
    msg = [rng.randrange(256) for _ in range(32)]
    cw = encode(cp, bt8, msg)
    erased = set(rng.sample(range(256), 200))
    noisy = [rng.randrange(256) if j in erased else s
             for j, s in enumerate(cw.symbols)]
    out = decode(cp, bt8, ft8, noisy, ErasurePattern.of(256, erased))
    assert out == msg


def test_shortened_message_round_trip(bt8, ft8):
    rng = random.Random(70)
    cp = CodeParams(8, 16)
    short = [rng.randrange(256) for _ in range(11)]
    cw = encode(cp, bt8, short + [0] * 5)  # zero-padded to k
    erased = set(rng.sample(range(256), 240))
    out = decode(cp, bt8, ft8, _corrupt(cw.symbols, erased),
                 ErasurePattern.of(256, erased))
    assert out[:11] == short


def test_pattern_validation():
    with pytest.raises(ValueError):
        ErasurePattern.of(256, [300])
    pat = ErasurePattern.of(256, [0, 255])
    assert len(pat.known) == 254


def test_mismatched_tables_rejected(bt8):
    cp = CodeParams(16, 4)
    with pytest.raises(ValueError):
        encode(cp, bt8, [0, 0, 0, 0])


def test_r16_round_trip(bt16, ft16):
    rng = random.Random(71)
    cp = CodeParams(16, 64)
    msg = [rng.randrange(1 << 16) for _ in range(64)]
    cw = encode(cp, bt16, msg)
    assert cw.symbols[:64] == msg
    erased = set(rng.sample(range(1 << 16), 5000))
    out = decode(cp, bt16, ft16, _corrupt(cw.symbols, erased),
                 ErasurePattern.of(1 << 16, erased))
    assert out == msg


@given(
    k_lg=st.integers(0, 5),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=40, deadline=None)
def test_round_trip_property(k_lg, seed):
    rng = random.Random(seed)
    k = 1 << k_lg
    cp = CodeParams(8, k)
    msg = [rng.randrange(256) for _ in range(k)]
    cw = encode(cp, _BT8, msg)
    size = rng.randrange(0, 256 - k + 1)
    erased = set(rng.sample(range(256), size))
    out = decode(cp, _BT8, _FT8, _corrupt(cw.symbols, erased),
                 ErasurePattern.of(256, erased))
    assert out == msg
