import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binfec.basis import build_basis_tables
from binfec.field import tables_for
from binfec.transform import (
    CoeffVec,
    EvalVec,
    degree,
    forward,
    forward_counted,
    forward_rows,
    inverse,
    inverse_counted,
    inverse_rows,
    poly_mul,
)

_FT8 = tables_for(8)
_BT8 = build_basis_tables(_FT8, 256)


def test_zero_vector_transforms_to_zero(bt8):
    for h in (1, 4, 32):
        for l in (0, 7, 200):
            assert forward(bt8, CoeffVec([0] * h), l).data == [0] * h


def test_h1_is_identity(bt8):
    for l in (0, 1, 255):
        ev = forward(bt8, CoeffVec([123]), l)
        assert ev.data == [123]
        assert inverse(bt8, ev).data == [123]


def test_forward_matches_naive_oracle(bt8):
    rng = random.Random(31)
    for h in (1, 2, 4, 8, 16, 32, 64):
        for _ in range(10):
            d = [rng.randrange(256) for _ in range(h)]
            l = rng.choice([0, 8, rng.randrange(256)])
            ev = forward(bt8, CoeffVec(d), l)
            for c in range(h):
                assert ev.data[c] == bt8.eval_poly_naive(d, c ^ l)


def test_round_trip_both_directions(bt8):
    rng = random.Random(32)
    for _ in range(200):
        h = 1 << rng.randrange(0, 9)
        l = rng.randrange(256)
        d = [rng.randrange(256) for _ in range(h)]
        assert inverse(bt8, forward(bt8, CoeffVec(d), l)).data == d
        ev = EvalVec([rng.randrange(256) for _ in range(h)], l)
        back = forward(bt8, inverse(bt8, ev), l)
        assert back.data == ev.data


def test_inverse_of_zero_evaluations_is_zero(bt8):
    assert inverse(bt8, EvalVec([0] * 16, 5)).data == [0] * 16


def test_inverse_reproduces_evaluations_under_oracle(bt8):
    # coefficients recovered from arbitrary h=8 values re-evaluate to them
    rng = random.Random(33)
    vals = [rng.randrange(256) for _ in range(8)]
    coeffs = inverse(bt8, EvalVec(vals, 0))
    for c in range(8):
        assert bt8.eval_poly_naive(coeffs.data, c) == vals[c]


def test_linearity_in_coefficients(bt8):
    rng = random.Random(34)
    for _ in range(50):
        h = 1 << rng.randrange(0, 7)
        l = rng.randrange(256)
        a = [rng.randrange(256) for _ in range(h)]
        b = [rng.randrange(256) for _ in range(h)]
        fa = forward(bt8, CoeffVec(a), l).data
        fb = forward(bt8, CoeffVec(b), l).data
        fab = forward(bt8, CoeffVec([x ^ y for x, y in zip(a, b)]), l).data
        assert fab == [x ^ y for x, y in zip(fa, fb)]


def test_block_shifts_agree_with_full_length_transform(bt8):
    # a size-h transform shifted by a multiple of h reads out one block
    # of the full-field unshifted transform of the zero-extended vector
    rng = random.Random(35)
    for h in (2, 8, 32, 64):
        d = [rng.randrange(256) for _ in range(h)]
        full = forward(bt8, CoeffVec(d + [0] * (256 - h)), 0).data
        for l in range(0, 256, h):
            block = forward(bt8, CoeffVec(d), l).data
            for c in range(h):
                assert block[c] == full[c ^ l]


def test_operation_counts_match_closed_forms(bt8):
    rng = random.Random(36)
    for lg in range(1, 9):
        h = 1 << lg
        d = CoeffVec([rng.randrange(256) for _ in range(h)])
        shift = h if h < 256 else 255  # outside the point set either way
        _, ops = forward_counted(bt8, d, shift)
        assert (ops.adds, ops.muls) == (h * lg, h // 2 * lg)
        _, ops0 = forward_counted(bt8, d, 0)
        assert (ops0.adds, ops0.muls) == (h * lg - h + 1, h // 2 * lg - h + 1)


def test_operation_count_spot_values(bt8):
    d = CoeffVec(list(range(1, 9)))
    _, ops = forward_counted(bt8, d, 8)
    assert (ops.adds, ops.muls) == (24, 12)
    _, ops0 = forward_counted(bt8, d, 0)
    assert (ops0.adds, ops0.muls) == (17, 5)
    _, ops1 = forward_counted(bt8, CoeffVec([42]), 3)
    assert (ops1.adds, ops1.muls) == (0, 0)


def test_inverse_counts_match_forward(bt8):
    rng = random.Random(37)
    for lg in (1, 3, 6):
        h = 1 << lg
        d = CoeffVec([rng.randrange(256) for _ in range(h)])
        ev, fops = forward_counted(bt8, d, h)
        _, iops = inverse_counted(bt8, ev)
        assert (iops.adds, iops.muls) == (fops.adds, fops.muls)


def test_degree(bt8):
    assert degree(CoeffVec([0, 0, 0, 0])) is None
    assert degree(CoeffVec([7, 0, 0, 0])) == 0
    assert degree(CoeffVec([0, 0, 0, 0, 0, 9, 0, 0])) == 5


def test_poly_mul_zero_and_unit(bt8):
    z = poly_mul(bt8, CoeffVec([3, 7]), CoeffVec([0, 0]))
    assert z.data == [0, 0, 0, 0]
    one = poly_mul(bt8, CoeffVec([1]), CoeffVec([1]))
    assert one.data == [1, 0]


def test_poly_mul_evaluation_consistency(bt8, ft8):
    rng = random.Random(38)
    for _ in range(20):
        a = [rng.randrange(256) for _ in range(8)]
        b = [rng.randrange(256) for _ in range(8)]
        prod = poly_mul(bt8, CoeffVec(a), CoeffVec(b))
        for x in (rng.randrange(256) for _ in range(16)):
            want = ft8.mul(bt8.eval_poly_naive(a, x), bt8.eval_poly_naive(b, x))
            assert bt8.eval_poly_naive(prod.data, x) == want


def test_poly_mul_degree_additivity(bt8):
    rng = random.Random(39)
    for _ in range(30):
        a = [rng.randrange(256) for _ in range(8)]
        b = [rng.randrange(256) for _ in range(8)]
        da, db = degree(CoeffVec(a)), degree(CoeffVec(b))
        if da is None or db is None:
            continue
        assert degree(poly_mul(bt8, CoeffVec(a), CoeffVec(b))) == da + db


def test_size_and_shift_validation(bt8):
    with pytest.raises(ValueError):
        forward(bt8, CoeffVec([1, 2, 3]), 0)  # not a power of two
    with pytest.raises(ValueError):
        forward(bt8, CoeffVec([0] * 512), 0)  # beyond table capacity
    with pytest.raises(ValueError):
        forward(bt8, CoeffVec([1, 2]), 256)  # shift outside the field
    with pytest.raises(ValueError):
        poly_mul(bt8, CoeffVec([1, 2]), CoeffVec([1, 2, 3, 4]))
    with pytest.raises(ValueError):
        poly_mul(bt8, CoeffVec([0] * 256), CoeffVec([0] * 256))


def test_symbols_outside_the_field_are_rejected(bt8):
    # numpy scalars included: a cast to uint8 would wrap 300 to 44
    with pytest.raises(ValueError):
        forward(bt8, CoeffVec([1, 256]), 0)
    with pytest.raises(ValueError):
        inverse(bt8, EvalVec([np.uint16(300), 0], 0))
    with pytest.raises(ValueError):
        forward(bt8, CoeffVec([-1, 0]), 3)


def test_row_kernels_reject_arrays_they_cannot_transform_in_place(bt8):
    # a reshape of a non-C-contiguous array is a copy, which would take
    # the transform and leave the caller's array as it was
    a = np.arange(64, dtype=np.uint8).reshape(4, 16).T
    for kernel in (forward_rows, inverse_rows):
        with pytest.raises(ValueError):
            kernel(bt8, a, 0)
        with pytest.raises(ValueError):
            kernel(bt8, np.asfortranarray(a), 0)
    b = np.ascontiguousarray(a)
    forward_rows(bt8, b, 0)
    assert [b[:, s].tolist() for s in range(4)] == [
        forward(bt8, CoeffVec(a[:, s].tolist()), 0).data for s in range(4)]


@given(
    lg=st.integers(0, 6),
    shift=st.integers(0, 255),
    data=st.data(),
)
@settings(max_examples=150, deadline=None)
def test_round_trip_property(lg, shift, data):
    h = 1 << lg
    d = data.draw(st.lists(st.integers(0, 255), min_size=h, max_size=h))
    assert inverse(_BT8, forward(_BT8, CoeffVec(d), shift)).data == d


@given(lg=st.integers(0, 5), shift=st.integers(0, 255), data=st.data())
@settings(max_examples=80, deadline=None)
def test_forward_matches_oracle_property(lg, shift, data):
    h = 1 << lg
    d = data.draw(st.lists(st.integers(0, 255), min_size=h, max_size=h))
    ev = forward(_BT8, CoeffVec(d), shift)
    c = data.draw(st.integers(0, h - 1))
    assert ev.data[c] == _BT8.eval_poly_naive(d, c ^ shift)
