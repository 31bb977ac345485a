import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binfec import transform
from binfec.basis import build_basis_tables
from binfec.batch import BatchCodec, CodeParams
from binfec.derivative import derivative_rows
from binfec.field import DEFAULT_POLY, SYMBOL_DTYPE, tables_for
from binfec.transform import (
    OpCounter,
    degree,
    forward,
    forward_rows,
    inverse,
    inverse_rows,
    mul_rows,
    poly_mul,
)
from oracles import clmul_reduce

_FT8 = tables_for(8)
_BT8 = build_basis_tables(_FT8, 256)


def test_zero_vector_transforms_to_zero(bt8):
    for h in (1, 4, 32):
        for l in (0, 7, 200):
            assert forward(bt8, [0] * h, l) == [0] * h


def test_h1_is_identity(bt8):
    for l in (0, 1, 255):
        ev = forward(bt8, [123], l)
        assert ev == [123]
        assert inverse(bt8, ev, l) == [123]


def test_forward_matches_naive_oracle(bt8):
    rng = random.Random(31)
    for h in (1, 2, 4, 8, 16, 32, 64):
        for _ in range(10):
            d = [rng.randrange(256) for _ in range(h)]
            l = rng.choice([0, 8, rng.randrange(256)])
            ev = forward(bt8, d, l)
            for c in range(h):
                assert ev[c] == bt8.eval_poly_naive(d, c ^ l)


def test_round_trip_both_directions(bt8):
    rng = random.Random(32)
    for _ in range(200):
        h = 1 << rng.randrange(0, 9)
        l = rng.randrange(256)
        d = [rng.randrange(256) for _ in range(h)]
        assert inverse(bt8, forward(bt8, d, l), l) == d
        ev = [rng.randrange(256) for _ in range(h)]
        back = forward(bt8, inverse(bt8, ev, l), l)
        assert back == ev


def test_inverse_of_zero_evaluations_is_zero(bt8):
    assert inverse(bt8, [0] * 16, 5) == [0] * 16


def test_inverse_reproduces_evaluations_under_oracle(bt8):
    # coefficients recovered from arbitrary h=8 values re-evaluate to them
    rng = random.Random(33)
    vals = [rng.randrange(256) for _ in range(8)]
    coeffs = inverse(bt8, vals, 0)
    for c in range(8):
        assert bt8.eval_poly_naive(coeffs, c) == vals[c]


def test_linearity_in_coefficients(bt8):
    rng = random.Random(34)
    for _ in range(50):
        h = 1 << rng.randrange(0, 7)
        l = rng.randrange(256)
        a = [rng.randrange(256) for _ in range(h)]
        b = [rng.randrange(256) for _ in range(h)]
        fa = forward(bt8, a, l)
        fb = forward(bt8, b, l)
        fab = forward(bt8, [x ^ y for x, y in zip(a, b)], l)
        assert fab == [x ^ y for x, y in zip(fa, fb)]


def test_block_shifts_agree_with_full_length_transform(bt8):
    # a size-h transform shifted by a multiple of h reads out one block
    # of the full-field unshifted transform of the zero-extended vector
    rng = random.Random(35)
    for h in (2, 8, 32, 64):
        d = [rng.randrange(256) for _ in range(h)]
        full = forward(bt8, d + [0] * (256 - h), 0)
        for l in range(0, 256, h):
            block = forward(bt8, d, l)
            for c in range(h):
                assert block[c] == full[c ^ l]


def test_operation_counts_match_closed_forms(bt8):
    rng = random.Random(36)
    for lg in range(1, 9):
        h = 1 << lg
        d = [rng.randrange(256) for _ in range(h)]
        shift = h if h < 256 else 255  # outside the point set either way
        ops, ops0 = OpCounter(), OpCounter()
        forward(bt8, d, shift, ops)
        assert (ops.adds, ops.muls) == (h * lg, h // 2 * lg)
        forward(bt8, d, 0, ops0)
        assert (ops0.adds, ops0.muls) == (h * lg - h + 1, h // 2 * lg - h + 1)


def test_operation_count_spot_values(bt8):
    d = list(range(1, 9))
    ops, ops0, ops1 = OpCounter(), OpCounter(), OpCounter()
    forward(bt8, d, 8, ops)
    assert (ops.adds, ops.muls) == (24, 12)
    forward(bt8, d, 0, ops0)
    assert (ops0.adds, ops0.muls) == (17, 5)
    forward(bt8, [42], 3, ops1)
    assert (ops1.adds, ops1.muls) == (0, 0)


def test_inverse_counts_match_forward(bt8):
    rng = random.Random(37)
    for lg in (1, 3, 6):
        h = 1 << lg
        d = [rng.randrange(256) for _ in range(h)]
        fops, iops = OpCounter(), OpCounter()
        inverse(bt8, forward(bt8, d, h, fops), h, iops)
        assert (iops.adds, iops.muls) == (fops.adds, fops.muls)


@pytest.mark.parametrize("r", (8, 16))
def test_counted_multiplications_are_the_kernels_work(mul_rows_work, bt8, bt16, r):
    # the kernels skip block 0's multiply at shift 0 instead of
    # multiplying it by W_i(0) = 0, so the closed forms are the work
    bt = bt8 if r == 8 else bt16
    work = mul_rows_work(transform)
    rng = np.random.default_rng(38)
    sizes = range(1, 9) if r == 8 else (1, 5, 9, 12)
    for lg in sizes:
        h = 1 << lg
        # shift h lies outside the point set [0, h); at h = 2^r none does
        drops = {0: h - 1} | ({h: 0} if h < bt.ft.order else {})
        for shift, drop in drops.items():
            for kernel in (forward_rows, inverse_rows):
                a = rng.integers(0, bt.ft.order, (h, 3)).astype(SYMBOL_DTYPE[r])
                work.clear()
                ops = OpCounter()
                kernel(bt, a, shift, ops)
                assert ops.muls == sum(work) == (h // 2 * lg - drop) * 3, (h, shift)
                assert ops.adds == (h * lg - drop) * 3


def _oracle_mul_rows(r, v, factors):
    # each row through its factor's bit-by-bit product row
    out = np.empty_like(v)
    for b, f in enumerate(factors.tolist()):
        table = np.array([clmul_reduce(f, x, DEFAULT_POLY[r], r) for x in range(1 << r)],
                         dtype=SYMBOL_DTYPE[r])
        out[b] = table[v[b]]
    return out


def _r8_cases(rng):
    """(name, rows view) pairs: narrow and wide rows, piece edges, awkward layouts."""
    def rows(width, n=3):
        return rng.integers(0, 256, (n, width), dtype=np.uint8)
    cases = [(f"width {w}", rows(w)) for w in (
        0, 1, 257, 2_047, 2_048, 2_049,
        65_534, 65_535, 65_536, 65_537, 131_074, 131_077)]
    cases.append(("several translated pieces a row, ragged tail", rows(3 * 65_536 + 1_001)))
    cases.append(("several translated groups of rows, ragged last group", rows(2_049, n=70)))
    cases.append(("one symbol a row, as in a one-column call", rows(1, n=1_000)))
    cases.append(("groups of 32 rows, a last group of one row", rows(2_047, n=33)))
    cases.append(("no rows", rows(65_536, n=0)))
    cases.append(("zero symbols", np.zeros((3, 65_537), dtype=np.uint8)))
    wide = rows(131_074)
    cases.append(("strided rows", wide[:, ::2]))
    cases.append(("rows at odd byte offsets", wide[:, 1:65_537]))
    flat = rng.integers(0, 256, 3 * 65_536 + 1, dtype=np.uint8)
    cases.append(("contiguous rows at odd byte offsets", flat[1:].reshape(3, 65_536)))
    return cases


def test_mul_rows_r8_matches_the_oracle(ft8):
    # factors 0, 1 and then random ones, into a new array and added into rows
    rng = np.random.default_rng(13)
    for name, v in _r8_cases(rng):
        before = v.copy()
        factors = rng.integers(2, 256, len(v), dtype=np.uint8)
        factors[:2] = [0, 1][:len(v)]
        want = _oracle_mul_rows(8, v, factors)
        got = mul_rows(ft8, v, factors)
        assert got.shape == v.shape and got.dtype == np.uint8, name
        assert (got == want).all(), name
        # rows laid out as a butterfly level's u half: every other row
        pairs = rng.integers(0, 256, (len(v), 2, v.shape[1]), dtype=np.uint8)
        expected = pairs ^ np.stack([want, np.zeros_like(want)], axis=1)
        u = pairs[:, 0]
        assert mul_rows(ft8, v, factors, add_to=u) is u, name
        assert (pairs == expected).all(), name
        assert (v == before).all(), name


def test_mul_rows_r16_matches_the_oracle(ft16):
    rng = np.random.default_rng(16)
    v = rng.integers(0, 1 << 16, (4, 300), dtype=np.uint16)
    v[:, :3] = [0, 1, 0xFFFF]
    factors = np.array([0, 1, 2, 0xA5C3], dtype=np.uint16)
    want = _oracle_mul_rows(16, v, factors)
    assert (mul_rows(ft16, v, factors) == want).all()
    acc = rng.integers(0, 1 << 16, v.shape, dtype=np.uint16)
    expected = acc ^ want
    assert mul_rows(ft16, v, factors, add_to=acc) is acc
    assert (acc == expected).all()
    # several rows a piece, a ragged last group, and several pieces a
    # row with a ragged tail, against the scalar field's product
    for shape in ((70, 2_049), (2, 2 * 65_536 + 7)):
        v = rng.integers(0, 1 << 16, shape, dtype=np.uint16)
        factors = rng.integers(0, 1 << 16, shape[0], dtype=np.uint16)
        factors[0] = 0
        want = [[ft16.mul(f, x) for x in row] for f, row in zip(factors.tolist(), v.tolist())]
        assert mul_rows(ft16, v, factors).tolist() == want, shape


@pytest.mark.parametrize("r", (8, 16))
def test_mul_rows_in_place_equals_the_copying_result(ft8, ft16, r):
    # out=v scales v's rows in place, a piece at a time: each piece is
    # read before it is written, at factors 0, 1 and random ones, in one
    # piece, several rows a piece, and several pieces a row
    ft = ft8 if r == 8 else ft16
    rng = np.random.default_rng(17 + r)
    for rows, width in ((3, 5), (70, 2_049), (3, 3 * 65_536 + 1_001)):
        v = rng.integers(0, 1 << r, (rows, width)).astype(SYMBOL_DTYPE[r])
        v[:, :2] = 0  # zero symbols too
        factors = rng.integers(2, 1 << r, rows).astype(SYMBOL_DTYPE[r])
        factors[:2] = [0, 1]
        want = mul_rows(ft, v, factors)
        assert mul_rows(ft, v, factors, out=v) is v
        assert (v == want).all(), (rows, width)


@pytest.mark.parametrize("width", (1, 2_047, 2_048))
def test_row_kernels_take_only_the_symbol_dtype(bt8, width):
    # translate reads a row's bytes, so uint16 rows at r=8 would be read
    # two bytes a symbol: the kernels, and the codec's encode, refuse
    # them at every width, before writing anything
    rng = np.random.default_rng(width)
    a = rng.integers(0, 256, (16, width), dtype=np.uint16)
    before = a.copy()
    acc = rng.integers(0, 256, (16, width), dtype=np.uint8)
    acc_before = acc.copy()
    factors = rng.integers(1, 256, 16, dtype=np.uint8)
    with pytest.raises(ValueError, match="got dtype uint16"):
        mul_rows(bt8.ft, a, factors)
    with pytest.raises(ValueError, match="got dtype uint16"):
        mul_rows(bt8.ft, a, factors, add_to=acc)
    for kernel in (forward_rows, inverse_rows, derivative_rows):
        with pytest.raises(ValueError, match="got dtype uint16"):
            kernel(bt8, a)
        # a 1-point transform has no level, and is refused all the same
        with pytest.raises(ValueError, match="got dtype uint16"):
            kernel(bt8, a[:1].copy())
    codec = BatchCodec(CodeParams(8, 16), bt8)
    with pytest.raises(ValueError, match="got dtype uint16"):
        codec.encode(a)
    with pytest.raises(ValueError, match="got dtype uint16"):
        next(codec.encode_blocks(a))
    assert (a == before).all() and (acc == acc_before).all()


def test_mul_rows_r8_builds_no_table_and_holds_one_piece_at_a_time(ft8):
    # Its output plus about 1 MiB: room for one translated piece and its
    # copies, not for a table built per factor or a whole row's copies.
    rng = np.random.default_rng(8)
    v = rng.integers(0, 256, (8, 262_144), dtype=np.uint8)
    factors = rng.choice(np.arange(1, 256, dtype=np.uint8), 8, replace=False)
    tracemalloc.start()
    try:
        out = mul_rows(ft8, v, factors)
        peak = tracemalloc.get_traced_memory()[1]
        del out
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert v.nbytes <= peak <= v.nbytes + (1 << 20)
    assert kept < 1 << 16  # no table outlives the call


def test_degree(bt8):
    assert degree([0, 0, 0, 0]) is None
    assert degree([7, 0, 0, 0]) == 0
    assert degree([0, 0, 0, 0, 0, 9, 0, 0]) == 5


def test_poly_mul_zero_and_unit(bt8):
    z = poly_mul(bt8, [3, 7], [0, 0])
    assert z == [0, 0, 0, 0]
    one = poly_mul(bt8, [1], [1])
    assert one == [1, 0]


def test_poly_mul_evaluation_consistency(bt8, ft8):
    rng = random.Random(38)
    for _ in range(20):
        a = [rng.randrange(256) for _ in range(8)]
        b = [rng.randrange(256) for _ in range(8)]
        prod = poly_mul(bt8, a, b)
        for x in (rng.randrange(256) for _ in range(16)):
            want = ft8.mul(bt8.eval_poly_naive(a, x), bt8.eval_poly_naive(b, x))
            assert bt8.eval_poly_naive(prod, x) == want


def test_poly_mul_degree_additivity(bt8):
    rng = random.Random(39)
    for _ in range(30):
        a = [rng.randrange(256) for _ in range(8)]
        b = [rng.randrange(256) for _ in range(8)]
        da, db = degree(a), degree(b)
        if da is None or db is None:
            continue
        assert degree(poly_mul(bt8, a, b)) == da + db


def test_size_and_shift_validation(bt8):
    with pytest.raises(ValueError):
        forward(bt8, [1, 2, 3], 0)  # not a power of two
    with pytest.raises(ValueError):
        forward(bt8, [0] * 512, 0)  # beyond table capacity
    with pytest.raises(ValueError):
        forward(bt8, [1, 2], 256)  # shift outside the field
    with pytest.raises(ValueError):
        poly_mul(bt8, [1, 2], [1, 2, 3, 4])
    with pytest.raises(ValueError):
        poly_mul(bt8, [0] * 256, [0] * 256)


def test_symbols_outside_the_field_are_rejected(bt8):
    # numpy scalars included: a cast to uint8 would wrap 300 to 44
    with pytest.raises(ValueError):
        forward(bt8, [1, 256], 0)
    with pytest.raises(ValueError):
        inverse(bt8, [np.uint16(300), 0], 0)
    with pytest.raises(ValueError):
        forward(bt8, [-1, 0], 3)
    # values that are not integers, which a cast would truncate
    with pytest.raises(ValueError):
        forward(bt8, [1.5, 2], 0)
    with pytest.raises(ValueError):
        inverse(bt8, [2**70, 1], 0)


def test_row_kernels_reject_arrays_they_cannot_transform_in_place(bt8):
    # a reshape of a non-C-contiguous array is a copy, which would take
    # the transform and leave the caller's array as it was; the
    # derivative, which scales rows in place, takes the same arrays
    a = np.arange(64, dtype=np.uint8).reshape(4, 16).T
    for kernel in (forward_rows, inverse_rows, derivative_rows):
        with pytest.raises(ValueError, match="C-contiguous"):
            kernel(bt8, a)
        with pytest.raises(ValueError, match="C-contiguous"):
            kernel(bt8, np.asfortranarray(a))
    assert (a == np.arange(64).reshape(4, 16).T).all()
    b = np.ascontiguousarray(a)
    forward_rows(bt8, b, 0)
    assert [b[:, s].tolist() for s in range(4)] == [
        forward(bt8, a[:, s].tolist(), 0) for s in range(4)]


@given(
    lg=st.integers(0, 6),
    shift=st.integers(0, 255),
    data=st.data(),
)
@settings(max_examples=150, deadline=None)
def test_round_trip_property(lg, shift, data):
    h = 1 << lg
    d = data.draw(st.lists(st.integers(0, 255), min_size=h, max_size=h))
    assert inverse(_BT8, forward(_BT8, d, shift), shift) == d


@given(lg=st.integers(0, 5), shift=st.integers(0, 255), data=st.data())
@settings(max_examples=80, deadline=None)
def test_forward_matches_oracle_property(lg, shift, data):
    h = 1 << lg
    d = data.draw(st.lists(st.integers(0, 255), min_size=h, max_size=h))
    ev = forward(_BT8, d, shift)
    c = data.draw(st.integers(0, h - 1))
    assert ev[c] == _BT8.eval_poly_naive(d, c ^ shift)
