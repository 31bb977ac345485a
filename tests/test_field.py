import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binfec.field import DEFAULT_POLY, tables_for

from oracles import clmul_inverse, clmul_order, clmul_reduce

POLY8 = DEFAULT_POLY[8]


def test_mul_identity_and_zero(ft8):
    assert ft8.mul(1, 37) == 37
    assert ft8.mul(0, 200) == 0
    assert ft8.mul(200, 0) == 0


def test_mul_frozen_oracle_value(ft8):
    # shift-and-xor oracle gives 2 * 128 = 29 under poly 0x11D
    assert clmul_reduce(2, 128, POLY8, 8) == 29
    assert ft8.mul(2, 128) == 29


def test_mul_matches_clmul_oracle_exhaustive_r8(ft8):
    for a in range(256):
        for b in range(256):
            assert ft8.mul(a, b) == clmul_reduce(a, b, POLY8, 8)


def test_mul_matches_clmul_oracle_sampled_r16(ft16):
    rng = random.Random(11)
    poly = DEFAULT_POLY[16]
    for _ in range(2000):
        a, b = rng.randrange(1 << 16), rng.randrange(1 << 16)
        assert ft16.mul(a, b) == clmul_reduce(a, b, poly, 16)


def test_inv_identity_and_frozen_value(ft8):
    assert ft8.inv(1) == 1
    # exhaustive-search oracle: the inverse of 2 is 142
    assert clmul_inverse(2, POLY8, 8) == 142
    assert ft8.inv(2) == 142


def test_inv_is_involution(ft8):
    rng = random.Random(4)
    for _ in range(200):
        a = rng.randrange(1, 256)
        assert ft8.inv(ft8.inv(a)) == a
        assert ft8.mul(a, ft8.inv(a)) == 1


def test_inv_zero_raises(ft8):
    with pytest.raises(ZeroDivisionError):
        ft8.inv(0)
    with pytest.raises(ZeroDivisionError):
        ft8.div(3, 0)


def test_exp_log_round_trip_exhaustive(ft8, ft16):
    for ft in (ft8, ft16):
        for i in range(1, ft.order):
            assert ft.exp[ft.log[i]] == i
        for j in range(ft.mult_order):
            assert ft.log[ft.exp[j]] == j


def test_build_tables_exp_starts_at_alpha_powers(ft8):
    assert ft8.exp[0] == 1
    assert ft8.exp[1] == 2


def test_build_rejects_non_primitive_poly(monkeypatch):
    # oracle: x has order 51 modulo 0x11B, far short of 255
    assert clmul_order(2, 0x11B, 8) == 51
    monkeypatch.setitem(DEFAULT_POLY, 8, 0x11B)
    with pytest.raises(ValueError, match="not primitive"):
        tables_for(8)


def test_arrays_are_built_once_per_instance():
    ft = tables_for(8)
    arrays = ft.arrays
    assert ft.arrays is arrays
    assert tables_for(8).arrays is not arrays
    assert arrays.exp.tolist() == ft.exp * 2
    assert arrays.log.tolist() == ft.log
    assert all(ft.mul(a, int(arrays.inv[a])) == 1 for a in range(1, 256))
    assert arrays.inv[0] == 0


def test_product_rows_are_built_once_with_the_tables():
    # the 256-byte tables that the r=8 multiply hands to bytearray.translate:
    # read-only views of the one product table that the flat gather reads
    ft = tables_for(8)
    rows = ft.arrays.product_rows
    assert ft.arrays.product_rows is rows
    assert tables_for(8).arrays.product_rows is not rows
    assert isinstance(rows, tuple) and len(rows) == 256
    product = ft.arrays.product.reshape(256, 256)
    for f, row in enumerate(rows):
        assert len(row) == row.nbytes == 256 and row.readonly, f
        assert row.obj is ft.arrays.product.base, f
        assert row == product[f].tobytes(), f
    assert list(rows[0x53]) == [clmul_reduce(0x53, b, POLY8, 8) for b in range(256)]
    assert tables_for(16).arrays.product_rows is None


def test_params_validation():
    with pytest.raises(ValueError):
        tables_for(12)


def test_field_axioms_random_triples(ft8):
    rng = random.Random(99)
    for _ in range(10_000):
        a, b, c = (rng.randrange(256) for _ in range(3))
        assert ft8.mul(a, b) == ft8.mul(b, a)
        assert ft8.mul(ft8.mul(a, b), c) == ft8.mul(a, ft8.mul(b, c))
        assert ft8.mul(a, b ^ c) == ft8.mul(a, b) ^ ft8.mul(a, c)


_FT8 = tables_for(8)


@given(a=st.integers(0, 255), b=st.integers(0, 255))
@settings(max_examples=300, deadline=None)
def test_mul_property_vs_oracle(a, b):
    assert _FT8.mul(a, b) == clmul_reduce(a, b, POLY8, 8)


@given(a=st.integers(0, 255), b=st.integers(0, 255))
@settings(max_examples=200, deadline=None)
def test_element_sum_is_index_xor(a, b):
    # the element indexed a plus the element indexed b is indexed a ^ b:
    # times any c, the table product of a ^ b is the oracle's sum
    for c in (1, 2, 0x8E, 255):
        assert _FT8.mul(a ^ b, c) == clmul_reduce(a, c, POLY8, 8) ^ clmul_reduce(b, c, POLY8, 8)
