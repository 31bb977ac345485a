import random

import numpy as np
import pytest

from binfec.basis import build_basis_tables

from oracles import w_direct, w_monomial, x_direct, x_monomial


def test_eval_w_level0_is_identity(bt8):
    for x in range(256):
        assert bt8.eval_w(0, x) == x


def test_w_roots_are_exactly_the_leading_subspace(bt8):
    for i in range(8):
        for j in range(256):
            val = bt8.eval_w(i, j)
            if j < (1 << i):
                assert val == 0
            else:
                assert val != 0


def test_eval_w_matches_direct_product_exhaustive(bt8, ft8):
    # explicit 2^i-term root products, all points, levels up to 4
    for i in range(5):
        for x in range(256):
            assert bt8.eval_w(i, x) == w_direct(ft8, i, x)


def test_eval_w_frozen_value(bt8, ft8):
    # direct product (5+0)(5+1)(5+2)(5+3) under poly 0x11D
    assert w_direct(ft8, 2, 5) == 117
    assert bt8.eval_w(2, 5) == 117


def test_eval_w_linearity(bt8):
    rng = random.Random(21)
    for i in range(8):
        for _ in range(200):
            x, y = rng.randrange(256), rng.randrange(256)
            assert bt8.eval_w(i, x ^ y) == bt8.eval_w(i, x) ^ bt8.eval_w(i, y)


def test_w_hat_decomposes_over_index_xor(bt8):
    rng = random.Random(22)
    for i in range(8):
        for _ in range(100):
            c, l = rng.randrange(256), rng.randrange(256)
            assert bt8.eval_w_hat(i, c ^ l) == (
                bt8.eval_w_hat(i, c) ^ bt8.eval_w_hat(i, l))


def test_norms_nonzero_and_level0_norm_is_one(bt8):
    assert bt8.w_norm[0] == 1
    assert all(v != 0 for v in bt8.w_norm)


def test_eval_x_trivial_cases(bt8):
    for x in (0, 1, 7, 200):
        assert bt8.eval_x_naive(0, x) == 1
    assert bt8.eval_x_naive(1, 1) == 1


def test_eval_x_matches_direct_products(bt8):
    rng = random.Random(23)
    for _ in range(300):
        i, x = rng.randrange(256), rng.randrange(256)
        assert bt8.eval_x_naive(i, x) == x_direct(bt8, i, x)


def test_eval_x_index5_is_w0_w2_product(bt8, ft8):
    # bits of 5 select levels 0 and 2
    for x in (9, 42, 255):
        want = ft8.div(
            ft8.mul(w_direct(ft8, 0, x), w_direct(ft8, 2, x)),
            ft8.mul(bt8.w_norm[0], bt8.w_norm[2]))
        assert bt8.eval_x_naive(5, x) == want


def test_x_monomial_degree_is_exactly_i(bt8):
    for i in range(16):
        mono = x_monomial(bt8, i)
        degree = max(j for j, c in enumerate(mono) if c)
        assert degree == i
        assert all(c == 0 for c in mono[i + 1:])


def test_eval_poly_naive_basics(bt8):
    rng = random.Random(24)
    assert all(bt8.eval_poly_naive([0] * 8, x) == 0 for x in range(0, 256, 17))
    d0 = rng.randrange(1, 256)
    assert all(bt8.eval_poly_naive([d0], x) == d0 for x in range(0, 256, 17))


def test_eval_poly_naive_agrees_with_nested_factorization(bt8, ft8):
    # the eight-term sum regrouped by shared factors, evaluated bottom-up
    rng = random.Random(25)
    for _ in range(50):
        d = [rng.randrange(256) for _ in range(8)]
        x = rng.randrange(256)
        w0, w1, w2 = (bt8.eval_w_hat(i, x) for i in range(3))
        even = ft8.mul(w1, d[2] ^ ft8.mul(d[6], w2)) ^ d[0] ^ ft8.mul(d[4], w2)
        odd = ft8.mul(w1, d[3] ^ ft8.mul(d[7], w2)) ^ d[1] ^ ft8.mul(d[5], w2)
        assert bt8.eval_poly_naive(d, x) == even ^ ft8.mul(w0, odd)


def test_factor_storage_is_h_minus_one_entries(ft8):
    for max_h in (2, 8, 64, 256):
        bt = build_basis_tables(ft8, max_h)
        assert sum(len(level) for level in bt.w_hat) == max_h - 1


def test_w_norm_recurrence_consistent_with_products(bt8, ft8):
    for i in range(6):
        assert bt8.w_norm[i] == w_direct(ft8, i, 1 << i)


def test_b_prod_matches_per_index_products(bt8, ft8):
    for i in range(256):
        want = 1
        for j in range(8):
            if i >> j & 1:
                want = ft8.mul(want, bt8.w_prime[j])
        assert bt8.b_prod[i] == want
        if want:
            assert ft8.mul(bt8.b_prod[i], bt8.b_prod_inv[i]) == 1
    assert bt8.b_prod[0] == 1


def test_w_monomial_is_linearized(ft8):
    # only exponents that are powers of two carry nonzero coefficients
    for j in range(4):
        mono = w_monomial(ft8, j)
        for e, c in enumerate(mono):
            if c:
                assert e != 0 and (e & (e - 1)) == 0


@pytest.mark.parametrize("r", (8, 16))
def test_table_arrays_are_read_only(request, r):
    # the tables are shared: one write would corrupt every later transform
    ft, bt = request.getfixturevalue(f"ft{r}"), request.getfixturevalue(f"bt{r}")
    assert (ft.arrays.product is None) == (ft.arrays.product_rows is None) == (r == 16)
    arrays = [a for a in ft.arrays if isinstance(a, np.ndarray)]
    assert len(arrays) == (4 if r == 8 else 3)
    for a in arrays + bt.w_hat + [bt.b_prod, bt.b_prod_inv]:
        with pytest.raises(ValueError):
            a[0] = 1
    if r == 8:  # the product rows are a tuple of read-only views
        with pytest.raises(TypeError):
            ft.arrays.product_rows[0] = bytes(256)
        with pytest.raises(TypeError):
            ft.arrays.product_rows[0][0] = 1


def test_build_rejects_bad_max_h(ft8):
    with pytest.raises(ValueError):
        build_basis_tables(ft8, 3)
    with pytest.raises(ValueError):
        build_basis_tables(ft8, 512)


def test_r16_tables_sane(bt16, ft16):
    rng = random.Random(26)
    assert sum(len(level) for level in bt16.w_hat) == (1 << 16) - 1
    for i in (0, 3, 9, 15):
        for _ in range(40):
            x, y = rng.randrange(1 << 16), rng.randrange(1 << 16)
            assert bt16.eval_w(i, x ^ y) == bt16.eval_w(i, x) ^ bt16.eval_w(i, y)
    # spot-check one level against the direct product
    for x in (1 << 5, 12345, 65535):
        assert bt16.eval_w(3, x) == w_direct(ft16, 3, x)


def test_r16_w_hat_matches_evaluation(bt16):
    # every level's first entries, its power-of-two entries and random ones
    rng = random.Random(27)
    for i, row in enumerate(bt16.w_hat):
        assert len(row) == (1 << 16) >> (i + 1)
        picks = set(range(min(len(row), 9)))
        picks |= {1 << t for t in range(len(row).bit_length() - 1)}
        picks |= {rng.randrange(len(row)) for _ in range(20)}
        picks.add(len(row) - 1)
        for b in picks:
            assert row[b] == bt16.eval_w_hat(i, b << (i + 1))


def test_r16_b_prod_spot_checks(bt16, ft16):
    rng = random.Random(28)
    for i in [0, 1, 2, 3, (1 << 16) - 1] + [rng.randrange(1 << 16) for _ in range(200)]:
        want = 1
        for j in range(16):
            if i >> j & 1:
                want = ft16.mul(want, bt16.w_prime[j])
        assert bt16.b_prod[i] == want
        assert ft16.mul(want, bt16.b_prod_inv[i]) == 1
