import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binfec import derivative
from binfec.basis import build_basis_tables
from binfec.derivative import derivative_direct, derivative_fast, derivative_rows
from binfec.field import tables_for
from binfec.transform import CoeffVec, OpCounter

from oracles import basis_to_monomial, mono_derivative, mono_eval, w_direct

_FT8 = tables_for(8)
_BT8 = build_basis_tables(_FT8, 256)


def test_constant_has_zero_derivative(bt8):
    for method in (derivative_direct, derivative_fast):
        assert method(bt8, CoeffVec([9, 0, 0, 0])).data == [0, 0, 0, 0]
        assert method(bt8, CoeffVec([0] * 16)).data == [0] * 16


def test_h2_closed_form(bt8, ft8):
    d1 = 77
    out = derivative_direct(bt8, CoeffVec([0, d1]))
    assert out.data == [ft8.mul(bt8.w_prime[0], d1), 0]


def test_h8_structure(bt8, ft8):
    # first output coefficient gathers the scaled d1, d2, d4 terms and
    # the last coefficient has no source terms at all
    rng = random.Random(41)
    d = [rng.randrange(256) for _ in range(8)]
    dd = [ft8.mul(di, bt8.b_prod[i]) for i, di in enumerate(d)]
    out = derivative_fast(bt8, CoeffVec(d))
    want0 = ft8.mul(dd[1] ^ dd[2] ^ dd[4], bt8.b_prod_inv[0])
    assert out.data[0] == want0
    assert out.data[7] == 0


def test_methods_agree_exactly(bt8):
    rng = random.Random(42)
    for lg in range(1, 9):
        h = 1 << lg
        for _ in range(25):
            d = CoeffVec([rng.randrange(256) for _ in range(h)])
            assert derivative_fast(bt8, d).data == derivative_direct(bt8, d).data


def test_matches_monomial_oracle(bt8, ft8):
    rng = random.Random(43)
    for h in (2, 4, 8, 16, 32, 64):
        for _ in range(5):
            d = [rng.randrange(256) for _ in range(h)]
            got = derivative_fast(bt8, CoeffVec(d)).data
            mono = mono_derivative(basis_to_monomial(bt8, d))
            for x in (rng.randrange(256) for _ in range(16)):
                assert bt8.eval_poly_naive(got, x) == mono_eval(ft8, mono, x)


def test_second_derivative_matches_monomial_oracle(bt8, ft8):
    # differentiate each small basis polynomial twice, both ways
    for i in range(1, 4):
        d = [0] * 4
        d[i] = 1
        once = derivative_direct(bt8, CoeffVec(d))
        twice = derivative_direct(bt8, once)
        mono2 = mono_derivative(mono_derivative(basis_to_monomial(bt8, d)))
        for x in range(0, 256, 7):
            assert bt8.eval_poly_naive(twice.data, x) == mono_eval(ft8, mono2, x)


def test_linearity(bt8):
    rng = random.Random(44)
    for _ in range(50):
        h = 1 << rng.randrange(1, 7)
        a = [rng.randrange(256) for _ in range(h)]
        b = [rng.randrange(256) for _ in range(h)]
        da = derivative_fast(bt8, CoeffVec(a)).data
        db = derivative_fast(bt8, CoeffVec(b)).data
        dab = derivative_fast(bt8, CoeffVec([x ^ y for x, y in zip(a, b)])).data
        assert dab == [x ^ y for x, y in zip(da, db)]


def test_multiplication_budget(bt8):
    rng = random.Random(45)
    for lg in range(1, 9):
        h = 1 << lg
        for _ in range(10):
            d = CoeffVec([rng.randrange(256) for _ in range(h)])
            ops = OpCounter()
            derivative_fast(bt8, d, ops)
            assert ops.muls <= 2 * h


def test_operation_counts_exact(bt8):
    # adds: (h/2) lg h terms in all, less the h - 1 first terms that
    # start an output; muls: h to scale, one per nonzero output
    rng = random.Random(46)
    for lg in range(9):
        h = 1 << lg
        for density in (0.0, 0.1, 1.0):
            d = CoeffVec([rng.randrange(1, 256) if rng.random() < density else 0
                          for _ in range(h)])
            nonzero = sum(1 for v in derivative_direct(bt8, d).data if v)
            ops = OpCounter()
            derivative_fast(bt8, d, ops)
            assert ops.adds == h // 2 * lg - (h - 1)
            assert ops.muls == h + nonzero


def test_fast_method_takes_transform_lengths_only(bt8):
    # unlike derivative_direct, which reads any length
    for bad in ([1, 2, 3], [0] * 512, [1, 256]):
        with pytest.raises(ValueError):
            derivative_fast(bt8, CoeffVec(bad))


def test_rows_match_columns_in_any_layout(bt8):
    rng = np.random.default_rng(47)
    a = rng.integers(0, 256, (5, 32), dtype=np.uint8).T  # (32, 5), not C-contiguous
    before = a.copy()
    got = derivative_rows(bt8, a)
    assert (a == before).all()
    for s in range(5):
        assert got[:, s].tolist() == derivative_direct(bt8, CoeffVec(a[:, s].tolist())).data


@pytest.mark.parametrize("r, sizes", ((8, range(9)), (16, (3, 10, 16))))
def test_first_k_outputs_match_the_direct_formula(bt8, bt16, r, sizes):
    # every k <= h, at h = 2^r too: the first k outputs read rows
    # [0, k) and [2^l, 2^l + k) for lg k <= l < lg h
    bt = bt8 if r == 8 else bt16
    rng = random.Random(48)
    for lg in sizes:
        h = 1 << lg
        d = [rng.randrange(bt.ft.order) for _ in range(h)]
        want = derivative_direct(bt, CoeffVec(d)).data
        a = np.array(d, dtype=np.uint16).reshape(h, 1)
        for lg_k in range(lg + 1):
            k = 1 << lg_k
            assert derivative_rows(bt, a, k=k)[:, 0].tolist() == want[:k], (h, k)


def test_truncated_counts_are_exact_and_are_the_work(mul_rows_work, bt8):
    # T = (k/2) lg k + k (lg h - lg k) terms, each output's first free;
    # k (1 + lg h - lg k) rows scaled; one division per nonzero output
    work = mul_rows_work(derivative)
    rng = np.random.default_rng(49)
    for lg in range(1, 9):
        h = 1 << lg
        a = rng.integers(0, 256, (h, 4), dtype=np.uint8)
        a[:, 3] = 0  # a zero column: its outputs cost no division
        for lg_k in range(lg):
            k = 1 << lg_k
            work.clear()
            ops = OpCounter()
            out = derivative_rows(bt8, a, ops, k)
            terms = k // 2 * lg_k + k * (lg - lg_k)
            assert ops.adds == (terms - k) * 4
            assert ops.muls == k * (1 + lg - lg_k) * 4 + np.count_nonzero(out)
            assert sum(work) == ops.muls + out.size - np.count_nonzero(out)


def test_truncation_takes_power_of_two_lengths_up_to_h(bt8):
    a = np.zeros((8, 2), dtype=np.uint8)
    for bad in (0, 3, 16):
        with pytest.raises(ValueError):
            derivative_rows(bt8, a, k=bad)


def test_w_prime_constants(bt8, ft8):
    assert bt8.w_prime[0] == ft8.inv(bt8.w_norm[0]) == 1
    assert bt8.w_prime[1] == ft8.div(1, bt8.eval_w(1, 2))
    # direct 7-term product oracle for level 3
    num = 1
    for j in range(1, 8):
        num = ft8.mul(num, j)
    assert num == 35 and w_direct(ft8, 3, 8) == 114
    assert bt8.w_prime[3] == ft8.div(num, w_direct(ft8, 3, 8)) == 41


@given(lg=st.integers(1, 6), data=st.data())
@settings(max_examples=100, deadline=None)
def test_methods_agree_property(lg, data):
    h = 1 << lg
    d = CoeffVec(data.draw(st.lists(st.integers(0, 255), min_size=h, max_size=h)))
    assert derivative_fast(_BT8, d).data == derivative_direct(_BT8, d).data
