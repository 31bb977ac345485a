import random

import numpy as np
import pytest

from binfec.walsh import fwht, locator_values

from oracles import LocatorOracle, locator_direct


def test_fwht_zero_vector():
    out = fwht(np.zeros(8, dtype=np.int64), 255)
    assert out.dtype == np.int64
    assert out.tolist() == [0] * 8


def test_fwht_single_butterfly():
    v = np.array([7, 3], dtype=np.uint8)
    assert fwht(v, 255).tolist() == [10, 4]
    assert v.tolist() == [7, 3]  # a new array is returned
    assert fwht(np.array([3, 7]), 255).tolist() == [10, 251]  # subtraction wraps into range


def test_fwht_is_involution_at_field_length():
    rng = random.Random(51)
    for _ in range(20):
        v = np.array([rng.randrange(255) for _ in range(256)])
        w = fwht(fwht(v, 255), 255)
        assert w.tolist() == v.tolist()


def test_fwht_rejects_bad_length():
    with pytest.raises(ValueError):
        fwht(np.array([1, 2, 3]), 255)


def test_fwht_rejects_values_that_are_not_integers():
    # a cast would truncate 1.5 to 1 and transform [1, 2]
    with pytest.raises(ValueError):
        fwht([1.5, 2], 255)
    with pytest.raises(ValueError):
        fwht(np.array([True, False]), 255)


def test_fwht_reduces_its_input_and_refuses_int64_overflow():
    assert fwht(np.array([7 + 255, 3 - 2 * 255]), 255).tolist() == [10, 4]
    assert fwht(np.array([0, 1]), (1 << 61) - 1).tolist() == [1, (1 << 61) - 2]
    with pytest.raises(ValueError, match="overflows"):
        fwht(np.array([0, 1]), 1 << 61)


def test_single_erasure_locator(ft8):
    for e in (0, 1, 93, 255):
        loc = locator_values(ft8, {e})
        assert loc[e] == 1
        for j in range(256):
            if j != e:
                assert loc[j] == j ^ e


def test_two_erasures_closed_form(ft8):
    loc = locator_values(ft8, {0, 1})
    assert loc[0] == 1
    assert loc[1] == 1
    assert loc[2] == ft8.mul(2, 3)


def test_matches_direct_product_oracle(ft8):
    rng = random.Random(52)
    for size in (1, 2, 64, 128, 255):
        for _ in range(4):
            erased = set(rng.sample(range(256), size))
            loc = locator_values(ft8, erased)
            for j in range(256):
                assert loc[j] == locator_direct(ft8, erased, j)


def test_one_nonzero_value_per_position(ft8):
    erased = set(random.Random(53).sample(range(256), 40))
    loc = locator_values(ft8, erased)
    assert loc.shape == (256,)
    assert (loc != 0).all()
    # decode passes the erased positions as an array
    assert (locator_values(ft8, np.array(sorted(erased))) == loc).all()


def test_input_validation(ft8):
    with pytest.raises(ValueError):
        locator_values(ft8, [])
    with pytest.raises(ValueError):
        locator_values(ft8, [3, 3])
    with pytest.raises(ValueError):
        locator_values(ft8, [256])
    with pytest.raises(ValueError):
        locator_values(ft8, [-1])
    with pytest.raises(ValueError):
        locator_values(ft8, np.array([5, 9, 5]))
    with pytest.raises(ValueError):
        locator_values(ft8, np.array([], dtype=np.int64))
    with pytest.raises(ValueError):
        locator_values(ft8, range(256))  # no survivor left
    # positions that are not integers: a cast would erase position 1
    with pytest.raises(ValueError):
        locator_values(ft8, [1.5])
    with pytest.raises(ValueError):
        locator_values(ft8, np.array([True]))


def test_subspace_locator_matches_direct_products(ft8, ft16):
    # erasures inside [0, h): the length-h transforms, scaled by 1/h
    # modulo 2^r - 1, equal the products over [0, h) alone
    rng = random.Random(55)
    for ft, sizes in ((ft8, (2, 4, 32, 128, 256)), (ft16, (2, 16, 512, 1 << 16))):
        oracle = LocatorOracle(ft)
        for h in sizes:
            for size in {1, h // 2, h - 1}:
                erased = set(rng.sample(range(h), size))
                loc = locator_values(ft, erased, h)
                assert loc.shape == (h,)
                points = range(h) if h <= 512 else rng.sample(range(h), 64)
                assert loc[points].tolist() == oracle.values(erased, points), (ft.r, h)


def test_subspace_locator_validation(ft8):
    with pytest.raises(ValueError):
        locator_values(ft8, {1}, 3)
    with pytest.raises(ValueError):
        locator_values(ft8, {1}, 512)
    with pytest.raises(ValueError):
        locator_values(ft8, {16}, 16)  # outside [0, h)
    with pytest.raises(ValueError):
        locator_values(ft8, range(16), 16)  # no survivor left


def test_r16_locator_spot_checks(ft16):
    rng = random.Random(54)
    erased = set(rng.sample(range(1 << 16), 100))
    loc = locator_values(ft16, erased)
    for j in list(erased)[:5]:
        assert loc[j] == locator_direct(ft16, erased, j)
    for j in rng.sample(sorted(set(range(1 << 16)) - erased), 5):
        assert loc[j] == locator_direct(ft16, erased, j)
