from binfec.bench import run_bench

# (adds, muls) of one instrumented stripe, encode plus decode with n - k
# seeded erasures: the transforms, the derivative, the locator scaling
# and the final division.
PINNED = {
    (8, 2): (4610, 2177),
    (8, 16): (5364, 2574),
    (8, 128): (6020, 3002),
    (16, 32768): (3375108, 1556542),
}


def test_run_bench_op_counts_are_pinned():
    for (r, k), want in PINNED.items():
        result = run_bench(r, k, seed=0)
        assert (result.adds, result.muls) == want, (r, k)
