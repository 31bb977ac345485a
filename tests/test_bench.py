from binfec.bench import run_bench

# (adds, muls) of one instrumented stripe, encode plus decode with n - k
# seeded erasures: the transforms, the derivative, the locator scaling
# and the final division.  Seed 0 leaves survivors up to position n - 1
# in each case, so the decode runs at h = n:
#
#   encode      k lg k - (k - 1) + (n/k - 1) k lg k adds,
#               (k/2) lg k - (k - 1) + (n/k - 1)(k/2) lg k muls
#   inverse     n lg n - n + 1 adds, (n/2) lg n - n + 1 muls
#   derivative  (k/2) lg k + k (lg n - lg k) - k adds (k < n),
#               k (1 + lg n - lg k) muls + one per nonzero output (all k)
#   forward     k lg k - k + 1 adds, (k/2) lg k - k + 1 muls, at k points
#   scaling     k muls, one per survivor used
#   division    one mul per lost data position: 2, 14, 56 and 16444
PINNED = {
    (8, 2): (2062, 918),
    (8, 16): (2931, 1409),
    (8, 128): (4675, 2427),
    (16, 32768): (2637827, 1278015),
}


def test_run_bench_op_counts_are_pinned():
    for (r, k), want in PINNED.items():
        result = run_bench(r, k, seed=0)
        assert (result.adds, result.muls) == want, (r, k)
