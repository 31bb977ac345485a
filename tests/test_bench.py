import ast
import importlib.util
import os
import subprocess
import sys

import pytest

import binfec
from binfec.bench import run_bench

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")
SRC = os.path.dirname(os.path.dirname(os.path.abspath(binfec.__file__)))

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
        assert (result["adds"], result["muls"]) == want, (r, k)


def _setup_code() -> str:
    """perfbench/run.py's SETUP_CODE, read from its source without running it."""
    with open(os.path.join(PERFBENCH, "run.py")) as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["SETUP_CODE"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/run.py defines no SETUP_CODE")


def _workloads() -> dict:
    """perfbench/workloads.py's WORKLOADS; the module is standard library only."""
    name = "perfbench_workloads"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(
            name, os.path.join(PERFBENCH, "workloads.py"))
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module  # a dataclass looks its module up by name
        spec.loader.exec_module(module)
    return sys.modules[name].WORKLOADS


@pytest.mark.parametrize("name", sorted(_workloads()))
def test_benchmark_setup_child_runs(name):
    # setup_s, an end-to-end benchmark metric, times this child: it
    # imports the CLI and builds the codec through binfec's public names
    w = _workloads()[name]
    proc = subprocess.run([sys.executable, "-c", _setup_code(), str(w.r), str(w.k)],
                          env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    float(proc.stdout.split()[-1])
