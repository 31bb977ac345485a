#!/usr/bin/env python3
"""Benchmark the shipped binfec CLI: encode/decode throughput per workload.

Run from the repository root:

    python3 perfbench/run.py --workload r8-rebuild --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py        # every workload, untraced then traced

--trace 0 times `python -m binfec.cli encode` and `decode` (PYTHONPATH=src)
as child processes, one at a time, and reports the end-to-end metrics.
Every timing is scaled to a fixed machine speed, measured by a reference
child (calib.py) run in every measuring cycle; the wall figures are
printed too.
--trace 1 runs perfbench/trace.py in a child, which calls binfec.cli.main
in process with span wrappers installed, and reports the per-layer
metrics and the tracing overhead.  Either way the last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.

This process is the spawner of every timed child.  Linux carries a
parent's peak RSS over fork+exec into the child's ru_maxrss, so this
process imports only the standard library and leaves input generation,
hashing of large buffers and the traced run to children of its own.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time

from workloads import WORKLOADS, Workload, damage, sha256_file, shard_paths

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
# Shard directories live inside the checkout, wiped before and after a
# run.  Nothing is fsynced, as binfec itself never fsyncs: decode reads
# come from the page cache, and a directory is deleted before its dirty
# pages need writing back.
WORK = os.path.join(ROOT, ".perfbench_work")
PY = sys.executable

# One sample is the mean over back-to-back invocations lasting at least
# MIN_PHASE_S: a short command's time is bimodal on a noisy host, and
# the median of single invocations flips between the modes.
MIN_PHASE_S = 3.0
SETUP_BATCH = 3          # set-up children averaged into one set-up sample
MIN_SETUP_SAMPLES = 5
CHILD_LIMIT_S = 60.0     # a timed child running longer is killed and counted failed
TRIVIAL_RSS_LIMIT_MIB = 32.0

# The test machine's speed drifts by up to ~40% over minutes, and a
# run's wall-clock medians drift with it.  Start-up (exec, imports,
# thread creation) and numpy compute drift apart from each other.  So
# each cycle first runs calib.py, which imports nothing from binfec,
# and takes two references from it: its start-up until numpy is
# imported, and a fixed numpy kernel.  The run's timings are scaled by
# the run's median references to a machine on which these take
# REFERENCE_START_S and REFERENCE_KERNEL_S (their medians on the test
# machine): set-up time by the start-up reference, and each
# invocation's wall time split into the run's median set-up time,
# scaled by the start-up reference, and the rest, scaled by the
# kernel.  calib.py cannot see a change to binfec, so such a change
# still moves the scaled figures; only the machine's speed is divided
# out.
REFERENCE_START_S = 0.17
REFERENCE_KERNEL_S = 0.30

# Time from interpreter start until the CLI is imported and the tables
# and codec every invocation builds exist.  Printed as CLOCK_MONOTONIC,
# which the spawner shares.
SETUP_CODE = """\
import sys, time
import binfec.cli
from binfec.basis import build_basis_tables
from binfec.batch import BatchCodec
from binfec.field import tables_for
from binfec.rs import CodeParams
r, k = int(sys.argv[1]), int(sys.argv[2])
BatchCodec(CodeParams(r, k), build_basis_tables(tables_for(r), 1 << r))
print(time.monotonic())
"""

E2E_UNITS = {
    "encode_MBps": "MB/s",
    "decode_MBps": "MB/s",
    "encode_peak_rss_MiB": "MiB",
    "decode_peak_rss_MiB": "MiB",
    "setup_s": "s",
}


ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p))


def spawn(argv: list[str], log: str) -> tuple[int, float, float]:
    """Run one child to completion: (exit code, wall s, peak RSS MiB)."""
    with open(log, "ab") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=ENV, cwd=ROOT, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(CHILD_LIMIT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def setup_sample(w: Workload) -> float | None:
    t0 = time.monotonic()
    proc = subprocess.run([PY, "-c", SETUP_CODE, str(w.r), str(w.k)], env=ENV, cwd=ROOT,
                          capture_output=True, text=True, timeout=CHILD_LIMIT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return None
    return float(proc.stdout.split()[-1]) - t0


def summary(values: list[float]) -> str:
    """Median, quartiles and the highest percentile with ten samples above it."""
    n = len(values)
    text = f"n={n} median={statistics.median(values):.6g}"
    if n >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        text += f" q1={q1:.6g} q3={q3:.6g}"
    if n >= 11:
        pct = (100 * (n - 10)) // n
        text += f" p{pct}={statistics.quantiles(values, n=100)[pct - 1]:.6g}"
    return text


class Tally:
    """Invocations attempted and failed in one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED: {what}", file=sys.stderr)
        return ok


def run_untraced(w: Workload, seed: int, seconds: int) -> dict:
    log = os.path.join(WORK, "children.log")
    inp = os.path.join(WORK, "input.bin")
    out = os.path.join(WORK, "output.bin")
    shards = os.path.join(WORK, "shards")
    tally = Tally()
    if spawn([PY, os.path.join(HERE, "workloads.py"), w.name, str(seed), inp], log)[0]:
        raise RuntimeError("input generation failed")
    in_sha, mb = sha256_file(inp), os.path.getsize(inp) / 1e6

    # Untimed warm-up: fills the bytecode cache as an installed package has it.
    setup_sample(w)
    _, _, trivial_rss = spawn([PY, "-c", "pass"], log)
    self_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    rss_ok = trivial_rss <= TRIVIAL_RSS_LIMIT_MIB and self_rss <= TRIVIAL_RSS_LIMIT_MIB
    print(f"spawner self-check: trivial child {trivial_rss:.1f} MiB, spawner "
          f"{self_rss:.1f} MiB, limit {TRIVIAL_RSS_LIMIT_MIB} MiB: "
          f"{'ok' if rss_ok else 'FAILED'}")

    samples = {name: [] for name in E2E_UNITS}
    phases = {"encode": [], "decode": []}   # (invocations, summed wall s) per sample
    setups = []                             # unscaled set-up samples
    refs = {"start": [], "kernel": []}
    encode_argv = [PY, "-m", "binfec.cli", "encode", "--in", inp, "--out", shards,
                   "--r", str(w.r), "--k", str(w.k)]
    decode_argv = [PY, "-m", "binfec.cli", "decode", "--shards", shards, "--out", out]

    def reference() -> None:
        """Record the start-up and kernel seconds of the reference child now."""
        t0 = time.monotonic()
        proc = subprocess.run([PY, os.path.join(HERE, "calib.py")], cwd=ROOT,
                              capture_output=True, text=True, timeout=CHILD_LIMIT_S)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise RuntimeError("reference child failed")
        imported, kernel = map(float, proc.stdout.split())
        refs["start"].append(imported - t0)
        refs["kernel"].append(kernel)

    def phase(name: str, argv, before, check) -> bool:
        """Run argv until MIN_PHASE_S is spent; one sample of MB/s and peak RSS."""
        runs, wall, peak = 0, 0.0, 0.0
        while wall < MIN_PHASE_S:
            before()
            rc, seconds, rss = spawn(argv, log)
            runs, wall, peak = runs + 1, wall + seconds, max(peak, rss)
            if not tally.record(rc == 0 and check(), f"{name} exited {rc} or gave wrong output"):
                return False
        phases[name].append((runs, wall))
        samples[f"{name}_peak_rss_MiB"].append(peak)
        return True

    def clear_output() -> None:
        if os.path.exists(out):
            os.remove(out)

    def setup_batch() -> None:
        batch = [setup_sample(w) for _ in range(SETUP_BATCH)]
        if all([tally.record(t is not None, "set-up child") for t in batch]):
            setups.append(statistics.fmean(batch))

    deadline = time.perf_counter() + seconds
    while True:
        reference()
        setup_batch()
        if phase("encode", encode_argv, lambda: shutil.rmtree(shards, ignore_errors=True),
                 lambda: os.path.isdir(shards) and len(shard_paths(shards)) == w.n):
            damage(w, seed, shards)
            phase("decode", decode_argv, clear_output,
                  lambda: os.path.exists(out) and sha256_file(out) == in_sha)
        if time.perf_counter() >= deadline:
            break
    while len(setups) < MIN_SETUP_SAMPLES and not tally.failed:
        reference()
        setup_batch()

    start_scale = REFERENCE_START_S / statistics.median(refs["start"])
    kernel_scale = REFERENCE_KERNEL_S / statistics.median(refs["kernel"])
    setup = statistics.median(setups) if setups else 0.0

    def scaled(runs: int, wall: float) -> float:
        start = min(wall, runs * setup)
        return start * start_scale + (wall - start) * kernel_scale

    wall_samples = {"setup_s": setups}
    samples["setup_s"] = [t * start_scale for t in setups]
    for name, sampled in phases.items():
        wall_samples[f"{name}_MBps"] = [runs * mb / wall for runs, wall in sampled]
        samples[f"{name}_MBps"] = [runs * mb / scaled(runs, wall) for runs, wall in sampled]

    metrics = {}
    for name, unit in E2E_UNITS.items():
        if samples[name]:
            metrics[name] = {"value": statistics.median(samples[name]), "unit": unit}
            print(f"{name:24s} {metrics[name]['value']:.6g} {unit}  ({summary(samples[name])})")
            if name in wall_samples and wall_samples[name]:
                print(f"{'  unscaled wall figure':24s} {statistics.median(wall_samples[name]):.6g}"
                      f" {unit}  ({summary(wall_samples[name])})")
    for name, nominal in (("start", REFERENCE_START_S), ("kernel", REFERENCE_KERNEL_S)):
        print(f"{'reference ' + name:24s} {statistics.median(refs[name]):.6g} s  "
              f"({summary(refs[name])}; scaled to {nominal} s)")
    print(f"{'roundtrip_failures':24s} {tally.failed} count  (of {tally.attempted} "
          f"invocations attempted)")
    correct = rss_ok and tally.failed == 0 and len(metrics) == len(E2E_UNITS)
    return {"correct": correct, "attempted": tally.attempted, "failed": tally.failed,
            "metrics": metrics}


def run_traced(w: Workload, seed: int, seconds: int) -> dict:
    proc = subprocess.run([PY, os.path.join(HERE, "trace.py"), "--workload", w.name,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--workdir", os.path.join(WORK, "trace")],
                          env=ENV, cwd=ROOT, capture_output=True, text=True,
                          timeout=seconds + 120)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"traced run exited {proc.returncode}")
    print("\n".join(lines[:-1]))
    return json.loads(lines[-1])


def run_all(args: argparse.Namespace) -> int:
    status = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            print(f"== {name} trace={trace}", flush=True)
            status |= subprocess.run([PY, os.path.abspath(__file__), "--workload", name,
                                      "--seed", str(args.seed), "--seconds", str(args.seconds),
                                      "--trace", str(trace)]).returncode
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload (default: all, untraced and traced)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "binfec", "cli.py")):
        print(f"error: no binfec sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args)

    w = WORKLOADS[args.workload]
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    try:
        if args.trace:
            result = run_traced(w, args.seed, args.seconds)
        else:
            result = run_untraced(w, args.seed, args.seconds)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
