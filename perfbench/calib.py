"""Reference child: the machine's current speed, independent of binfec.

    python3 perfbench/calib.py

prints two numbers: time.monotonic() once numpy is imported, from which
run.py, sharing the clock, takes the start-up time of an interpreter
that imports numpy; and the seconds a fixed numpy kernel takes.  run.py
runs this once per measuring cycle and scales the cycle's timings by
both (see run.py, REFERENCE_START_S).  The kernel is the pattern
binfec's batch codec spends its time in: gathers through a 65,536-entry
uint16 table and XORs over a 32 MiB array, which is larger than the CPU
caches.  Nothing here comes from binfec, so a change to the program
cannot move either number, while a slower host slows them as it slows
the CLI.
"""

import time

import numpy as np

ROUNDS = 4


def main() -> None:
    imported = time.monotonic()
    rng = np.random.default_rng(0)
    a = rng.integers(0, 1 << 16, size=(65536, 256), dtype=np.uint16)
    table = rng.integers(0, 1 << 16, size=1 << 16, dtype=np.uint16)
    t0 = time.perf_counter()
    for _ in range(ROUNDS):
        a[:, :128] ^= table[a[:, 128:]]
        a[:, 128:] ^= table[a[:, :128]]
    print(imported, time.perf_counter() - t0)


if __name__ == "__main__":
    main()
