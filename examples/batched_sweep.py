#!/usr/bin/env python3
"""Batched sweeps: the three composition layers in one script.

The reproduction has three independent speed knobs for trial grids
(see docs/scaling.md):

1. the engine **fast path** -- untraced, unobserved rounds skip all
   snapshotting (every trial below uses it);
2. the **batch engine** -- ``repro.sim.batch`` advances B independent
   executions in lock-step, vectorized with numpy when available;
3. the **process pool** -- ``repro.sim.parallel`` fans trials (or
   whole batches) out over worker processes.

All three are *pure speed knobs*: this script runs the same DAC grid
serially, batched, and batched-over-workers, and checks the records
are identical element for element before reporting throughput.

Run:  python examples/batched_sweep.py
"""

import time

from repro.bench.sweep import Sweep
from repro.sim.batch import numpy_available

# One scenario spec per network size (f takes each size's boundary
# default); the sweep grid varies the adversary window under each.
SPECS = ["algorithm: dac@1(n=9)", "algorithm: dac@1(n=13)"]
GRID = {"window": [1, 2]}
REPEATS = 8


def timed_sweep(**run_kwargs):
    sweep = Sweep(grid=GRID, repeats=REPEATS)
    start = time.perf_counter()
    for spec in SPECS:
        sweep.run(spec, **run_kwargs)
    return sweep, time.perf_counter() - start


def main() -> None:
    backend = "numpy (vectorized)" if numpy_available() else "serial per seed (no numpy)"
    print(f"Boundary DAC sweep, three ways (batch backend: {backend})")
    print("-" * 60)

    serial, serial_s = timed_sweep(workers=1, batch=1)
    batched, batched_s = timed_sweep(workers=1, batch=REPEATS)
    fanned, fanned_s = timed_sweep(workers=2, batch=REPEATS // 2)

    trials = len(serial.records)
    print(f"serial             : {trials} trials in {serial_s:.3f}s "
          f"({trials / serial_s:.0f}/s)")
    print(f"batch={REPEATS}            : {trials} trials in {batched_s:.3f}s "
          f"({trials / batched_s:.0f}/s)")
    print(f"workers=2, batch={REPEATS // 2} : {trials} trials in {fanned_s:.3f}s "
          f"({trials / fanned_s:.0f}/s)")
    print()

    identical = serial.records == batched.records == fanned.records
    print(f"records identical across all three runs: {identical}")
    assert identical, "batching/workers must never change results"

    all_correct = all(record.result["correct"] for record in serial.records)
    print(f"all {trials} trials correct (termination+validity+agreement): "
          f"{all_correct}")

    print()
    print("mean rounds to output by (n, window):")
    stats_by_cell = serial.summarize_by(
        "n", "window", value=lambda record: float(record.result["rounds"])
    )
    for (n, window), stats in sorted(stats_by_cell.items()):
        print(f"  n={n:2d} T={window}: {stats.mean:5.1f} rounds")


if __name__ == "__main__":
    main()
