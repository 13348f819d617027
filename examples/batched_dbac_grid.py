#!/usr/bin/env python3
"""A DBAC-vs-baseline comparative grid through the batched executors.

The paper's headline algorithm is DBAC: Byzantine-tolerant approximate
consensus in anonymous dynamic networks. This example runs the
comparison its evaluation is built around -- DBAC under the enforcing
``nearest``-value adversary with equivocating Byzantine nodes, against
the classical averaging baselines (iterated midpoint, trimmed mean)
under the same enforcing adversary family -- as one sweep per family,
fanned out over worker processes in lock-step batches
(``Sweep.run(workers=N, batch=B)``).

Since PR 4 the DBAC lanes run through the vectorized
``repro.sim.batch.ByzBatchEngine`` kernel (witness counters, trimmed
updates and the value-dependent ``nearest`` selection, all in numpy
when available); the baselines batch as grouped dispatch. Both are
*pure speed knobs*: the script re-runs every grid serially and asserts
the records agree element for element before reporting anything.

Run:  python examples/batched_dbac_grid.py
"""

import time

from repro.bench.sweep import Sweep
from repro.sim.batch import numpy_available
from repro.workloads import run_baseline_trial, run_dbac_trial

SIZES = [6, 11]
REPEATS = 8
EPSILON = 1e-3


def run_grid(trial, grid, **run_kwargs):
    sweep = Sweep(grid=grid, repeats=REPEATS)
    start = time.perf_counter()
    sweep.run(trial, **run_kwargs)
    return sweep, time.perf_counter() - start


def main() -> None:
    backend = "numpy (vectorized)" if numpy_available() else "serial per seed (no numpy)"
    print(f"DBAC vs averaging baselines, batched (batch backend: {backend})")
    print("-" * 68)

    dbac_grid = {"n": SIZES, "strategy": ["extreme"], "epsilon": [EPSILON]}
    baseline_grid = {"n": SIZES, "algorithm": ["midpoint", "trimmed"],
                     "epsilon": [EPSILON]}

    # Serial references first, then the batched-over-workers runs; the
    # whole point of the executors is that the records must agree.
    dbac_serial, dbac_serial_s = run_grid(run_dbac_trial, dbac_grid,
                                          workers=1, batch=1)
    dbac_fast, dbac_fast_s = run_grid(run_dbac_trial, dbac_grid,
                                      workers=2, batch=REPEATS // 2)
    base_serial, base_serial_s = run_grid(run_baseline_trial, baseline_grid,
                                          workers=1, batch=1)
    base_fast, base_fast_s = run_grid(run_baseline_trial, baseline_grid,
                                      workers=2, batch=REPEATS // 2)

    assert dbac_serial.records == dbac_fast.records, \
        "batched DBAC records diverged from serial"
    assert base_serial.records == base_fast.records, \
        "batched baseline records diverged from serial"
    trials = len(dbac_serial.records) + len(base_serial.records)
    print(f"serial/batched agreement: OK ({trials} trials, both families)")
    print(f"  DBAC     : {dbac_serial_s:.3f}s serial -> {dbac_fast_s:.3f}s "
          f"(workers=2, batch={REPEATS // 2})")
    print(f"  baselines: {base_serial_s:.3f}s serial -> {base_fast_s:.3f}s")
    print()

    print("rounds until the honest spread dips to epsilon (DBAC, oracle mode)")
    print("vs rounds the baselines spend to finish their fixed schedule:")
    print()
    print(f"{'n':>3}  {'algorithm':<10} {'mean rounds':>11}  {'all correct':>11}")
    dbac_stats = dbac_serial.summarize_by(
        "n", value=lambda record: float(record.result["rounds"])
    )
    for (n,), stats in sorted(dbac_stats.items()):
        correct = all(
            record.result["correct"]
            for record in dbac_serial.records
            if record.param("n") == n
        )
        print(f"{n:>3}  {'dbac':<10} {stats.mean:>11.1f}  {str(correct):>11}")
    base_stats = base_serial.summarize_by(
        "n", "algorithm", value=lambda record: float(record.result["rounds"])
    )
    for (n, algorithm), stats in sorted(base_stats.items()):
        correct = all(
            record.result["correct"]
            for record in base_serial.records
            if record.param("n") == n and record.param("algorithm") == algorithm
        )
        print(f"{n:>3}  {algorithm:<10} {stats.mean:>11.1f}  {str(correct):>11}")

    print()
    print("DBAC pays rounds to survive equivocating Byzantine senders under")
    print("a worst-case nearest-value adversary; the reliable-channel")
    print("baselines run fault-free -- the comparison the paper's")
    print("sufficiency results are about (see docs/batching.md).")


if __name__ == "__main__":
    main()
