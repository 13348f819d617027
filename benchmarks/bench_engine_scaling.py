"""S1/S3 -- Engine throughput: micro-benchmarks of one synchronous
round at several network sizes, plus the scaling tables. The simulator
is the substrate for every other experiment; this pins its cost model
(O(n^2) work per round on dense graphs).

Four execution modes are compared:

- **traced** -- ``record_trace=True``: every round materializes a
  ``RoundSnapshot`` (per-node state dicts) for the analysis layer;
- **fast path** -- ``record_trace=False`` and no observers: the engine
  skips snapshotting entirely and (since PR 5) runs the round as a
  port-major delivery sweep over cached per-graph routing plans --
  no inbox construction, no per-batch sort; ~1.5-1.8x over the PR 4
  sender-major loop at n = 33..65, which itself ran untraced rounds
  2-3.5x faster than the original per-edge implementation;
- **batched** -- B independent executions advanced in lock-step by
  ``repro.sim.batch.BatchEngine``, whose numpy kernel vectorizes the
  port-major delivery sweep across all B*n nodes. Aggregate rounds/s
  for fault-free DAC run well past 3x the serial fast path at n <= 64
  (measured 7-19x at B=32 on the reference box), while final states
  stay bit-identical;
- **multi-worker / batch x workers** -- independent trials (or whole
  batches) fanned out over a process pool (``Sweep.run(workers=N,
  batch=B)``), which scales with physical cores while producing
  records identical to the serial run: the two layers multiply.
"""

import time

import pytest
from conftest import run_and_check

from repro.adversary.base import StaticAdversary
from repro.bench.experiments import experiment_s1, experiment_s3
from repro.bench.sweep import Sweep
from repro.core.dac import DACProcess
from repro.net.ports import identity_ports
from repro.sim.batch import GenericBatchEngine, numpy_available, run_lanes
from repro.sim.engine import Engine
from repro.sim.rng import spawn_inputs
from repro.workloads import dac_lane_family


def make_engine(n: int, record_trace: bool = False) -> Engine:
    ports = identity_ports(n)
    inputs = spawn_inputs(3, n)
    processes = {
        v: DACProcess(n, 0, inputs[v], v, epsilon=1e-12) for v in range(n)
    }
    return Engine(processes, StaticAdversary(), ports, record_trace=record_trace)


@pytest.mark.parametrize("n", [10, 20, 40, 80])
def test_round_cost(benchmark, n):
    """Cost of one dense round at size n on the fast path (untraced)."""
    engine = make_engine(n)
    benchmark(engine.run_round)


@pytest.mark.parametrize("n", [10, 40, 80])
def test_round_cost_traced(benchmark, n):
    """Cost of one dense round at size n with full snapshotting."""
    engine = make_engine(n, record_trace=True)
    benchmark(engine.run_round)


def _rounds_per_second(engine: Engine, rounds: int) -> float:
    start = time.perf_counter()
    for _ in range(rounds):
        engine.run_round()
    return rounds / (time.perf_counter() - start)


def test_fast_path_vs_traced_throughput():
    """Report rounds/sec for traced vs fast-path execution.

    Purely a throughput report: wall-clock ratios are too noisy to
    assert on (load, frequency scaling), and the correctness claim --
    fast-path runs end in identical states -- is asserted
    deterministically in tests/test_parallel_determinism.py.
    """
    print()
    print("mode        n     rounds/s")
    for n in (10, 40, 80):
        rounds = 1500 if n <= 40 else 400
        traced = _rounds_per_second(make_engine(n, record_trace=True), rounds)
        fast = _rounds_per_second(make_engine(n, record_trace=False), rounds)
        print(f"traced    {n:3d}  {traced:10.0f}")
        print(f"fast      {n:3d}  {fast:10.0f}  ({fast / traced:.2f}x)")


def _sweeps_per_second(workers: int) -> tuple[float, list]:
    sweep = Sweep(grid={"window": [1, 2]}, repeats=4)
    start = time.perf_counter()
    for n in (5, 7, 9):
        sweep.run(f"algorithm: dac@1(n={n})", workers=workers)
    elapsed = time.perf_counter() - start
    return len(sweep.records) / elapsed, sweep.records


def test_sweep_scaling_with_workers():
    """Report sweep trials/sec at 1, 2 and 4 workers.

    Speedup is near-linear up to the physical core count; on a
    single-core box the pool only adds overhead, so this test reports
    throughput and asserts *record identity* (the correctness claim)
    rather than a speedup factor.
    """
    print()
    print("workers  trials/s")
    baseline_records = None
    for workers in (1, 2, 4):
        rate, records = _sweeps_per_second(workers)
        print(f"{workers:7d}  {rate:8.1f}")
        if baseline_records is None:
            baseline_records = records
        else:
            assert records == baseline_records  # parallelism is a pure speed knob


def test_batch_engine_scaling():
    """Report aggregate rounds/s: serial fast path vs batch vs batch x workers.

    Fault-free boundary-degree DAC (the ISSUE's acceptance scenario) at
    several sizes, B = 32 lanes. The serial leg is the fast path, one
    untraced engine run per seed (``GenericBatchEngine`` over the DAC
    lane family); the batch leg is the vectorized numpy kernel
    (``run_lanes`` over the DAC lane family); the last
    leg fans batches of 8 over 4 worker processes. Wall-clock ratios
    are reported, not asserted (load-sensitive); the correctness claim
    -- identical lane results -- is asserted here and, in full-state
    form, in tests/test_batch_determinism.py.
    """
    print()
    backend = "numpy" if numpy_available() else "python fallback (no numpy)"
    print(f"batch backend: {backend}")
    print("n    mode             agg rounds/s")
    lanes = 32
    seeds = list(range(lanes))
    for n in (16, 32, 64):
        serial_start = time.perf_counter()
        serial = GenericBatchEngine(dac_lane_family(n, 0, epsilon=1e-6), seeds).run()
        serial_elapsed = time.perf_counter() - serial_start
        total_rounds = sum(lane.rounds for lane in serial)

        batch_start = time.perf_counter()
        batched = run_lanes(dac_lane_family(n, 0, epsilon=1e-6), seeds)
        batch_elapsed = time.perf_counter() - batch_start
        assert batched == serial  # batching is a pure speed knob

        fan_start = time.perf_counter()
        fanned = Sweep(grid={"n": [n]}, repeats=lanes).run(
            f"algorithm: dac@1(n={n}, f=0, epsilon=0.000001)", workers=4, batch=8
        )
        fan_elapsed = time.perf_counter() - fan_start
        assert [r.result["rounds"] for r in fanned] == [lane.rounds for lane in serial]

        print(f"{n:3d}  serial fast path {total_rounds / serial_elapsed:12.0f}")
        print(
            f"{n:3d}  batch(B={lanes})     {total_rounds / batch_elapsed:12.0f}"
            f"  ({serial_elapsed / batch_elapsed:.2f}x)"
        )
        print(
            f"{n:3d}  batch x workers  {total_rounds / fan_elapsed:12.0f}"
            f"  ({serial_elapsed / fan_elapsed:.2f}x)"
        )


def test_engine_scaling_table(benchmark):
    run_and_check(benchmark, experiment_s1)


def test_batched_executor_table(benchmark):
    run_and_check(benchmark, experiment_s3)


def test_batched_dbac_table(benchmark):
    from repro.bench.experiments import experiment_s4

    run_and_check(benchmark, experiment_s4)
