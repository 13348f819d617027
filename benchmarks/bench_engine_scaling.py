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
from repro.sim.batch import numpy_available, run_dac_batch, run_generic_batch
from repro.sim.engine import Engine
from repro.sim.parallel import run_trials, TrialSpec
from repro.sim.rng import spawn_inputs
from repro.workloads import build_dac_execution, run_dac_trial, run_dac_trial_batch


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
    sweep = Sweep(grid={"n": [5, 7, 9], "window": [1, 2]}, repeats=4)
    start = time.perf_counter()
    records = sweep.run(run_dac_trial, workers=workers)
    elapsed = time.perf_counter() - start
    return len(records) / elapsed, records


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
    untraced engine run per seed (``run_generic_batch`` over the DAC
    builder); the batch leg is the vectorized numpy kernel; the last
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
        serial = run_generic_batch(
            seeds,
            lambda seed: build_dac_execution(n=n, f=0, epsilon=1e-6, seed=seed),
        )
        serial_elapsed = time.perf_counter() - serial_start
        total_rounds = sum(lane.rounds for lane in serial)

        batch_start = time.perf_counter()
        batched = run_dac_batch(n, 0, seeds, epsilon=1e-6)
        batch_elapsed = time.perf_counter() - batch_start
        assert batched == serial  # batching is a pure speed knob

        specs = [TrialSpec((("n", n), ("f", 0), ("epsilon", 1e-6)), seed) for seed in seeds]
        fan_start = time.perf_counter()
        fanned = run_trials(
            run_dac_trial, specs, workers=4, batch=8, batch_fn=run_dac_trial_batch
        )
        fan_elapsed = time.perf_counter() - fan_start
        assert [r["rounds"] for r in fanned] == [lane.rounds for lane in serial]

        print(f"{n:3d}  serial fast path {total_rounds / serial_elapsed:12.0f}")
        print(
            f"{n:3d}  batch(B={lanes})     {total_rounds / batch_elapsed:12.0f}"
            f"  ({serial_elapsed / batch_elapsed:.2f}x)"
        )
        print(
            f"{n:3d}  batch x workers  {total_rounds / fan_elapsed:12.0f}"
            f"  ({serial_elapsed / fan_elapsed:.2f}x)"
        )


def test_batch_dbac_engine_scaling():
    """Report aggregate rounds/s for batched DBAC and mobile lanes, then
    write BENCH_batch_dbac.json so the perf trajectory is tracked.

    Boundary DBAC under the nearest-value enforcing adversary with
    equivocating Byzantine nodes -- the value-dependent selector and
    witness-counter/trimmed-update state the vectorized kernel had to
    learn (ISSUE acceptance: >= 3x aggregate rounds/s at n <= 64,
    B = 32 vs the serial fast path). Wall-clock ratios are reported,
    not asserted (load-sensitive); the correctness claim -- identical
    lane results -- is asserted inside every measure call and, in
    full-state form, in tests/test_batch_determinism.py.
    """
    import json

    from repro.bench.batch_smoke import (
        measure_compaction,
        measure_dbac,
        measure_mobile,
        run_smoke,
    )

    print()
    backend = "numpy" if numpy_available() else "python fallback (no numpy)"
    print(f"batch backend: {backend}")
    print("family   n    mode/f        agg rounds/s   speedup")
    legs = {}
    for n in (16, 32, 64):
        result = measure_dbac(n=n, lanes=32)
        legs[f"dbac_n{n}"] = result
        print(
            f"dbac   {n:3d}    f={result['f']:<10d}"
            f"{result['batched_rounds_per_s']:12.0f}   {result['speedup']:.2f}x"
        )
    for n in (16, 32):
        result = measure_mobile(n=n, lanes=32)
        legs[f"mobile_n{n}"] = result
        print(
            f"mobile {n:3d}    {result['mode']:<12s}"
            f"{result['batched_rounds_per_s']:12.0f}   {result['speedup']:.2f}x"
        )
    compaction = measure_compaction(n=16, seeds_total=64, width=8)
    legs["compaction_n16"] = compaction
    print(
        f"compaction n=16 width=8 seeds=64: "
        f"{compaction['compaction_speedup']:.2f}x vs chunked drain"
    )
    # run_smoke() is the single owner of the BENCH_batch_dbac.json
    # schema (same payload the CI smoke step uploads); the larger-n
    # legs measured above ride along under their own keys.
    payload = run_smoke()
    payload.update(legs)
    with open("BENCH_batch_dbac.json", "w") as handle:
        json.dump(payload, handle, indent=1)
    print("wrote BENCH_batch_dbac.json")


def test_delivery_sweep_throughput():
    """Report port-major-sweep vs legacy-loop rounds/s at the ISSUE's
    acceptance sizes, then write BENCH_delivery.json so the perf
    trajectory is tracked.

    Untraced enforced-rotate and staggered-crash rounds at n = 33 and
    65 (acceptance: >= 1.5x vs the PR 4 loop, which survives verbatim
    as the traced path / sweep reference). Wall-clock ratios are
    reported, not asserted (load-sensitive); the correctness claim --
    bit-identical states on both paths -- is asserted inside
    verify_contracts here and, in full-state form, by the shared
    differential harness (tests/helpers.py) and the fuzz grids.
    """
    import json

    from repro.bench.delivery_smoke import (
        measure_family,
        measure_plan_cache,
        run_smoke,
    )

    print()
    print("family    n    sweep r/s   legacy r/s   warm     cold-incl.")
    legs = {}
    for n, rounds in ((33, 2000), (65, 800)):
        for crash in (False, True):
            result = measure_family(n=n, rounds=rounds, crash=crash)
            legs[f"{'crash' if crash else 'enforced'}_n{n}"] = result
            print(
                f"{'crash' if crash else 'enforced':8s}{n:4d}"
                f"  {result['sweep_rounds_per_s']:10.0f}"
                f"  {result['legacy_rounds_per_s']:11.0f}"
                f"   {result['speedup']:.2f}x"
                f"   {result['speedup_cold']:.2f}x"
            )
    cache = measure_plan_cache(n=33, rounds=400)
    legs["plan_cache_n33"] = cache
    print(
        f"plan-cache n=33: {cache['stable_schedule_speedup']:.2f}x "
        f"replayed cycle vs novel graphs"
    )
    # run_smoke() is the single owner of the BENCH_delivery.json schema
    # (same payload the CI smoke step uploads); the acceptance-size
    # legs measured above ride along under their own keys.
    payload = run_smoke(n=17, rounds=1000)
    payload.update(legs)
    with open("BENCH_delivery.json", "w") as handle:
        json.dump(payload, handle, indent=1)
    print("wrote BENCH_delivery.json")


def test_engine_scaling_table(benchmark):
    run_and_check(benchmark, experiment_s1)


def test_batched_executor_table(benchmark):
    run_and_check(benchmark, experiment_s3)


def test_batched_dbac_table(benchmark):
    from repro.bench.experiments import experiment_s4

    run_and_check(benchmark, experiment_s4)


def test_enforced_adversary_throughput():
    """Report enforced-adversary rounds/s plus the graph-construction
    micro-comparison (Topology PR acceptance leg).

    Two scenarios: the memo-hit regime (``rotate``, where choose was
    already cached pre-Topology and the win is the cheaper construction
    plus adjacency-row routing) and the miss-every-round regime
    (``nearest``, DBAC's default, where every round used to pay a full
    dict-of-frozensets DirectedGraph build). Numbers are reported, not
    asserted (load-sensitive); the bit-identity claims live in
    tests/test_topology_equivalence.py.
    """
    from repro.bench.topology_smoke import measure_enforced

    print()
    print("selector  n    rounds/s   legacy/cold  legacy/hit (construction)")
    for selector in ("rotate", "nearest"):
        for n in (9, 33):
            rounds = 2000 if n <= 17 else 600
            result = measure_enforced(n=n, rounds=rounds, selector=selector)
            print(
                f"{selector:8s}{n:4d}  {result['rounds_per_s']:9.0f}"
                f"   {result['construction_speedup_cold']:9.2f}x"
                f"  {result['construction_speedup_hit']:9.2f}x"
            )


def test_lookahead_candidate_evaluation():
    """Report lookahead throughput and the overlay-vs-deepcopy ratios,
    then write BENCH_topology.json so the perf trajectory is tracked.

    The state-management ratio isolates exactly what the refactor
    removed (per-candidate ``copy.deepcopy`` of every process); the
    end-to-end ratio also pays the delivery work both implementations
    share. The no-deepcopy contract itself is asserted in
    tests/test_adversary_greedy.py and by the CI topology smoke.
    """
    import json

    from repro.bench.topology_smoke import measure_lookahead, run_smoke

    print()
    print("n   rounds/s  cand evals/s  end-to-end   state mgmt")
    lookahead = {}
    for n in (17, 33):
        result = measure_lookahead(n=n, rounds=120 if n <= 17 else 40)
        lookahead[n] = result
        print(
            f"{n:2d}  {result['rounds_per_s']:8.0f}  {result['candidate_evals_per_s']:12.0f}"
            f"  {result['candidate_eval_speedup']:9.2f}x"
            f"  {result['state_management_speedup']:9.2f}x"
        )
    # run_smoke() is the single owner of the BENCH_topology.json schema
    # (same payload the CI smoke step uploads); the larger-n lookahead
    # legs measured above ride along under their own keys.
    payload = run_smoke()
    payload["lookahead_n17"] = lookahead[17]
    payload["lookahead_n33"] = lookahead[33]
    base = payload["lookahead"]
    print(
        f" 9  {base['rounds_per_s']:8.0f}  {base['candidate_evals_per_s']:12.0f}"
        f"  {base['candidate_eval_speedup']:9.2f}x"
        f"  {base['state_management_speedup']:9.2f}x"
    )
    with open("BENCH_topology.json", "w") as handle:
        json.dump(payload, handle, indent=1)
    print("wrote BENCH_topology.json")
