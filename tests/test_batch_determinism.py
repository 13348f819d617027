"""Determinism guarantees of the batched execution subsystem.

Three contracts make ``batch=B`` a pure speed knob:

1. the numpy kernels :class:`repro.sim.batch.BatchEngine` and
   :class:`repro.sim.batch.ByzBatchEngine` produce **bit-identical
   final states and round counts** to ``B`` serial ``Engine`` runs of
   the same lanes -- full ``state_key`` equality, not just outputs --
   across the DAC (crash), DBAC (Byzantine) and mobile-omission
   families: kernel lanes equal :class:`repro.sim.batch.GenericBatchEngine`
   lanes over the family's own builder (one serial engine run per
   seed), and lane compaction / vector-width chunking never change
   results;
2. each kernel refuses parameters it cannot replicate with a message
   naming them, and every batched form runs those groups serially --
   so every family's ``batch_fn`` equals its per-seed trial, with or
   without numpy. Every enforcing selector (``rotate``, ``nearest``,
   ``random``) and every trial-menu Byzantine strategy runs on a
   kernel; the RNG-driven ones replay each lane's own serial streams;
3. ``Sweep.run(workers=4, batch=4)`` records are identical, element
   for element, to ``Sweep.run(workers=1, batch=1)`` records.
"""

import functools

import pytest

from repro.bench.sweep import Sweep
from repro.scenario.registry import entries
from repro.sim.batch import (
    BaselineBatchEngine,
    BatchEngine,
    ByzBatchEngine,
    GenericBatchEngine,
    baseline_kernel_refusal,
    byz_kernel_refusal,
    dac_kernel_refusal,
    numpy_available,
    run_baseline_batch,
    run_byz_batch,
    run_dac_batch,
    run_dbac_batch,
)
from repro.sim.engine import Engine
from repro.sim.parallel import (
    TrialSpec,
    resolve_batch,
    run_trials,
    set_default_batch,
)
from repro.workloads import (
    TRIAL_BYZANTINE_STRATEGIES,
    _lane_summary,
    build_baseline_execution,
    build_dac_execution,
    build_dbac_execution,
    build_mobile_execution,
    run_byz_trial,
    run_byz_trial_batch,
    run_dac_trial,
    run_dac_trial_batch,
    run_dbac_trial,
    run_dbac_trial_batch,
)
from tests.helpers import (
    assert_equivalent_runs,
    family_entry,
    run_config_batch,
    serial_executor,
)

needs_numpy = pytest.mark.skipif(not numpy_available(), reason="numpy not installed")

# The two lane implementations behind every run_*_batch: the "numpy"
# kernel, and the "python" GenericBatchEngine over the family builder.
LANE_PATHS = ["python"] + (["numpy"] if numpy_available() else [])

# (n, f, window): fault-free, crash-fault, multi-round windows.
GRIDS = [(9, 0, 1), (9, 4, 1), (9, 4, 3), (12, 5, 2), (5, 2, 1)]

# (n, f, window, selector, strategy): the Byzantine lane families --
# value-dependent nearest selection, memoized rotate, windowed
# delivery, every vectorizable strategy, and the f=0 degenerate case.
BYZ_GRIDS = [
    (11, 2, 1, "nearest", "extreme"),
    (11, 2, 3, "nearest", "pin-high"),
    (11, 2, 2, "rotate", "extreme"),
    (6, 1, 1, "nearest", "phase-liar"),
    (7, 0, 1, "nearest", "extreme"),
    (11, 2, 1, "nearest", "pin-low"),
]

MOBILE_MODES = ["block_min", "block_max", "rotate", "none"]


def generic_dac_lanes(n, f, seeds, **params):
    """Serial reference lanes: one Engine run per seed over the DAC builder."""
    return GenericBatchEngine(
        seeds, lambda seed: build_dac_execution(n=n, f=f, seed=seed, **params)
    ).run()


def generic_dbac_lanes(n, f, seeds, strategy="extreme", **params):
    """Serial reference lanes over the DBAC builder and a named strategy."""
    factory = TRIAL_BYZANTINE_STRATEGIES[strategy]
    return GenericBatchEngine(
        seeds,
        lambda seed: build_dbac_execution(
            n=n, f=f, seed=seed, byzantine_factory=lambda node: factory(), **params
        ),
    ).run()


@functools.lru_cache(maxsize=None)
def cached_dbac_reference(seeds):
    """Serial reference lanes shared by the compaction grid (n=11, f=2)."""
    return generic_dbac_lanes(11, 2, list(seeds))


def generic_baseline_lanes(n, seeds, **params):
    """Serial reference lanes over the averaging-baseline builder."""
    return GenericBatchEngine(
        seeds, lambda seed: build_baseline_execution(n, seed=seed, **params)
    ).run()


def generic_mobile_lanes(n, seeds, mode, **params):
    """Serial reference lanes over the mobile-omission builder."""
    return GenericBatchEngine(
        seeds,
        lambda seed: build_mobile_execution(n=n, mode=mode, seed=seed, **params),
    ).run()


def run_serial_dbac_lane(
    n, f, seed, window, selector, strategy, epsilon=1e-3, max_rounds=50_000
):
    """One serial oracle-mode DBAC run of the lane the batch engine claims."""
    factory = TRIAL_BYZANTINE_STRATEGIES[strategy]
    kwargs = build_dbac_execution(
        n=n,
        f=f,
        epsilon=epsilon,
        seed=seed,
        window=window,
        selector=selector,
        byzantine_factory=lambda node: factory(),
    )
    engine = Engine(
        kwargs["processes"],
        kwargs["adversary"],
        kwargs["ports"],
        fault_plan=kwargs["fault_plan"],
        f=kwargs["f"],
        seed=kwargs["seed"],
        record_trace=False,
    )
    result = engine.run(
        max_rounds, stop_when=lambda eng: eng.fault_free_range() <= epsilon
    )
    return engine, result


class TestBatchMatchesSerial:
    @pytest.mark.parametrize("n,f,window", GRIDS)
    def test_finals_and_rounds_bit_identical(self, n, f, window):
        # The shared harness: serial sweep (reference) == the family's
        # batch dispatch (the numpy kernel when installed), all 8 seeds
        # as ONE multi-lane batch so lock-step lane interplay is
        # exercised; full per-node state keys -- value, phase, port bit
        # vector, extremes, output -- the strongest equality available.
        assert_equivalent_runs(
            [{"family": "dac", "n": n, "f": f, "window": window,
              "seeds": tuple(range(8))}],
            {"serial-fast": serial_executor(), "batch": run_config_batch},
        )

    @needs_numpy
    @pytest.mark.parametrize("n,f,window", GRIDS)
    def test_numpy_backend_matches_python_fallback(self, n, f, window):
        # The kernel against the serial fallback it replaces: one
        # Engine run per seed over the DAC builder, full state keys.
        seeds = [3, 11, 20, 21, 22, 23, 100, 101]
        assert BatchEngine(n, f, seeds, window=window).run() == generic_dac_lanes(
            n, f, seeds, window=window
        )

    def test_lane_order_is_seed_order_not_finish_order(self):
        # Lanes terminate at different rounds; results must still come
        # back in seeds order.
        seeds = [7, 0, 13, 5]
        lanes = run_dac_batch(9, 4, seeds, window=2)
        assert [lane.seed for lane in lanes] == seeds
        assert len({lane.rounds for lane in lanes}) >= 1  # all finalized
        assert all(lane.stopped for lane in lanes)

    def test_backend_resolution_and_validation(self):
        # One predicate decides the kernel: run_dac_batch takes it
        # exactly when dac_kernel_refusal accepts -- every enforcing
        # selector, given numpy -- and the kernel constructor refuses
        # everything else, naming the reason.
        dac = family_entry("dac").obj
        for selector in ("rotate", "nearest", "random"):
            assert (dac_kernel_refusal(selector) is None) == numpy_available()
            assert dac.vectorizable({"selector": selector}) == numpy_available()
        assert dac_kernel_refusal("bogus") is not None
        if numpy_available():
            engine = BatchEngine(9, 4, [0])
            assert engine.backend == "numpy"
            assert engine.batch_size == 1
            for selector in ("nearest", "random"):
                lanes = BatchEngine(9, 4, [0, 1], selector=selector).run()
                assert lanes == generic_dac_lanes(9, 4, [0, 1], selector=selector)
        else:
            with pytest.raises(ValueError, match="numpy is not installed"):
                BatchEngine(9, 4, [0])
        # Kernel or not, the lanes equal serial-engine lanes.
        assert run_dac_batch(9, 4, [0, 1], selector="nearest") == generic_dac_lanes(
            9, 4, [0, 1], selector="nearest"
        )
        with pytest.raises(ValueError, match="seed"):
            BatchEngine(9, 4, [])
        with pytest.raises(ValueError, match="2f"):
            BatchEngine(8, 4, [0])

    @pytest.mark.parametrize("path", LANE_PATHS)
    def test_max_rounds_cap_reports_unstopped_lanes(self, path):
        # A cap far below termination: every lane must report exactly
        # the cap and stopped=False, like Engine.run does.
        if path == "numpy":
            lanes = BatchEngine(9, 4, [0, 1], max_rounds=3).run()
        else:
            lanes = generic_dac_lanes(9, 4, [0, 1], max_rounds=3)
        assert lanes == run_dac_batch(9, 4, [0, 1], max_rounds=3)
        assert [lane.rounds for lane in lanes] == [3, 3]
        assert not any(lane.stopped for lane in lanes)
        assert all(lane.outputs == {} for lane in lanes)


class TestBatchedTrialFunction:
    def test_batched_summaries_equal_serial_summaries(self):
        seeds = list(range(6))
        batched = run_dac_trial_batch(n=9, window=2, seeds=seeds)
        assert batched == [run_dac_trial(n=9, window=2, seed=s) for s in seeds]

    def test_non_fast_batch_delegates_to_serial_trials(self):
        seeds = [0, 1]
        assert run_dac_trial_batch(n=5, fast=False, seeds=seeds) == [
            run_dac_trial(n=5, fast=False, seed=s) for s in seeds
        ]

    def test_trial_carries_its_batched_form(self):
        assert run_dac_trial.batch_fn is run_dac_trial_batch


def echo_trial(seed, **params):
    return {"seed": seed, **params}


def echo_trial_batch(seeds=(), **params):
    return [{"seed": seed, **params} for seed in seeds]


def short_batch(seeds=(), **params):
    return [{"seed": seeds[0], **params}]  # drops all but the first seed


class TestRunTrialsBatching:
    def make_specs(self, count, param=1):
        return [TrialSpec((("p", param),), seed=i) for i in range(count)]

    def test_batched_results_keep_spec_order(self):
        specs = self.make_specs(10)
        results = run_trials(
            echo_trial, specs, workers=1, batch=4, batch_fn=echo_trial_batch
        )
        assert results == [echo_trial(seed=i, p=1) for i in range(10)]

    def test_batching_groups_only_consecutive_equal_params(self):
        specs = [
            TrialSpec((("p", 1),), seed=0),
            TrialSpec((("p", 1),), seed=1),
            TrialSpec((("p", 2),), seed=2),
            TrialSpec((("p", 1),), seed=3),
        ]
        results = run_trials(
            echo_trial, specs, workers=1, batch=8, batch_fn=echo_trial_batch
        )
        assert [(r["p"], r["seed"]) for r in results] == [(1, 0), (1, 1), (2, 2), (1, 3)]

    def test_batch_composes_with_workers(self):
        specs = self.make_specs(12)
        assert run_trials(
            echo_trial, specs, workers=3, batch=2, batch_fn=echo_trial_batch
        ) == [echo_trial(seed=i, p=1) for i in range(12)]

    def test_explicit_batch_without_batch_fn_raises(self):
        with pytest.raises(ValueError, match="batched trial function"):
            run_trials(echo_trial, self.make_specs(4), workers=1, batch=4)

    def test_default_batch_degrades_for_unbatched_functions(self):
        set_default_batch(4)
        try:
            assert resolve_batch(None) == 4
            # echo_trial has no batch_fn: the process-wide default must
            # not break it, just run unbatched.
            results = run_trials(echo_trial, self.make_specs(5), workers=1, batch=None)
            assert [r["seed"] for r in results] == list(range(5))
        finally:
            set_default_batch(1)
        assert resolve_batch(None) == 1

    def test_batch_size_validation(self):
        with pytest.raises(ValueError, match="batch"):
            resolve_batch(0)
        with pytest.raises(ValueError, match="batch"):
            set_default_batch(0)

    def test_wrong_length_batch_results_are_rejected(self):
        with pytest.raises(ValueError, match="one result per seed"):
            run_trials(echo_trial, self.make_specs(4), workers=1, batch=4,
                       batch_fn=short_batch)


class TestSweepBatchIdentity:
    def test_workers_4_batch_4_records_identical_to_serial(self):
        grid = {"n": [5, 7], "window": [1, 2]}
        serial = Sweep(grid=grid, repeats=4)
        composed = Sweep(grid=grid, repeats=4)
        serial.run(run_dac_trial, workers=1, batch=1)
        composed.run(run_dac_trial, workers=4, batch=4)
        assert serial.records == composed.records
        assert all(record.result["correct"] for record in composed.records)

    def test_sweep_discovers_the_batched_form_from_the_trial(self):
        grid = {"n": [9]}
        explicit = Sweep(grid=grid, repeats=4)
        implicit = Sweep(grid=grid, repeats=4)
        explicit.run(run_dac_trial, batch=4, batch_fn=run_dac_trial_batch)
        implicit.run(run_dac_trial, batch=4)  # run_dac_trial.batch_fn
        assert explicit.records == implicit.records


class TestByzBatchMatchesSerial:
    """DBAC / Byzantine lanes: bit-identity of ByzBatchEngine vs serial."""

    @pytest.mark.parametrize("n,f,window,selector,strategy", BYZ_GRIDS)
    def test_dbac_finals_and_rounds_bit_identical(
        self, n, f, window, selector, strategy
    ):
        # The shared harness: serial sweep (reference) == the family's
        # batch dispatch (the numpy kernel when installed), all 6 seeds
        # as ONE multi-lane batch. Full per-node state keys -- value,
        # phase, port bit vector, R_low / R_high recording lists,
        # output -- the strongest equality available; oracle outputs
        # (the fault-free states at stop) ride along.
        assert_equivalent_runs(
            [{
                "family": "dbac", "n": n, "f": f, "window": window,
                "selector": selector, "strategy": strategy,
                "seeds": tuple(range(6)),
            }],
            {"serial-fast": serial_executor(), "batch": run_config_batch},
        )

    @needs_numpy
    @pytest.mark.parametrize("n,f,window,selector,strategy", BYZ_GRIDS)
    def test_numpy_backend_matches_python_fallback(
        self, n, f, window, selector, strategy
    ):
        # The kernel against the serial fallback it replaces: one
        # Engine run per seed over the DBAC builder, full state keys.
        seeds = [3, 11, 20, 21, 100]
        params = {"window": window, "selector": selector, "strategy": strategy}
        assert ByzBatchEngine(n, f, seeds, **params).run() == generic_dbac_lanes(
            n, f, seeds, **params
        )

    def test_stored_count_invariant_backs_the_kernel_layout(self, monkeypatch):
        # The kernel reconstructs R_low/R_high from a flat stored-value
        # buffer indexed by DBACProcess.stored_count. Count the actual
        # _store calls of the current phase on a real mid-flight
        # execution and assert the documented invariant: one store per
        # accepted port (plus the phase-start self value), recording
        # lists exactly min(stores, f+1) long.
        from repro.core.dbac import DBACProcess

        stores_this_phase: dict[int, int] = {}
        real_store = DBACProcess._store
        real_reset = DBACProcess._reset

        def counting_store(self, incoming_value):
            stores_this_phase[id(self)] = stores_this_phase.get(id(self), 0) + 1
            real_store(self, incoming_value)

        def counting_reset(self):
            stores_this_phase[id(self)] = 0  # real_reset re-stores the self value
            real_reset(self)

        monkeypatch.setattr(DBACProcess, "_store", counting_store)
        monkeypatch.setattr(DBACProcess, "_reset", counting_reset)
        engine, _result = run_serial_dbac_lane(
            11, 2, seed=5, window=1, selector="nearest", strategy="extreme",
            epsilon=1e-9, max_rounds=7,
        )
        for process in engine.processes.values():
            low, high = process.recording_lists
            assert process.stored_count == stores_this_phase[id(process)]
            assert process.stored_count == process.received_count
            expected = min(process.stored_count, process.trim)
            assert len(low) == expected and len(high) == expected

    @pytest.mark.parametrize("path", LANE_PATHS)
    def test_max_rounds_cap_reports_unstopped_lanes(self, path):
        params = {"epsilon": 1e-15, "max_rounds": 4}
        if path == "numpy":
            lanes = ByzBatchEngine(11, 2, [0, 1], **params).run()
        else:
            lanes = generic_dbac_lanes(11, 2, [0, 1], **params)
        assert lanes == run_dbac_batch(11, 2, [0, 1], **params)
        assert [lane.rounds for lane in lanes] == [4, 4]
        assert not any(lane.stopped for lane in lanes)
        for seed, lane in zip([0, 1], lanes):
            engine, result = run_serial_dbac_lane(
                11, 2, seed, 1, "nearest", "extreme", epsilon=1e-15, max_rounds=4
            )
            assert lane.state_keys == {
                node: process.state_key()
                for node, process in engine.processes.items()
            }

    @pytest.mark.parametrize("path", LANE_PATHS)
    def test_output_stop_mode_matches_serial_trials(self, path):
        # Algorithm-local stopping: p_end is astronomically conservative
        # so cap tightly; summaries must equal the serial trial's.
        seeds = [0, 1, 2]
        params = {"stop_mode": "output", "max_rounds": 6}
        if path == "numpy":
            lanes = ByzBatchEngine(11, None, seeds, **params).run()
        else:
            lanes = generic_dbac_lanes(11, 2, seeds, **params)
        serial = [run_dbac_trial(n=11, seed=s, **params) for s in seeds]
        assert [_lane_summary(lane, 1e-3) for lane in lanes] == serial
        assert run_dbac_trial_batch(n=11, seeds=seeds, **params) == serial

    def test_random_strategy_and_selector_on_kernel(self):
        # RNG-stream consumers vectorize by replaying each lane's own
        # streams: the kernel accepts them, and its lanes equal
        # serial-engine lanes and per-seed trials.
        seeds = [0, 1]
        for kwargs in ({"strategy": "random"}, {"selector": "random"}):
            assert (byz_kernel_refusal(**kwargs) is None) == numpy_available()
            if numpy_available():
                kernel = ByzBatchEngine(11, 2, seeds, **kwargs).run()
                assert kernel == generic_dbac_lanes(11, 2, seeds, **kwargs)
            lanes = run_dbac_batch(11, 2, seeds, **kwargs)
            assert lanes == generic_dbac_lanes(11, 2, seeds, **kwargs)
            serial = [run_dbac_trial(n=11, f=2, seed=s, **kwargs) for s in seeds]
            assert [lane.rounds for lane in lanes] == [r["rounds"] for r in serial]
            assert run_dbac_trial_batch(n=11, f=2, seeds=seeds, **kwargs) == serial

    def test_backend_resolution_and_validation(self):
        assert (byz_kernel_refusal() is None) == numpy_available()
        assert byz_kernel_refusal(selector="bogus") is not None
        dbac = family_entry("dbac").obj
        assert dbac.vectorizable({"selector": "rotate"}) == numpy_available()
        for kwargs in ({"strategy": "random"}, {"selector": "random"}):
            assert dbac.vectorizable(kwargs) == numpy_available()
        mobile = family_entry("byz").obj
        assert mobile.vectorizable({"mode": "rotate"}) == numpy_available()
        if numpy_available():
            assert ByzBatchEngine(11, 2, [0]).backend == "numpy"
        else:
            with pytest.raises(ValueError, match="numpy is not installed"):
                ByzBatchEngine(11, 2, [0])
        with pytest.raises(ValueError, match="seed"):
            ByzBatchEngine(11, 2, [])
        with pytest.raises(ValueError, match="5f"):
            ByzBatchEngine(10, 2, [0])
        with pytest.raises(ValueError, match="strategy"):
            ByzBatchEngine(11, 2, [0], strategy="nope")
        with pytest.raises(ValueError, match="stop_mode"):
            ByzBatchEngine(11, 2, [0], stop_mode="nope")
        with pytest.raises(ValueError, match="adversary"):
            ByzBatchEngine(11, 2, [0], adversary="nope")
        with pytest.raises(ValueError, match="fault-free"):
            ByzBatchEngine(8, 1, [0], adversary="mobile-rotate")
        with pytest.raises(ValueError, match="mobile mode"):
            ByzBatchEngine(8, None, [0], adversary="mobile-nope")
        with pytest.raises(ValueError, match="width"):
            ByzBatchEngine(11, 2, [0], width=0)


class TestMobileBatchMatchesSerial:
    """Mobile-omission lanes: the other run_byz_trial family."""

    @pytest.mark.parametrize("mode", MOBILE_MODES)
    def test_lanes_match_serial_engines_full_state(self, mode):
        # The shared harness, full state keys (strictly stronger than
        # the old picklable-summary comparison): serial sweep == the
        # family's batch dispatch on one 5-lane batch.
        assert_equivalent_runs(
            [{"family": "mobile", "n": 8, "mode": mode, "seeds": tuple(range(5))}],
            {"serial-fast": serial_executor(), "batch": run_config_batch},
        )

    def test_batched_summaries_equal_serial_trial_summaries(self):
        seeds = list(range(3))
        lanes = run_byz_batch(8, None, seeds, adversary="mobile-block_min")
        serial = [
            run_byz_trial(n=8, adversary="mobile-block_min", seed=s) for s in seeds
        ]
        assert [_lane_summary(lane, 1e-3) for lane in lanes] == serial

    @needs_numpy
    @pytest.mark.parametrize("mode", MOBILE_MODES)
    def test_numpy_backend_matches_python_fallback(self, mode):
        # The kernel against the serial fallback it replaces: one
        # Engine run per seed over the mobile-omission builder.
        seeds = [2, 7, 9]
        assert ByzBatchEngine(
            8, None, seeds, adversary=f"mobile-{mode}"
        ).run() == generic_mobile_lanes(8, seeds, mode)

    def test_victim_hook_matches_per_receiver_specification(self):
        # mobile_victims (what both the serial adversary and the numpy
        # kernel replicate) vs the retained per-receiver scan, on value
        # vectors with duplicated extremes (tie-breaking).
        from repro.adversary.mobile import MobileOmissionAdversary, mobile_victims

        tie_grids = [
            [0.5, 0.1, 0.1, 0.9, 0.9],
            [0.3, 0.3, 0.3],
            [1.0],
            [0.2, 0.8],
            [0.7, None, 0.1, 0.1],
        ]
        for values in tie_grids:
            n = len(values)
            for mode in ("block_min", "block_max"):
                adversary = MobileOmissionAdversary(mode)
                adversary.n = n

                class _View:
                    def value(self, node, _values=values):
                        return _values[node]

                spec = [
                    adversary._victim_sender(v, 0, _View()) for v in range(n)
                ]
                assert mobile_victims(mode, n, 0, list(values)) == spec, (
                    mode,
                    values,
                )


class TestNearestVectorization:
    """The stable-argsort nearest replication, ties included."""

    @needs_numpy
    def test_vectorized_picks_match_selector_hook_on_tie_heavy_values(self):
        import numpy as np

        from repro.adversary.constrained import nearest_picks
        from repro.sim.batch import select_delivered

        n = 10
        byzantine = frozenset({8, 9})
        degree = 6
        # Crafted tie storms: duplicated values, symmetric distances
        # around a receiver, converged lanes where everything ties.
        value_rows = [
            [0.5, 0.25, 0.75, 0.5, 0.5, 0.25, 0.75, 0.1, 0.0, 1.0],
            [0.5] * 8 + [0.0, 1.0],
            [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.0, 1.0],
            [0.4, 0.6, 0.5, 0.5, 0.3, 0.7, 0.5, 0.5, 0.0, 1.0],
        ]
        values = np.array(value_rows)
        byz = np.array(sorted(byzantine), dtype=np.intp)
        delivered = select_delivered(
            "nearest", degree, values, np.ones(n, dtype=bool), byz, None, None, {}
        )
        for lane, row in enumerate(value_rows):
            spec_values = [
                None if u in byzantine else row[u] for u in range(n)
            ]
            picks = nearest_picks(n, tuple(range(n)), spec_values, byzantine, degree)
            for receiver in range(n):
                if receiver in byzantine:
                    continue  # kernel rows for Byzantine receivers are unused
                chosen = {u for u in range(n) if delivered[lane, receiver, u]}
                assert chosen == set(picks[receiver]), (lane, receiver)

    @needs_numpy
    def test_tie_heavy_grid_stays_bit_identical(self):
        # Converged DBAC lanes are the real tie storm: after one
        # trimmed-midpoint update many honest nodes share a value, so
        # every later round breaks distance ties by node ID. A tiny
        # epsilon keeps the lanes in that regime for many rounds.
        seeds = list(range(4))
        lanes = ByzBatchEngine(11, 2, seeds, epsilon=1e-12).run()
        for seed, lane in zip(seeds, lanes):
            engine, result = run_serial_dbac_lane(
                11, 2, seed, 1, "nearest", "extreme", epsilon=1e-12
            )
            assert lane.rounds == int(result)
            assert lane.state_keys == {
                node: process.state_key()
                for node, process in engine.processes.items()
            }


class TestSelectorKernels:
    """The shared selector's crash-masked ``nearest`` and the RNG
    replays (``random`` selector, ``random`` strategy) on every kernel,
    against serial-engine lanes by full state key."""

    @needs_numpy
    def test_selector_masks_match_serial_picks_with_crashed_senders(self):
        import random

        import numpy as np

        from repro.adversary.constrained import nearest_picks, random_picks
        from repro.sim.batch import select_delivered

        n, degree = 9, 4
        live = (0, 1, 2, 4, 5, 7)  # 3, 6 and 8 have crashed
        live_mask = np.zeros(n, dtype=bool)
        live_mask[list(live)] = True
        no_byz = np.empty(0, dtype=np.intp)
        value_rows = [
            [0.5, 0.25, 0.75, 0.5, 0.5, 0.25, 0.75, 0.1, 0.0],
            [0.5] * n,
            [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9],
        ]
        nearest = select_delivered(
            "nearest", degree, np.array(value_rows), live_mask, no_byz, None, None, {}
        )
        drawn = select_delivered(
            "random", degree, np.array(value_rows), live_mask, no_byz, None,
            [random.Random(lane) for lane in range(len(value_rows))], {},
        )
        for lane, row in enumerate(value_rows):
            spec = nearest_picks(n, live, row, frozenset(), degree)
            replay = random_picks(n, live, degree, random.Random(lane))
            for receiver in range(n):
                if receiver in live:  # crashed receivers' rows are unread
                    assert set(np.nonzero(nearest[lane, receiver])[0]) == set(
                        spec[receiver]
                    ), (lane, receiver)
                assert set(np.nonzero(drawn[lane, receiver])[0]) == set(
                    replay[receiver]
                ), (lane, receiver)

    @needs_numpy
    @pytest.mark.parametrize("window", [1, 2, 4])
    def test_dac_nearest_with_staggered_crashes(self, window):
        seeds = [3, 11, 20, 21, 100]
        for n, f, crash_start in ((9, 4, 1), (12, 5, 2)):
            params = {"window": window, "selector": "nearest", "crash_start": crash_start}
            assert BatchEngine(n, f, seeds, **params).run() == generic_dac_lanes(
                n, f, seeds, **params
            )

    @needs_numpy
    @pytest.mark.parametrize("window", [1, 2])
    def test_random_selector_on_every_kernel(self, window):
        # Lanes stop at different rounds, so stopped lanes must stop
        # drawing while the others keep replaying their streams.
        seeds = [0, 4, 9, 17]
        params = {"window": window, "selector": "random"}
        assert BatchEngine(9, 4, seeds, **params).run() == generic_dac_lanes(
            9, 4, seeds, **params
        )
        assert ByzBatchEngine(11, 2, seeds, **params).run() == generic_dbac_lanes(
            11, 2, seeds, **params
        )
        for algorithm in ("midpoint", "trimmed"):
            baseline = dict(params, algorithm=algorithm, f=1)
            assert BaselineBatchEngine(7, seeds, **baseline).run() == (
                generic_baseline_lanes(7, seeds, **baseline)
            )
            assert run_baseline_batch(7, seeds, **baseline) == (
                generic_baseline_lanes(7, seeds, **baseline)
            )
        assert baseline_kernel_refusal("random") is None

    @needs_numpy
    @pytest.mark.parametrize("window", [1, 2])
    def test_random_strategy_under_every_selector(self, window):
        # Random Byzantine nodes draw on silent window rounds too.
        seeds = [0, 4, 9, 17]
        for selector in ("nearest", "rotate", "random"):
            params = {"window": window, "selector": selector, "strategy": "random"}
            assert ByzBatchEngine(11, 2, seeds, **params).run() == generic_dbac_lanes(
                11, 2, seeds, **params
            ), selector

    @needs_numpy
    def test_compaction_restarts_refilled_rows_streams(self):
        seeds = list(range(10))
        for params in (
            {"selector": "random"},
            {"strategy": "random", "window": 2},
            {"selector": "random", "strategy": "random"},
        ):
            reference = generic_dbac_lanes(11, 2, seeds, **params)
            for compact in (True, False):
                assert ByzBatchEngine(
                    11, 2, seeds, width=3, compact=compact, **params
                ).run() == reference, (params, compact)


class TestGridDispatch:
    """Which perfbench grid cells run on a kernel (read-only pin)."""

    @needs_numpy
    def test_only_the_averaging_cell_runs_per_seed(self):
        from perfbench.grid import SWEEP_CELLS

        from repro.scenario import resolve

        per_seed = []
        for text, _count in SWEEP_CELLS:
            resolved = resolve(text)
            if not resolved.family.vectorizable(resolved.params):
                per_seed.append(resolved.entry.name)
        assert per_seed == ["averaging"]


class TestLaneCompaction:
    """Compaction / width chunking: a pure scheduling knob."""

    @needs_numpy
    @pytest.mark.parametrize("width,compact", [
        (3, True), (3, False), (4, True), (1, True), (16, True), (16, False),
    ])
    def test_dbac_results_identical_at_any_width(self, width, compact):
        seeds = (5, 0, 13, 2, 7, 7, 1, 9, 4, 3, 11, 6, 8, 10, 12, 14)
        assert ByzBatchEngine(
            11, 2, seeds, width=width, compact=compact
        ).run() == cached_dbac_reference(seeds)

    @needs_numpy
    def test_compaction_on_off_equality_across_families(self):
        seeds = list(range(12))
        for kwargs, reference in (
            ({"adversary": "quorum"}, lambda: generic_dbac_lanes(11, 2, seeds)),
            (
                {"adversary": "mobile-block_min"},
                lambda: generic_mobile_lanes(11, seeds, "block_min"),
            ),
            (
                {"adversary": "quorum", "window": 2},
                lambda: generic_dbac_lanes(11, 2, seeds, window=2),
            ),
        ):
            f = None if "mobile" in kwargs["adversary"] else 2
            on = ByzBatchEngine(11, f, seeds, width=4, compact=True, **kwargs).run()
            off = ByzBatchEngine(11, f, seeds, width=4, compact=False, **kwargs).run()
            assert on == off == reference(), kwargs
            assert [lane.seed for lane in on] == seeds

    @needs_numpy
    def test_refilled_rows_restart_from_round_zero(self):
        # Mixed caps: with width 2 and compaction, later seeds run in
        # rows freed by earlier lanes; their round counts must match
        # full-width runs exactly.
        seeds = list(range(8))
        full = ByzBatchEngine(11, 2, seeds).run()
        narrow = ByzBatchEngine(11, 2, seeds, width=2, compact=True).run()
        assert [lane.rounds for lane in narrow] == [lane.rounds for lane in full]
        assert narrow == full


class TestByzBatchedTrialFunctions:
    def test_dbac_batched_summaries_equal_serial_summaries(self):
        seeds = list(range(5))
        batched = run_dbac_trial_batch(n=11, window=2, seeds=seeds)
        assert batched == [
            run_dbac_trial(n=11, window=2, seed=s) for s in seeds
        ]

    def test_byz_batched_summaries_equal_serial_summaries(self):
        seeds = list(range(4))
        for adversary in ("quorum", "mobile-block_max"):
            batched = run_byz_trial_batch(n=7, adversary=adversary, seeds=seeds)
            assert batched == [
                run_byz_trial(n=7, adversary=adversary, seed=s) for s in seeds
            ]

    def test_non_fast_batch_delegates_to_serial_trials(self):
        seeds = [0, 1]
        assert run_dbac_trial_batch(
            n=6, fast=False, stop_mode="output", max_rounds=5, seeds=seeds
        ) == [
            run_dbac_trial(n=6, fast=False, stop_mode="output", max_rounds=5, seed=s)
            for s in seeds
        ]

    def test_trials_carry_their_batched_forms(self):
        assert run_dbac_trial.batch_fn is run_dbac_trial_batch
        assert run_byz_trial.batch_fn is run_byz_trial_batch

    def test_sweep_workers_and_batch_identical_for_dbac(self):
        grid = {"n": [6, 11], "window": [1, 2]}
        serial = Sweep(grid=grid, repeats=4)
        composed = Sweep(grid=grid, repeats=4)
        serial.run(run_dbac_trial, workers=1, batch=1)
        composed.run(run_dbac_trial, workers=4, batch=4)
        assert serial.records == composed.records
        assert all(record.result["correct"] for record in composed.records)

    def test_sweep_workers_and_batch_identical_for_byz_families(self):
        grid = {"n": [8], "adversary": ["quorum", "mobile-block_min", "mobile-rotate"]}
        serial = Sweep(grid=grid, repeats=3)
        composed = Sweep(grid=grid, repeats=3)
        serial.run(run_byz_trial, workers=1, batch=1)
        composed.run(run_byz_trial, workers=2, batch=3)
        assert serial.records == composed.records


# One parameter set per registered family that still takes the serial
# path: observed and non-fast trials record per-trial engine data a
# kernel cannot produce, and averaging has no kernel.
SERIAL_FALLBACK_PARAMS = {
    "dac": {"n": 9, "window": 2, "selector": "random", "observe": True},
    "dbac": {"n": 11, "strategy": "random", "max_rounds": 2_000, "observe": True},
    "byz": {"n": 11, "adversary": "quorum", "selector": "random", "max_rounds": 2_000,
            "fast": False},
    "baseline": {"n": 7, "algorithm": "trimmed", "selector": "random", "window": 2,
                 "observe": True},
    "averaging": {"n": 6, "num_rounds": 30},
}


@pytest.fixture
def kernels_refused(monkeypatch):
    """Fail any kernel construction: the code under test must take the
    serial path."""

    def refuse(*args, **kwargs):
        raise AssertionError("a kernel ran where the serial path was expected")

    for name in ("BatchEngine", "ByzBatchEngine", "BaselineBatchEngine"):
        monkeypatch.setattr(f"repro.sim.batch.{name}", refuse)


class TestSerialFallbackPerFamily:
    """Groups outside every kernel run the family's serial trial per seed."""

    def test_every_builtin_family_is_covered(self):
        builtin = {
            entry.name
            for entry in entries("algorithm")
            if entry.obj.trial is not None
            and entry.obj.trial.__module__.startswith("repro.")
        }
        assert builtin <= set(SERIAL_FALLBACK_PARAMS)

    @pytest.mark.parametrize("family", sorted(SERIAL_FALLBACK_PARAMS))
    def test_batch_fn_equals_per_seed_trials(self, family, kernels_refused):
        trial = family_entry(family).obj.trial
        params = SERIAL_FALLBACK_PARAMS[family]
        seeds = [0, 3, 5]
        assert trial.batch_fn(seeds=seeds, **params) == [
            trial(seed=seed, **params) for seed in seeds
        ]

    @pytest.mark.parametrize("family", ["dac", "dbac", "byz", "baseline"])
    def test_one_seed_batch_runs_the_serial_trial(self, family, kernels_refused):
        # A single lane gains nothing from a kernel pass; it runs the
        # serial trial even when its parameters are vectorizable.
        trial = family_entry(family).obj.trial
        params = {"dac": {"n": 9}, "dbac": {"n": 11}, "byz": {"n": 8},
                  "baseline": {"n": 7}}[family]
        assert trial.batch_fn(seeds=[3], **params) == [trial(seed=3, **params)]
