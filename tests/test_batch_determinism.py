"""Determinism guarantees of the batched execution subsystem.

Three contracts make ``batch=B`` a pure speed knob:

1. the numpy kernels :class:`repro.sim.batch.BatchEngine`,
   :class:`repro.sim.batch.ByzBatchEngine` and
   :class:`repro.sim.batch.BaselineBatchEngine` produce **bit-identical
   final states and round counts** to ``B`` serial ``Engine`` runs of
   the same lanes -- full ``state_key`` equality, not just outputs --
   across the DAC (crash), DBAC (Byzantine), mobile-omission, baseline
   and averaging families: kernel lanes equal
   :class:`repro.sim.batch.GenericBatchEngine` lanes of the same lane
   family (one serial engine run per seed over
   :func:`repro.workloads.lane_execution`, which is each builder), also
   when lanes of one batch stop at different rounds;
2. :func:`repro.sim.batch.kernel_refusal` refuses lane families no
   kernel can replicate (subclassed processes and strategies included)
   with a message naming them, and every batched form runs those
   groups serially --
   so every family's ``batch_fn`` equals its per-seed trial, with or
   without numpy. Every enforcing selector (``rotate``, ``nearest``,
   ``random``) and every trial-menu Byzantine strategy runs on a
   kernel; the RNG-driven ones replay each lane's own serial streams;
3. ``Sweep.run(workers=4, batch=4)`` records are identical, element
   for element, to ``Sweep.run(workers=1, batch=1)`` records.
"""

import dataclasses
import functools

import pytest

from repro.bench.sweep import Sweep
from repro.core.averaging import AVERAGING_RULES, AveragingProcess
from repro.families.averaging import averaging_lane_family
from repro.faults.byzantine import ExtremeByzantine
from repro.scenario import family_trial, resolve, spec_for
from repro.scenario.registry import entries
from repro.scenario.trial import _lane_summary
from repro.sim.batch import (
    BaselineBatchEngine,
    BatchEngine,
    ByzBatchEngine,
    GenericBatchEngine,
    kernel_refusal,
    numpy_available,
    run_lanes,
)
from repro.sim.engine import Engine
from repro.sim.messages import StateMessage
from repro.sim.parallel import (
    TrialSpec,
    resolve_batch,
    run_trials,
    set_default_batch,
)
from repro.sim.runner import run_consensus
from repro.workloads import (
    TRIAL_BYZANTINE_STRATEGIES,
    baseline_lane_family,
    build_dbac_execution,
    build_mobile_execution,
    dac_lane_family,
    dbac_lane_family,
    mobile_lane_family,
)
from tests.helpers import (
    assert_equivalent_runs,
    run_config_batch,
    serial_executor,
)

needs_numpy = pytest.mark.skipif(not numpy_available(), reason="numpy not installed")

dac_trial = family_trial("dac")
dbac_trial = family_trial("dbac")
byz_trial = family_trial("byz")


def serial_summary(execution):
    """The trial summary of one untraced run of a built execution."""
    report = run_consensus(
        **execution, record_trace=False, verify_promise=False, track_phases=False
    )
    return {
        "rounds": report.rounds,
        "spread": report.output_spread,
        "terminated": report.terminated,
        "correct": report.correct,
    }

# The two lane implementations behind run_lanes: the "numpy" kernel,
# and the "python" GenericBatchEngine over lane_execution.
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


def dbac_family(n, f, strategy="extreme", **params):
    """The DBAC lane family with a named trial-menu Byzantine strategy."""
    factory = TRIAL_BYZANTINE_STRATEGIES[strategy]
    return dbac_lane_family(n, f, byzantine_factory=lambda node: factory(), **params)


def resolved_lanes(name, **params):
    """The registered family's ``lanes`` for flat spec parameters."""
    resolved = resolve(spec_for(name, params))
    return resolved.family.lanes(**resolved.params)


def generic_dac_lanes(n, f, seeds, **params):
    """Serial reference lanes: one Engine run per seed of the DAC family."""
    return GenericBatchEngine(dac_lane_family(n, f, **params), seeds).run()


def generic_dbac_lanes(n, f, seeds, strategy="extreme", **params):
    """Serial reference lanes of the DBAC family with a named strategy."""
    return GenericBatchEngine(dbac_family(n, f, strategy, **params), seeds).run()


def generic_baseline_lanes(n, seeds, **params):
    """Serial reference lanes of the averaging-baseline family."""
    return GenericBatchEngine(baseline_lane_family(n, **params), seeds).run()


def generic_mobile_lanes(n, seeds, mode, **params):
    """Serial reference lanes of the mobile-omission family."""
    return GenericBatchEngine(mobile_lane_family(n, mode=mode, **params), seeds).run()


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
        family = dac_lane_family(n, f, window=window)
        assert BatchEngine(family, seeds).run() == generic_dac_lanes(
            n, f, seeds, window=window
        )

    def test_lane_order_is_seed_order_not_finish_order(self):
        # Lanes terminate at different rounds; results must still come
        # back in seeds order.
        seeds = [7, 0, 13, 5]
        lanes = run_lanes(dac_lane_family(9, 4, window=2), seeds)
        assert [lane.seed for lane in lanes] == seeds
        assert len({lane.rounds for lane in lanes}) >= 1  # all finalized
        assert all(lane.stopped for lane in lanes)

    def test_backend_resolution_and_validation(self):
        # One predicate decides the kernel: run_lanes takes it exactly
        # when kernel_refusal accepts -- every enforcing selector, given
        # numpy -- and the kernel constructor refuses everything else,
        # naming the reason.
        for selector in ("rotate", "nearest", "random"):
            family = dac_lane_family(9, 4, selector=selector)
            assert (kernel_refusal(family) is None) == numpy_available()
            lanes = resolved_lanes("dac", n=9, selector=selector)
            assert (kernel_refusal(lanes) is None) == numpy_available()
        bogus = dataclasses.replace(dac_lane_family(9, 4), selector="bogus")
        assert kernel_refusal(bogus) is not None
        if numpy_available():
            engine = BatchEngine(dac_lane_family(9, 4), [0])
            assert engine.backend == "numpy"
            assert engine.batch_size == 1
            for selector in ("nearest", "random"):
                lanes = BatchEngine(dac_lane_family(9, 4, selector=selector), [0, 1]).run()
                assert lanes == generic_dac_lanes(9, 4, [0, 1], selector=selector)
            with pytest.raises(ValueError, match="DBACProcess lanes run on ByzBatchEngine"):
                BatchEngine(dbac_family(11, 2), [0])
        else:
            with pytest.raises(ValueError, match="numpy is not installed"):
                BatchEngine(dac_lane_family(9, 4), [0])
        # Kernel or not, the lanes equal serial-engine lanes.
        nearest = dac_lane_family(9, 4, selector="nearest")
        assert run_lanes(nearest, [0, 1]) == generic_dac_lanes(
            9, 4, [0, 1], selector="nearest"
        )
        with pytest.raises(ValueError, match="seed"):
            BatchEngine(dac_lane_family(9, 4), [])
        with pytest.raises(ValueError, match="2f"):
            dac_lane_family(8, 4)

    @pytest.mark.parametrize("path", LANE_PATHS)
    def test_max_rounds_cap_reports_unstopped_lanes(self, path):
        # A cap far below termination: every lane must report exactly
        # the cap and stopped=False, like Engine.run does.
        family = dac_lane_family(9, 4, max_rounds=3)
        if path == "numpy":
            lanes = BatchEngine(family, [0, 1]).run()
        else:
            lanes = generic_dac_lanes(9, 4, [0, 1], max_rounds=3)
        assert lanes == run_lanes(family, [0, 1])
        assert [lane.rounds for lane in lanes] == [3, 3]
        assert not any(lane.stopped for lane in lanes)
        assert all(lane.outputs == {} for lane in lanes)


class TestBatchedTrialFunction:
    def test_batched_summaries_equal_serial_summaries(self):
        seeds = list(range(6))
        batched = dac_trial.batch_fn(n=9, window=2, seeds=seeds)
        assert batched == [dac_trial(n=9, window=2, seed=s) for s in seeds]

    def test_resolution_dispatches_the_family_trial(self):
        resolved = resolve("algorithm: dac@1(n=5)")
        assert resolved.trial_fn is dac_trial
        assert resolved.batch_fn == dac_trial.batch_fn

    def test_batched_calls_take_one_lane_engine_run(self, monkeypatch):
        # Two or more unobserved averaging seeds are one lane-engine run
        # under run_lanes -- the baseline kernel, or GenericBatchEngine
        # without numpy -- not a serial trial per seed. Observed calls
        # and one-seed calls run the serial trial.
        from repro.scenario.trial import FamilyTrial

        lane_engine = BaselineBatchEngine if numpy_available() else GenericBatchEngine
        calls = {"engine": 0, "trial": 0}
        engine_run, trial_run = lane_engine.run, FamilyTrial._run

        def counted_engine(engine):
            calls["engine"] += 1
            return engine_run(engine)

        def counted_trial(trial, *args):
            calls["trial"] += 1
            return trial_run(trial, *args)

        monkeypatch.setattr(lane_engine, "run", counted_engine)
        monkeypatch.setattr(FamilyTrial, "_run", counted_trial)
        trial = family_trial("averaging")
        params = {"n": 6, "num_rounds": 12}
        batched = trial.batch_fn(seeds=[0, 1, 2, 3], **params)
        assert calls == {"engine": 1, "trial": 0}
        observed = trial.batch_fn(seeds=[0, 1], observe=True, **params)
        assert calls == {"engine": 1, "trial": 2}
        assert trial.batch_fn(seeds=[3], **params) == batched[3:]
        assert calls == {"engine": 1, "trial": 3}
        assert batched == [trial(seed=seed, **params) for seed in range(4)]
        assert [dict(summary, metrics=None) for summary in observed] == [
            dict(summary, metrics=None) for summary in batched[:2]
        ]

    def test_resolved_batch_runs_lanes_or_build(self):
        # run_lanes over every family's lanes; averaging's (kernel lanes
        # given numpy) equal serial runs of its build.
        seeds = [0, 1, 2]
        dac = resolve("algorithm: dac@1(n=9); network: dynadegree@1(window=2)")
        assert dac.batch(seeds) == generic_dac_lanes(9, 4, seeds, window=2)
        averaging = resolve("algorithm: averaging@1(n=6); rounds: 12")
        for seed, lane in zip(seeds, averaging.batch(seeds)):
            kwargs = averaging.build_execution(seed)
            report = run_consensus(**kwargs)
            assert (lane.seed, lane.rounds, lane.stopped, lane.outputs) == (
                seed, report.rounds, report.terminated, report.outputs
            )
            assert lane.state_keys == {
                node: process.state_key() for node, process in kwargs["processes"].items()
            }


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
        serial.run(dac_trial, workers=1, batch=1)
        composed.run(dac_trial, workers=4, batch=4)
        assert serial.records == composed.records
        assert all(record.result["correct"] for record in composed.records)

    def test_sweep_discovers_the_batched_form_from_the_trial(self):
        grid = {"n": [9]}
        explicit = Sweep(grid=grid, repeats=4)
        implicit = Sweep(grid=grid, repeats=4)
        explicit.run(dac_trial, batch=4, batch_fn=dac_trial.batch_fn)
        implicit.run(dac_trial, batch=4)  # dac_trial.batch_fn
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
        assert ByzBatchEngine(dbac_family(n, f, **params), seeds).run() == generic_dbac_lanes(
            n, f, seeds, **params
        )

    # (selector, strategy, max_rounds): a run that ends on fresh phases,
    # and one whose random Byzantine phases leave nodes mid-phase.
    BUFFER_RUNS = [("nearest", "extreme", 7), ("rotate", "random", 5)]

    def test_stored_count_invariant_backs_the_kernel_layout(self):
        # The serial process keeps each phase's stored values as a flat
        # buffer, the layout the kernel indexes by stored_count. On real
        # executions the buffer holds the phase-start self value first
        # and one value per other marked port of R_i, and the recording
        # lists are exactly min(stores, f+1) long: the two ends of the
        # sorted buffer.
        counts = []
        for selector, strategy, max_rounds in self.BUFFER_RUNS:
            engine, _result = run_serial_dbac_lane(
                11, 2, 5, 1, selector, strategy, epsilon=1e-9, max_rounds=max_rounds
            )
            for process in engine.processes.values():
                stored = process._stored
                assert repr(stored[0]) == repr(process.value)
                assert process.stored_count == len(stored) == sum(process._received)
                assert process.stored_count == process.received_count
                low, high = process.recording_lists
                expected = min(process.stored_count, process.trim)
                ordered = sorted(stored)
                assert low == tuple(ordered[:expected]) and high == tuple(ordered[-expected:])
                counts.append(process.stored_count)
        assert max(counts) > 3  # some lists were trimmed mid-phase

    @needs_numpy
    @pytest.mark.parametrize("selector,strategy,max_rounds", BUFFER_RUNS)
    def test_kernel_buffer_is_the_serial_buffer(
        self, monkeypatch, selector, strategy, max_rounds
    ):
        # One representation: each kernel row's first stored_count slots
        # are the serial process's buffer, value for value, in order.
        captured = []
        real_keys = ByzBatchEngine._state_keys

        def capture(self, state, i):
            captured.append((state["stored"][i].tolist(), state["count"][i].tolist()))
            return real_keys(self, state, i)

        monkeypatch.setattr(ByzBatchEngine, "_state_keys", capture)
        params = {"selector": selector, "epsilon": 1e-9, "max_rounds": max_rounds}
        for seed in (5, 6):
            ByzBatchEngine(dbac_family(11, 2, strategy=strategy, **params), [seed]).run()
            stored, counts = captured.pop()
            engine, _result = run_serial_dbac_lane(11, 2, seed, 1, strategy=strategy, **params)
            for node, process in engine.processes.items():
                assert repr(stored[node][: counts[node]]) == repr(process._stored)

    @pytest.mark.parametrize("path", LANE_PATHS)
    def test_max_rounds_cap_reports_unstopped_lanes(self, path):
        params = {"epsilon": 1e-15, "max_rounds": 4}
        family = dbac_family(11, 2, **params)
        if path == "numpy":
            lanes = ByzBatchEngine(family, [0, 1]).run()
        else:
            lanes = generic_dbac_lanes(11, 2, [0, 1], **params)
        assert lanes == run_lanes(family, [0, 1])
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
            lanes = ByzBatchEngine(dbac_family(11, 2, **params), seeds).run()
        else:
            lanes = generic_dbac_lanes(11, 2, seeds, **params)
        serial = [
            serial_summary(build_dbac_execution(n=11, f=2, seed=s, **params))
            for s in seeds
        ]
        assert [_lane_summary(lane, 1e-3) for lane in lanes] == serial

    def test_random_strategy_and_selector_on_kernel(self):
        # RNG-stream consumers vectorize by replaying each lane's own
        # streams: the kernel accepts them, and its lanes equal
        # serial-engine lanes and per-seed trials.
        seeds = [0, 1]
        for kwargs in ({"strategy": "random"}, {"selector": "random"}):
            family = dbac_family(11, 2, **kwargs)
            assert (kernel_refusal(family) is None) == numpy_available()
            if numpy_available():
                kernel = ByzBatchEngine(family, seeds).run()
                assert kernel == generic_dbac_lanes(11, 2, seeds, **kwargs)
            lanes = run_lanes(family, seeds)
            assert lanes == generic_dbac_lanes(11, 2, seeds, **kwargs)
            serial = [dbac_trial(n=11, f=2, seed=s, **kwargs) for s in seeds]
            assert [lane.rounds for lane in lanes] == [r["rounds"] for r in serial]
            assert dbac_trial.batch_fn(n=11, f=2, seeds=seeds, **kwargs) == serial

    def test_backend_resolution_and_validation(self):
        assert (kernel_refusal(dbac_family(11, 2)) is None) == numpy_available()
        bogus = dataclasses.replace(dbac_family(11, 2), selector="bogus")
        assert kernel_refusal(bogus) is not None
        for kwargs in ({"selector": "rotate"}, {"strategy": "random"}, {"selector": "random"}):
            lanes = resolved_lanes("dbac", n=11, **kwargs)
            assert (kernel_refusal(lanes) is None) == numpy_available()
        lanes = resolved_lanes("byz", n=8, mode="rotate")
        assert (kernel_refusal(lanes) is None) == numpy_available()
        if numpy_available():
            assert ByzBatchEngine(dbac_family(11, 2), [0]).backend == "numpy"
            with pytest.raises(ValueError, match="DACProcess lanes run on BatchEngine"):
                ByzBatchEngine(lanes, [0])
        else:
            with pytest.raises(ValueError, match="numpy is not installed"):
                ByzBatchEngine(dbac_family(11, 2), [0])
        with pytest.raises(ValueError, match="seed"):
            ByzBatchEngine(dbac_family(11, 2), [])
        with pytest.raises(ValueError, match="5f"):
            dbac_lane_family(10, 2)
        with pytest.raises(ValueError, match="strategy"):
            dbac_trial.batch_fn(n=11, strategy="nope", seeds=[0, 1])
        with pytest.raises(ValueError, match="stop_mode"):
            dbac_family(11, 2, stop_mode="nope")
        with pytest.raises(ValueError, match="mobile mode"):
            mobile_lane_family(8, mode="nope")

    @pytest.mark.parametrize("path", LANE_PATHS)
    @pytest.mark.parametrize("family", ["dbac", "mobile"])
    def test_unknown_stop_mode_raises_on_every_path(self, family, path, monkeypatch):
        # The lane family checks the stop mode with run_consensus's own
        # message, so the kernel and the serial fallback reject it alike.
        import repro.sim.batch as batch

        if path == "python":
            monkeypatch.setattr(batch, "_np", None)
        message = "unknown stop_mode 'nope'"
        if family == "dbac":
            with pytest.raises(ValueError, match=message):
                build_dbac_execution(n=6, f=1, stop_mode="nope")
            with pytest.raises(ValueError, match=message):
                run_lanes(dbac_lane_family(6, 1, stop_mode="nope"), [0, 1])
        else:
            with pytest.raises(ValueError, match=message):
                build_mobile_execution(n=6, mode="rotate", stop_mode="nope")
            with pytest.raises(ValueError, match=message):
                run_lanes(mobile_lane_family(6, mode="rotate", stop_mode="nope"), [0, 1])


class SwappedExtreme(ExtremeByzantine):
    """:class:`ExtremeByzantine` with its faces swapped: ``high`` to even
    receivers, ``low`` to odd ones."""

    def messages(self, t, view):
        phase = max(0, view.max_fault_free_phase())
        faces = (StateMessage(self.high, phase), StateMessage(self.low, phase))
        return {
            receiver: faces[receiver % 2]
            for receiver in range(self.n)
            if receiver != self.node
        }


class MedianAveraging(AveragingProcess):
    """:class:`AveragingProcess` that moves to the median it hears
    instead of the mean."""

    def deliver(self, deliveries):
        if self._output is not None:
            return
        values = sorted(float(d.message.value) for d in deliveries)
        self._v = values[len(values) // 2]
        self._round += 1
        if self._round >= self.num_rounds:
            self._output = self._v


class TestExactTypeRefusal:
    """The kernel and the Byzantine plans are picked by exact type: a
    subclass that overrides behaviour is refused and runs serially."""

    def test_overriding_strategy_subclass_is_refused(self):
        # dbac_lane_family(byzantine_factory=...) reaches run_lanes with
        # any strategy; an isinstance match would vectorize this one as
        # the plain ExtremeByzantine and send every receiver the wrong
        # face.
        def factory(node):
            return SwappedExtreme()

        family = dbac_lane_family(11, 2, byzantine_factory=factory)
        reason = kernel_refusal(family)
        assert reason is not None
        if numpy_available():
            assert "SwappedExtreme" in reason
        seeds = [0, 1, 2, 5]
        lanes = run_lanes(family, seeds)
        assert [lane.seed for lane in lanes] == seeds
        for seed, lane in zip(seeds, lanes):
            kwargs = build_dbac_execution(n=11, f=2, seed=seed, byzantine_factory=factory)
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
                kwargs["max_rounds"],
                stop_when=lambda eng: eng.fault_free_range() <= kwargs["epsilon"],
            )
            assert (lane.rounds, lane.stopped) == (int(result), result.stopped)
            assert lane.state_keys == {
                node: process.state_key() for node, process in engine.processes.items()
            }

    @needs_numpy
    def test_process_subclasses_are_refused(self):
        from repro.core.piggyback import PiggybackDACProcess

        piggyback = dataclasses.replace(
            dac_lane_family(5, 2),
            make_process=lambda value, port: PiggybackDACProcess(5, 2, value, port),
            process_type=PiggybackDACProcess,
        )
        # AveragingProcess runs on the baseline kernel; a subclass that
        # overrides its update must not.
        averaging = dataclasses.replace(
            averaging_lane_family(5, num_rounds=4),
            make_process=lambda value, port: MedianAveraging(5, 0, value, port, num_rounds=4),
            process_type=MedianAveraging,
        )
        for family, name in ((piggyback, "PiggybackDACProcess"), (averaging, "MedianAveraging")):
            assert kernel_refusal(family) == f"no kernel runs {name} lanes"
            assert run_lanes(family, [0, 1]) == GenericBatchEngine(family, [0, 1]).run()
        # The override matters: a kernel run as plain averaging would differ.
        assert run_lanes(averaging, [0, 1]) != run_lanes(
            averaging_lane_family(5, num_rounds=4), [0, 1]
        )


class TestMobileBatchMatchesSerial:
    """Mobile-omission lanes: the ``byz`` family."""

    @pytest.mark.parametrize("mode", MOBILE_MODES)
    def test_lanes_match_serial_engines_full_state(self, mode):
        # The shared harness, full state keys (strictly stronger than
        # the old picklable-summary comparison): serial sweep == the
        # family's batch dispatch on one 5-lane batch.
        assert_equivalent_runs(
            [{"family": "mobile", "n": 8, "mode": mode, "seeds": tuple(range(5))}],
            {"serial-fast": serial_executor(), "batch": run_config_batch},
        )

    @needs_numpy
    @pytest.mark.parametrize("mode", MOBILE_MODES)
    def test_kernel_matches_serial_engine_under_both_stop_modes(self, mode):
        # Every receiver hears n - 2 peers a round, so these are the real
        # executions most likely to put several events in one cell's
        # round. Oracle lanes stop at different rounds (3 to 8 here).
        seeds = list(range(7))
        for stop_mode in ("oracle", "output"):
            family = mobile_lane_family(13, mode=mode, stop_mode=stop_mode)
            lanes = BatchEngine(family, seeds).run()
            assert lanes == generic_mobile_lanes(13, seeds, mode, stop_mode=stop_mode)

    def test_batched_summaries_equal_serial_trial_summaries(self):
        seeds = list(range(3))
        lanes = run_lanes(mobile_lane_family(8, mode="block_min"), seeds)
        serial = [byz_trial(n=8, mode="block_min", seed=s) for s in seeds]
        assert [_lane_summary(lane, 1e-3) for lane in lanes] == serial

    @needs_numpy
    @pytest.mark.parametrize("mode", MOBILE_MODES)
    def test_numpy_backend_matches_python_fallback(self, mode):
        # The kernel against the serial fallback it replaces: one
        # Engine run per seed over the mobile-omission builder.
        seeds = [2, 7, 9]
        assert BatchEngine(
            mobile_lane_family(8, mode=mode), seeds
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


class TestAveragingBatchMatchesSerial:
    """``averaging`` lanes, both rules, on the baseline kernel."""

    @pytest.mark.parametrize("rule", AVERAGING_RULES)
    @pytest.mark.parametrize("window", [1, 2, 4])
    def test_lanes_match_serial_engines_full_state(self, rule, window):
        # The shared harness: serial sweep == the family's batch
        # dispatch (kernel lanes given numpy) by full state key, every
        # enforcing selector, batches of 8 or more values at n = 16, and
        # short budgets (0: output at init).
        assert_equivalent_runs(
            [
                {"family": "averaging", "rule": rule, "n": n, "window": window,
                 "selector": selector, "seeds": tuple(range(6)), **budget}
                for selector in ("rotate", "nearest", "random")
                for n, budget in ((5, {"num_rounds": 0}), (9, {"num_rounds": 3}), (16, {}))
            ],
            {"serial-fast": serial_executor(), "batch": run_config_batch},
        )

    @needs_numpy
    @pytest.mark.parametrize(
        "family",
        [
            functools.partial(averaging_lane_family, 9, rule="mean"),
            functools.partial(averaging_lane_family, 9, rule="midpoint"),
            functools.partial(baseline_lane_family, 9, algorithm="midpoint"),
            functools.partial(baseline_lane_family, 9, algorithm="trimmed", f=2),
        ],
        ids=["averaging-mean", "averaging-midpoint", "baseline-midpoint", "baseline-trimmed"],
    )
    def test_capped_kernel_lanes_equal_serial_lanes(self, family):
        # A cap below the round budget (a replaced family; the lane
        # functions never set one): like Engine.run, every lane reports
        # the cap, stopped=False, no outputs and undecided state keys.
        seeds = [0, 4, 9]
        for window in (1, 2, 4):
            for cap in (0, 1, 5, 6):
                capped = dataclasses.replace(
                    family(window=window, selector="random", num_rounds=8), max_rounds=cap
                )
                lanes = BaselineBatchEngine(capped, seeds).run()
                assert lanes == GenericBatchEngine(capped, seeds).run()
                assert {(lane.rounds, lane.stopped) for lane in lanes} == {(cap, False)}
                assert all(lane.outputs == {} for lane in lanes)

    def test_batched_summaries_equal_serial_trial_summaries(self):
        trial = family_trial("averaging")
        seeds = list(range(4))
        for rule in AVERAGING_RULES:
            params = {"n": 7, "rule": rule, "num_rounds": 40}
            assert trial.batch_fn(seeds=seeds, **params) == [
                trial(seed=seed, **params) for seed in seeds
            ]

    @needs_numpy
    def test_kernel_runs_both_rules(self):
        for rule in AVERAGING_RULES:
            assert kernel_refusal(averaging_lane_family(7, rule=rule)) is None


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
            "nearest", degree, values, np.ones(n, dtype=bool), byz, None, None, tuple(range(n))
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
        lanes = ByzBatchEngine(dbac_family(11, 2, epsilon=1e-12), seeds).run()
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
            "nearest", degree, np.array(value_rows), live_mask, no_byz, None, None, live
        )
        drawn = select_delivered(
            "random", degree, np.array(value_rows), live_mask, no_byz, None,
            [random.Random(lane) for lane in range(len(value_rows))], live,
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
            assert BatchEngine(dac_lane_family(n, f, **params), seeds).run() == generic_dac_lanes(
                n, f, seeds, **params
            )

    @needs_numpy
    @pytest.mark.parametrize("window", [1, 2, 4])
    def test_random_selector_on_every_kernel(self, window):
        # Lanes stop at different rounds, so stopped lanes must stop
        # drawing while the others keep replaying their streams.
        seeds = [0, 4, 9, 17]
        params = {"window": window, "selector": "random"}
        assert BatchEngine(dac_lane_family(9, 4, **params), seeds).run() == generic_dac_lanes(
            9, 4, seeds, **params
        )
        assert ByzBatchEngine(dbac_family(11, 2, **params), seeds).run() == generic_dbac_lanes(
            11, 2, seeds, **params
        )
        for algorithm in ("midpoint", "trimmed"):
            baseline = dict(params, algorithm=algorithm, f=1)
            family = baseline_lane_family(7, **baseline)
            assert BaselineBatchEngine(family, seeds).run() == (
                generic_baseline_lanes(7, seeds, **baseline)
            )
            assert run_lanes(family, seeds) == (
                generic_baseline_lanes(7, seeds, **baseline)
            )
            assert kernel_refusal(family) is None

    @needs_numpy
    @pytest.mark.parametrize("window", [1, 2, 4])
    def test_random_strategy_under_every_selector(self, window):
        # Random Byzantine nodes draw on silent window rounds too.
        seeds = [0, 4, 9, 17]
        for selector in ("nearest", "rotate", "random"):
            params = {"window": window, "selector": selector, "strategy": "random"}
            assert ByzBatchEngine(dbac_family(11, 2, **params), seeds).run() == generic_dbac_lanes(
                11, 2, seeds, **params
            ), selector


class TestGridDispatch:
    """Which perfbench grid cells run on a kernel (read-only pin)."""

    @needs_numpy
    def test_every_grid_cell_runs_on_a_kernel(self):
        from perfbench.grid import SWEEP_CELLS

        from repro.scenario import resolve

        per_seed = []
        for text, _count in SWEEP_CELLS:
            resolved = resolve(text)
            lanes = resolved.family.lanes(**resolved.params)
            if kernel_refusal(lanes) is not None:
                per_seed.append(resolved.entry.name)
        assert per_seed == []

    @needs_numpy
    def test_traced_kernel_rows_count_every_lane_once(self):
        # The benchmark's tracer patches each kernel class's own ``run``
        # and counts the lanes it returns: an inherited ``run`` is never
        # patched, and lanes that detour through the serial fallback's
        # ``run`` count as fallback lanes. (A nested call under the same
        # span name opens no second span, so it is not counted twice.)
        from perfbench.tracing import Tracer, instrument

        tracer = Tracer()
        patches = instrument(tracer)
        try:
            lanes = [
                *run_lanes(dac_lane_family(9, 4), [0, 1]),
                *run_lanes(dbac_lane_family(11, 2), [0, 1, 2]),
                *run_lanes(mobile_lane_family(8, mode="rotate"), [0, 1]),
                *run_lanes(baseline_lane_family(6, num_rounds=3), [0, 1]),
            ]
        finally:
            patches.restore()
        assert tracer.counters["sim.batch.kernel.lanes"] == len(lanes) == 9
        assert "sim.batch.fallback.lanes" not in tracer.counters


# Seeds whose DBAC lanes (n=11, f=2) stop apart: 5 and 13 finish before
# the rest, and 7 runs twice.
LONG_TAIL = (5, 0, 13, 2, 7, 7, 1, 9, 4, 3, 11, 6, 8, 10, 12, 14)

# name -> (keyword arguments, serial reference lanes, whether some lanes
# must hit the cap). Baseline lanes all output at their round budget and
# DAC lanes of one call stop together on every grid tried, so the lanes
# that stop apart are DBAC and mobile lanes.
STOP_APART = {
    "dbac-long-tail": (
        {}, lambda: generic_dbac_lanes(11, 2, LONG_TAIL), False,
    ),
    "dbac-window-2": (
        {"window": 2}, lambda: generic_dbac_lanes(11, 2, LONG_TAIL, window=2), False,
    ),
    "dbac-window-4": (
        {"window": 4}, lambda: generic_dbac_lanes(11, 2, LONG_TAIL, window=4), False,
    ),
    "dbac-capped": (
        {"max_rounds": 9}, lambda: generic_dbac_lanes(11, 2, LONG_TAIL, max_rounds=9), True,
    ),
    "dbac-random-selector": (
        {"selector": "random"},
        lambda: generic_dbac_lanes(11, 2, LONG_TAIL, selector="random"),
        False,
    ),
    "dbac-random-strategy-window-2-capped": (
        {"strategy": "random", "window": 2, "max_rounds": 24},
        lambda: generic_dbac_lanes(
            11, 2, LONG_TAIL, strategy="random", window=2, max_rounds=24
        ),
        True,
    ),
    "dbac-random-both-window-4": (
        {"selector": "random", "strategy": "random", "window": 4},
        lambda: generic_dbac_lanes(
            11, 2, LONG_TAIL, selector="random", strategy="random", window=4
        ),
        False,
    ),
    **{
        f"mobile-{mode}-capped": (
            {"mode": mode, "max_rounds": 5},
            functools.partial(generic_mobile_lanes, 13, LONG_TAIL, mode, max_rounds=5),
            True,
        )
        for mode in MOBILE_MODES
    },
}


class TestLanesStopApart:
    """Lanes of one batch stop at different rounds: a finished lane's
    rows leave the driver's tables while the others run on, and a
    finished lane draws nothing more from its streams."""

    @needs_numpy
    @pytest.mark.parametrize("case", sorted(STOP_APART))
    def test_kernel_lanes_equal_serial_lanes(self, case):
        kwargs, reference, capped = STOP_APART[case]
        if "mode" in kwargs:  # mobile-omission lanes are DAC lanes
            lanes = BatchEngine(mobile_lane_family(13, **kwargs), LONG_TAIL).run()
        else:
            lanes = ByzBatchEngine(dbac_family(11, 2, **kwargs), LONG_TAIL).run()
        assert lanes == reference()
        assert [lane.seed for lane in lanes] == list(LONG_TAIL)
        assert len({lane.rounds for lane in lanes}) > 1
        assert {lane.stopped for lane in lanes} == ({True, False} if capped else {True})


class TestByzBatchedTrialFunctions:
    def test_dbac_batched_summaries_equal_serial_summaries(self):
        seeds = list(range(5))
        batched = dbac_trial.batch_fn(n=11, window=2, seeds=seeds)
        assert batched == [
            dbac_trial(n=11, window=2, seed=s) for s in seeds
        ]

    def test_byz_batched_summaries_equal_serial_summaries(self):
        seeds = list(range(4))
        for mode in ("block_min", "block_max"):
            batched = byz_trial.batch_fn(n=7, mode=mode, seeds=seeds)
            assert batched == [byz_trial(n=7, mode=mode, seed=s) for s in seeds]

    def test_sweep_workers_and_batch_identical_for_dbac(self):
        grid = {"n": [6, 11], "window": [1, 2]}
        serial = Sweep(grid=grid, repeats=4)
        composed = Sweep(grid=grid, repeats=4)
        serial.run(dbac_trial, workers=1, batch=1)
        composed.run(dbac_trial, workers=4, batch=4)
        assert serial.records == composed.records
        assert all(record.result["correct"] for record in composed.records)

    def test_sweep_workers_and_batch_identical_for_byz_families(self):
        grid = {"n": [8], "mode": ["block_min", "rotate"]}
        serial = Sweep(grid=grid, repeats=3)
        composed = Sweep(grid=grid, repeats=3)
        serial.run(byz_trial, workers=1, batch=1)
        composed.run(byz_trial, workers=2, batch=3)
        assert serial.records == composed.records


# One parameter set per registered family that still takes the serial
# path: observed trials record per-trial engine data a kernel cannot
# produce.
SERIAL_FALLBACK_PARAMS = {
    "dac": {"n": 9, "window": 2, "selector": "random", "observe": True},
    "dbac": {"n": 11, "strategy": "random", "max_rounds": 2_000, "observe": True},
    "byz": {"n": 11, "mode": "rotate", "max_rounds": 2_000, "observe": True},
    "baseline": {"n": 7, "algorithm": "trimmed", "selector": "random", "window": 2,
                 "observe": True},
    "averaging": {"n": 6, "num_rounds": 30, "observe": True},
}


@pytest.fixture
def kernels_refused(monkeypatch):
    """Fail any kernel construction: the code under test must take the
    serial path."""

    def refuse(*args, **kwargs):
        raise AssertionError("a kernel ran where the serial path was expected")

    monkeypatch.setattr("repro.sim.batch._LaneKernel.__init__", refuse)


class TestSerialFallbackPerFamily:
    """Groups outside every kernel run the family's serial trial per seed."""

    def test_every_builtin_family_is_covered(self):
        builtin = {
            entry.name
            for entry in entries("algorithm")
            if type(entry.obj).__module__.startswith("repro.")
        }
        assert builtin <= set(SERIAL_FALLBACK_PARAMS)

    @pytest.mark.parametrize("family", sorted(SERIAL_FALLBACK_PARAMS))
    def test_batch_fn_equals_per_seed_trials(self, family, kernels_refused):
        trial = family_trial(family)
        params = SERIAL_FALLBACK_PARAMS[family]
        seeds = [0, 3, 5]
        assert trial.batch_fn(seeds=seeds, **params) == [
            trial(seed=seed, **params) for seed in seeds
        ]

    @pytest.mark.parametrize("family", ["dac", "dbac", "byz", "baseline", "averaging"])
    def test_one_seed_batch_runs_the_serial_trial(self, family, kernels_refused):
        # A single lane gains nothing from a kernel pass; it runs the
        # serial trial even when its parameters are vectorizable.
        trial = family_trial(family)
        params = {"dac": {"n": 9}, "dbac": {"n": 11}, "byz": {"n": 8},
                  "baseline": {"n": 7}, "averaging": {"n": 6}}[family]
        assert trial.batch_fn(seeds=[3], **params) == [trial(seed=3, **params)]
