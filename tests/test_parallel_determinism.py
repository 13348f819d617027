"""Determinism guarantees of the parallel execution subsystem.

Two contracts make ``workers=N`` a pure speed knob:

1. ``Sweep.run(workers=N)`` produces *identical* records -- same
   results, same order -- as ``workers=1`` (and as the in-process
   serial path), because seeds are scheduled before dispatch and
   results are collected in spec order;
2. the engine's fast path (``record_trace=False``, no observers)
   produces bit-identical final states and outputs to a fully traced
   execution -- snapshotting is observation, never behavior.
"""

import pytest

from repro.adversary.base import StaticAdversary
from repro.bench.sweep import Sweep
from repro.core.dac import DACProcess
from repro.net.ports import identity_ports
from repro.scenario import family_trial
from repro.sim.engine import Engine
from repro.sim.parallel import (
    TrialSpec,
    resolve_workers,
    run_trials,
    set_default_workers,
)
from repro.sim.rng import spawn_inputs
from repro.sim.runner import run_consensus
from repro.workloads import build_dac_execution
from tests.helpers import (
    assert_equivalent_runs,
    serial_executor,
    workers_executor,
)


def echo_trial(seed, **params):
    """Picklable trial that exposes exactly what it was called with."""
    return {"seed": seed, **params}


def buggy_trial(seed, **params):
    """Picklable trial whose body raises (a user bug, not a pickling one)."""
    return seed.does_not_exist  # AttributeError from inside the worker


class TestRunTrials:
    def make_specs(self, count):
        return [TrialSpec((("i", i),), seed=100 + i) for i in range(count)]

    def test_serial_and_parallel_results_identical(self):
        specs = self.make_specs(9)
        serial = run_trials(echo_trial, specs, workers=1)
        parallel = run_trials(echo_trial, specs, workers=3)
        assert serial == parallel
        assert [r["seed"] for r in serial] == [100 + i for i in range(9)]

    def test_order_is_spec_order_not_completion_order(self):
        specs = self.make_specs(12)
        results = run_trials(echo_trial, specs, workers=4)
        assert [r["i"] for r in results] == list(range(12))

    def test_serial_path_allows_lambdas(self):
        specs = self.make_specs(3)
        results = run_trials(lambda i, seed: i * 10 + seed % 10, specs, workers=1)
        assert results == [0 * 10 + 0, 1 * 10 + 1, 2 * 10 + 2]

    def test_parallel_rejects_unpicklable_fn_with_hint(self):
        specs = self.make_specs(4)
        with pytest.raises(ValueError, match="module-level function"):
            run_trials(lambda i, seed: i, specs, workers=2)

    def test_unpicklable_later_spec_gets_the_friendly_error(self):
        # The shippability probe must cover every spec, not just the
        # first -- an unpicklable parameter can hide in any grid cell.
        specs = [
            TrialSpec((("i", 0),), seed=0),
            TrialSpec((("i", lambda: None),), seed=1),
        ]
        with pytest.raises(ValueError, match="picklable"):
            run_trials(echo_trial, specs, workers=2)

    def test_worker_side_errors_propagate_untouched(self):
        # Regression: an AttributeError raised *by* the trial function
        # must not be mislabelled as a picklability problem.
        specs = self.make_specs(4)
        with pytest.raises(AttributeError, match="does_not_exist"):
            run_trials(buggy_trial, specs, workers=2)

    def test_single_spec_runs_serially_even_with_workers(self):
        # One spec never pays pool startup -- lambdas stay legal.
        specs = self.make_specs(1)
        assert run_trials(lambda i, seed: i + seed, specs, workers=4) == [100]


class TestWorkerResolution:
    def test_explicit_counts_pass_through(self):
        assert resolve_workers(1) == 1
        assert resolve_workers(7) == 7

    def test_zero_means_cpu_count(self):
        assert resolve_workers(0) >= 1

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            resolve_workers(-1)
        with pytest.raises(ValueError, match="workers"):
            set_default_workers(-2)

    def test_none_uses_process_default(self):
        set_default_workers(3)
        try:
            assert resolve_workers(None) == 3
        finally:
            set_default_workers(1)
        assert resolve_workers(None) == 1


class TestSweepParallelIdentity:
    def test_workers_4_records_identical_to_workers_1(self):
        grid = {"n": [5, 7], "window": [1, 2]}
        serial = Sweep(grid=grid, repeats=2)
        parallel = Sweep(grid=grid, repeats=2)
        serial.run(family_trial("dac"), workers=1)
        parallel.run(family_trial("dac"), workers=4)
        # Identical records: same params, same seeds, same results,
        # same order -- element-for-element equality of the dataclasses.
        assert serial.records == parallel.records
        assert [r.seed for r in serial.records] == [r.seed for r in parallel.records]
        assert all(r.result["terminated"] for r in parallel.records)

    def test_parallel_aggregation_matches_serial(self):
        grid = {"n": [5, 9]}
        serial = Sweep(grid=grid, repeats=3)
        parallel = Sweep(grid=grid, repeats=3)
        serial.run(family_trial("dac"), workers=1)
        parallel.run(family_trial("dac"), workers=2)
        value = lambda r: float(r.result["rounds"])  # noqa: E731
        assert serial.summarize_by("n", value=value) == parallel.summarize_by(
            "n", value=value
        )


def make_engine(n, record_trace):
    ports = identity_ports(n)
    inputs = spawn_inputs(11, n)
    processes = {
        v: DACProcess(n, 0, inputs[v], v, epsilon=1e-9) for v in range(n)
    }
    return Engine(processes, StaticAdversary(), ports, record_trace=record_trace)


class TestFastPathIdentity:
    def test_engine_fast_path_matches_traced_states(self):
        traced = make_engine(7, record_trace=True)
        fast = make_engine(7, record_trace=False)
        traced.run(25)
        fast.run(25)
        assert fast.trace is None and traced.trace is not None
        assert fast.fault_free_values() == traced.fault_free_values()
        assert fast.metrics.delivered == traced.metrics.delivered
        assert fast.metrics.bits == traced.metrics.bits

    def test_sweep_traced_and_workers_full_state_identity(self):
        # The shared harness replaces this file's old per-scenario
        # loops: untraced sweep (reference) == fully traced execution
        # == a workers=4 pool, by full state_key equality across
        # crash/window/selector grids.
        assert_equivalent_runs(
            [
                {"family": "dac", "n": 9, "f": 4, "seeds": (5, 6)},
                {"family": "dac", "n": 9, "f": 4, "window": 2, "seeds": (5,)},
                {"family": "dac", "n": 7, "selector": "nearest", "seeds": (3,)},
            ],
            {
                "serial-fast": serial_executor(),
                "traced": serial_executor(traced=True),
                "workers-4": workers_executor(4),
            },
        )

    def test_run_consensus_fast_matches_traced_outputs(self):
        # Two builds of the same scenario (processes are stateful), one
        # run fully observed, one on the engine fast path.
        kwargs = dict(n=9, f=4, epsilon=1e-3, seed=5, window=2)
        traced = run_consensus(
            **build_dac_execution(**kwargs),
            record_trace=True,
            track_phases=True,
        )
        fast = run_consensus(
            **build_dac_execution(**kwargs),
            record_trace=False,
            verify_promise=False,
            track_phases=False,
        )
        assert fast.rounds == traced.rounds
        assert fast.terminated == traced.terminated
        assert fast.outputs == traced.outputs
        assert fast.output_spread == traced.output_spread
        assert fast.correct == traced.correct
        # The fast report simply carries no phase bookkeeping.
        assert fast.phase_ranges == [] and traced.phase_ranges

    def test_run_result_survives_pickle(self):
        # Trial results containing a RunResult must ship between the
        # parallel layer's worker processes.
        import copy
        import pickle

        from repro.sim.engine import RunResult

        original = RunResult(7, True)
        for clone in (pickle.loads(pickle.dumps(original)), copy.deepcopy(original)):
            assert clone == 7
            assert clone.stopped is True
        unstopped = pickle.loads(pickle.dumps(RunResult(0, False)))
        assert unstopped == 0 and not unstopped.stopped
