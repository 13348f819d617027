"""The observer bus, built-in observers, and the read-only contract.

The load-bearing guarantees here:

- attaching observers cannot perturb an execution (full ``state_key``
  equality against the bare differential suite);
- worker processes forward their observer events/summaries back
  bit-identically to a serial run (the ``repro.sim.parallel``
  forwarding contract);
- batch lanes surface per-lane completion through ``lane_finished``.
"""

from __future__ import annotations

import io
import json

import pytest

from repro.analysis.convergence import summarize_rates
from repro.obs import (
    ConvergenceTracker,
    ConvergenceUpdate,
    EngineAdapter,
    MetricsAggregator,
    ObserverBus,
    PhaseAdvanced,
    ProgressReporter,
    RoundCompleted,
    RunFinished,
    attach_engine,
    consensus_hooks,
    lane_finished,
)
from repro.scenario import family_trial
from repro.sim.batch import run_lanes
from repro.sim.engine import Engine
from repro.sim.parallel import TrialSpec, run_trials
from repro.sim.runner import run_consensus
from repro.workloads import build_dac_execution, build_dbac_execution, dac_lane_family

from tests.helpers import (
    _build_serial,
    _canonical,
    assert_equivalent_runs,
    differential_executors,
    normalize_config,
    serial_executor,
)


def run_observed_dac(bus, n=7, f=2, seed=5):
    """One DAC run with the standard hooks wired onto ``bus``."""
    kwargs = build_dac_execution(n=n, f=f, seed=seed)
    return run_consensus(**kwargs, **consensus_hooks(bus))


# -- the bus ---------------------------------------------------------------


class TestObserverBus:
    def test_typed_subscription_dispatch(self):
        bus = ObserverBus()
        rounds, finishes = [], []
        bus.subscribe(RoundCompleted, rounds.append)
        bus.subscribe(RunFinished, finishes.append)
        event = RoundCompleted(
            round=0, delivered=3, bits=96, live_senders=3,
            spread=1.0, min_phase=0, max_phase=0,
        )
        bus.publish(event)
        bus.publish(RunFinished(rounds=1, stopped=True, spread=0.0))
        assert rounds == [event]
        assert len(finishes) == 1

    def test_attached_observers_see_every_event(self):
        bus = ObserverBus()
        seen = []

        class Probe:
            def on_event(self, event):
                seen.append(event)

        bus.attach(Probe())
        bus.publish(PhaseAdvanced(round=2, phase=1, previous=0))
        bus.publish(RunFinished(rounds=2, stopped=True, spread=0.0))
        assert [type(e) for e in seen] == [PhaseAdvanced, RunFinished]

    def test_attach_requires_on_event(self):
        with pytest.raises(TypeError, match="on_event"):
            ObserverBus().attach(object())

    def test_observers_before_handlers_in_registration_order(self):
        bus = ObserverBus()
        order = []

        class Probe:
            def __init__(self, tag):
                self.tag = tag

            def on_event(self, event):
                order.append(self.tag)

        bus.attach(Probe("a"))
        bus.subscribe(RunFinished, lambda e: order.append("handler"))
        bus.attach(Probe("b"))
        bus.publish(RunFinished(rounds=0, stopped=False, spread=0.0))
        assert order == ["a", "b", "handler"]
        assert len(bus) == 3  # two observers + one typed handler
        assert len(bus.attached) == 2


# -- built-in observers ----------------------------------------------------


class TestMetricsAggregator:
    def test_streaming_totals(self):
        agg = MetricsAggregator()
        for t, (delivered, bits, live) in enumerate([(3, 96, 3), (5, 160, 4)]):
            agg.on_event(
                RoundCompleted(
                    round=t, delivered=delivered, bits=bits,
                    live_senders=live, spread=1.0, min_phase=0, max_phase=0,
                )
            )
        agg.on_event(RunFinished(rounds=2, stopped=True, spread=0.01))
        summary = agg.summary()
        assert summary["rounds"] == 2
        assert summary["delivered"] == 8
        assert summary["bits"] == 256
        assert summary["mean_bits_per_round"] == 128.0
        assert (summary["live_senders_min"], summary["live_senders_max"]) == (3, 4)
        assert summary["mean_live_senders"] == 3.5
        assert summary["finished"] == {
            "rounds": 2, "stopped": True, "spread": 0.01,
        }

    def test_merge_rederives_means_from_totals(self):
        def run_summary(rows):
            agg = MetricsAggregator()
            for t, (delivered, bits, live) in enumerate(rows):
                agg.on_event(
                    RoundCompleted(
                        round=t, delivered=delivered, bits=bits,
                        live_senders=live, spread=1.0, min_phase=0,
                        max_phase=0,
                    )
                )
            return agg.summary()

        a = run_summary([(1, 32, 2)])
        b = run_summary([(4, 128, 4), (4, 128, 4), (4, 128, 4)])
        merged = MetricsAggregator.merge_summaries([a, b])
        assert merged["runs"] == 2
        assert merged["rounds"] == 4
        assert merged["mean_bits_per_round"] == (32 + 3 * 128) / 4
        assert merged["mean_live_senders"] == (2 + 3 * 4) / 4
        # Order-independent: means come from totals, not from runs.
        assert merged == MetricsAggregator.merge_summaries([b, a])

    def test_empty_summary_is_well_defined(self):
        summary = MetricsAggregator().summary()
        assert summary["rounds"] == 0
        assert summary["mean_bits_per_round"] == 0.0
        assert summary["finished"] is None


class TestConvergenceTracker:
    def test_collects_running_ranges(self):
        tracker = ConvergenceTracker()
        tracker.on_event(ConvergenceUpdate(round=0, phase=0, phase_range=1.0, rate=None))
        tracker.on_event(ConvergenceUpdate(round=4, phase=1, phase_range=0.5, rate=0.5))
        tracker.on_event(ConvergenceUpdate(round=9, phase=2, phase_range=0.2, rate=0.4))
        assert tracker.range_series == [1.0, 0.5, 0.2]
        summary = tracker.summary()
        assert summary["phases"] == 3
        assert summary["rates"]["max"] == 0.5
        assert summary["geometric_rate"] is not None

    def test_phase_zero_starts_the_next_runs_series(self):
        tracker = ConvergenceTracker()
        for phase, spread in enumerate([1.0, 0.5, 0.25, 1.0, 0.25]):
            tracker.on_event(
                ConvergenceUpdate(round=phase, phase=phase % 3, phase_range=spread, rate=None)
            )
        assert tracker.range_series == [1.0, 0.25]
        assert tracker.summary()["rates"]["max"] == 0.25


class TestProgressReporter:
    def test_sampled_human_lines_and_jsonl_rows(self, tmp_path):
        stream = io.StringIO()
        jsonl = tmp_path / "progress.jsonl"
        with ProgressReporter(stream=stream, jsonl_path=jsonl, every=2) as rep:
            for t in range(4):
                rep.on_event(
                    RoundCompleted(
                        round=t, delivered=2, bits=64, live_senders=2,
                        spread=0.5, min_phase=0, max_phase=0,
                    )
                )
            rep.on_event(PhaseAdvanced(round=4, phase=1, previous=0))
            rep.on_event(RunFinished(rounds=5, stopped=True, spread=0.001))
        lines = stream.getvalue().splitlines()
        # rounds 0 and 2 sampled; phase + finish always reported
        assert len(lines) == 4
        assert lines[2] == "round 4: phase 0 -> 1"
        rows = [json.loads(line) for line in jsonl.read_text().splitlines()]
        assert [row["event"] for row in rows] == [
            "round", "round", "phase", "finished",
        ]
        assert rows[-1] == {
            "event": "finished", "rounds": 5, "stopped": True, "spread": 0.001,
        }

    def test_every_validated(self):
        with pytest.raises(ValueError, match="every"):
            ProgressReporter(stream=io.StringIO(), every=0)


# -- end-to-end against real runs ------------------------------------------


class TestObservedRuns:
    def test_aggregator_agrees_with_the_report(self):
        bus = ObserverBus()
        agg = MetricsAggregator()
        bus.attach(agg)
        report = run_observed_dac(bus)
        summary = agg.summary()
        assert summary["rounds"] == report.rounds
        assert summary["delivered"] == report.metrics.delivered
        assert summary["bits"] == report.metrics.bits
        assert summary["finished"]["rounds"] == report.rounds
        assert summary["finished"]["stopped"] == report.terminated

    def test_convergence_tracker_tracks_phase_progress(self):
        bus = ObserverBus()
        tracker = ConvergenceTracker()
        bus.attach(tracker)
        report = run_observed_dac(bus)
        assert tracker.summary()["phases"] == len(report.phase_ranges)
        assert tracker.range_series and tracker.range_series[-1] <= 1e-3

    @pytest.mark.parametrize(
        "build,params",
        [
            (build_dac_execution, {"n": 7, "f": 2, "seed": 3}),
            (build_dac_execution, {"n": 9, "f": 4, "seed": 11}),
            (build_dbac_execution, {"n": 11, "f": 2, "seed": 4}),
        ],
    )
    def test_the_stream_ends_on_the_reports_series(self, build, params):
        # The adapter watches the runner's nodes, starts V(0) from the
        # inputs and publishes phase 0, so on these runs (every node
        # enters a phase in the round its first node does) the stream's
        # ranges and rates are the report's.
        bus = ObserverBus()
        tracker = bus.attach(ConvergenceTracker())
        updates = []
        bus.subscribe(ConvergenceUpdate, updates.append)
        report = run_consensus(**build(**params), **consensus_hooks(bus))
        assert [u.phase for u in updates] == list(range(len(report.phase_ranges)))
        assert tracker.range_series == report.phase_ranges
        assert [u.rate for u in updates if u.rate is not None] == report.convergence_rates
        assert tracker.summary()["rates"] == summarize_rates(report.convergence_rates)

    def test_run_finished_carries_the_final_spread(self):
        bus = ObserverBus()
        finishes = []
        bus.subscribe(RunFinished, finishes.append)
        report = run_observed_dac(bus)
        [event] = finishes
        assert event.rounds == report.rounds
        assert event.stopped == report.terminated
        assert event.delivered > 0 and event.bits > 0


# -- non-perturbation: the whole point -------------------------------------


def observed_executor(config):
    """Traced run with a full observer stack attached: must stay
    bit-identical to every bare executor in the differential suite."""
    config = normalize_config(config)
    results = []
    for seed in config["seeds"]:
        kwargs, stop, max_rounds, stop_mode = _build_serial(config, seed)
        engine = Engine(
            kwargs["processes"],
            kwargs["adversary"],
            kwargs["ports"],
            fault_plan=kwargs["fault_plan"],
            f=kwargs["f"],
            seed=kwargs["seed"],
            record_trace=True,
        )
        bus = ObserverBus()
        bus.attach(MetricsAggregator())
        bus.attach(ConvergenceTracker())
        attach_engine(bus, engine)
        result = engine.run(max_rounds, stop_when=stop)
        results.append(_canonical(engine, result, stop_mode))
    return results


class TestNonPerturbation:
    def test_observed_and_traced_runs_match_bare_ones(self):
        grid = [
            {"family": "dac", "n": 5, "seeds": (0, 1)},
            {"family": "dbac", "n": 6, "seed": 2},
            {"family": "mobile", "n": 4, "seed": 3},
        ]
        executors = differential_executors(workers=None)
        executors["traced-observed"] = observed_executor
        assert_equivalent_runs(grid, executors)

    def test_adapter_on_engine_without_fast_path_penalty(self):
        # The observation branch is the engine's only obs coupling:
        # an engine with no sink and no observers must not assemble
        # snapshots at all.
        kwargs = build_dac_execution(n=5, f=2, seed=0)
        engine = Engine(
            kwargs["processes"],
            kwargs["adversary"],
            kwargs["ports"],
            fault_plan=kwargs["fault_plan"],
            f=kwargs["f"],
            seed=kwargs["seed"],
            record_trace=False,
        )
        assert engine.trace is None and engine.observers == []
        engine.run(5)


# -- worker forwarding -----------------------------------------------------


class TestWorkerForwarding:
    def test_pool_events_and_summaries_match_serial(self):
        specs = [
            TrialSpec((("n", 5), ("observe", True)), seed=seed)
            for seed in range(6)
        ]
        serial_events, pool_events = [], []
        serial = run_trials(
            family_trial("dac"), specs, workers=1, on_event=serial_events.append
        )
        pooled = run_trials(
            family_trial("dac"), specs, workers=4, on_event=pool_events.append
        )
        assert pooled == serial
        assert all("metrics" in summary for summary in pooled)
        assert pool_events == serial_events
        assert [type(e) for e in pool_events] == [RunFinished] * 6

    def test_events_dropped_without_a_collector(self):
        from repro.sim.parallel import record_event

        assert record_event(RunFinished(rounds=1, stopped=True, spread=0.0)) is False

    def test_observe_false_forwards_nothing(self):
        specs = [TrialSpec((("n", 5),), seed=0)]
        events = []
        run_trials(family_trial("dac"), specs, workers=1, on_event=events.append)
        assert events == []


# -- batch lanes -----------------------------------------------------------


class TestBatchLaneEvents:
    def test_lane_finished_publishes_per_lane_run_finished(self):
        bus = ObserverBus()
        finishes = []
        bus.subscribe(RunFinished, finishes.append)
        lanes = run_lanes(dac_lane_family(5, 2), [0, 1, 2])
        for lane in lanes:
            lane_finished(bus, lane)
        assert [e.seed for e in finishes] == [0, 1, 2]
        assert [e.rounds for e in finishes] == [lane.rounds for lane in lanes]
        assert [e.stopped for e in finishes] == [lane.stopped for lane in lanes]

    def test_lane_finished_matches_serial_run_finished(self):
        # The batch lane event must agree with the serial engine's own
        # RunFinished for the same seed.
        bus = ObserverBus()
        batch_events = []
        bus.subscribe(RunFinished, batch_events.append)
        for lane in run_lanes(dac_lane_family(5, 2), [9]):
            lane_finished(bus, lane)
        serial = serial_executor()({"family": "dac", "n": 5, "seed": 9})
        [event] = batch_events
        assert event.rounds == serial[0]["rounds"]
        assert event.stopped == serial[0]["stopped"]
