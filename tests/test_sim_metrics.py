"""Unit tests for repro.sim.metrics: counters and the V(p) series."""

from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.faults.base import FaultPlan
from repro.faults.byzantine import FixedValueByzantine
from repro.faults.crash import CrashEvent
from repro.sim.engine import Engine
from repro.sim.metrics import MetricsCollector, PhaseRangeSeries, convergence_rates
from repro.sim.runner import run_consensus
from repro.workloads import build_dac_execution, build_dbac_execution


class TestMetricsCollector:
    def test_accumulates(self):
        m = MetricsCollector()
        m.on_round(delivered=4, bits=400, broadcasts=5)
        m.on_round(delivered=2, bits=200, broadcasts=5)
        assert m.rounds == 2
        assert m.delivered == 6
        assert m.bits == 600
        assert m.broadcasts == 10
        assert m.per_round_delivered == [4, 2]
        assert m.per_round_bits == [400, 200]

    def test_mean_bits(self):
        m = MetricsCollector()
        assert m.mean_bits_per_round == 0.0
        m.on_round(1, 100, 1)
        m.on_round(1, 300, 1)
        assert m.mean_bits_per_round == 200.0


def nodes(*inputs):
    """Stand-in processes at phase 0, holding their inputs."""
    return {
        node: SimpleNamespace(input_value=value, phase=0, value=value)
        for node, value in enumerate(inputs)
    }


def move(node, phase, value):
    node.phase, node.value = phase, value


class TestPhaseRangeSeries:
    def test_initial_states_fill_phase0(self):
        procs = nodes(0.0, 0.5, 1.0)
        series = PhaseRangeSeries(procs, FaultPlan.fault_free_plan(3))
        assert series.ranges() == [1.0]
        series.observe()  # nothing moved
        assert series.ranges() == [1.0]

    def test_phase_transition_recorded_once(self):
        procs = nodes(0.2, 0.4)
        series = PhaseRangeSeries(procs, FaultPlan.fault_free_plan(2))
        move(procs[0], 1, 0.6)
        series.observe()
        procs[0].value = 0.9  # a value change inside the phase is no transition
        series.observe()
        move(procs[1], 1, 0.5)
        series.observe()
        assert series.ranges() == [0.4 - 0.2, 0.6 - 0.5]

    def test_jump_fills_skipped_phases(self):
        # Definition 6: a jump from 0 to 3 writes the landing value
        # into phases 1, 2 and 3.
        procs = nodes(0.1, 0.3)
        series = PhaseRangeSeries(procs, FaultPlan.fault_free_plan(2))
        move(procs[0], 3, 0.8)
        series.observe()
        assert series.ranges() == [0.3 - 0.1, 0.0, 0.0, 0.0]
        move(procs[1], 2, 0.7)
        series.observe()
        assert series.ranges() == [0.3 - 0.1, 0.8 - 0.7, 0.8 - 0.7, 0.0]

    def test_crash_plans_watch_every_non_byzantine_node(self):
        # Definition 5: crashed nodes contribute the phases they reached.
        procs = nodes(0.0, 1.0)
        plan = FaultPlan(2, crashes={1: CrashEvent(1, 0)})
        assert PhaseRangeSeries(procs, plan).ranges() == [1.0]

    def test_byzantine_plans_watch_only_fault_free_nodes(self):
        # Section V: V(p) holds the fault-free nodes once any is Byzantine.
        procs = nodes(0.0, 1.0, 0.25)
        del procs[2]
        plan = FaultPlan(
            3, crashes={1: CrashEvent(1, 0)}, byzantine={2: FixedValueByzantine(0.0)}
        )
        assert PhaseRangeSeries(procs, plan).ranges() == [0.0]

    def test_range_series_and_rates(self):
        procs = nodes(0.0, 1.0)
        series = PhaseRangeSeries(procs, FaultPlan.fault_free_plan(2))
        move(procs[0], 1, 0.25)
        move(procs[1], 1, 0.75)
        series.observe()
        move(procs[0], 2, 0.5)
        move(procs[1], 2, 0.5)
        series.observe()
        assert series.ranges() == [1.0, 0.5, 0.0]
        assert convergence_rates(series.ranges()) == [0.5, 0.0]

    def test_rates_skip_collapsed_phases(self):
        assert convergence_rates([0.5, 0.0, 0.0]) == [0.0]
        assert convergence_rates([0.0, 1e-9, 5e-10]) == [0.5]
        assert convergence_rates([]) == convergence_rates([1.0]) == []


# A node's run: its input, then (phase step, landing value) transitions.
_RUNS = st.lists(
    st.tuples(
        st.floats(-1e6, 1e6, allow_subnormal=True),
        st.lists(st.tuples(st.integers(0, 3), st.floats(-1e6, 1e6)), max_size=6),
    ),
    min_size=1,
    max_size=5,
)


@given(_RUNS, st.randoms(use_true_random=False))
def test_series_matches_the_definition6_multisets(runs, rng):
    """Any interleaving of transitions gives max - min of Definition 6's V(p)."""
    procs = nodes(*(input_value for input_value, _ in runs))
    series = PhaseRangeSeries(procs, FaultPlan.fault_free_plan(len(runs)))
    multisets = {0: [input_value for input_value, _ in runs]}
    pending = [(node, list(steps)) for node, (_, steps) in enumerate(runs)]
    while any(steps for _, steps in pending):
        # Each boundary, a random subset of the nodes moves (a step of 0
        # changes the value inside the phase, which Definition 6 ignores).
        for node, steps in pending:
            if steps and rng.random() < 0.5:
                step, value = steps.pop(0)
                proc = procs[node]
                for phase in range(proc.phase + 1, proc.phase + step + 1):
                    multisets.setdefault(phase, []).append(value)
                move(proc, proc.phase + step, value)
        series.observe()
    expected = [max(multisets[p]) - min(multisets[p]) for p in range(len(multisets))]
    assert [r.hex() for r in series.ranges()] == [r.hex() for r in expected]


@pytest.mark.parametrize(
    "build", [build_dac_execution, build_dbac_execution], ids=["dac", "dbac"]
)
def test_a_tracked_untraced_run_takes_no_snapshots(monkeypatch, build):
    kwargs = build(n=11, f=2, seed=3)
    snapshots = Engine.state_snapshots
    calls = []

    def counting(engine):
        calls.append(engine.current_round)
        return snapshots(engine)

    monkeypatch.setattr(Engine, "state_snapshots", counting)
    report = run_consensus(**kwargs, record_trace=False, track_phases=True)
    assert calls == []
    assert report.terminated and len(report.phase_ranges) > 2
