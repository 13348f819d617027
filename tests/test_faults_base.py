"""Unit tests for FaultPlan: membership, bounds, per-round queries."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.base import FaultPlan
from repro.faults.byzantine import FixedValueByzantine
from repro.faults.crash import CrashEvent


class TestConstruction:
    def test_fault_free_plan(self):
        plan = FaultPlan.fault_free_plan(5)
        assert plan.num_faulty == 0
        assert plan.fault_free == frozenset(range(5))
        assert plan.non_byzantine == frozenset(range(5))

    def test_membership_sets(self):
        plan = FaultPlan(
            5,
            crashes={1: CrashEvent(1, 3)},
            byzantine={4: FixedValueByzantine(0.0)},
        )
        assert plan.fault_free == frozenset({0, 2, 3})
        assert plan.non_byzantine == frozenset({0, 1, 2, 3})
        assert plan.is_byzantine(4)
        assert not plan.is_byzantine(1)
        assert plan.crash_round(1) == 3
        assert plan.crash_round(0) is None

    def test_node_cannot_be_both(self):
        with pytest.raises(ValueError, match="both crash and Byzantine"):
            FaultPlan(
                3,
                crashes={1: CrashEvent(1, 0)},
                byzantine={1: FixedValueByzantine(0.0)},
            )

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            FaultPlan(3, crashes={5: CrashEvent(5, 0)})
        with pytest.raises(ValueError, match="out of range"):
            FaultPlan(3, byzantine={-1: FixedValueByzantine(0.0)})

    def test_mismatched_crash_key_rejected(self):
        with pytest.raises(ValueError, match="keyed as"):
            FaultPlan(3, crashes={0: CrashEvent(1, 0)})

    def test_bound_validation(self):
        plan = FaultPlan(5, crashes={0: CrashEvent(0, 1), 1: CrashEvent(1, 1)})
        plan.validate_bound(2)
        with pytest.raises(ValueError, match="bound is f=1"):
            plan.validate_bound(1)


class TestPerRoundQueries:
    def test_send_targets(self):
        plan = FaultPlan(3, crashes={1: CrashEvent(1, 2)})
        assert plan.send_targets(0, 0) is None  # healthy
        assert plan.send_targets(1, 1) is None  # not yet crashed
        assert plan.send_targets(1, 2) == frozenset()  # silent

    def test_processes_at(self):
        plan = FaultPlan(3, crashes={1: CrashEvent(1, 2)})
        assert plan.processes_at(1, 1)
        assert not plan.processes_at(1, 2)
        assert plan.processes_at(0, 99)

    def test_live_senders_tracks_crashes(self):
        plan = FaultPlan(3, crashes={2: CrashEvent(2, 1)})
        assert plan.live_senders(0) == frozenset({0, 1, 2})
        assert plan.live_senders(1) == frozenset({0, 1})

    def test_byzantine_always_counted_live(self):
        plan = FaultPlan(3, byzantine={2: FixedValueByzantine(0.0)})
        assert 2 in plan.live_senders(100)

    def test_partial_crash_not_counted_live_at_crash_round(self):
        plan = FaultPlan(
            3, crashes={1: CrashEvent(1, 2, receivers=frozenset({0}))}
        )
        assert 1 in plan.live_senders(1)
        assert 1 not in plan.live_senders(2)


@st.composite
def crash_plans(draw):
    """A plan with random crash rounds (often several in one round),
    some partial crashes, and possibly Byzantine nodes."""
    n = draw(st.integers(min_value=1, max_value=9))
    crashes, byzantine = {}, {}
    for node in range(n):
        kind = draw(st.sampled_from(("healthy", "clean", "partial", "byzantine")))
        if kind == "byzantine":
            byzantine[node] = FixedValueByzantine(0.0)
        elif kind != "healthy":
            at = draw(st.integers(min_value=0, max_value=4))
            receivers = None
            if kind == "partial":
                others = [v for v in range(n) if v != node]
                picked = draw(st.lists(st.sampled_from(others), unique=True)) if others else []
                receivers = frozenset(picked)
            crashes[node] = CrashEvent(node, at, receivers)
    return FaultPlan(n, crashes=crashes, byzantine=byzantine)


@settings(max_examples=200, deadline=None)
@given(plan=crash_plans(), order=st.permutations(range(7)))
def test_memoized_round_queries_match_per_node_recomputation(plan, order):
    # The memos key on where t sits among the sorted crash rounds; every
    # answer, asked in any order of t, must equal the one recomputed
    # node by node at that t.
    for t in order:
        targets = {node: plan.send_targets(node, t) for node in plan.crashes}
        stopped = frozenset(
            node for node in range(plan.n) if not plan.processes_at(node, t)
        )
        assert plan.round_profile(t) == (targets, stopped)
        assert plan.sender_masks(t) == (
            frozenset(node for node, tg in targets.items() if tg is not None and not tg),
            {node: tg for node, tg in targets.items() if tg},
            stopped,
        )
        live = tuple(
            node
            for node in range(plan.n)
            if node in plan.byzantine
            or node not in plan.crashes
            or plan.crashes[node].sends_fully_at(t)
        )
        assert plan.live_senders_sorted(t) == live
        assert plan.live_senders(t) == frozenset(live)
