"""Unit tests for the (T, D)-dynaDegree checker (Definition 1).

Includes the paper's Figure 1 example as the canonical fixture: the
3-node alternating adversary satisfies (2, 1)- but not (1, 1)-dynaDegree.
"""

import pytest

from repro.net.dynadegree import (
    DynaDegreeChecker,
    DynaDegreeProfile,
    check_dynadegree,
    max_degree_for_window,
    min_window_for_degree,
)
from repro.net.dynamic import DynamicGraph, EdgeSchedule
from repro.net.topology import Topology

FIGURE1_EVEN = [(0, 1), (1, 0), (1, 2), (2, 1)]


def figure1_trace(rounds: int = 8) -> DynamicGraph:
    sched = EdgeSchedule.from_table(3, [FIGURE1_EVEN, []])
    return DynamicGraph.from_schedule(sched, rounds)


def complete_trace(n: int, rounds: int) -> DynamicGraph:
    dyn = DynamicGraph(n)
    for _ in range(rounds):
        dyn.record(Topology.complete(n))
    return dyn


class TestFigure1:
    """The paper's motivating example, verbatim."""

    def test_satisfies_2_1(self):
        verdict = check_dynadegree(figure1_trace(), window=2, degree=1)
        assert verdict.holds
        assert not verdict.vacuous

    def test_violates_1_1(self):
        verdict = check_dynadegree(figure1_trace(), window=1, degree=1)
        assert not verdict.holds
        # Odd rounds are empty: every node is a witness there.
        assert any(v.window_start == 1 for v in verdict.violations)

    def test_max_degree_profile(self):
        trace = figure1_trace()
        profile = DynaDegreeProfile.from_trace(trace, windows=[1, 2, 3])
        assert profile.max_degree_by_window[1] == 0  # empty odd rounds
        assert profile.max_degree_by_window[2] == 1  # nodes 0 and 2 hear only node 1
        assert profile.satisfies(2, 1)
        assert not profile.satisfies(2, 2)

    def test_profile_unknown_window_raises(self):
        profile = DynaDegreeProfile.from_trace(figure1_trace(), windows=[2])
        with pytest.raises(KeyError):
            profile.satisfies(5, 1)

    def test_min_window_for_degree(self):
        assert min_window_for_degree(figure1_trace(), degree=1) == 2
        assert min_window_for_degree(figure1_trace(), degree=2) is None


class TestCheckerBasics:
    def test_complete_graph_is_1_nminus1(self):
        trace = complete_trace(5, 4)
        assert check_dynadegree(trace, 1, 4).holds
        assert max_degree_for_window(trace, 1) == 4

    def test_parameter_validation(self):
        trace = complete_trace(4, 3)
        with pytest.raises(ValueError, match="T must be >= 1"):
            check_dynadegree(trace, 0, 1)
        with pytest.raises(ValueError, match=r"D must be in \[1, n-1\]"):
            check_dynadegree(trace, 1, 0)
        with pytest.raises(ValueError, match=r"D must be in \[1, n-1\]"):
            check_dynadegree(trace, 1, 4)

    def test_short_trace_is_vacuous(self):
        trace = complete_trace(4, 2)
        verdict = check_dynadegree(trace, window=5, degree=3)
        assert verdict.holds and verdict.vacuous
        assert verdict.complete_windows == 0

    def test_fault_free_restriction(self):
        # Node 2 hears nobody; excluding it from the fault-free set
        # rescues the property.
        dyn = DynamicGraph(3)
        for _ in range(3):
            dyn.record(Topology(3, [(0, 1), (1, 0)]))
        assert not check_dynadegree(dyn, 1, 1).holds
        assert check_dynadegree(dyn, 1, 1, fault_free=[0, 1]).holds

    def test_senders_filter_discounts_crashed(self):
        # Node 0 is node 1's only in-neighbor; once node 0 "crashes"
        # (excluded from senders after round 1), windows past the crash
        # fail.
        dyn = DynamicGraph(2)
        for _ in range(4):
            dyn.record(Topology(2, [(0, 1), (1, 0)]))
        alive_until_1 = lambda t: {0, 1} if t < 2 else {1}  # noqa: E731
        verdict = check_dynadegree(
            dyn, 1, 1, fault_free=[1], senders_at=alive_until_1
        )
        assert not verdict.holds
        assert verdict.violations[0].window_start == 2

    def test_violation_cap(self):
        dyn = DynamicGraph(3)
        for _ in range(40):
            dyn.record(Topology(3))  # all empty: violations everywhere
        verdict = check_dynadegree(dyn, 1, 1, max_violations=5)
        assert not verdict.holds
        assert len(verdict.violations) == 5

    def test_violation_str_is_informative(self):
        verdict = check_dynadegree(figure1_trace(), 1, 1)
        text = str(verdict.violations[0])
        assert "node" in text and "needs 1" in text


class TestWindowAggregation:
    def test_links_in_different_rounds_count_together(self):
        # Node 0 hears node 1 in round 0 and node 2 in round 1: degree 2
        # over the 2-round window though never 2 in a single round.
        dyn = DynamicGraph(3)
        dyn.record(Topology(3, [(1, 0), (0, 1), (0, 2)]))
        dyn.record(Topology(3, [(2, 0), (0, 1), (0, 2)]))
        assert check_dynadegree(dyn, 2, 2, fault_free=[0]).holds
        assert not check_dynadegree(dyn, 1, 2, fault_free=[0]).holds

    def test_repeated_neighbor_counts_once(self):
        # Hearing the same neighbor twice does not reach degree 2.
        dyn = DynamicGraph(3)
        dyn.record(Topology(3, [(1, 0)]))
        dyn.record(Topology(3, [(1, 0)]))
        assert not check_dynadegree(dyn, 2, 2, fault_free=[0]).holds
        assert check_dynadegree(dyn, 2, 1, fault_free=[0]).holds

    def test_monotone_in_window(self):
        trace = figure1_trace(10)
        degrees = [max_degree_for_window(trace, w) for w in range(1, 5)]
        assert degrees == sorted(degrees)


class TestIncrementalChecker:
    def test_matches_batch_checker_on_figure1(self):
        checker = DynaDegreeChecker(3, window=2, degree=1)
        trace = figure1_trace(9)
        for t in range(len(trace)):
            checker.observe(trace.at(t))
        assert checker.clean
        batch = check_dynadegree(trace, 2, 1)
        assert batch.holds

    def test_detects_violation_at_window_close(self):
        checker = DynaDegreeChecker(3, window=2, degree=1)
        checker.observe(Topology(3))
        assert checker.clean  # no window complete yet
        checker.observe(Topology(3))
        assert not checker.clean
        assert checker.violations[0].window_start == 0

    def test_retire_releases_constraint(self):
        checker = DynaDegreeChecker(2, window=1, degree=1)
        checker.retire(1)
        checker.observe(Topology(2, [(1, 0)]))  # node 1 hears nobody
        assert checker.clean

    def test_senders_filter(self):
        checker = DynaDegreeChecker(2, window=1, degree=1)
        checker.observe(Topology(2, [(0, 1), (1, 0)]), senders={1})
        # Node 1's only in-link came from the non-sender 0.
        assert not checker.clean

    def test_size_mismatch_rejected(self):
        checker = DynaDegreeChecker(3, window=1, degree=1)
        with pytest.raises(ValueError, match="expects 3"):
            checker.observe(Topology(4))

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="T must be >= 1"):
            DynaDegreeChecker(3, 0, 1)
        with pytest.raises(ValueError, match="D must be in"):
            DynaDegreeChecker(3, 1, 3)

    def test_rounds_observed(self):
        checker = DynaDegreeChecker(3, window=2, degree=1)
        assert checker.rounds_observed == 0
        checker.observe(Topology.complete(3))
        assert checker.rounds_observed == 1
