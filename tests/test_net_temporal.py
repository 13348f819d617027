"""Unit tests for temporal reachability (the multi-hop probe)."""

import random

import pytest

from repro.net.dynadegree import max_degree_for_window
from repro.net.dynamic import DynamicGraph
from repro.net.generators import cycle_edges, random_edges
from repro.net.temporal import (
    check_dynareach,
    max_reach_for_window,
    window_reach_sets,
)
from repro.net.topology import Topology


def ring_trace(n, rounds):
    ring = Topology(n, cycle_edges(n, bidirectional=False))
    dyn = DynamicGraph(n)
    for _ in range(rounds):
        dyn.record(ring)
    return dyn


class TestWindowReachSets:
    def test_single_round_is_direct_links_plus_self(self):
        g = Topology(4, [(0, 1), (2, 1)])
        reach = window_reach_sets([g])
        assert reach[1] == {0, 1, 2}
        assert reach[0] == {0}

    def test_two_hop_journey_over_two_rounds(self):
        # 0 -> 1 in round 0, 1 -> 2 in round 1: origin 0 reaches node 2.
        r0 = Topology(3, [(0, 1)])
        r1 = Topology(3, [(1, 2)])
        reach = window_reach_sets([r0, r1])
        assert 0 in reach[2]

    def test_journeys_respect_time_order(self):
        # Reversed rounds: 1 -> 2 happens before 0 -> 1, so origin 0
        # cannot reach node 2.
        r0 = Topology(3, [(1, 2)])
        r1 = Topology(3, [(0, 1)])
        reach = window_reach_sets([r0, r1])
        assert 0 not in reach[2]
        assert 0 in reach[1]

    def test_directed_ring_reach_grows_one_hop_per_round(self):
        n = 6
        trace = ring_trace(n, n)
        for window in range(1, n):
            reach = window_reach_sets(trace.window(0, window))
            # Node v is reached by its `window` ring predecessors.
            assert len(reach[0] - {0}) == min(window, n - 1)

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError, match="at least one round"):
            window_reach_sets([])

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mixes graphs"):
            window_reach_sets([Topology(3), Topology(4)])


class TestCheckDynaReach:
    def test_ring_reach_vs_degree_gap(self):
        # The static directed ring: dynaDegree is stuck at 1 for every
        # window, but dynaReach climbs to n-1 -- the multi-hop gap.
        n = 6
        trace = ring_trace(n, 2 * n)
        assert max_degree_for_window(trace, n) == 1
        assert max_reach_for_window(trace, n - 1) == n - 1
        assert check_dynareach(trace, n - 1, n - 1).holds
        assert not check_dynareach(trace, 2, 3).holds

    def test_reach_dominates_degree_on_random_traces(self):
        rng = random.Random(5)
        for _ in range(10):
            n = rng.randint(3, 7)
            dyn = DynamicGraph(n)
            for _ in range(6):
                dyn.record(Topology(n, random_edges(n, 0.3, rng)))
            for window in (1, 2, 4):
                assert max_reach_for_window(dyn, window) >= max_degree_for_window(
                    dyn, window
                )

    def test_single_round_reach_equals_degree(self):
        rng = random.Random(9)
        dyn = DynamicGraph(5)
        for _ in range(4):
            dyn.record(Topology(5, random_edges(5, 0.4, rng)))
        assert max_reach_for_window(dyn, 1) == max_degree_for_window(dyn, 1)

    def test_parameter_validation(self):
        trace = ring_trace(4, 4)
        with pytest.raises(ValueError, match="T must be >= 1"):
            check_dynareach(trace, 0, 1)
        with pytest.raises(ValueError, match="D must be in"):
            check_dynareach(trace, 1, 4)

    def test_fault_free_restriction(self):
        # A node with no in-links ever fails reach 1; excluding it
        # rescues the property.
        dyn = DynamicGraph(3)
        for _ in range(3):
            dyn.record(Topology(3, [(0, 1), (1, 0)]))
        assert not check_dynareach(dyn, 2, 1).holds
        assert check_dynareach(dyn, 2, 1, fault_free=[0, 1]).holds

    def test_vacuous_short_trace(self):
        verdict = check_dynareach(ring_trace(4, 2), 5, 2)
        assert verdict.holds and verdict.vacuous
