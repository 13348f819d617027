"""Unit tests for graph reachability and prior stability properties."""

import pytest

from repro.net.dynamic import DynamicGraph
from repro.net.properties import (
    is_rooted_every_round,
    is_t_interval_connected,
    property_profile,
    rooted_rounds,
)
from repro.net.topology import Topology


def trace_from(graphs):
    dyn = DynamicGraph(graphs[0].n)
    for g in graphs:
        dyn.record(g)
    return dyn


class TestReachability:
    def test_reachable_from_follows_direction(self):
        g = Topology(4, [(0, 1), (1, 2)])
        assert g.reachable_from(0) == {0, 1, 2}
        assert g.reachable_from(2) == {2}

    def test_source_validated(self):
        with pytest.raises(ValueError, match="out of range"):
            Topology(3).reachable_from(5)

    def test_roots_of_star(self):
        star = Topology(4, [(0, 1), (0, 2), (0, 3)])
        assert star.roots() == {0}
        assert star.has_root()

    def test_roots_of_complete_graph(self):
        g = Topology.complete(4)
        assert g.roots() == frozenset(range(4))

    def test_no_root(self):
        g = Topology(4, [(0, 1), (2, 3)])
        assert not g.has_root()

    def test_strong_connectivity(self):
        cycle = Topology(3, [(0, 1), (1, 2), (2, 0)])
        assert cycle.is_strongly_connected()
        path = Topology(3, [(0, 1), (1, 2)])
        assert not path.is_strongly_connected()
        assert Topology(1).is_strongly_connected()


class TestRootedEveryRound:
    def test_all_rooted(self):
        trace = trace_from([
            Topology(3, [(0, 1), (0, 2)]),
            Topology(3, [(1, 0), (1, 2)]),
        ])
        assert is_rooted_every_round(trace)
        assert rooted_rounds(trace) == [True, True]

    def test_one_unrooted_round(self):
        trace = trace_from([
            Topology(3, [(0, 1), (0, 2)]),
            Topology(3),  # empty: nobody reaches anyone
        ])
        assert not is_rooted_every_round(trace)
        assert rooted_rounds(trace) == [True, False]

    def test_figure1_has_unrooted_rounds(self):
        # The Figure 1 adversary's odd rounds are empty -- the paper's
        # point that dynaDegree permits root-free rounds.
        even = Topology(3, [(0, 1), (1, 0), (1, 2), (2, 1)])
        trace = trace_from([even, Topology(3)])
        assert not is_rooted_every_round(trace)


class TestTIntervalConnectivity:
    def test_stable_bidirectional_path_is_connected(self):
        path = Topology(3, [(0, 1), (1, 0), (1, 2), (2, 1)])
        trace = trace_from([path] * 4)
        assert is_t_interval_connected(trace, 1)
        assert is_t_interval_connected(trace, 4)

    def test_one_directional_edges_do_not_count(self):
        # T-interval connectivity assumes bidirectional links; a
        # one-way star never connects after symmetrization.
        star = Topology(3, [(0, 1), (0, 2)])
        trace = trace_from([star] * 3)
        assert not is_t_interval_connected(trace, 1)

    def test_alternating_links_break_stability(self):
        # Each round is connected, but no *stable* subgraph spans a
        # 2-round window: edges alternate.
        a = Topology(3, [(0, 1), (1, 0), (1, 2), (2, 1)])
        b = Topology(3, [(0, 2), (2, 0), (2, 1), (1, 2)])
        trace = trace_from([a, b, a, b])
        assert is_t_interval_connected(trace, 1)
        assert not is_t_interval_connected(trace, 2)

    def test_short_trace_vacuous(self):
        trace = trace_from([Topology(3)])
        assert is_t_interval_connected(trace, 5)

    def test_window_validated(self):
        trace = trace_from([Topology(3)])
        with pytest.raises(ValueError, match="T must be >= 1"):
            is_t_interval_connected(trace, 0)


class TestPropertyProfile:
    def test_profile_shape(self):
        path = Topology(3, [(0, 1), (1, 0), (1, 2), (2, 1)])
        trace = trace_from([path] * 3)
        profile = property_profile(trace, windows=[1, 2])
        assert profile["rounds"] == 3
        assert profile["rooted_every_round"] is True
        assert profile["rooted_fraction"] == 1.0
        assert profile["t_interval_connected"] == {1: True, 2: True}

    def test_empty_trace(self):
        profile = property_profile(DynamicGraph(3), windows=[1])
        assert profile["rooted_every_round"] is True
        assert profile["rooted_fraction"] == 1.0
