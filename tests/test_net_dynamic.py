"""Unit tests for repro.net.dynamic: schedules, traces, window unions."""

import pytest

from repro.net.dynamic import DynamicGraph, EdgeSchedule, window_union
from repro.net.topology import Topology


class TestEdgeSchedule:
    def test_function_schedule(self):
        sched = EdgeSchedule(3, lambda t: [(0, 1)] if t % 2 == 0 else [])
        assert sched.edges_at(0) == [(0, 1)]
        assert sched.edges_at(1) == []
        assert sched.edges_at(2) == [(0, 1)]

    def test_graph_at_builds_graph(self):
        sched = EdgeSchedule(3, lambda t: [(0, 1), (1, 2)])
        g = sched.graph_at(5)
        assert isinstance(g, Topology)
        assert len(g) == 2

    def test_negative_round_rejected(self):
        sched = EdgeSchedule(3, lambda t: [])
        with pytest.raises(ValueError, match="non-negative"):
            sched.edges_at(-1)

    def test_table_schedule_repeats(self):
        sched = EdgeSchedule.from_table(3, [[(0, 1)], [(1, 2)]], repeat=True)
        assert sched.edges_at(0) == [(0, 1)]
        assert sched.edges_at(1) == [(1, 2)]
        assert sched.edges_at(2) == [(0, 1)]
        assert sched.edges_at(7) == [(1, 2)]

    def test_table_schedule_without_repeat_goes_silent(self):
        sched = EdgeSchedule.from_table(3, [[(0, 1)]], repeat=False)
        assert sched.edges_at(0) == [(0, 1)]
        assert sched.edges_at(1) == []

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError, match="at least one round"):
            EdgeSchedule.from_table(3, [])


class TestDynamicGraph:
    def test_record_and_read_back(self):
        dyn = DynamicGraph(3)
        g0 = Topology(3, [(0, 1)])
        g1 = Topology(3, [(1, 2)])
        dyn.record(g0)
        dyn.record(g1)
        assert len(dyn) == 2
        assert dyn.at(0) == g0
        assert dyn.at(1) == g1

    def test_record_size_mismatch_rejected(self):
        dyn = DynamicGraph(3)
        with pytest.raises(ValueError, match="expected 3"):
            dyn.record(Topology(4))

    def test_zero_nodes_rejected(self):
        with pytest.raises(ValueError, match="at least one node"):
            DynamicGraph(0)

    def test_window_slicing(self):
        dyn = DynamicGraph(2)
        for _ in range(5):
            dyn.record(Topology(2, [(0, 1)]))
        assert len(dyn.window(1, 3)) == 3
        with pytest.raises(ValueError, match="invalid window"):
            dyn.window(-1, 2)
        with pytest.raises(ValueError, match="invalid window"):
            dyn.window(0, 0)

    def test_window_union_is_papers_G_t(self):
        # G_t := (V, E(t) u E(t+1)): the figure-1 style aggregation.
        dyn = DynamicGraph(3)
        dyn.record(Topology(3, [(0, 1)]))
        dyn.record(Topology(3, [(1, 2)]))
        dyn.record(Topology(3))
        u01 = dyn.window_union(0, 2)
        assert set(u01.edges) == {(0, 1), (1, 2)}
        u12 = dyn.window_union(1, 2)
        assert set(u12.edges) == {(1, 2)}

    def test_from_schedule_materializes(self):
        sched = EdgeSchedule.from_table(3, [[(0, 1)], []])
        dyn = DynamicGraph.from_schedule(sched, 4)
        assert len(dyn) == 4
        assert len(dyn.at(0)) == 1
        assert len(dyn.at(1)) == 0

    def test_edges_per_round(self):
        sched = EdgeSchedule.from_table(3, [[(0, 1), (1, 0)], []])
        dyn = DynamicGraph.from_schedule(sched, 4)
        assert dyn.edges_per_round() == [2, 0, 2, 0]


class TestWindowUnion:
    def test_union_of_graphs(self):
        graphs = [Topology(3, [(0, 1)]), Topology(3, [(2, 1)])]
        u = window_union(graphs)
        assert set(u.edges) == {(0, 1), (2, 1)}

    def test_empty_window_needs_n(self):
        with pytest.raises(ValueError, match="without knowing n"):
            window_union([])
        u = window_union([], n=4)
        assert u.n == 4 and len(u) == 0

    def test_mixed_sizes_rejected(self):
        with pytest.raises(ValueError, match="mixes graphs"):
            window_union([Topology(3), Topology(4)])


class TestScheduleGraphIdentity:
    """Regression: sources must not re-wrap an unchanged pattern into a
    fresh object each round (the pre-Topology behavior)."""

    def test_periodic_table_replays_identical_topologies(self):
        sched = EdgeSchedule.from_table(3, [[(0, 1)], [(1, 2)]], repeat=True)
        assert sched.graph_at(0) is sched.graph_at(2)
        assert sched.graph_at(1) is sched.graph_at(7)
        assert sched.graph_at(0) is not sched.graph_at(1)

    def test_unchanged_function_pattern_returns_cached_topology(self):
        sched = EdgeSchedule(3, lambda t: [(0, 1), (1, 2)])
        first = sched.graph_at(0)
        assert sched.graph_at(5) is first

    def test_silent_rounds_share_the_empty_topology(self):
        sched = EdgeSchedule(4, lambda t: [])
        assert sched.graph_at(0) is sched.graph_at(9)

    def test_from_schedule_materializes_shared_instances(self):
        sched = EdgeSchedule.from_table(3, [[(0, 1)], []], repeat=True)
        dyn = DynamicGraph.from_schedule(sched, 6)
        assert dyn.at(0) is dyn.at(2) is dyn.at(4)
        assert dyn.at(1) is dyn.at(3) is dyn.at(5)

    def test_alternating_patterns_hit_the_cache(self):
        # The figure1-style alternating schedule: both patterns must be
        # cached per schedule (not just the last round's).
        sched = EdgeSchedule(3, lambda t: [(0, 1)] if t % 2 == 0 else [(1, 2)])
        even, odd = sched.graph_at(0), sched.graph_at(1)
        assert sched.graph_at(2) is even
        assert sched.graph_at(3) is odd
