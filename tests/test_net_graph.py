"""Unit tests for the graph surface of repro.net.topology.Topology
(the API the deprecated ``DirectedGraph`` alias exposes)."""

import pytest

from repro.net.topology import Topology


class TestConstruction:
    def test_empty_graph_has_no_edges(self):
        g = Topology(4)
        assert len(g) == 0
        assert g.n == 4

    def test_single_node_graph_is_legal(self):
        g = Topology(1)
        assert g.n == 1
        assert len(g) == 0

    def test_zero_nodes_rejected(self):
        with pytest.raises(ValueError, match="at least one node"):
            Topology(0)

    def test_edges_are_stored(self):
        g = Topology(3, [(0, 1), (1, 2)])
        assert (0, 1) in g
        assert (1, 2) in g
        assert (2, 0) not in g

    def test_duplicate_edges_collapse(self):
        g = Topology(3, [(0, 1), (0, 1), (0, 1)])
        assert len(g) == 1

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            Topology(3, [(1, 1)])

    def test_out_of_range_edge_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            Topology(3, [(0, 3)])
        with pytest.raises(ValueError, match="out of range"):
            Topology(3, [(-1, 0)])

    def test_complete_graph_edge_count(self):
        for n in (1, 2, 3, 7):
            g = Topology.complete(n)
            assert len(g) == n * (n - 1)

    def test_empty_classmethod(self):
        g = Topology.empty(5)
        assert len(g) == 0 and g.n == 5


class TestNeighborhoods:
    def test_in_and_out_neighbors_directed(self):
        g = Topology(3, [(0, 1)])
        assert g.in_neighbors(1) == {0}
        assert g.out_neighbors(0) == {1}
        assert g.in_neighbors(0) == frozenset()
        assert g.out_neighbors(1) == frozenset()

    def test_degrees(self):
        g = Topology(4, [(0, 3), (1, 3), (2, 3), (3, 0)])
        assert g.in_degree(3) == 3
        assert g.out_degree(3) == 1
        assert g.in_degree(0) == 1
        assert g.in_degree(1) == 0

    def test_complete_graph_degrees(self):
        g = Topology.complete(6)
        for v in range(6):
            assert g.in_degree(v) == 5
            assert g.out_degree(v) == 5


class TestOperations:
    def test_union_merges_edges(self):
        a = Topology(3, [(0, 1)])
        b = Topology(3, [(1, 2)])
        u = a.union(b)
        assert (0, 1) in u and (1, 2) in u
        assert len(u) == 2

    def test_union_size_mismatch_rejected(self):
        with pytest.raises(ValueError, match="union"):
            Topology(3).union(Topology(4))

    def test_restrict_targets(self):
        g = Topology(3, [(0, 1), (0, 2), (1, 2)])
        r = g.restrict_targets([2])
        assert (0, 2) in r and (1, 2) in r and (0, 1) not in r

    def test_without_sources(self):
        g = Topology(3, [(0, 1), (1, 2), (2, 0)])
        r = g.without_sources([1])
        assert (1, 2) not in r
        assert (0, 1) in r and (2, 0) in r

    def test_subgraph_relation(self):
        small = Topology(3, [(0, 1)])
        big = Topology(3, [(0, 1), (1, 2)])
        assert small.is_subgraph_of(big)
        assert not big.is_subgraph_of(small)
        assert not small.is_subgraph_of(Topology(4, [(0, 1)]))


class TestEqualityAndHashing:
    def test_equal_graphs(self):
        a = Topology(3, [(0, 1), (1, 2)])
        b = Topology(3, [(1, 2), (0, 1)])
        assert a == b
        assert hash(a) == hash(b)

    def test_unequal_edge_sets(self):
        assert Topology(3, [(0, 1)]) != Topology(3, [(1, 0)])

    def test_unequal_sizes(self):
        assert Topology(3) != Topology(4)

    def test_usable_in_sets(self):
        graphs = {Topology(3, [(0, 1)]), Topology(3, [(0, 1)])}
        assert len(graphs) == 1

    def test_iteration_yields_edges(self):
        edges = {(0, 1), (2, 1)}
        g = Topology(3, edges)
        assert set(g) == edges

    def test_repr_mentions_sizes(self):
        assert "n=3" in repr(Topology(3, [(0, 1)]))
