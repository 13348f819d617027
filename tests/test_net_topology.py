"""Unit tests for repro.net.topology.Topology (the hash-consed layer).

The DirectedGraph-compatible surface is covered by test_net_graph.py;
this file pins the *new* contract: interning identity, the canonical
sorted edge tuple, lazily cached adjacency rows, degree views, the
stable content hash, and pickling.
"""

import pickle
import warnings

import pytest

from repro.net.topology import Topology


class TestHashConsing:
    def test_equal_graphs_are_identical_objects(self):
        a = Topology(4, [(0, 1), (2, 3)])
        b = Topology(4, [(2, 3), (0, 1), (0, 1)])  # order/dups irrelevant
        assert a is b

    def test_shim_and_native_constructors_share_instances(self):
        with warnings.catch_warnings():
            # The alias's warning is pinned by test_graph_deprecation.py.
            warnings.simplefilter("ignore", DeprecationWarning)
            from repro.net.graph import DirectedGraph
        assert DirectedGraph(3, [(0, 1)]) is Topology(3, [(0, 1)])

    def test_same_edges_different_n_are_distinct(self):
        assert Topology(3, [(0, 1)]) is not Topology(4, [(0, 1)])

    def test_complete_and_empty_are_cached(self):
        assert Topology.complete(5) is Topology.complete(5)
        assert Topology.empty(5) is Topology.empty(5)
        assert Topology.complete(5) is Topology(
            5, ((u, v) for u in range(5) for v in range(5) if u != v)
        )

    def test_derived_topologies_intern_too(self):
        g = Topology(3, [(0, 1), (1, 2), (2, 0)])
        assert g.without_sources([1]) is Topology(3, [(0, 1), (2, 0)])
        assert g.restrict_targets([1]) is Topology(3, [(0, 1)])
        assert g.union(Topology(3, [(1, 0)])) is Topology(
            3, [(0, 1), (1, 0), (1, 2), (2, 0)]
        )

    def test_pickle_round_trip_re_interns(self):
        g = Topology(4, [(0, 1), (1, 2)])
        clone = pickle.loads(pickle.dumps(g))
        assert clone is g

    def test_equality_survives_without_identity(self):
        # Structural equality must hold even for non-interned twins
        # (the bounded table can be cleared between constructions).
        g = Topology(3, [(0, 1)])
        twin = object.__new__(Topology)
        twin._n, twin._edges = 3, ((0, 1),)
        twin._edge_set = twin._out_rows = twin._in_rows = None
        twin._hash = twin._content_hash = None
        assert twin == g and hash(twin) == hash(g)


class TestCanonicalViews:
    def test_edge_list_is_sorted_tuple(self):
        g = Topology(4, [(3, 0), (0, 3), (1, 2), (0, 2)])
        assert g.edge_list == ((0, 2), (0, 3), (1, 2), (3, 0))

    def test_rows_match_neighbor_sets(self):
        g = Topology(4, [(0, 1), (2, 1), (1, 3), (0, 3)])
        assert g.in_row(1) == (0, 2)
        assert g.out_row(0) == (1, 3)
        assert g.in_row(0) == ()
        for v in range(4):
            assert frozenset(g.in_row(v)) == g.in_neighbors(v)
            assert frozenset(g.out_row(v)) == g.out_neighbors(v)

    def test_rows_are_cached_objects(self):
        g = Topology(3, [(0, 1), (1, 2)])
        assert g.out_rows() is g.out_rows()
        assert g.in_rows() is g.in_rows()

    def test_degree_views(self):
        g = Topology(3, [(0, 1), (2, 1), (1, 0)])
        assert g.in_degrees() == (1, 2, 0)
        assert g.out_degrees() == (1, 1, 1)
        assert g.in_degree(1) == 2 and g.out_degree(2) == 1

    def test_iteration_follows_canonical_order(self):
        g = Topology(3, [(2, 0), (0, 1)])
        assert list(g) == [(0, 1), (2, 0)]


class TestContentHash:
    def test_stable_across_construction_paths(self):
        a = Topology(4, [(0, 1), (2, 3)])
        b = Topology.from_sorted_edges(4, ((0, 1), (2, 3)))
        assert a.content_hash == b.content_hash

    def test_distinguishes_n_and_edges(self):
        assert Topology(3, [(0, 1)]).content_hash != Topology(4, [(0, 1)]).content_hash
        assert Topology(3, [(0, 1)]).content_hash != Topology(3, [(1, 0)]).content_hash

    def test_pinned_value(self):
        # The hash must be stable across runs and processes: pin one.
        g = Topology(3, [(0, 1), (1, 2)])
        assert g.content_hash == int.from_bytes(
            __import__("hashlib").blake2b(b"30,1;1,2;", digest_size=16).digest(),
            "big",
        )


class TestValidationStillStrict:
    def test_from_sorted_edges_requires_positive_n(self):
        with pytest.raises(ValueError, match="at least one node"):
            Topology.from_sorted_edges(0, ())

    def test_constructor_validates(self):
        with pytest.raises(ValueError, match="self-loop"):
            Topology(3, [(2, 2)])
        with pytest.raises(ValueError, match="out of range"):
            Topology(3, [(0, 5)])
