"""Unit tests for repro.net.topology.Topology (the hash-consed layer).

The plain graph surface is covered by test_net_graph.py; this file
pins the hash-consing contract: interning identity, the canonical
sorted edge tuple, lazily cached adjacency rows, degree views, the
stable content hash, and pickling.
"""

import pickle

import pytest

import repro.net.topology as topology_module
from repro.net.topology import Topology


class TestHashConsing:
    def test_equal_graphs_are_identical_objects(self):
        a = Topology(4, [(0, 1), (2, 3)])
        b = Topology(4, [(2, 3), (0, 1), (0, 1)])  # order/dups irrelevant
        assert a is b

    def test_trusted_and_validating_constructors_share_instances(self):
        # The validating constructor and the trusted one intern alike.
        assert Topology.from_sorted_edges(3, ((0, 1),)) is Topology(3, [(0, 1)])

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


def _edges_of(picks):
    return [(u, v) for v, senders in enumerate(picks) for u in senders]


class TestReceiverLists:
    """``from_receiver_lists`` looks the sorted rows up before building:
    whichever path answers, the caller gets the interned instance."""

    # A graph no other test builds, so the first call is a memo miss.
    PICKS = [(5, 3), (4, 0, 6), (0,), (6, 1, 2), (3,), (2, 1), (0, 4, 5)]

    def test_miss_then_hit_return_the_interned_instance(self):
        n = len(self.PICKS)
        rows = tuple(tuple(sorted(senders)) for senders in self.PICKS)
        assert (n, rows) not in Topology._by_rows
        g = Topology.from_receiver_lists(n, self.PICKS)
        assert g is Topology(n, _edges_of(self.PICKS))
        assert g.in_rows() == rows
        before = len(Topology._intern)
        assert Topology.from_receiver_lists(n, self.PICKS) is g
        # A memo hit builds nothing: the intern table, which perfbench
        # reads to count built graphs, does not grow.
        assert len(Topology._intern) == before

    def test_miss_on_an_already_interned_graph(self):
        picks = [(1, 2), (3,), (0, 3), (2,)]
        g = Topology(4, _edges_of(picks))
        assert Topology.from_receiver_lists(4, picks) is g
        assert g.in_rows() == ((1, 2), (3,), (0, 3), (2,))

    def test_picks_in_another_order_hit_the_same_instance(self):
        g = Topology.from_receiver_lists(5, [(4, 1), (2, 0), (3,), (0, 4, 1), ()])
        again = Topology.from_receiver_lists(5, [[1, 4], (0, 2), [3], (4, 1, 0), []])
        assert again is g is Topology(5, _edges_of([(4, 1), (2, 0), (3,), (0, 4, 1), ()]))

    def test_no_stale_instance_after_the_intern_table_clears(self, monkeypatch):
        # Work on copies of both tables, so the clear below does not
        # drop instances other tests hold (complete/empty caches).
        monkeypatch.setattr(Topology, "_intern", dict(Topology._intern))
        monkeypatch.setattr(Topology, "_by_rows", dict(Topology._by_rows))
        picks = [(2,), (0, 2), (1,)]
        g = Topology.from_receiver_lists(3, picks)
        # The next fresh construction finds the table full and clears it.
        monkeypatch.setattr(topology_module, "_INTERN_MAX", len(Topology._intern))
        Topology(9, [(8, 7)])
        assert len(Topology._intern) == 1 and not Topology._by_rows
        fresh = Topology.from_receiver_lists(3, picks)
        assert fresh is not g
        assert fresh == g
        assert fresh is Topology(3, _edges_of(picks))
        assert Topology.from_receiver_lists(3, picks) is fresh

    def test_row_count_is_still_checked(self):
        with pytest.raises(ValueError, match="receiver lists"):
            Topology.from_receiver_lists(3, [(1,), (0,)])


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
