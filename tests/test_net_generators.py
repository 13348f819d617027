"""Unit tests for repro.net.generators."""

import random

import pytest

from repro.net.generators import (
    complete_edges,
    cycle_edges,
    drop_incoming,
    empty_edges,
    in_links_from,
    random_edges,
    split_edges,
    star_edges,
)
from repro.net.topology import Topology


class TestBasicTopologies:
    def test_empty(self):
        assert empty_edges(5) == []
        with pytest.raises(ValueError):
            empty_edges(0)

    def test_complete(self):
        edges = complete_edges(4)
        assert len(edges) == 12
        assert (0, 0) not in edges

    def test_cycle_bidirectional(self):
        edges = cycle_edges(4)
        assert (0, 1) in edges and (1, 0) in edges
        assert len(edges) == 8

    def test_cycle_directed(self):
        edges = cycle_edges(4, bidirectional=False)
        assert (0, 1) in edges and (1, 0) not in edges
        assert (3, 0) in edges
        assert len(edges) == 4

    def test_cycle_too_small(self):
        with pytest.raises(ValueError, match="n >= 2"):
            cycle_edges(1)

    def test_star(self):
        edges = star_edges(5, center=2)
        g = Topology(5, edges)
        assert g.out_degree(2) == 4
        assert g.in_degree(2) == 4
        assert g.in_degree(0) == 1

    def test_star_one_way(self):
        edges = star_edges(4, center=0, bidirectional=False)
        g = Topology(4, edges)
        assert g.in_degree(0) == 0
        assert g.out_degree(0) == 3

    def test_star_center_range(self):
        with pytest.raises(ValueError, match="out of range"):
            star_edges(4, center=4)


class TestRandomEdges:
    def test_p_zero_and_one(self):
        rng = random.Random(0)
        assert random_edges(5, 0.0, rng) == []
        assert len(random_edges(5, 1.0, rng)) == 20

    def test_probability_validated(self):
        with pytest.raises(ValueError, match="probability"):
            random_edges(5, 1.5, random.Random(0))

    def test_deterministic_given_rng(self):
        a = random_edges(6, 0.4, random.Random(42))
        b = random_edges(6, 0.4, random.Random(42))
        assert a == b

    def test_density_roughly_p(self):
        rng = random.Random(7)
        total = sum(len(random_edges(20, 0.3, rng)) for _ in range(50))
        expected = 50 * 20 * 19 * 0.3
        assert 0.9 * expected < total < 1.1 * expected


class TestSplitEdges:
    def test_disjoint_groups_stay_silent(self):
        edges = split_edges(6, [{0, 1, 2}, {3, 4, 5}])
        g = Topology(6, edges)
        assert (0, 1) in g and (3, 4) in g
        assert (0, 3) not in g and (3, 0) not in g

    def test_overlapping_groups_union(self):
        edges = split_edges(5, [{0, 1, 2}, {2, 3, 4}])
        g = Topology(5, edges)
        # Overlap node 2 hears both sides.
        assert g.in_neighbors(2) == {0, 1, 3, 4}
        # Exclusive members hear only their group.
        assert g.in_neighbors(0) == {1, 2}
        assert g.in_neighbors(4) == {2, 3}

    def test_out_of_range_member_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            split_edges(3, [{0, 5}])

    def test_singleton_group_has_no_edges(self):
        assert split_edges(3, [{1}]) == []


class TestLinkHelpers:
    def test_in_links_from(self):
        assert in_links_from({0, 2}, 1) == [(0, 1), (2, 1)]
        # Self excluded automatically.
        assert in_links_from({1, 2}, 1) == [(2, 1)]

    def test_drop_incoming(self):
        edges = [(0, 1), (2, 1), (0, 2)]
        remaining = drop_incoming(edges, target=1, sources={0})
        assert (0, 1) not in remaining
        assert (2, 1) in remaining and (0, 2) in remaining
