"""Unit tests for the partitioning adversaries (Theorems 9 and 10)."""

import pytest

from repro.adversary.split import (
    IsolateThenConnectAdversary,
    ReceiveSetsAdversary,
    SplitGroupsAdversary,
    halves_partition,
    theorem10_groups,
)
from repro.faults.base import FaultPlan
from repro.net.topology import Topology
from repro.sim.rng import child_rng


def setup(adversary, n):
    adversary.setup(n, FaultPlan.fault_free_plan(n), child_rng(0, "adv"))
    return adversary


class TestSplitGroups:
    def test_groups_isolated(self):
        adv = setup(SplitGroupsAdversary([{0, 1, 2}, {3, 4, 5}]), 6)
        g = adv.choose(0, None)
        assert (0, 1) in g and (3, 4) in g
        assert (0, 3) not in g and (4, 1) not in g

    def test_promise_reflects_group_degree(self):
        adv = setup(SplitGroupsAdversary([{0, 1, 2}, {3, 4, 5}]), 6)
        assert adv.promised_dynadegree() == (1, 2)

    def test_needs_groups(self):
        with pytest.raises(ValueError, match="at least one group"):
            SplitGroupsAdversary([])

    def test_out_of_range_group_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            setup(SplitGroupsAdversary([{0, 9}]), 3)

    def test_static_over_time(self):
        adv = setup(SplitGroupsAdversary([{0, 1}, {2, 3}]), 4)
        assert adv.choose(0, None) == adv.choose(17, None)


class TestReceiveSets:
    def test_listening_sets_enforced(self):
        adv = setup(
            ReceiveSetsAdversary({0: {1, 2}, 1: {0}, 2: {0, 1}}),
            3,
        )
        g = adv.choose(0, None)
        assert g.in_neighbors(0) == {1, 2}
        assert g.in_neighbors(1) == {0}
        assert g.in_neighbors(2) == {0, 1}

    def test_unlisted_node_hears_everyone(self):
        adv = setup(ReceiveSetsAdversary({0: {1}}), 3)
        g = adv.choose(0, None)
        assert g.in_neighbors(2) == {0, 1}

    def test_promise_is_min_listening_degree(self):
        adv = setup(ReceiveSetsAdversary({0: {1, 2}, 1: {0}}), 3)
        assert adv.promised_dynadegree() == (1, 1)

    def test_self_in_receive_set_ignored(self):
        adv = setup(ReceiveSetsAdversary({0: {0, 1}}), 2)
        g = adv.choose(0, None)
        assert g.in_neighbors(0) == {1}

    def test_out_of_range_sender_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            setup(ReceiveSetsAdversary({0: {7}}), 3)


class TestIsolateThenConnect:
    def test_phases(self):
        adv = setup(IsolateThenConnectAdversary([{0, 1}, {2, 3}], 3), 4)
        assert (0, 2) not in adv.choose(0, None)
        assert (0, 2) not in adv.choose(2, None)
        assert adv.choose(3, None) == Topology.complete(4)
        assert adv.choose(99, None) == Topology.complete(4)

    def test_promise(self):
        adv = setup(IsolateThenConnectAdversary([{0, 1}, {2, 3}], 5), 4)
        assert adv.promised_dynadegree() == (6, 3)

    def test_negative_isolation_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            IsolateThenConnectAdversary([{0}], -1)

    def test_zero_isolation_means_always_complete(self):
        adv = setup(IsolateThenConnectAdversary([{0, 1}, {2, 3}], 0), 4)
        assert adv.choose(0, None) == Topology.complete(4)


class TestPartitionHelpers:
    def test_halves_even(self):
        a, b = halves_partition(8)
        assert a == frozenset(range(4))
        assert b == frozenset(range(4, 8))

    def test_halves_odd(self):
        a, b = halves_partition(7)
        assert len(a) == 3 and len(b) == 4
        assert a | b == frozenset(range(7))

    def test_theorem10_groups_structure(self):
        for f in (1, 2, 3):
            n = 5 * f + 1
            a, b, byz = theorem10_groups(n, f)
            assert len(a) == (n + 3 * f) // 2
            assert len(a & b) == 3 * f
            assert len(byz) == f
            assert byz <= (a & b)
            assert a | b == frozenset(range(n))

    def test_theorem10_needs_enough_nodes(self):
        with pytest.raises(ValueError, match="3f"):
            theorem10_groups(3, 1)
