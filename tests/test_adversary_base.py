"""Unit tests for the adversary base classes and trivial instances."""

import pytest

from repro.adversary.base import ScheduleAdversary, StaticAdversary
from repro.faults.base import FaultPlan
from repro.net.dynamic import EdgeSchedule
from repro.net.topology import Topology
from repro.sim.rng import child_rng


def setup(adversary, n):
    adversary.setup(n, FaultPlan.fault_free_plan(n), child_rng(0, "adv"))
    return adversary


class TestStaticAdversary:
    def test_defaults_to_complete(self):
        adv = setup(StaticAdversary(), 4)
        assert adv.choose(0, None) == Topology.complete(4)
        assert adv.promised_dynadegree() == (1, 3)

    def test_custom_graph(self):
        ring = Topology(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        adv = setup(StaticAdversary(ring), 4)
        assert adv.choose(7, None) == ring
        assert adv.promised_dynadegree() == (1, 1)

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError, match="engine has n=5"):
            setup(StaticAdversary(Topology.complete(4)), 5)

    def test_no_promise_when_someone_hears_nobody(self):
        lonely = Topology(3, [(0, 1)])
        adv = setup(StaticAdversary(lonely), 3)
        assert adv.promised_dynadegree() is None


class TestScheduleAdversary:
    def test_plays_back_schedule(self):
        sched = EdgeSchedule.from_table(3, [[(0, 1)], [(1, 2)]])
        adv = setup(ScheduleAdversary(sched), 3)
        assert set(adv.choose(0, None).edges) == {(0, 1)}
        assert set(adv.choose(1, None).edges) == {(1, 2)}
        assert set(adv.choose(2, None).edges) == {(0, 1)}

    def test_promise_passthrough(self):
        sched = EdgeSchedule.from_table(3, [[(0, 1)]])
        adv = ScheduleAdversary(sched, promise=(2, 1))
        assert adv.promised_dynadegree() == (2, 1)

    def test_size_mismatch_rejected(self):
        sched = EdgeSchedule.from_table(3, [[(0, 1)]])
        with pytest.raises(ValueError, match="engine has n=4"):
            setup(ScheduleAdversary(sched), 4)
