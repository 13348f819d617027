"""Unit tests for periodic adversaries and the Figure 1 fixture."""

import pytest

from repro.adversary.periodic import (
    AlternatingAdversary,
    figure1_adversary,
    figure1_base_graph,
)
from repro.faults.base import FaultPlan
from repro.net.dynadegree import check_dynadegree
from repro.net.dynamic import DynamicGraph
from repro.net.topology import Topology
from repro.sim.rng import child_rng


def trace_of(adversary, n, rounds):
    adversary.setup(n, FaultPlan.fault_free_plan(n), child_rng(0, "adv"))
    dyn = DynamicGraph(n)
    for t in range(rounds):
        dyn.record(adversary.choose(t, None))
    return dyn


class TestAlternatingAdversary:
    def test_cycles(self):
        adv = AlternatingAdversary(3, [[(0, 1)], [(1, 2)], []])
        trace = trace_of(adv, 3, 6)
        assert set(trace.at(0).edges) == {(0, 1)}
        assert set(trace.at(1).edges) == {(1, 2)}
        assert len(trace.at(2)) == 0
        assert set(trace.at(3).edges) == {(0, 1)}
        assert adv.cycle_length == 3

    def test_empty_cycle_rejected(self):
        with pytest.raises(ValueError, match="at least one round"):
            AlternatingAdversary(3, [])


class TestFigure1:
    def test_matches_paper_rounds(self):
        trace = trace_of(figure1_adversary(), 3, 4)
        even = {(0, 1), (1, 0), (1, 2), (2, 1)}
        assert set(trace.at(0).edges) == even
        assert len(trace.at(1)) == 0
        assert set(trace.at(2).edges) == even

    def test_promise_is_2_1(self):
        assert figure1_adversary().promised_dynadegree() == (2, 1)

    def test_satisfies_promise_but_not_1_1(self):
        trace = trace_of(figure1_adversary(), 3, 10)
        assert check_dynadegree(trace, 2, 1).holds
        assert not check_dynadegree(trace, 1, 1).holds

    def test_base_graph_is_complete(self):
        assert figure1_base_graph() == Topology.complete(3)

    def test_chosen_links_within_base_graph(self):
        trace = trace_of(figure1_adversary(), 3, 6)
        base = figure1_base_graph()
        for t in range(len(trace)):
            assert trace.at(t).is_subgraph_of(base)
