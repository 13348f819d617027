"""Trace accessor tests plus negative tests: the runner must catch
adversaries that lie about their (T, D) promise."""


from repro.adversary.base import MessageAdversary, StaticAdversary
from repro.core.dac import DACProcess
from repro.net.ports import identity_ports
from repro.net.topology import Topology
from repro.sim.runner import run_consensus

from tests.helpers import spread_inputs


def run_dac(adversary, n=5, max_rounds=20, epsilon=1e-2):
    ports = identity_ports(n)
    inputs = spread_inputs(n)
    procs = {
        v: DACProcess(n, 0, inputs[v], v, epsilon=epsilon) for v in range(n)
    }
    return run_consensus(
        procs, adversary, ports, epsilon=epsilon, max_rounds=max_rounds
    )


class TestTraceAccessors:
    def test_phase_and_value_of(self):
        report = run_dac(StaticAdversary())
        trace = report.trace
        assert trace.phase_of(0, 0) == 1  # first round completes phase 1
        assert isinstance(trace.value_of(0, 0), float)

    def test_missing_node_returns_none(self):
        report = run_dac(StaticAdversary())
        assert report.trace.phase_of(99, 0) is None
        assert report.trace.value_of(99, 0) is None

    def test_totals_match_metrics(self):
        report = run_dac(StaticAdversary())
        assert report.trace.total_bits() == report.metrics.bits
        assert report.trace.total_delivered() == report.metrics.delivered

    def test_dynamic_graph_matches_rounds(self):
        report = run_dac(StaticAdversary())
        dyn = report.trace.dynamic_graph()
        assert len(dyn) == len(report.trace)
        assert dyn.at(0) == report.trace.at(0)


class LyingAdversary(MessageAdversary):
    """Claims (1, n-1) but delivers nothing at all."""

    def choose(self, t, view):
        return Topology.empty(self.n)

    def promised_dynadegree(self):
        return (1, self.n - 1)


class OverClaimingAdversary(MessageAdversary):
    """Claims (1, n-1) but provides only a ring (degree 1)."""

    def choose(self, t, view):
        edges = [(v, (v + 1) % self.n) for v in range(self.n)]
        return Topology(self.n, edges)

    def promised_dynadegree(self):
        return (1, self.n - 1)


class TestPromiseAuditing:
    def test_silent_liar_is_caught(self):
        report = run_dac(LyingAdversary(), max_rounds=6)
        assert report.dynadegree_promise == (1, 4)
        assert report.dynadegree_verified is False

    def test_overclaimer_is_caught(self):
        report = run_dac(OverClaimingAdversary(), max_rounds=6)
        assert report.dynadegree_verified is False

    def test_honest_promise_passes(self):
        report = run_dac(StaticAdversary(), max_rounds=20)
        assert report.dynadegree_verified is True

    def test_no_rounds_no_verdict(self):
        report = run_dac(StaticAdversary(), max_rounds=0)
        # Zero-round run: nothing to verify against.
        assert report.dynadegree_verified is None
