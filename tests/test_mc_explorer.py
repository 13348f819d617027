"""Unit tests for the bounded model checker (Corollary 1's engine)."""

import pytest

from repro.core.baselines import FloodMinProcess, MajorityVoteProcess
from repro.mc.explorer import (
    BoundedExplorer,
    full_graph_choice,
    mobile_omission_choices,
)
from repro.net.topology import Topology


def floodmin_factory(n, rounds):
    return lambda node, x: FloodMinProcess(n, 0, x, node, num_rounds=rounds)


def majority_factory(n, rounds):
    return lambda node, x: MajorityVoteProcess(n, 0, x, node, num_rounds=rounds)


class TestChoiceGenerators:
    def test_mobile_omission_counts(self):
        n = 3
        graphs = list(mobile_omission_choices(n)(0))
        # n options per receiver (drop one of n-1 senders, or none).
        assert len(graphs) == n**n

    def test_mobile_omission_degree_invariant(self):
        n = 3
        for g in mobile_omission_choices(n)(0):
            for v in range(n):
                assert g.in_degree(v) >= n - 2

    def test_full_graph_choice_single(self):
        graphs = list(full_graph_choice(4)(0))
        assert graphs == [Topology.complete(4)]


class TestSearch:
    def test_floodmin_breaks_under_mobile_omission(self):
        n = 3
        explorer = BoundedExplorer(
            n,
            floodmin_factory(n, rounds=2),
            [0.0, 1.0, 1.0],
            mobile_omission_choices(n),
            horizon=2,
        )
        violation = explorer.search()
        assert violation is not None
        assert violation.kind == "disagreement"
        assert len(violation.schedule) == 2
        assert 0.0 in violation.outputs and 1.0 in violation.outputs

    def test_majority_breaks_under_mobile_omission(self):
        n = 3
        explorer = BoundedExplorer(
            n,
            majority_factory(n, rounds=2),
            [0.0, 1.0, 1.0],
            mobile_omission_choices(n),
            horizon=2,
        )
        violation = explorer.search()
        assert violation is not None
        assert violation.kind == "disagreement"

    def test_floodmin_safe_on_reliable_graph(self):
        # Sanity: with the complete graph as the only choice, FloodMin
        # with n-1 rounds cannot be broken.
        n = 3
        explorer = BoundedExplorer(
            n,
            floodmin_factory(n, rounds=2),
            [0.0, 1.0, 1.0],
            full_graph_choice(n),
            horizon=2,
        )
        assert explorer.search() is None

    def test_identical_inputs_cannot_disagree(self):
        n = 3
        explorer = BoundedExplorer(
            n,
            floodmin_factory(n, rounds=2),
            [1.0, 1.0, 1.0],
            mobile_omission_choices(n),
            horizon=2,
        )
        assert explorer.search() is None

    def test_memoization_bounds_state_count(self):
        n = 3
        explorer = BoundedExplorer(
            n,
            floodmin_factory(n, rounds=3),
            [0.0, 1.0, 1.0],
            full_graph_choice(n),
            horizon=3,
        )
        explorer.search()
        # One initial state, one successor per round: memoized DFS
        # touches a handful of states, not 27^3.
        assert explorer.states_explored <= 4

    def test_nontermination_flagged(self):
        n = 3

        class Stubborn(FloodMinProcess):
            def has_output(self):
                return False

        explorer = BoundedExplorer(
            n,
            lambda node, x: Stubborn(n, 0, x, node, num_rounds=99),
            [0.0, 1.0, 1.0],
            full_graph_choice(n),
            horizon=2,
        )
        violation = explorer.search()
        assert violation is not None
        assert violation.kind == "non-termination"

    def test_nontermination_can_be_ignored(self):
        n = 3
        explorer = BoundedExplorer(
            n,
            floodmin_factory(n, rounds=5),
            [0.0, 1.0, 1.0],
            full_graph_choice(n),
            horizon=2,  # shorter than the algorithm's budget
            nontermination_is_violation=False,
        )
        assert explorer.search() is None

    def test_input_count_validated(self):
        with pytest.raises(ValueError, match="inputs"):
            BoundedExplorer(
                3,
                floodmin_factory(3, 2),
                [0.0],
                full_graph_choice(3),
                horizon=2,
            )

    def test_violation_str(self):
        v_str = str(
            BoundedExplorer(
                3,
                floodmin_factory(3, 1),
                [0.0, 1.0, 1.0],
                mobile_omission_choices(3),
                horizon=1,
            ).search()
        )
        assert "round" in v_str


class TestOutcomeHistogram:
    def test_histogram_contains_disagreements(self):
        n = 3
        explorer = BoundedExplorer(
            n,
            floodmin_factory(n, rounds=1),
            [0.0, 1.0, 1.0],
            mobile_omission_choices(n),
            horizon=1,
        )
        histogram = explorer.count_outcomes()
        assert histogram  # some execution decided
        kinds = {len(set(outputs)) for outputs in histogram}
        assert 2 in kinds  # at least one disagreement pattern


class TestChoiceCaching:
    def test_stochastic_generators_can_opt_out(self):
        # cache_choices=False must re-invoke the generator per DFS
        # node (the pre-caching contract for streaming generators).
        from repro.core.baselines import FloodMinProcess
        from repro.net.topology import Topology

        calls = []

        def generator(t):
            # Two branches with distinct successors, so depth t+1 is
            # entered from more than one DFS node.
            calls.append(t)
            yield Topology.complete(3)
            yield Topology(3, [(0, 1)])

        explorer = BoundedExplorer(
            3,
            lambda v, x: FloodMinProcess(3, 0, x, v, num_rounds=2),
            [0.0, 1.0, 1.0],
            generator,
            horizon=2,
            cache_choices=False,
            nontermination_is_violation=False,
        )
        explorer.search()
        assert len(calls) > len(set(calls))  # depths revisited, not frozen

    def test_cached_choices_generate_once_per_depth(self):
        from repro.core.baselines import FloodMinProcess
        from repro.net.topology import Topology

        calls = []

        def generator(t):
            calls.append(t)
            yield Topology.complete(3)

        explorer = BoundedExplorer(
            3,
            lambda v, x: FloodMinProcess(3, 0, x, v, num_rounds=2),
            [0.0, 1.0, 1.0],
            generator,
            horizon=2,
            cache_choices=True,
        )
        explorer.search()
        assert len(calls) == len(set(calls))
