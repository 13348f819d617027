"""Unit tests for the enforcing worst-case adversaries.

The central contract: whatever these adversaries do, the recorded trace
must satisfy the promised (T, D)-dynaDegree -- checked here with the
independent checker, including under crashes.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversary.constrained import (
    LastMinuteQuorumAdversary,
    PhaseSkewAdversary,
    random_picks,
)
from repro.core.dac import DACProcess
from repro.faults.base import FaultPlan
from repro.faults.crash import staggered_crashes
from repro.net.dynadegree import check_dynadegree
from repro.net.ports import identity_ports
from repro.sim.engine import Engine

from tests.helpers import spread_inputs


def run_with(adversary, n, f=0, fault_plan=None, rounds=30):
    ports = identity_ports(n)
    plan = fault_plan or FaultPlan.fault_free_plan(n)
    inputs = spread_inputs(n)
    procs = {
        v: DACProcess(n, f, inputs[v], ports.self_port(v), epsilon=1e-4)
        for v in plan.non_byzantine
    }
    engine = Engine(procs, adversary, ports, fault_plan=plan, f=f)
    engine.run(rounds)
    assert engine.trace is not None
    return engine


class TestValidation:
    def test_bad_degree_rejected(self):
        with pytest.raises(ValueError, match="D must be >= 1"):
            LastMinuteQuorumAdversary(1, 0)

    def test_bad_selector_rejected(self):
        with pytest.raises(ValueError, match="selector"):
            LastMinuteQuorumAdversary(1, 2, selector="weird")

    def test_bad_window_rejected(self):
        with pytest.raises(ValueError, match="T must be >= 1"):
            LastMinuteQuorumAdversary(0, 2)


class TestRotatingQuorum:
    def test_promise_holds_fault_free(self):
        n = 7
        engine = run_with(LastMinuteQuorumAdversary(1, 3), n)
        verdict = check_dynadegree(engine.trace.dynamic_graph(), 1, 3)
        assert verdict.holds

    def test_exactly_degree_links_per_node(self):
        n = 7
        engine = run_with(LastMinuteQuorumAdversary(1, 3), n)
        for snap in engine.trace.rounds:
            for v in range(n):
                assert snap.graph.in_degree(v) == 3

    def test_neighborhood_rotates(self):
        n = 7
        engine = run_with(LastMinuteQuorumAdversary(1, 3), n, rounds=4)
        hoods = [engine.trace.at(t).in_neighbors(0) for t in range(4)]
        assert len(set(hoods)) > 1

    def test_promise_holds_with_crashes_counting_live_senders(self):
        n = 9
        f = 4
        plan = FaultPlan(n, crashes=staggered_crashes(range(5, 9), first_round=2))
        engine = run_with(LastMinuteQuorumAdversary(1, 4), n, f=f, fault_plan=plan, rounds=25)
        trace = engine.trace
        verdict = check_dynadegree(
            trace.dynamic_graph(),
            1,
            4,
            fault_free=plan.fault_free,
            senders_at=lambda t: trace.rounds[t].live_senders,
        )
        assert verdict.holds

    def test_all_selectors_keep_promise(self):
        n = 8
        for selector in ("rotate", "nearest", "random"):
            engine = run_with(LastMinuteQuorumAdversary(1, 4, selector=selector), n)
            verdict = check_dynadegree(engine.trace.dynamic_graph(), 1, 4)
            assert verdict.holds, selector


class TestLastMinuteQuorum:
    def test_silent_until_window_end(self):
        n = 6
        engine = run_with(LastMinuteQuorumAdversary(3, 3), n, rounds=9)
        sizes = engine.trace.dynamic_graph().edges_per_round()
        assert sizes[0] == 0 and sizes[1] == 0 and sizes[2] > 0
        assert sizes[3] == 0 and sizes[5] > 0

    def test_promise_holds_on_sliding_windows(self):
        n = 6
        engine = run_with(LastMinuteQuorumAdversary(3, 3), n, rounds=20)
        verdict = check_dynadegree(engine.trace.dynamic_graph(), 3, 3)
        assert verdict.holds

    def test_promise_tuple(self):
        assert LastMinuteQuorumAdversary(4, 2).promised_dynadegree() == (4, 2)
        assert LastMinuteQuorumAdversary(1, 2).promised_dynadegree() == (1, 2)

    def test_window_one_equals_every_round(self):
        n = 5
        engine = run_with(LastMinuteQuorumAdversary(1, 2), n, rounds=6)
        assert all(count > 0 for count in engine.trace.dynamic_graph().edges_per_round())


class TestPhaseSkew:
    def test_promise_holds(self):
        n = 9
        adv = PhaseSkewAdversary(4, slow={6, 7, 8}, window=3)
        engine = run_with(adv, n, rounds=18)
        verdict = check_dynadegree(engine.trace.dynamic_graph(), 3, 4)
        assert verdict.holds

    def test_fast_nodes_fed_every_round(self):
        n = 9
        adv = PhaseSkewAdversary(4, slow={6, 7, 8}, window=3)
        engine = run_with(adv, n, rounds=6)
        for snap in engine.trace.rounds:
            for v in range(6):
                assert snap.graph.in_degree(v) == 4

    def test_slow_nodes_fed_once_per_window(self):
        n = 9
        adv = PhaseSkewAdversary(4, slow={6, 7, 8}, window=3)
        engine = run_with(adv, n, rounds=9)
        for t, snap in enumerate(engine.trace.rounds):
            degree = snap.graph.in_degree(7)
            if (t + 1) % 3 == 0:
                assert degree == 4
            else:
                assert degree == 0

    def test_needs_enough_fast_nodes(self):
        adv = PhaseSkewAdversary(4, slow={2, 3, 4, 5, 6, 7, 8}, window=2)
        with pytest.raises(ValueError, match="fast nodes"):
            run_with(adv, 9, rounds=1)

    def test_validation(self):
        with pytest.raises(ValueError, match="D must be >= 1"):
            PhaseSkewAdversary(0, slow=set())
        with pytest.raises(ValueError, match="T must be >= 1"):
            PhaseSkewAdversary(2, slow=set(), window=0)


class TestSelectorCaching:
    """The cached round-level selection must match the historical
    per-receiver specification exactly (the engine fast path and the
    batch engine both depend on choices being schedule-stable)."""

    @staticmethod
    def reference_rotate(n, live, receiver, salt, degree):
        # The original per-receiver implementation: keyed sort over the
        # sorted live list, receiver excluded.
        candidates = [u for u in sorted(live) if u != receiver]
        candidates.sort(key=lambda u: (u - receiver - 1 - salt) % n)
        return candidates[:degree]

    def test_rotate_picks_match_the_specified_sort(self):
        from repro.adversary.constrained import rotate_picks

        for n, degree in [(5, 2), (9, 4), (12, 5)]:
            for live in (tuple(range(n)), tuple(range(0, n, 2)), (0, 1, n - 1)):
                for salt in range(2 * n + 3):
                    picks = rotate_picks(n, live, salt, degree)
                    for receiver in range(n):
                        assert picks[receiver] == self.reference_rotate(
                            n, live, receiver, salt, degree
                        ), (n, live, salt, receiver)

    def test_cached_choices_track_live_set_changes(self):
        # Across a crashing execution, every round's graph must equal a
        # freshly computed reference graph (the cache may never serve a
        # stale live set or salt).
        n, f = 9, 4
        plan = FaultPlan(
            n, crashes=staggered_crashes(range(n - f, n), first_round=1, spacing=2)
        )
        cached_engine = run_with(
            LastMinuteQuorumAdversary(2, n // 2), n, f=f,
            fault_plan=plan, rounds=24,
        )
        from repro.adversary.constrained import rotate_picks

        for t, snap in enumerate(cached_engine.trace.rounds):
            if (t + 1) % 2 != 0:
                assert not snap.graph.edges
                continue
            live = tuple(sorted(plan.live_senders(t)))
            expected = set()
            for v, senders in enumerate(
                rotate_picks(n, live, t // 2, n // 2)
            ):
                expected.update((u, v) for u in senders)
            assert snap.graph.edges == frozenset(expected), f"round {t}"

    def test_graph_cache_replays_identical_graphs(self):
        # Fault-free rotate choices cycle with period n: the cached
        # graphs must be reused (identity), not merely equal.
        n = 6
        engine = run_with(LastMinuteQuorumAdversary(1, 3), n, rounds=2 * n)
        rounds = engine.trace.rounds
        for t in range(n):
            assert rounds[t].graph is rounds[t + n].graph
            assert rounds[t].graph.edges == rounds[t + n].graph.edges

    def test_random_selector_never_cached(self):
        # The RNG stream makes random choices round-dependent; caching
        # them would freeze the schedule.
        n = 7
        engine = run_with(LastMinuteQuorumAdversary(1, 3, selector="random"), n, rounds=10)
        graphs = {snap.graph.edges for snap in engine.trace.rounds}
        assert len(graphs) > 1


class TestNearestSelectorSpec:
    """The two-pointer nearest selection must match the specified
    per-receiver stable sort exactly -- including distance ties (equal
    and symmetric values), Byzantine-first truncation, and crashed
    senders -- because batch/serial bit-identity rides on it."""

    class _StubView:
        def __init__(self, n, values, byzantine=(), live=None):
            self.n = n
            self._values = values  # node -> float | None
            self._byz = frozenset(byzantine)
            self._live = tuple(sorted(live if live is not None else range(n)))
            stub = self

            class _Plan:
                def is_byzantine(self, node):
                    return node in stub._byz

            self.fault_plan = _Plan()

        def live_senders_sorted(self):
            return self._live

        def value(self, node):
            return self._values.get(node)

    @staticmethod
    def reference_nearest(view, degree):
        # The specified selection: stable sort of the ascending live
        # list by (byzantine-first, |value - mine|), per receiver.
        picks = []
        for receiver in range(view.n):
            my_value = view.value(receiver)

            def hostility(u):
                if view.fault_plan.is_byzantine(u):
                    return (0, 0.0)
                value = view.value(u)
                if my_value is None or value is None:
                    return (1, 0.0)
                return (1, abs(value - my_value))

            live = [u for u in view.live_senders_sorted() if u != receiver]
            live.sort(key=hostility)
            picks.append(live[:degree])
        return picks

    def _check(self, view, degree):
        from repro.adversary.constrained import _QuorumSelector

        selector = _QuorumSelector(degree, "nearest")
        got = selector.picks_for_round(0, view, None)
        assert got == self.reference_nearest(view, degree)

    def test_random_value_patterns(self):
        import random

        rng = random.Random(7)
        for trial in range(40):
            n = rng.randrange(3, 12)
            # Coarse quantization forces frequent exact ties.
            values = {v: rng.randrange(4) / 4.0 for v in range(n)}
            byz = set(rng.sample(range(n), rng.randrange(0, n // 2 + 1)))
            for node in byz:
                values[node] = None
            live = sorted(rng.sample(range(n), rng.randrange(2, n + 1)))
            degree = rng.randrange(1, n)
            self._check(self._StubView(n, values, byz, live), degree)

    def test_fully_converged_values_tie_everywhere(self):
        n = 9
        values = {v: 0.5 for v in range(n)}
        self._check(self._StubView(n, values), 4)

    def test_symmetric_distances_resolve_by_node_id(self):
        # Receiver value 0.5; senders at 0.4 and 0.6 are equidistant:
        # the spec's stable sort emits the smaller node id first.
        values = {0: 0.5, 1: 0.6, 2: 0.4, 3: 0.1, 4: 0.9}
        self._check(self._StubView(5, values), 2)

    def test_byzantine_fill_and_truncation(self):
        values = {0: 0.2, 1: None, 2: None, 3: None, 4: 0.8}
        view = self._StubView(5, values, byzantine={1, 2, 3})
        self._check(view, 2)  # truncates inside the Byzantine prefix
        self._check(view, 4)  # fills from honest values after it

    def test_bitwise_equal_distances_across_distinct_values(self):
        # Float rounding can make |v - mine| bitwise-identical for
        # *different* sender values (1.0 - 1e-17 == 1.0 - 0.0 == 1.0):
        # the spec's stable sort still orders those ties by node id.
        values = {0: 1.0, 1: 0.0, 2: 1e-17, 3: 2e-17}
        view = self._StubView(4, values)
        for degree in (1, 2, 3):
            self._check(view, degree)

    def test_mixed_side_rounded_ties(self):
        values = {0: 0.5, 1: 0.5 - 1e-17, 2: 0.5 + 1e-17, 3: 0.0, 4: 1.0}
        self._check(self._StubView(5, values), 3)

    def test_nan_values_follow_the_specified_sort(self):
        # NaN distances compare false both ways; the walk used to spin
        # on them forever. The selection is the specified sort's.
        nan = float("nan")
        for values in (
            {0: nan, 1: 0.5, 2: 0.25, 3: 1.0, 4: 0.0},
            {0: 0.5, 1: nan, 2: 0.5, 3: None, 4: nan},
        ):
            view = self._StubView(5, values, byzantine={u for u, v in values.items() if v is None})
            for degree in (1, 2, 4):
                self._check(view, degree)


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=40),
    live_bits=st.integers(min_value=0),
    degree=st.integers(min_value=1, max_value=45),
    seed=st.integers(),
    rounds=st.integers(min_value=1, max_value=3),
)
def test_random_picks_replays_shuffle_exactly(n, live_bits, degree, seed, rounds):
    """The inlined selection equals one ``rng.shuffle`` of the live list
    without the receiver, for every receiver in ascending order, and
    leaves the generator in the same state -- round after round."""
    live = tuple(u for u in range(n) if live_bits >> u & 1)
    rng = random.Random(seed)
    reference = random.Random(seed)
    for _ in range(rounds):
        expected = []
        for receiver in range(n):
            candidates = [u for u in live if u != receiver]
            reference.shuffle(candidates)
            expected.append(candidates[:degree])
        assert random_picks(n, live, degree, rng) == expected
    assert rng.getstate() == reference.getstate()


# -- The nearest selector's last-call memo ----------------------------------

_StubView = TestNearestSelectorSpec._StubView

# "nan" stands for a fresh NaN object at every use: NaN != NaN, so a
# list holding one never matches the memo.
_MEMO_VALUES = st.sampled_from([0.0, -0.0, 0.25, 0.5, 0.75, 1.0, "nan"])


def _materialize(code):
    return float("nan") if code == "nan" else code


@settings(max_examples=150, deadline=None)
@given(n=st.integers(min_value=2, max_value=9), data=st.data())
def test_nearest_memo_matches_fresh_selection(n, data):
    """Rounds that repeat (or nearly repeat) earlier value lists get
    exactly the picks and graph a fresh computation gives -- signed
    zeros, NaN, ties and Byzantine ``None`` entries included."""
    from repro.adversary.constrained import nearest_picks
    from repro.net.topology import Topology

    degree = data.draw(st.integers(min_value=1, max_value=n - 1), label="degree")
    byz = data.draw(st.frozensets(st.integers(0, n - 1), max_size=n // 2), label="byz")
    pool = data.draw(
        st.lists(st.lists(_MEMO_VALUES, min_size=n, max_size=n), min_size=1, max_size=3),
        label="value lists",
    )
    lives = data.draw(
        st.lists(st.frozensets(st.integers(0, n - 1), min_size=1), min_size=1, max_size=2),
        label="live sets",
    )
    steps = data.draw(
        st.lists(
            st.tuples(st.integers(0, len(pool) - 1), st.integers(0, len(lives) - 1)),
            min_size=1,
            max_size=8,
        ),
        label="steps",
    )
    adversary = LastMinuteQuorumAdversary(1, degree, selector="nearest")
    adversary.setup(n, FaultPlan.fault_free_plan(n), random.Random(0))
    for t, (which_values, which_live) in enumerate(steps):
        values = {
            u: None if u in byz else _materialize(pool[which_values][u]) for u in range(n)
        }
        live = tuple(sorted(lives[which_live]))
        view = _StubView(n, values, byz, live)
        expected = nearest_picks(
            n, live, [values[u] for u in range(n)], byz & frozenset(live), degree
        )
        assert adversary._quorum.picks_for_round(t, view, adversary) == expected
        graph = adversary.choose(t, view)
        assert graph.edge_list == Topology.from_receiver_lists(n, expected).edge_list


class TestNearestMemo:
    def test_repeat_inputs_reuse_picks_and_graph(self, monkeypatch):
        from repro.net.topology import Topology

        adversary = LastMinuteQuorumAdversary(1, 2, selector="nearest")
        adversary.setup(5, FaultPlan.fault_free_plan(5), random.Random(0))
        values = {0: 0.0, 1: 0.5, 2: 0.25, 3: 1.0, 4: 0.75}
        first = adversary.choose(0, _StubView(5, dict(values)))
        picks = adversary._quorum.picks_for_round(1, _StubView(5, dict(values)), adversary)

        def no_rebuild(*args, **kwargs):
            raise AssertionError("a memo hit must not rebuild the graph")

        monkeypatch.setattr(Topology, "from_receiver_lists", no_rebuild)
        assert adversary.choose(1, _StubView(5, {**values, 0: -0.0})) is first
        again = adversary._quorum.picks_for_round(2, _StubView(5, dict(values)), adversary)
        assert again is picks

    def test_nan_never_hits(self):
        adversary = LastMinuteQuorumAdversary(1, 2, selector="nearest")
        adversary.setup(4, FaultPlan.fault_free_plan(4), random.Random(0))
        selector = adversary._quorum

        def view():
            return _StubView(4, {0: float("nan"), 1: 0.5, 2: 0.25, 3: 1.0})

        assert selector.picks_for_round(0, view(), adversary) is not (
            selector.picks_for_round(1, view(), adversary)
        )

    def test_setup_forgets_the_previous_execution(self):
        # Same live set and values, different Byzantine set: the second
        # execution must get its own picks, not the first one's.
        from repro.adversary.constrained import nearest_picks
        from repro.faults.byzantine import FixedValueByzantine
        from repro.net.topology import Topology

        n, degree = 6, 2
        values = {u: u / 10 for u in range(n)}
        adversary = LastMinuteQuorumAdversary(1, degree, selector="nearest")
        for byz in (0, 5):
            plan = FaultPlan(n, byzantine={byz: FixedValueByzantine(0.0)})
            adversary.setup(n, plan, random.Random(0))
            graph = adversary.choose(0, _StubView(n, values, byzantine={byz}))
            expected = nearest_picks(
                n, tuple(range(n)), [values[u] for u in range(n)], frozenset({byz}), degree
            )
            assert graph.edge_list == Topology.from_receiver_lists(n, expected).edge_list
