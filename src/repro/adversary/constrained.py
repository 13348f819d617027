"""Enforcing worst-case adversaries: hostile but ``(T, D)``-bound.

These adversaries are the sharp edge of the sufficiency experiments:
they give the algorithm the *least* the stability property allows.

- :class:`RotatingQuorumAdversary` -- ``T = 1``: every round, every
  node hears from exactly ``D`` senders, but the set rotates each
  round, so no stable neighborhood ever forms (the paper's point that
  ``(1, 1)``-dynaDegree still allows arbitrary churn).
- :class:`LastMinuteQuorumAdversary` -- general ``T``: silence for the
  first ``T - 1`` rounds of every aligned window, then exactly ``D``
  in-links on the window's last round. Every sliding ``T``-window
  contains exactly one delivery round, so ``(T, D)`` holds -- barely.
  This maximizes rounds-to-termination (the ``T * p_end`` bound of
  experiment E3 is approached) and starves any algorithm that hopes
  for steady progress.

Sender selection is pluggable; ``"nearest"`` is adversarially tuned
for averaging algorithms (it feeds every node the values closest to
its own, minimizing contraction, with Byzantine senders prioritized to
burn quota on garbage).

Both adversaries deliver links *to* every node (faulty included --
harmless) but count their ``D`` guarantee from senders that actually
transmit: live (non-crashed) nodes and Byzantine nodes.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import TYPE_CHECKING

from repro.adversary.base import MessageAdversary
from repro.net.topology import Edge, Topology

if TYPE_CHECKING:  # pragma: no cover - typing only
    import random

    from repro.sim.engine import EngineView

_SELECTORS = ("rotate", "nearest", "random")

# Rotate orderings depend only on (n, live set, salt mod n): bound the
# memo so pathological crash schedules cannot grow it without limit.
_ROTATE_CACHE_MAX = 4096


def rotate_picks(
    n: int, live: tuple[int, ...], salt: int, degree: int
) -> list[list[int]]:
    """The ``rotate`` selection for every receiver of one round.

    Receiver ``v`` takes the first ``degree`` live senders in cyclic
    node order starting at ``(v + 1 + salt) % n`` -- exactly the order
    ``sorted(live, key=lambda u: (u - v - 1 - salt) % n)`` the selector
    is specified by, computed as a cyclic walk instead of a
    per-receiver keyed sort. Shared with :mod:`repro.sim.batch`, whose
    vectorized engine must replicate serial adversary choices bit for
    bit.
    """
    live_sorted = sorted(set(live))
    doubled = live_sorted + live_sorted
    count = len(live_sorted)
    picks: list[list[int]] = []
    for v in range(n):
        start = bisect_left(live_sorted, (v + 1 + salt) % n)
        chosen: list[int] = []
        for u in doubled[start : start + count]:
            if u == v:
                continue
            chosen.append(u)
            if len(chosen) == degree:
                break
        picks.append(chosen)
    return picks


# The rotate *round structure* -- the Topology one rotate round plays
# -- is shared by every layer that replicates rotate choices: the
# serial enforcing adversaries replay it from here, and the batched
# executor derives its delivered-from matrices from its adjacency
# rows. Keyed on the hash-consed arguments; bounded like the pick memo.
_rotate_topologies: dict[tuple[int, tuple[int, ...], int, int], Topology] = {}


def rotate_topology(
    n: int, live: tuple[int, ...], salt: int, degree: int
) -> Topology:
    """The interned :class:`Topology` of one ``rotate`` round.

    Edges are ``(sender, receiver)`` for every receiver's
    :func:`rotate_picks` senders. The result depends only on
    ``(n, live set, salt mod n, degree)``, so after the crash schedule
    settles every enforced round resolves to an already-built graph
    whose adjacency rows the engine reads directly.
    """
    key = (n, live, salt % n, degree)
    cached = _rotate_topologies.get(key)
    if cached is None:
        if len(_rotate_topologies) >= _ROTATE_CACHE_MAX:
            _rotate_topologies.clear()
        edges = sorted(
            (u, receiver)
            for receiver, senders in enumerate(rotate_picks(n, live, salt, degree))
            for u in senders
        )
        cached = Topology.from_sorted_edges(n, edges)
        _rotate_topologies[key] = cached
    return cached


def nearest_picks(
    n: int,
    live: tuple[int, ...],
    values: "list[float | None]",
    byzantine: frozenset[int],
    degree: int,
) -> list[list[int]]:
    """The ``nearest`` selection for every receiver of one round.

    ``values[u]`` is node ``u``'s scalar state at the start of the round
    (``None`` for Byzantine nodes, which have no honest state). The
    selection is *specified* as a per-receiver stable sort by
    ``(byzantine-first, |value - mine|)`` over the ascending live list;
    it is *computed* as a two-pointer walk over one round-constant
    value-sorted array instead of ``n`` keyed sorts. Equal distances are
    emitted in ascending node order, exactly the stability the specified
    sort guarantees (pinned against the spec sort by the selector
    regression tests, ties and all).

    This is the selector hook the vectorized batch kernel replicates:
    :mod:`repro.sim.batch` computes the same picks with one stable
    argsort over the lane's value matrix, and its equivalence tests pin
    the two against each other (see docs/batching.md).
    """
    live_sorted = sorted(set(live))
    byz_sorted = [u for u in live_sorted if u in byzantine]
    pairs = sorted((values[u], u) for u in live_sorted if u not in byzantine)
    vals = [value for value, _ in pairs]
    ids = [u for _, u in pairs]
    count = len(vals)
    picks: list[list[int]] = []
    for receiver in range(n):
        my_value = values[receiver]
        chosen = [u for u in byz_sorted if u != receiver][:degree]
        remaining = degree - len(chosen)
        if remaining > 0 and my_value is None:
            # Byzantine receiver: every honest distance ties at the
            # spec's (1, 0.0) key -- stable order is ascending u.
            for u in live_sorted:
                if u == receiver or u in byzantine:
                    continue
                chosen.append(u)
                remaining -= 1
                if remaining == 0:
                    break
        elif remaining > 0:
            left = bisect_left(vals, my_value) - 1
            right = left + 1
            while remaining > 0 and (left >= 0 or right < count):
                # my_value - vals[left] and vals[right] - my_value
                # are the exact floats abs() would produce (left
                # values are strictly below, right values at or
                # above my_value).
                d_left = (my_value - vals[left]) if left >= 0 else None
                d_right = (vals[right] - my_value) if right < count else None
                take_left = d_right is None or (
                    d_left is not None and d_left <= d_right
                )
                take_right = d_left is None or (
                    d_right is not None and d_right <= d_left
                )
                distance = d_left if take_left else d_right
                group: list[int] = []
                if take_left:
                    while left >= 0 and my_value - vals[left] == distance:
                        group.append(ids[left])
                        left -= 1
                if take_right:
                    while right < count and vals[right] - my_value == distance:
                        group.append(ids[right])
                        right += 1
                # The spec's stable sort emits equal distances in
                # ascending node order. Equal rounded distances can
                # span *distinct* values (float rounding), so the
                # collected group is not otherwise ordered by u --
                # always sort it (groups are tiny off the converged
                # case, and nearly sorted there).
                group.sort()
                for u in group:
                    if u == receiver:
                        continue
                    chosen.append(u)
                    remaining -= 1
                    if remaining == 0:
                        break
        picks.append(chosen)
    return picks


def random_picks(
    n: int, live: tuple[int, ...], degree: int, rng: "random.Random"
) -> list[list[int]]:
    """The ``random`` selection for every receiver of one round.

    Receiver ``v`` takes the first ``degree`` entries of one
    ``rng.shuffle`` of the ascending live list without ``v``. The draw
    order is part of the contract: one shuffle for *every* receiver
    ``0 .. n-1`` in ascending order -- Byzantine and crashed receivers
    included, although nothing reads their rows. Shared with
    :mod:`repro.sim.batch`, whose kernels replay each lane's own
    adversary stream through this function to stay bit-identical.
    """
    picks: list[list[int]] = []
    for receiver in range(n):
        candidates = [u for u in live if u != receiver]
        rng.shuffle(candidates)
        picks.append(candidates[:degree])
    return picks


class _QuorumSelector:
    """Shared sender-selection logic for the constrained adversaries.

    Selection happens once per round for all receivers at once
    (:meth:`picks_for_round`): the live-sender set, fault roles and
    node values are round constants, so resolving them per receiver --
    as the original per-receiver ``pick`` did -- made the adversary,
    not the routing loop, the post-fast-path bottleneck. The static
    ``rotate`` orderings are additionally memoized per
    ``(n, live set, salt mod n)``; only the round-dependent parts
    (values for ``nearest``, the RNG stream for ``random``) are
    recomputed each round.
    """

    def __init__(self, degree: int, selector: str) -> None:
        if degree < 1:
            raise ValueError(f"degree D must be >= 1, got {degree}")
        if selector not in _SELECTORS:
            raise ValueError(f"selector must be one of {_SELECTORS}, got {selector!r}")
        self.degree = degree
        self.selector = selector
        self._rotate_cache: dict[tuple, list[list[int]]] = {}

    def picks_for_round(
        self,
        salt: int,
        view: "EngineView",
        adversary: MessageAdversary,
    ) -> list[list[int]]:
        """Exactly ``D`` transmitting senders for every receiver (fewer
        only when the execution does not have that many transmitters).

        Returns a list indexed by receiver. Identical, receiver for
        receiver, to what the historical per-receiver ``pick`` chose
        (asserted by the adversary regression tests)."""
        live_tuple = view.live_senders_sorted()
        n = view.n
        if self.selector == "rotate":
            return self._rotate_for(n, live_tuple, salt)
        if self.selector == "random":
            return random_picks(n, live_tuple, self.degree, adversary.rng)
        # nearest: Byzantine first, then closest values -- the shared
        # module-level hook (one source of truth for the tie-breaking
        # the vectorized batch kernel must replicate bit for bit).
        plan = view.fault_plan
        byzantine = frozenset(u for u in live_tuple if plan.is_byzantine(u))
        values = [view.value(u) for u in range(n)]
        return nearest_picks(n, live_tuple, values, byzantine, self.degree)

    def _rotate_for(
        self, n: int, live: tuple[int, ...], salt: int
    ) -> list[list[int]]:
        key = (n, live, salt % n)
        cached = self._rotate_cache.get(key)
        if cached is None:
            if len(self._rotate_cache) >= _ROTATE_CACHE_MAX:
                self._rotate_cache.clear()
            cached = rotate_picks(n, live, salt, self.degree)
            self._rotate_cache[key] = cached
        return cached

class _CachedGraphMixin:
    """Round-graph resolution for the enforcing quorum adversaries.

    ``rotate`` choices depend only on ``(live set, salt mod n)``, so
    those rounds resolve through the module-level
    :func:`rotate_topology` memo -- the same interned
    :class:`Topology` the batched executor derives its matrices from.
    After the crash schedule settles every enforced round is a pure
    memo hit replaying one graph whose adjacency rows are already
    built. Value- or RNG-dependent selectors are never cached; their
    per-round edge lists are wrapped into (hash-consed) Topologies
    directly.
    """

    _quorum: _QuorumSelector

    def _on_setup(self) -> None:  # kept as a subclass hook point
        pass

    def _graph_for(self, salt: int, view: "EngineView") -> Topology:
        if self._quorum.selector == "rotate":
            return rotate_topology(
                self.n, view.live_senders_sorted(), salt, self._quorum.degree
            )
        return Topology.from_receiver_lists(
            self.n, self._quorum.picks_for_round(salt, view, self)
        )


class RotatingQuorumAdversary(_CachedGraphMixin, MessageAdversary):
    """``(1, D)``-dynaDegree, minimal and churning every round."""

    def __init__(self, degree: int, selector: str = "rotate") -> None:
        super().__init__()
        self._quorum = _QuorumSelector(degree, selector)

    @property
    def degree(self) -> int:
        """The enforced per-round in-degree ``D``."""
        return self._quorum.degree

    def choose(self, t: int, view: "EngineView") -> Topology:
        return self._graph_for(t, view)

    def promised_dynadegree(self) -> tuple[int, int]:
        return (1, self._quorum.degree)


class PhaseSkewAdversary(MessageAdversary):
    """Creates maximal phase skew: a fast clique races ahead while slow
    nodes hear from it only once per ``window`` rounds.

    Fast nodes (everyone not in ``slow``) receive ``D`` in-links from
    other fast nodes *every* round, so they complete a phase per round;
    slow nodes receive their ``D`` links (also from fast senders) only
    on the last round of each window. The trace satisfies
    ``(window, D)``-dynaDegree.

    This is the scenario where DAC's jump rule earns its keep
    (experiment X3): by their delivery round, everything a slow node
    hears is from higher phases. With jumping it copies and catches up;
    without jumping it ignores those messages and waits forever for
    same-phase states nobody will send again.

    Requires at least ``D + 1`` fast nodes (the clique must feed
    itself).
    """

    def __init__(self, degree: int, slow: "frozenset[int] | set[int]", window: int = 2) -> None:
        super().__init__()
        if degree < 1:
            raise ValueError(f"degree D must be >= 1, got {degree}")
        if window < 1:
            raise ValueError(f"window T must be >= 1, got {window}")
        self.degree = degree
        self.slow = frozenset(slow)
        self.window = window

    def _on_setup(self) -> None:
        fast = [v for v in range(self.n) if v not in self.slow]
        if len(fast) < self.degree + 1:
            raise ValueError(
                f"need at least D+1={self.degree + 1} fast nodes, got {len(fast)}"
            )
        self._fast = fast

    def choose(self, t: int, view: "EngineView") -> Topology:
        edges: list[Edge] = []
        fast = self._fast
        for i, v in enumerate(fast):
            senders = [fast[(i + 1 + k) % len(fast)] for k in range(self.degree)]
            edges.extend((u, v) for u in senders if u != v)
        if (t + 1) % self.window == 0:
            for v in sorted(self.slow):
                senders = [fast[(v + k) % len(fast)] for k in range(self.degree)]
                edges.extend((u, v) for u in senders if u != v)
        return Topology(self.n, edges)

    def promised_dynadegree(self) -> tuple[int, int]:
        return (self.window, self.degree)


class LastMinuteQuorumAdversary(_CachedGraphMixin, MessageAdversary):
    """``(T, D)``-dynaDegree delivered entirely on each window's last round."""

    def __init__(self, window: int, degree: int, selector: str = "rotate") -> None:
        super().__init__()
        if window < 1:
            raise ValueError(f"window T must be >= 1, got {window}")
        self.window = window
        self._quorum = _QuorumSelector(degree, selector)

    @property
    def degree(self) -> int:
        """The enforced per-window in-degree ``D``."""
        return self._quorum.degree

    def _on_setup(self) -> None:
        super()._on_setup()
        self._empty = Topology.empty(self.n)

    def choose(self, t: int, view: "EngineView") -> Topology:
        if (t + 1) % self.window != 0:
            return self._empty
        return self._graph_for(t // self.window, view)

    def promised_dynadegree(self) -> tuple[int, int]:
        return (self.window, self._quorum.degree)
