"""The fault plan: which nodes fail, how, and when.

A :class:`FaultPlan` is the single source of truth the engine, the
adversary, and the analysis layer consult about node faults. It
enforces the model's ground rules (a node is crash-faulty *or*
Byzantine, never both; at most ``f`` faulty nodes when validated
against a bound) and answers the per-round questions the engine asks:
who sends this round, to whom, and who still processes messages.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Mapping

from repro.faults.byzantine import ByzantineStrategy
from repro.faults.crash import CrashEvent


class FaultPlan:
    """Crash events and Byzantine assignments for one execution.

    Parameters
    ----------
    n:
        Network size.
    crashes:
        ``node -> CrashEvent`` for crash-faulty nodes.
    byzantine:
        ``node -> ByzantineStrategy`` for Byzantine nodes. Strategies
        are bound to their node by the engine at start-up.
    """

    def __init__(
        self,
        n: int,
        crashes: Mapping[int, CrashEvent] | None = None,
        byzantine: Mapping[int, ByzantineStrategy] | None = None,
    ) -> None:
        self.n = n
        self.crashes: dict[int, CrashEvent] = dict(crashes or {})
        self.byzantine: dict[int, ByzantineStrategy] = dict(byzantine or {})
        for node, event in self.crashes.items():
            if not (0 <= node < n):
                raise ValueError(f"crash node {node} out of range for n={n}")
            if event.node != node:
                raise ValueError(f"crash event for node {event.node} keyed as {node}")
        for node in self.byzantine:
            if not (0 <= node < n):
                raise ValueError(f"byzantine node {node} out of range for n={n}")
        overlap = set(self.crashes) & set(self.byzantine)
        if overlap:
            raise ValueError(f"nodes {sorted(overlap)} are both crash and Byzantine")
        # The plan is immutable after construction, so the membership
        # sets and per-round live profiles are memoized: the engine and
        # the enforcing adversaries consult them every round, and the
        # live set only changes when a crash event fires.
        self._crash_rounds: tuple[int, ...] = tuple(
            sorted(event.round for event in self.crashes.values())
        )
        self._fault_free: frozenset[int] | None = None
        self._non_byzantine: frozenset[int] | None = None
        self._live_cache: dict[int, tuple[frozenset[int], tuple[int, ...]]] = {}
        self._round_cache: dict[
            tuple[int, int],
            tuple[dict[int, frozenset[int] | None], frozenset[int]],
        ] = {}
        self._mask_cache: dict[
            tuple[int, int],
            tuple[frozenset[int], dict[int, frozenset[int]], frozenset[int]],
        ] = {}

    @classmethod
    def fault_free_plan(cls, n: int) -> "FaultPlan":
        """The plan with no faulty nodes at all (f = 0 executions)."""
        return cls(n)

    @property
    def num_faulty(self) -> int:
        """Total faulty nodes (crash + Byzantine)."""
        return len(self.crashes) + len(self.byzantine)

    def validate_bound(self, f: int) -> None:
        """Raise unless the plan respects the fault bound ``f``."""
        if self.num_faulty > f:
            raise ValueError(f"plan has {self.num_faulty} faulty nodes, bound is f={f}")

    # -- Membership queries ----------------------------------------------

    @property
    def fault_free(self) -> frozenset[int]:
        """The paper's ``H``: nodes that never fail."""
        cached = self._fault_free
        if cached is None:
            cached = frozenset(
                v
                for v in range(self.n)
                if v not in self.crashes and v not in self.byzantine
            )
            self._fault_free = cached
        return cached

    @property
    def non_byzantine(self) -> frozenset[int]:
        """Fault-free plus crash-faulty nodes.

        Validity is stated over *non-Byzantine* inputs: a node that
        eventually crashes still contributes a legitimate input.
        """
        cached = self._non_byzantine
        if cached is None:
            cached = frozenset(v for v in range(self.n) if v not in self.byzantine)
            self._non_byzantine = cached
        return cached

    def is_byzantine(self, node: int) -> bool:
        """Whether ``node`` runs a Byzantine strategy."""
        return node in self.byzantine

    def crash_round(self, node: int) -> int | None:
        """The round ``node`` crashes in, or ``None``."""
        event = self.crashes.get(node)
        return None if event is None else event.round

    # -- Per-round behavior ----------------------------------------------

    def send_targets(self, node: int, t: int) -> frozenset[int] | None:
        """Receiver whitelist for ``node`` in round ``t``.

        ``None`` means unrestricted (healthy or Byzantine sender); the
        empty set means the node is silent (crashed).
        """
        event = self.crashes.get(node)
        if event is None:
            return None
        return event.send_targets_at(t)

    def processes_at(self, node: int, t: int) -> bool:
        """Whether ``node`` consumes deliveries and updates state in round ``t``.

        Byzantine nodes "process" in the sense that their strategy
        observes traffic; crash-faulty nodes stop at their crash round.
        """
        event = self.crashes.get(node)
        if event is None:
            return True
        return event.processes_at(t)

    def _phase_key(self, t: int) -> tuple[int, int]:
        """The crash-phase memo key: where ``t`` sits relative to every
        crash round (before / at / after). Shared by the per-round
        memos below so their tables can never key differently.

        With the crash rounds sorted, the crashes before ``t`` are the
        first ``bisect_left`` of them and those at or before ``t`` the
        first ``bisect_right``, so the two positions name the same
        partition as one before/at/after flag per crash node."""
        rounds = self._crash_rounds
        return bisect_left(rounds, t), bisect_right(rounds, t)

    def round_profile(
        self, t: int
    ) -> tuple[dict[int, frozenset[int] | None], frozenset[int]]:
        """Per-round crash metadata, memoized: ``(targets_map, stopped)``.

        ``targets_map`` holds :meth:`send_targets` entries for *crash*
        nodes only (absent means unrestricted -- exactly the ``None``
        those nodes would return); ``stopped`` is the set of nodes that
        no longer process (:meth:`processes_at` false). The engine asks
        both questions for every node every round; this answers them
        with one dict hit per round, since they change only when a
        crash event passes through its crash round.
        """
        key = self._phase_key(t)
        cached = self._round_cache.get(key)
        if cached is None:
            targets_map = {
                node: event.send_targets_at(t) for node, event in self.crashes.items()
            }
            stopped = frozenset(
                node for node, event in self.crashes.items() if not event.processes_at(t)
            )
            cached = (targets_map, stopped)
            self._round_cache[key] = cached
        return cached

    def sender_masks(
        self, t: int
    ) -> tuple[frozenset[int], dict[int, frozenset[int]], frozenset[int]]:
        """Sender-axis crash masks for round ``t``, memoized.

        Returns ``(silent, restricted, stopped)``:

        - ``silent`` -- senders that transmit nothing this round (clean
          crashes past their crash round); the delivery sweep drops
          them before any fan-in work;
        - ``restricted`` -- ``node -> receiver whitelist`` for senders
          crashing *mid-broadcast* this round (non-empty whitelists
          only); empty most rounds, so the sweep can branch on it once;
        - ``stopped`` -- nodes no longer processing deliveries, exactly
          :meth:`round_profile`'s second element.

        This is :meth:`round_profile` re-cut along the sender axis: the
        engine's port-major sweep masks senders *before* fan-in instead
        of filtering per edge, so it wants the silent/partial split
        precomputed. Memoized on the same crash-phase key, since masks
        only change when a crash event passes through its round.
        """
        key = self._phase_key(t)
        cached = self._mask_cache.get(key)
        if cached is None:
            targets_map, stopped = self.round_profile(t)
            silent = frozenset(
                node
                for node, targets in targets_map.items()
                if targets is not None and not targets
            )
            restricted = {
                node: targets for node, targets in targets_map.items() if targets
            }
            cached = (silent, restricted, stopped)
            self._mask_cache[key] = cached
        return cached

    def live_senders(self, t: int) -> frozenset[int]:
        """Nodes guaranteed to transmit (fully) in round ``t``.

        Used by enforcing adversaries when counting links toward the
        ``(T, D)`` promise in the crash model: a partially-crashing
        sender is conservatively *not* counted: in its crash round it may
        reach only some of its out-neighbours.
        Byzantine nodes always transmit (possibly garbage) and count.
        """
        return self._live_profile(t)[0]

    def live_senders_sorted(self, t: int) -> tuple[int, ...]:
        """:meth:`live_senders` as a sorted tuple (memo-key friendly).

        The enforcing adversaries key their per-round graph memos on
        this tuple; memoizing it here removes the per-round
        ``tuple(sorted(...))`` rebuild from every enforced round.
        """
        return self._live_profile(t)[1]

    def _live_profile(self, t: int) -> tuple[frozenset[int], tuple[int, ...]]:
        # The live set depends on t only through which crash events
        # have fired: with the crash rounds sorted, those are the first
        # bisect_right of them (a node sends fully while t < its round).
        key = bisect_right(self._crash_rounds, t)
        cached = self._live_cache.get(key)
        if cached is None:
            alive = set(self.byzantine)
            for node in range(self.n):
                if node in self.byzantine:
                    continue
                event = self.crashes.get(node)
                if event is None or event.sends_fully_at(t):
                    alive.add(node)
            ordered = tuple(sorted(alive))
            cached = (frozenset(ordered), ordered)
            self._live_cache[key] = cached
        return cached
