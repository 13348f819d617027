"""The Gafni-Losa mobile-omission adversary (Corollary 1's engine).

Theorem 8 (quoted from [18]) considers a synchronous complete network
where, in every round, each node may fail to receive *one* of the
messages sent to it -- and shows deterministic exact consensus is
impossible even fault-free. Dropping at most one incoming link per
node per round keeps every in-degree at ``n - 2`` or better, so the
trace satisfies ``(1, n-2)``-dynaDegree: this is how the paper derives
Corollary 1.

:class:`MobileOmissionAdversary` implements that power with pluggable
targeting:

- ``"block_min"`` -- each receiver loses the link from the sender
  currently holding the smallest state. Against FloodMin this
  suppresses the global minimum forever: its holder decides its own
  value, everyone else never hears it. Deterministic disagreement.
- ``"block_max"`` -- symmetric, for max-based candidates.
- ``"rotate"`` -- receiver ``v`` loses the link from sender
  ``(v + t) mod n``; an oblivious pattern for stress tests.
- ``"none"`` -- drops nothing (sanity baseline).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.adversary.base import MessageAdversary
from repro.net.topology import Topology

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import EngineView

MOBILE_MODES = ("block_min", "block_max", "rotate", "none")

# Victim-vector -> Topology memo, bounded like the Topology intern
# table. The value-targeted modes produce very few distinct victim
# vectors per execution (the global extremum holder changes rarely and
# "rotate" cycles with period n), so replaying a round's mask is a
# dict hit instead of an O(n^2) edge rebuild.
_MASK_MEMO_MAX = 4096
_mask_memo: dict[tuple[int, tuple[int | None, ...]], Topology] = {}


def mobile_topology(n: int, victims: "tuple[int | None, ...]") -> Topology:
    """The complete graph minus each receiver's victim in-link, memoized.

    ``victims`` is one round's mask as produced by
    :func:`mobile_victims` (entry ``v`` is the sender whose link into
    ``v`` is cut, ``None`` for no cut). The topology is built through
    :meth:`~repro.net.topology.Topology.from_receiver_lists` (trusted,
    O(m + n), seeds the adjacency rows directly), and interning makes
    repeated masks resolve to the identical instance -- which is what
    lets the engine's delivery sweep reuse its cached routing plan
    across mobile rounds with a stable extremum.
    """
    key = (n, victims)
    cached = _mask_memo.get(key)
    if cached is None:
        if len(_mask_memo) >= _MASK_MEMO_MAX:
            _mask_memo.clear()
        cached = Topology.from_receiver_lists(
            n,
            (
                [u for u in range(n) if u != v and u != victims[v]]
                for v in range(n)
            ),
        )
        _mask_memo[key] = cached
    return cached


def mobile_victims(
    mode: str, n: int, t: int, values: "list[float | None]"
) -> "list[int | None]":
    """The per-receiver victim sender of one mobile-omission round.

    ``values[u]`` is node ``u``'s scalar state at the start of the
    round (``None`` for nodes without an honest state). Entry ``v`` of
    the result is the sender whose link into ``v`` is cut this round
    (``None`` keeps all of ``v``'s in-links). For the value-targeted
    modes the victim is the extremum holder among ``u != v``, ties
    broken toward the lowest node ID -- which resolves to the global
    (first) extremum for every receiver except that extremum holder
    itself, who loses the second one.

    This is the targeting hook the vectorized batch kernel replicates
    with two ``argmin``/``argmax`` passes per lane; its equivalence
    tests pin the two against each other (see docs/batching.md).
    """
    if mode not in MOBILE_MODES:
        raise ValueError(f"mode must be one of {MOBILE_MODES}, got {mode!r}")
    if mode == "none":
        return [None] * n
    if mode == "rotate":
        return [None if (v + t) % n == v else (v + t) % n for v in range(n)]
    prefer_min = mode == "block_min"
    first: int | None = None  # global extremum (lowest ID on ties)
    second: int | None = None  # extremum of the rest, for the holder itself
    for u in range(n):
        value = values[u]
        if value is None:
            continue
        if first is None or (
            value < values[first] if prefer_min else value > values[first]
        ):
            first, second = u, first
        elif second is None or (
            value < values[second] if prefer_min else value > values[second]
        ):
            second = u
    return [second if v == first else first for v in range(n)]


class MobileOmissionAdversary(MessageAdversary):
    """Complete graph minus at most one incoming link per node per round."""

    def __init__(self, mode: str = "block_min") -> None:
        super().__init__()
        if mode not in MOBILE_MODES:
            raise ValueError(f"mode must be one of {MOBILE_MODES}, got {mode!r}")
        self.mode = mode

    def _victim_sender(self, receiver: int, t: int, view: "EngineView") -> int | None:
        """Which sender's link into ``receiver`` to cut this round.

        Kept as the per-receiver specification :func:`mobile_victims`
        is computed from (and regression-tested against)."""
        if self.mode == "none":
            return None
        if self.mode == "rotate":
            victim = (receiver + t) % self.n
            return None if victim == receiver else victim
        extremum_value: float | None = None
        extremum_node: int | None = None
        for u in range(self.n):
            if u == receiver:
                continue
            value = view.value(u)
            if value is None:
                continue
            better = (
                extremum_value is None
                or (self.mode == "block_min" and value < extremum_value)
                or (self.mode == "block_max" and value > extremum_value)
            )
            if better:
                extremum_value = value
                extremum_node = u
        return extremum_node

    def choose(self, t: int, view: "EngineView") -> Topology:
        values = [view.value(u) for u in range(self.n)]
        victims = mobile_victims(self.mode, self.n, t, values)
        return mobile_topology(self.n, tuple(victims))

    def promised_dynadegree(self) -> tuple[int, int] | None:
        # Every node keeps at least n-2 incoming links every round.
        return (1, self.n - 2) if self.n >= 3 else None
