"""Byzantine strategies: arbitrary, possibly equivocating behavior.

A Byzantine node in the paper's model can send *different messages to
different receivers* in the same round, and -- crucially -- anonymity
makes this undetectable: receivers cannot compare notes about "node X"
because ports are local, so reliable-broadcast-style defenses are
unavailable (Section VI-C uses exactly this power).

What a Byzantine node cannot do is forge the port its messages arrive
on (the communication layer is authenticated), and it cannot influence
which links the adversary chooses -- though our strategies may
*collude* with the adversary by reading the same engine view.

Strategies are bound to a node by the engine (:meth:`ByzantineStrategy.bind`),
asked for their per-receiver messages every round, and shown the
messages the faulty node received (so stateful strategies, such as the
two-faced simulation of Theorem 10, can maintain internal state).
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from collections.abc import Callable, Collection, Mapping
from dataclasses import dataclass
from typing import Any

from repro.sim.messages import StateMessage
from repro.sim.node import ConsensusProcess, Delivery


class ByzantineStrategy(ABC):
    """Base class: produces the faulty node's outgoing messages each round."""

    def __init__(self) -> None:
        self.node: int | None = None
        self.n: int = 0
        self.f: int = 0
        self.input_value: float = 0.0
        self.rng: random.Random = random.Random(0)

    def bind(self, node: int, n: int, f: int, input_value: float, rng: random.Random) -> None:
        """Attach the strategy to a concrete node; called once by the engine."""
        self.node = node
        self.n = n
        self.f = f
        self.input_value = input_value
        self.rng = rng
        self._on_bind()

    def _on_bind(self) -> None:
        """Hook for subclasses needing post-bind initialization."""

    @abstractmethod
    def messages(self, t: int, view: Any) -> Mapping[int, Any] | Any:
        """Outgoing messages for round ``t``.

        Return either a single message (sent to every receiver the
        adversary connects) or a mapping ``receiver_id -> message`` for
        equivocation. ``view`` is the engine's omniscient round view.
        """

    def observe(self, t: int, received: list[tuple[int, Any]]) -> None:
        """Messages the faulty node received in round ``t``.

        ``received`` pairs the *true sender ID* with the payload --
        Byzantine nodes are allowed to be omniscient. Default: ignore.
        """


class FixedValueByzantine(ByzantineStrategy):
    """Always advertises one fixed value.

    ``phase_mode`` controls the phase field: ``"track"`` mirrors the
    maximum fault-free phase (so the lie is always fresh enough to be
    accepted by DBAC's ``p_j >= p_i`` filter), an integer pins a
    constant phase.
    """

    def __init__(self, value: float, phase_mode: int | str = "track") -> None:
        super().__init__()
        if isinstance(phase_mode, str) and phase_mode != "track":
            raise ValueError(f"unknown phase_mode {phase_mode!r}")
        self.value = value
        self.phase_mode = phase_mode

    def _phase(self, view: Any) -> int:
        if self.phase_mode == "track":
            return max(0, view.max_fault_free_phase())
        return int(self.phase_mode)

    def messages(self, t: int, view: Any) -> StateMessage:
        return StateMessage(self.value, self._phase(view))


class ExtremeByzantine(ByzantineStrategy):
    """Equivocates between the extremes: low to even receivers, high to odd.

    Designed to stretch receivers' observed ranges as far as possible;
    DBAC's f+1-trimming must neutralize it.
    """

    def __init__(self, low: float = 0.0, high: float = 1.0) -> None:
        super().__init__()
        self.low = low
        self.high = high

    def messages(self, t: int, view: Any) -> dict[int, StateMessage]:
        phase = max(0, view.max_fault_free_phase())
        return {
            receiver: StateMessage(self.low if receiver % 2 == 0 else self.high, phase)
            for receiver in range(self.n)
            if receiver != self.node
        }


class RandomByzantine(ByzantineStrategy):
    """Independent uniformly-random value and plausible phase per receiver."""

    def __init__(self, low: float = 0.0, high: float = 1.0) -> None:
        super().__init__()
        self.low = low
        self.high = high

    def draw(self, top: int) -> tuple[float, int]:
        """One receiver's ``(value, phase)``: ``randint(0, top + 1)``,
        then ``uniform(low, high)`` from the node's stream.

        :meth:`messages` calls it for every receiver but the node
        itself, in ascending order, every round; the batch kernels
        replay each lane's stream through it in that same order.
        """
        phase = self.rng.randint(0, top + 1)
        return self.rng.uniform(self.low, self.high), phase

    def messages(self, t: int, view: Any) -> dict[int, StateMessage]:
        top = max(0, view.max_fault_free_phase())
        out: dict[int, StateMessage] = {}
        for receiver in range(self.n):
            if receiver == self.node:
                continue
            value, phase = self.draw(top)
            out[receiver] = StateMessage(value, phase)
        return out


class PhaseLiarByzantine(ByzantineStrategy):
    """Claims a far-future phase with an extreme value.

    Against DAC this would be devastating (DAC jumps to higher phases),
    which is precisely why DAC only claims crash tolerance; DBAC stores
    such values but trims them. Used in robustness tests.
    """

    def __init__(self, value: float = 1.0, phase_lead: int = 1000) -> None:
        super().__init__()
        if phase_lead < 0:
            raise ValueError(f"phase_lead must be non-negative, got {phase_lead}")
        self.value = value
        self.phase_lead = phase_lead

    def messages(self, t: int, view: Any) -> StateMessage:
        return StateMessage(self.value, max(0, view.max_fault_free_phase()) + self.phase_lead)


@dataclass(frozen=True)
class BothFaces:
    """Byzantine-to-Byzantine payload carrying both faces' broadcasts.

    Colluding two-faced nodes exchange both simulations in one
    (conceptual) message so each peer's face-A sees the other's face-A
    and likewise for B. Never delivered to honest nodes.
    """

    face_a: Any
    face_b: Any


class TwoFacedByzantine(ByzantineStrategy):
    """Runs two sandboxed honest instances -- one face per audience.

    This is the Byzantine behavior of the Theorem 10 impossibility
    proof: the faulty node behaves toward group A's audience *exactly
    as an honest node with input ``a`` would*, and toward group B's as
    an honest node with input ``b``. Anonymity makes the duplicity
    invisible.

    Each face is a real :class:`~repro.sim.node.ConsensusProcess` built
    by ``process_factory`` (e.g. a DBAC constructor). Face A consumes
    the messages of *senders* in ``group_a``; face B those of
    ``group_b``. Which face a *receiver* is shown is decided by the
    listener sets (``listeners_a`` / ``listeners_b``, defaulting to the
    groups themselves): Theorem 10's adversary pins each honest node's
    listening inside one group, and the lie must match. Byzantine
    peers receive :class:`BothFaces` so the collusion stays exact.

    Parameters
    ----------
    process_factory:
        ``(n, f, input_value, self_port) -> ConsensusProcess``.
    group_a, group_b:
        Sender groups feeding face A / face B (engine-side IDs).
    input_a, input_b:
        The inputs the two faces pretend to have started with.
    listeners_a, listeners_b:
        Receivers shown face A / face B. A receiver in neither set
        gets face A. Defaults: the groups themselves.
    """

    def __init__(
        self,
        process_factory: Callable[[int, int, float, int], ConsensusProcess],
        group_a: Collection[int],
        group_b: Collection[int],
        input_a: float,
        input_b: float,
        listeners_a: Collection[int] | None = None,
        listeners_b: Collection[int] | None = None,
    ) -> None:
        super().__init__()
        self._factory = process_factory
        self.group_a = frozenset(group_a)
        self.group_b = frozenset(group_b)
        self.listeners_a = frozenset(listeners_a) if listeners_a is not None else self.group_a
        self.listeners_b = frozenset(listeners_b) if listeners_b is not None else self.group_b
        self.input_a = input_a
        self.input_b = input_b
        self._face_a: ConsensusProcess | None = None
        self._face_b: ConsensusProcess | None = None
        self._round_messages: dict[int, tuple[Any, Any]] = {}

    def _on_bind(self) -> None:
        assert self.node is not None
        # Inside each face, sender IDs double as ports: a consistent
        # private bijection, which is all a port numbering must be.
        self._face_a = self._factory(self.n, self.f, self.input_a, self.node)
        self._face_b = self._factory(self.n, self.f, self.input_b, self.node)

    def _broadcasts(self, t: int) -> tuple[Any, Any]:
        if t not in self._round_messages:
            assert self._face_a is not None and self._face_b is not None
            self._round_messages = {t: (self._face_a.broadcast(), self._face_b.broadcast())}
        return self._round_messages[t]

    def messages(self, t: int, view: Any) -> dict[int, Any]:
        msg_a, msg_b = self._broadcasts(t)
        out: dict[int, Any] = {}
        for receiver in range(self.n):
            if receiver == self.node:
                continue
            if view.fault_plan.is_byzantine(receiver):
                out[receiver] = BothFaces(msg_a, msg_b)
            elif receiver in self.listeners_b:
                out[receiver] = msg_b
            else:
                out[receiver] = msg_a
        return out

    def observe(self, t: int, received: list[tuple[int, Any]]) -> None:
        msg_a, msg_b = self._broadcasts(t)
        assert self._face_a is not None and self._face_b is not None
        assert self.node is not None
        batch_a = [Delivery(self.node, msg_a)]
        batch_b = [Delivery(self.node, msg_b)]
        for sender, message in received:
            if isinstance(message, BothFaces):
                if sender in self.group_a:
                    batch_a.append(Delivery(sender, message.face_a))
                if sender in self.group_b:
                    batch_b.append(Delivery(sender, message.face_b))
                continue
            if sender in self.group_a:
                batch_a.append(Delivery(sender, message))
            if sender in self.group_b:
                batch_b.append(Delivery(sender, message))
        self._face_a.deliver(sorted(batch_a, key=lambda d: d.port))
        self._face_b.deliver(sorted(batch_b, key=lambda d: d.port))
