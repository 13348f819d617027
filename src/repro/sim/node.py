"""The process protocol every consensus algorithm implements.

A :class:`ConsensusProcess` is a *fault-free anonymous node*. The
engine drives it with exactly the information the paper's model grants:

- it knows ``n`` (network size), ``f`` (fault bound) and its own input;
- once per round it produces the message it broadcasts;
- at the end of the round it receives the batch of delivered messages,
  each tagged only with the *local port* it arrived on (its own
  message is among them, on :attr:`self_port`, unless its class
  declares :attr:`ConsensusProcess.ignores_own_echo`).

The engine never exposes global node IDs, round-graph information, or
the identities behind ports -- anonymity holds by construction.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, ClassVar, NamedTuple


class Delivery(NamedTuple):
    """One received message: the local port it arrived on, and the payload."""

    port: int
    message: Any


class ConsensusProcess(ABC):
    """Base class for fault-free nodes running a consensus algorithm.

    Parameters
    ----------
    n:
        Network size (known to all nodes in the model).
    f:
        Upper bound on the number of faulty nodes (known to all nodes).
    input_value:
        This node's initial input ``x_i``.
    self_port:
        The local port on which this node's own broadcasts arrive.
        (The paper's ``R_i[i] <- 1`` initialization is expressed through
        this port.)

    State discipline for implementers: keep instance state to
    attributes holding immutable values and builtin containers
    (list/dict/set) of immutables, without aliasing *inside* a
    container -- the paper's algorithms need no more (scalars, phase
    counters, port bit vectors, small value lists), and the
    simulated-lookahead adversary's copy-on-write overlay
    (:mod:`repro.adversary.greedy`) snapshots and rewinds exactly that
    shape. Two attributes may alias the same container (the overlay
    preserves it); a list-of-lists sharing an inner list with another
    attribute would not round-trip.
    """

    #: Whether the node's own round-start message can never change its
    #: state, wherever it falls in that round's batch. ``deliver`` folds
    #: one message at a time, so this holds when the echo is a no-op
    #: from every state a batch prefix can reach. When true, the engine
    #: never delivers the own message, and skips the call altogether on
    #: edge-free rounds. ``False`` -- always deliver -- is always safe.
    ignores_own_echo: ClassVar[bool] = False

    def __init__(self, n: int, f: int, input_value: float, self_port: int) -> None:
        if n < 1:
            raise ValueError(f"need n >= 1, got {n}")
        if f < 0 or f >= n:
            raise ValueError(f"need 0 <= f < n, got f={f}, n={n}")
        if not (0 <= self_port < n):
            raise ValueError(f"self_port {self_port} out of range for n={n}")
        self.n = n
        self.f = f
        self.input_value = input_value
        self.self_port = self_port

    @abstractmethod
    def broadcast(self) -> Any:
        """The message this node broadcasts in the current round."""

    @abstractmethod
    def deliver(self, deliveries: list[Delivery]) -> None:
        """Consume this round's received messages and transition state.

        ``deliveries`` is sorted by ascending port number -- the fixed,
        publicly-known processing order (an anonymous node has no
        identifiers to order by, only its local port labels).
        It contains this node's own message on ``self_port`` unless the
        class declares :attr:`ignores_own_echo`; then the message is
        left out, and an edge-free round, whose batch would hold only
        it, makes no call at all.
        """

    @abstractmethod
    def has_output(self) -> bool:
        """Whether the node has irrevocably produced its output."""

    @abstractmethod
    def output(self) -> float:
        """The decided output; only valid once :meth:`has_output` is true."""

    # -- Introspection for the adversary / analysis layers ---------------
    # The message adversary is allowed to read internal states (Section
    # II-A). Algorithms expose their scalar state and phase through this
    # uniform surface so generic adversaries work against any of them.

    @property
    def value(self) -> float:
        """Current scalar state ``v_i`` (adversary-visible)."""
        raise NotImplementedError

    @property
    def phase(self) -> int:
        """Current phase index ``p_i`` (adversary-visible)."""
        raise NotImplementedError

    def state_snapshot(self) -> dict[str, Any]:
        """A read-only snapshot of adversary-visible state."""
        return {"value": self.value, "phase": self.phase, "output": self.has_output()}
