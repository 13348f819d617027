"""The message adversary interface and trivial instances.

Per Section II-A, the adversary picks ``E(t)`` each round and "may use
nodes' internal states at the beginning of the round and the algorithm
specification to make the choice". The engine therefore passes an
omniscient :class:`~repro.sim.engine.EngineView` to :meth:`choose`.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import TYPE_CHECKING

from repro.net.dynamic import EdgeSchedule
from repro.net.topology import Topology

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.faults.base import FaultPlan
    from repro.sim.engine import EngineView


class MessageAdversary(ABC):
    """Chooses the reliable link set for every round."""

    rng: random.Random

    def __init__(self) -> None:
        self.n: int = 0
        self.fault_plan: "FaultPlan | None" = None
        # ``rng`` is bound by :meth:`setup`; nothing draws before that.

    def setup(self, n: int, fault_plan: "FaultPlan", rng: random.Random) -> None:
        """Bind the adversary to one execution; called once by the engine."""
        self.n = n
        self.fault_plan = fault_plan
        self.rng = rng
        self._on_setup()

    def _on_setup(self) -> None:
        """Hook for subclasses needing post-setup initialization."""

    @abstractmethod
    def choose(self, t: int, view: "EngineView") -> Topology:
        """The link set ``E(t)`` for round ``t``."""

    def promised_dynadegree(self) -> tuple[int, int] | None:
        """The ``(T, D)`` guarantee this adversary maintains, if any.

        Enforcing adversaries return their promise so the runner can
        re-check it on the recorded trace with the independent checker;
        unconstrained adversaries return ``None``.
        """
        return None


class StaticAdversary(MessageAdversary):
    """The same graph every round (e.g. a reliable complete network).

    ``(1, min-in-degree)``-dynaDegree holds trivially; a complete graph
    gives the strongest possible stability ``(1, n-1)``.
    """

    def __init__(self, graph: Topology | None = None) -> None:
        super().__init__()
        self._graph = graph

    def _on_setup(self) -> None:
        if self._graph is None:
            self._graph = Topology.complete(self.n)
        elif self._graph.n != self.n:
            raise ValueError(f"static graph has n={self._graph.n}, engine has n={self.n}")

    def choose(self, t: int, view: "EngineView") -> Topology:
        assert self._graph is not None
        return self._graph

    def promised_dynadegree(self) -> tuple[int, int] | None:
        if self._graph is None:
            return None
        degree = min(self._graph.in_degree(v) for v in range(self._graph.n))
        return (1, degree) if degree >= 1 else None


class ScheduleAdversary(MessageAdversary):
    """Plays back a predefined :class:`~repro.net.dynamic.EdgeSchedule`.

    Oblivious (state-independent) by construction -- useful for
    declarative scenarios such as the paper's Figure 1, and for
    replaying recorded traces.
    """

    def __init__(
        self,
        schedule: EdgeSchedule,
        promise: tuple[int, int] | None = None,
    ) -> None:
        super().__init__()
        self._schedule = schedule
        self._promise = promise

    def _on_setup(self) -> None:
        if self._schedule.n != self.n:
            raise ValueError(
                f"schedule has n={self._schedule.n}, engine has n={self.n}"
            )

    def choose(self, t: int, view: "EngineView") -> Topology:
        return self._schedule.graph_at(t)

    def promised_dynadegree(self) -> tuple[int, int] | None:
        return self._promise
