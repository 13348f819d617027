"""Asymptotic (non-terminating) averaging -- Section II-D, category (ii).

The paper sorts prior algorithms into three families; the second
"relaxes termination": nodes average forever and the states converge
asymptotically, with no output ever produced. Charron-Bost, Fuegger
and Nowak (ICALP'15) showed such averaging converges whenever every
round's graph has a rooted spanning tree -- a property *incomparable*
to dynaDegree (Section II-B).

:class:`AsymptoticAveragingProcess` is that family's representative:
each round the node moves to a convex combination (midpoint or mean)
of everything it heard. It never outputs -- ``has_output`` is always
false -- so it is judged with the runner's oracle mode.

Experiment X5 runs it head-to-head with DAC under a rooted-star
adversary: DAC (which needs floor(n/2) in-neighbors to clear a phase)
stalls, while asymptotic averaging glides to agreement -- and, under
the paper's own (1, floor(n/2)) adversary, both converge. Executable
incomparability.
"""

from __future__ import annotations

from repro.core.averaging import mean
from repro.sim.messages import StateMessage
from repro.sim.node import ConsensusProcess, Delivery


class AsymptoticAveragingProcess(ConsensusProcess):
    """Memoryless averaging without termination.

    Parameters
    ----------
    combine:
        ``"midpoint"`` moves to ``(min + max) / 2`` of the received
        values (the contraction the paper's algorithms use);
        ``"mean"`` moves to their arithmetic mean (the classic
        averaging-dynamics choice).
    """

    def __init__(
        self,
        n: int,
        f: int,
        input_value: float,
        self_port: int,
        combine: str = "midpoint",
    ) -> None:
        super().__init__(n, f, input_value, self_port)
        if combine not in ("midpoint", "mean"):
            raise ValueError(f"unknown combine rule {combine!r}")
        self.combine = combine
        self._v = float(input_value)
        self._round = 0

    @property
    def value(self) -> float:
        """Current state."""
        return self._v

    @property
    def phase(self) -> int:
        """Rounds completed (one averaging step per round)."""
        return self._round

    def broadcast(self) -> StateMessage:
        return StateMessage(self._v, self._round)

    def deliver(self, deliveries: list[Delivery]) -> None:
        values = [float(d.message.value) for d in deliveries]
        if values:
            if self.combine == "midpoint":
                self._v = 0.5 * (min(values) + max(values))
            else:
                self._v = mean(values)
        self._round += 1

    def has_output(self) -> bool:
        """Never: the algorithm only converges asymptotically."""
        return False

    def output(self) -> float:
        raise RuntimeError("asymptotic averaging never outputs; use oracle mode")

    def state_key(self) -> tuple:
        return (self._v, self._round)
