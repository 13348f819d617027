"""Metrics: counters plus the per-phase range series behind every
convergence claim in the paper.

:class:`PhaseRangeSeries` keeps ``interval(V(p))`` -- one ``(min, max)``
pair per phase -- for the paper's ``V(p)`` multisets (Definitions 5
and 6): ``V(0)`` holds the watched nodes' inputs, and a node that moves
from phase ``q`` to ``p`` contributes its landing value to every phase
``q+1 .. p``, the skipped ones included. ``range(V(p+1)) / range(V(p))``
is the measured convergence rate that Remark 1 (``1/2``, DAC) and
Theorem 7 (``1 - 2^-n``, DBAC) bound, read by the guarantee checker and
experiments E2 and E5. :func:`convergence_rates` is the one rate rule.

A jump of node 1 from phase 0 to 2 fills phase 1 with its landing value:

>>> from types import SimpleNamespace as Node
>>> from repro.faults.base import FaultPlan
>>> nodes = {0: Node(input_value=0.0, phase=0, value=0.0),
...          1: Node(input_value=1.0, phase=0, value=1.0)}
>>> series = PhaseRangeSeries(nodes, FaultPlan.fault_free_plan(2))
>>> nodes[0].phase, nodes[0].value = 1, 0.5
>>> nodes[1].phase, nodes[1].value = 2, 0.75
>>> series.observe()
>>> series.ranges()
[1.0, 0.25, 0.0]
>>> nodes[0].phase, nodes[0].value = 2, 0.625
>>> series.observe()
>>> series.ranges()
[1.0, 0.25, 0.125]
>>> convergence_rates(series.ranges())
[0.25, 0.5]
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from repro.faults.base import FaultPlan

#: A phase range at or below this is (numerically) collapsed: the rate
#: out of it is undefined, so no contraction is measured from it.
RATE_FLOOR = 1e-15


@dataclass
class MetricsCollector:
    """Flat counters over one execution."""

    rounds: int = 0
    broadcasts: int = 0
    delivered: int = 0
    bits: int = 0
    per_round_delivered: list[int] = field(default_factory=list)
    per_round_bits: list[int] = field(default_factory=list)

    def on_round(self, delivered: int, bits: int, broadcasts: int) -> None:
        """Engine hook: account one completed round."""
        self.rounds += 1
        self.broadcasts += broadcasts
        self.delivered += delivered
        self.bits += bits
        self.per_round_delivered.append(delivered)
        self.per_round_bits.append(bits)

    @property
    def mean_bits_per_round(self) -> float:
        """Average delivered bits per round (0.0 before any round)."""
        return self.bits / self.rounds if self.rounds else 0.0


def phase_rate(before: float, after: float) -> float | None:
    """``range(V(p+1)) / range(V(p))``; ``None`` once ``V(p)`` has collapsed."""
    return after / before if before > RATE_FLOOR else None


def convergence_rates(ranges: Sequence[float]) -> list[float]:
    """The measured rate of every adjacent pair of ``ranges`` that has one."""
    rates = map(phase_rate, ranges, ranges[1:])
    return [rate for rate in rates if rate is not None]


class PhaseRangeSeries:
    """``interval(V(p))`` for every phase ``p``, read off the processes.

    ``V(p)`` is built from the watched nodes: every non-Byzantine node
    while the plan is crash-only (crashed nodes contribute the phases
    they reached -- Definition 5 keeps "nodes that have not crashed
    yet"), and only the fault-free nodes once any node is Byzantine
    (Section V redefines ``V(p)`` that way). Their inputs are ``V(0)``;
    call :meth:`observe` at each round boundary to fold in the phase
    transitions since the last call.
    """

    def __init__(self, processes: Mapping[int, Any], fault_plan: FaultPlan) -> None:
        watched = fault_plan.fault_free if fault_plan.byzantine else fault_plan.non_byzantine
        self._processes = [processes[node] for node in sorted(watched)]
        self._phases = [0] * len(self._processes)
        inputs = [float(proc.input_value) for proc in self._processes]
        self._lo = [min(inputs)] if inputs else []
        self._hi = [max(inputs)] if inputs else []

    def observe(self) -> None:
        """Fold in every watched node's phase transitions (Definition 6)."""
        lo, hi, phases = self._lo, self._hi, self._phases
        for i, proc in enumerate(self._processes):
            previous, phase = phases[i], proc.phase
            if phase > previous:
                value = float(proc.value)
                for p in range(previous + 1, phase + 1):
                    if p == len(lo):
                        lo.append(value)
                        hi.append(value)
                    elif value < lo[p]:
                        lo[p] = value
                    elif value > hi[p]:
                        hi[p] = value
                phases[i] = phase

    def ranges(self) -> list[float]:
        """``range(V(p))`` for every phase ``p`` reached so far."""
        return [top - bottom for bottom, top in zip(self._lo, self._hi)]
