"""Charron-Bost-style averaging algorithms for dynamic graphs.

The averaging class of Charron-Bost, Fuegger and Nowak (ICALP'15):
each round a node broadcasts its value and replaces it with an
average of everything received that round. They generalize the
reliable-channel baselines in :mod:`repro.core.baselines` -- the
``"midpoint"`` rule is :class:`~repro.core.baselines.IteratedMidpointProcess`
itself, which :class:`AveragingProcess` extends with the ``"mean"``
rule, the full arithmetic mean -- and converge on any
rooted dynamic graph sequence, which makes them the natural first
*new* family for the scenario registry (they are registered through
the public :mod:`repro.scenario` API only, in
:mod:`repro.families.averaging`, as the registry's pluggability
proof).

Like every process in the repo, the update is a deterministic
function of the delivered multiset: the ``mean`` rule sums the values
in sorted order, so port-major and sender-major delivery orders
produce bit-identical floats. The sum is :func:`mean`'s strict
left-to-right one, so it is the same on every Python (the builtin
``sum`` compensates float rounding since CPython 3.12) and equals the
batch kernel's prefix sums.
"""

from __future__ import annotations

import operator
from functools import reduce

from repro.core.baselines import IteratedMidpointProcess
from repro.sim.node import Delivery

#: The per-round update rules this process implements.
AVERAGING_RULES = ("mean", "midpoint")


def mean(values: list[float]) -> float:
    """The arithmetic mean of ``values``, summed strictly left to right.

    ``0.0 + v0 + v1 + ...`` in that order: CPython 3.11's ``sum()``
    bit for bit (its integer start ``0`` turns a lone ``-0.0`` into
    ``0.0`` alike), where 3.12's compensated ``sum()`` may round
    differently.

    >>> mean([0.1, 0.2, 0.3])
    0.20000000000000004
    >>> mean([-0.0])
    0.0
    """
    return reduce(operator.add, values, 0.0) / len(values)


class AveragingProcess(IteratedMidpointProcess):
    """Per-round neighbor averaging with a fixed round budget.

    One phase per round: broadcast ``v``; set ``v`` to the average of
    the values received this round (self included, the engine's
    self-delivery) under ``rule`` -- ``"mean"`` (arithmetic mean,
    summed in sorted order for delivery-order determinism) or
    ``"midpoint"`` (mean of the extremes, which is exactly
    :class:`~repro.core.baselines.IteratedMidpointProcess`, whose
    state, messages and output this class shares); output after
    ``num_rounds`` rounds. Both rules are convex, so validity holds
    under any message adversary; convergence needs the graph-sequence
    guarantees the paper's adversaries deliberately withhold.
    """

    def __init__(
        self,
        n: int,
        f: int,
        input_value: float,
        self_port: int,
        rule: str = "mean",
        num_rounds: int = 10,
    ) -> None:
        if rule not in AVERAGING_RULES:
            raise ValueError(f"unknown rule {rule!r}; known: {AVERAGING_RULES}")
        super().__init__(n, f, input_value, self_port, num_rounds=num_rounds)
        self.rule = rule

    def deliver(self, deliveries: list[Delivery]) -> None:
        if self.rule == "midpoint" or self._output is not None:
            super().deliver(deliveries)
            return
        values = sorted(float(d.message.value) for d in deliveries)
        if values:
            self._v = mean(values)
        self._round += 1
        if self._round >= self.num_rounds:
            self._output = self._v
