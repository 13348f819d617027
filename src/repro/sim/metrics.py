"""Metrics: counters plus the per-phase range series behind every
convergence claim in the paper.

:class:`PhaseRangeSeries` materializes the paper's ``V(p)`` multisets
(Definitions 5 and 6): the phase-``p`` state of every watched node,
where a node that *jumps* over phases contributes its landing value to
each skipped phase. ``range(V(p+1)) / range(V(p))`` is the measured
convergence rate that experiments E2 and E5 compare against the proven
``1/2`` (DAC) and ``1 - 2^-n`` (DBAC) bounds.
"""

from __future__ import annotations

from collections.abc import Collection, Mapping
from dataclasses import dataclass, field
from typing import Any

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


class PhaseRangeSeries:
    """Tracks the multiset ``V(p)`` for each phase ``p``.

    Parameters
    ----------
    watched:
        The nodes whose states constitute ``V(p)``. For the crash model
        this is every non-Byzantine node (crashed nodes contribute up
        to the phases they reached -- Definition 5 keeps "nodes that
        have not crashed yet"); for the Byzantine model it is exactly
        the fault-free nodes (Section V redefines ``V(p)`` that way).

    Feed it phase/value transitions via :meth:`observe_states` once per
    round; it applies Definition 6 to jumps (skipped phases inherit the
    landing value).
    """

    def __init__(self, watched: Collection[int]) -> None:
        self._watched = frozenset(watched)
        self._last_phase: dict[int, int] = {}
        self._values_by_phase: dict[int, list[float]] = {}

    @property
    def watched(self) -> frozenset[int]:
        """The nodes whose states are being tracked."""
        return self._watched

    def observe_states(self, states: Mapping[int, Mapping[str, Any]]) -> None:
        """Record any phase transitions visible in this round's snapshots.

        ``states`` maps node -> snapshot with at least ``value`` and
        ``phase`` keys; watched nodes absent from the mapping (crashed)
        are simply skipped.
        """
        for node in self._watched:
            state = states.get(node)
            if state is None:
                continue
            phase = int(state["phase"])
            value = float(state["value"])
            previous = self._last_phase.get(node)
            if previous is None:
                # First sighting: the node's input is its phase-p state
                # for every phase up to the current one (normally just
                # phase 0 at round 0).
                for p in range(0, phase + 1):
                    self._values_by_phase.setdefault(p, []).append(value)
            elif phase > previous:
                # Definition 6: skipped phases inherit the landing value.
                for p in range(previous + 1, phase + 1):
                    self._values_by_phase.setdefault(p, []).append(value)
            self._last_phase[node] = phase

    def record(self, phase: int, value: float) -> None:
        """Append ``value`` directly to ``V(phase)``.

        Seam for replaying externally recorded series (loaded traces,
        hand-built scenarios). Unlike :meth:`observe_states`, direct
        recording does not apply Definition 6's jump-filling, so the
        resulting series may contain empty middle phases --
        :meth:`range_series` keeps those aligned as ``None`` entries.
        """
        self._values_by_phase.setdefault(int(phase), []).append(float(value))

    def multiset(self, phase: int) -> list[float]:
        """The recorded ``V(phase)`` in chronological order."""
        return list(self._values_by_phase.get(phase, []))

    def max_phase(self) -> int:
        """Highest phase with at least one recorded state."""
        return max(self._values_by_phase, default=0)

    def range_of(self, phase: int) -> float | None:
        """``range(V(phase))`` or ``None`` when the phase is empty."""
        values = self._values_by_phase.get(phase)
        if not values:
            return None
        return max(values) - min(values)

    def range_series(self) -> list[float | None]:
        """``range(V(p))`` for every ``p = 0 .. max_phase()``, aligned.

        Index ``p`` of the returned list is always phase ``p``; a phase
        with no recorded states yields ``None`` instead of being
        dropped, so consumers pairing adjacent entries (convergence
        rates, decay fits) never silently pair non-adjacent phases.
        Engine-driven series have no empty middle phases (Definition 6
        fills jumped-over phases with the landing value), but series
        fed via :meth:`record` may. Partially-filled phases are still
        included -- their ranges remain meaningful upper-bound
        witnesses.
        """
        if not self._values_by_phase:
            return []
        return [self.range_of(p) for p in range(self.max_phase() + 1)]

    def convergence_rates(self) -> list[float]:
        """Measured per-phase rates ``range(V(p+1)) / range(V(p))``.

        Pairs involving an empty phase (``None`` in the aligned
        :meth:`range_series`) are undefined and skipped explicitly, as
        are phases whose predecessor range is (numerically) zero: once
        collapsed, the ratio is undefined and agreement already holds.
        """
        series = self.range_series()
        rates = []
        for before, after in zip(series, series[1:]):
            if before is None or after is None:
                continue  # undefined pair: one side has no recorded states
            if before > RATE_FLOOR:
                rates.append(after / before)
        return rates

    def interval_of(self, phase: int) -> tuple[float, float] | None:
        """``interval(V(phase)) = [min, max]`` or ``None`` when empty."""
        values = self._values_by_phase.get(phase)
        if not values:
            return None
        return (min(values), max(values))
