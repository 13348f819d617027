"""Typed, immutable events on the observability bus.

Every event is a frozen dataclass of plain scalars -- no references
into live engine state -- so holding an event can never mutate (or
even pin) a run, and serializing one for a progress stream is just
``dataclasses.asdict``. The catalogue mirrors what the paper's
experiments watch: round-level delivery accounting
(:class:`RoundCompleted`), phase structure (:class:`PhaseAdvanced`),
per-phase ``range(V(p))`` contraction (:class:`ConvergenceUpdate`),
and the final verdict inputs (:class:`RunFinished`).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class RoundCompleted:
    """One round finished; delivery and watched-state aggregates."""

    round: int
    delivered: int
    bits: int
    live_senders: int
    #: max - min of the watched (fault-free) node values after the round.
    spread: float
    min_phase: int
    max_phase: int


@dataclass(frozen=True)
class PhaseAdvanced:
    """The maximum phase across watched nodes increased this round."""

    round: int
    #: The new maximum phase.
    phase: int
    #: The maximum phase before this round.
    previous: int


@dataclass(frozen=True)
class ConvergenceUpdate:
    """A watched node reached phase ``p`` for the first time.

    ``phase_range`` is ``range(V(phase))`` after round ``round``: the
    spread of the phase-``phase`` states of the watched nodes that have
    reached it (every non-Byzantine node under crash-only plans, the
    fault-free ones once any node is Byzantine), with Definition 6's
    landing value for a node that jumped over it; ``V(0)`` is the
    inputs. ``rate`` is ``range(V(phase)) / range(V(phase - 1))`` by
    the runner's rule, ``None`` for phase 0 or out of a collapsed
    phase. Both are *running* figures -- laggards entering the phase
    later can still widen it -- so they are progress telemetry; the
    report's ``phase_ranges`` hold the final series.
    """

    round: int
    phase: int
    phase_range: float
    rate: float | None


@dataclass(frozen=True)
class RunFinished:
    """One execution (or batch lane) ended."""

    rounds: int
    stopped: bool
    #: Final spread of the watched values (0.0 when none are known).
    spread: float
    delivered: int = 0
    bits: int = 0
    #: Lane seed for batched runs; ``None`` for single executions.
    seed: int | None = None
