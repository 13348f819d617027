"""Built-in observers: reusable reductions over the event stream.

Each observer is a plain object with ``on_event(event)`` (the
:meth:`~repro.obs.bus.ObserverBus.attach` contract) plus a
``summary()`` returning a JSON-ready dict of plain scalars. Summaries
are deterministic functions of the event stream, which is itself a
deterministic function of the run's seeds -- so a worker process can
ship its summary back to the parent and the parent can compare it
bit-for-bit against a serial rerun (the ``repro.sim.parallel``
forwarding contract is tested exactly that way).
"""

from __future__ import annotations

import json
import sys
from typing import Any, TextIO

from repro.analysis.convergence import fit_geometric_rate, summarize_rates
from repro.obs.events import (
    ConvergenceUpdate,
    PhaseAdvanced,
    RoundCompleted,
    RunFinished,
)
from repro.sim.metrics import convergence_rates


class MetricsAggregator:
    """Per-round delivered/bits/live-sender statistics.

    Streaming counterpart of :class:`repro.sim.metrics.MetricsCollector`
    that never stores per-round lists: O(1) state however long the run.
    """

    def __init__(self) -> None:
        self.rounds = 0
        self.delivered = 0
        self.bits = 0
        self.live_senders_min: int | None = None
        self.live_senders_max: int | None = None
        self._live_senders_sum = 0
        self.finished: dict[str, Any] | None = None

    def on_event(self, event: Any) -> None:
        if isinstance(event, RoundCompleted):
            self.rounds += 1
            self.delivered += event.delivered
            self.bits += event.bits
            live = event.live_senders
            self._live_senders_sum += live
            if self.live_senders_min is None or live < self.live_senders_min:
                self.live_senders_min = live
            if self.live_senders_max is None or live > self.live_senders_max:
                self.live_senders_max = live
        elif isinstance(event, RunFinished):
            self.finished = {
                "rounds": event.rounds,
                "stopped": event.stopped,
                "spread": event.spread,
            }

    def summary(self) -> dict[str, Any]:
        """Aggregate statistics as a JSON-ready dict."""
        rounds = self.rounds
        return {
            "rounds": rounds,
            "delivered": self.delivered,
            "bits": self.bits,
            "mean_bits_per_round": self.bits / rounds if rounds else 0.0,
            "live_senders_min": self.live_senders_min,
            "live_senders_max": self.live_senders_max,
            "mean_live_senders": (
                self._live_senders_sum / rounds if rounds else 0.0
            ),
            "finished": self.finished,
        }

    @staticmethod
    def merge_summaries(summaries: list[dict[str, Any]]) -> dict[str, Any]:
        """Combine per-run summaries into one sweep-level aggregate.

        Means are re-derived from the merged totals (not averaged over
        runs), so merging is associative and order-independent.
        """
        rounds = sum(s["rounds"] for s in summaries)
        delivered = sum(s["delivered"] for s in summaries)
        bits = sum(s["bits"] for s in summaries)
        mins = [
            s["live_senders_min"]
            for s in summaries
            if s["live_senders_min"] is not None
        ]
        maxes = [
            s["live_senders_max"]
            for s in summaries
            if s["live_senders_max"] is not None
        ]
        sender_sum = sum(s["mean_live_senders"] * s["rounds"] for s in summaries)
        return {
            "runs": len(summaries),
            "rounds": rounds,
            "delivered": delivered,
            "bits": bits,
            "mean_bits_per_round": bits / rounds if rounds else 0.0,
            "live_senders_min": min(mins) if mins else None,
            "live_senders_max": max(maxes) if maxes else None,
            "mean_live_senders": sender_sum / rounds if rounds else 0.0,
        }


class ConvergenceTracker:
    """Range-shrink telemetry from :class:`ConvergenceUpdate` events.

    Collects the running ``range(V(p))`` sequence and reduces it with
    the runner's rate rule (:func:`~repro.sim.metrics.convergence_rates`)
    and the same :mod:`repro.analysis` reductions the result tables use
    (:func:`summarize_rates`, :func:`fit_geometric_rate`) -- so live
    progress and post-hoc analysis speak the same units.
    """

    def __init__(self) -> None:
        self._ranges: list[float] = []

    def on_event(self, event: Any) -> None:
        if isinstance(event, ConvergenceUpdate):
            # Phases arrive in order from 0; phase 0 starts a new run.
            self._ranges[event.phase :] = [event.phase_range]

    @property
    def range_series(self) -> list[float]:
        """Running ``range(V(p))`` by phase."""
        return list(self._ranges)

    def summary(self) -> dict[str, Any]:
        """Rates summary plus a geometric fit over the range series."""
        return {
            "phases": len(self._ranges),
            "rates": summarize_rates(convergence_rates(self._ranges)),
            "geometric_rate": fit_geometric_rate(self._ranges),
        }


class ProgressReporter:
    """Live progress: human lines to a stream, machine rows to JSONL.

    ``every`` controls the round sampling period for
    :class:`RoundCompleted`; :class:`PhaseAdvanced` and
    :class:`RunFinished` always report. Output carries no wall-clock
    or host state -- lines are a pure function of the event stream, so
    two runs of the same seed tail identically.
    """

    def __init__(
        self,
        stream: TextIO | None = None,
        jsonl_path: Any | None = None,
        every: int = 100,
    ) -> None:
        if every < 1:
            raise ValueError(f"every must be >= 1, got {every}")
        self.every = int(every)
        self._stream = stream if stream is not None else sys.stderr
        self._jsonl = open(jsonl_path, "w") if jsonl_path is not None else None

    def on_event(self, event: Any) -> None:
        if isinstance(event, RoundCompleted):
            if event.round % self.every != 0:
                return
            self._emit(
                f"round {event.round}: spread={event.spread:.3g} "
                f"phases=[{event.min_phase},{event.max_phase}] "
                f"live={event.live_senders}",
                {
                    "event": "round",
                    "round": event.round,
                    "spread": event.spread,
                    "min_phase": event.min_phase,
                    "max_phase": event.max_phase,
                    "live_senders": event.live_senders,
                },
            )
        elif isinstance(event, PhaseAdvanced):
            self._emit(
                f"round {event.round}: phase {event.previous} -> {event.phase}",
                {
                    "event": "phase",
                    "round": event.round,
                    "phase": event.phase,
                    "previous": event.previous,
                },
            )
        elif isinstance(event, RunFinished):
            self._emit(
                f"finished: rounds={event.rounds} stopped={event.stopped} "
                f"spread={event.spread:.3g}",
                {
                    "event": "finished",
                    "rounds": event.rounds,
                    "stopped": event.stopped,
                    "spread": event.spread,
                },
            )

    def _emit(self, line: str, row: dict[str, Any]) -> None:
        self._stream.write(line + "\n")
        if self._jsonl is not None:
            self._jsonl.write(json.dumps(row) + "\n")
            self._jsonl.flush()

    def close(self) -> None:
        """Close the JSONL file, if one was opened (idempotent)."""
        if self._jsonl is not None and not self._jsonl.closed:
            self._jsonl.close()

    def __enter__(self) -> ProgressReporter:
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
