"""Adapters wiring the bus onto engines, runs, and batch lanes.

This is the only module that knows both vocabularies: engine-side
snapshots (:class:`repro.sim.trace.RoundSnapshot`) on one side, bus
events on the other. Dependencies flow strictly extension -> core:
``repro.obs`` imports the simulation layer, never the reverse -- the
engine only ever sees an opaque callable appended to its
``observers`` list, and pays a single boolean check per round when
nothing is attached.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.obs.bus import ObserverBus
from repro.obs.events import (
    ConvergenceUpdate,
    PhaseAdvanced,
    RoundCompleted,
    RunFinished,
)
from repro.sim.metrics import PhaseRangeSeries, phase_rate


class EngineAdapter:
    """Translate per-round snapshots into bus events.

    An instance is a valid entry for ``engine.observers`` (called as
    ``adapter(engine, snapshot)``). Round and phase events aggregate
    the fault plan's fault-free nodes. Convergence events come from the
    runner's own :class:`PhaseRangeSeries`, built on the first call
    over the engine's processes (``V(0)`` from their inputs), so a
    run's last event per phase carries the report's ``phase_ranges``.
    """

    def __init__(self, bus: ObserverBus) -> None:
        self.bus = bus
        self._fault_free: tuple[int, ...] = ()
        self._series: PhaseRangeSeries | None = None
        self._max_phase = 0
        self._phases_published = 0

    def __call__(self, engine: Any, snapshot: Any) -> None:
        if self._series is None:
            self._fault_free = tuple(sorted(engine.fault_plan.fault_free))
            self._series = PhaseRangeSeries(engine.processes, engine.fault_plan)
        states = [snapshot.states[node] for node in self._fault_free]
        values = [float(state["value"]) for state in states]
        phases = [int(state["phase"]) for state in states]
        self.bus.publish(
            RoundCompleted(
                round=snapshot.round,
                delivered=snapshot.delivered,
                bits=snapshot.bits,
                live_senders=len(snapshot.live_senders),
                spread=(max(values) - min(values)) if values else 0.0,
                min_phase=min(phases, default=0),
                max_phase=max(phases, default=0),
            )
        )
        top = max(phases, default=0)
        if top > self._max_phase:
            self.bus.publish(
                PhaseAdvanced(round=snapshot.round, phase=top, previous=self._max_phase)
            )
            self._max_phase = top
        self._series.observe()
        ranges = self._series.ranges()
        for phase in range(self._phases_published, len(ranges)):
            self.bus.publish(
                ConvergenceUpdate(
                    round=snapshot.round,
                    phase=phase,
                    phase_range=ranges[phase],
                    rate=phase_rate(ranges[phase - 1], ranges[phase]) if phase else None,
                )
            )
        self._phases_published = len(ranges)


def attach_engine(bus: ObserverBus, engine: Any) -> EngineAdapter:
    """Register a snapshot adapter on an already-built engine."""
    adapter = EngineAdapter(bus)
    engine.observers.append(adapter)
    return adapter


def run_finisher(bus: ObserverBus) -> Callable[[Any, Any], None]:
    """An ``on_finish(engine, result)`` hook publishing RunFinished."""

    def on_finish(engine: Any, result: Any) -> None:
        values = engine.fault_free_values()
        ordered = [values[node] for node in sorted(values)]
        spread = (max(ordered) - min(ordered)) if ordered else 0.0
        bus.publish(
            RunFinished(
                rounds=engine.current_round,
                stopped=bool(result.stopped),
                spread=spread,
                delivered=engine.metrics.delivered,
                bits=engine.metrics.bits,
            )
        )

    return on_finish


def consensus_hooks(bus: ObserverBus) -> dict[str, Any]:
    """Keyword arguments attaching ``bus`` to one consensus run.

    Usage: ``run_consensus(..., **consensus_hooks(bus))`` -- supplies
    both the per-round ``observers`` entry and the ``on_finish`` hook.
    """
    return {
        "observers": (EngineAdapter(bus),),
        "on_finish": run_finisher(bus),
    }


def lane_finished(bus: ObserverBus, lane: Any) -> None:
    """Publish a :class:`RunFinished` for one batch lane result.

    :func:`repro.sim.batch.run_lanes` returns a
    :class:`repro.sim.batch.LaneResult` per lane, in seed order; call
    this over them for one event per lane, in lane order.
    """
    outputs = [lane.outputs[node] for node in sorted(lane.outputs)]
    spread = (max(outputs) - min(outputs)) if outputs else 0.0
    bus.publish(
        RunFinished(
            rounds=lane.rounds,
            stopped=bool(lane.stopped),
            spread=spread,
            seed=lane.seed,
        )
    )
