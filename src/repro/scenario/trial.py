"""One picklable trial per registered algorithm family.

A family supplies ``build`` (one seed's serial execution),
``normalize`` and ``lanes`` (the seed-independent lane family the
batch layer runs); :func:`family_trial` turns those into the trial
every executor dispatches -- sweeps, the process pool, the daemon and
the CLI:

- ``trial(seed=s, **params)`` completes the flat parameters through
  :func:`repro.scenario.registry.validate_params` (defaults, checks,
  ``normalize``, the family's constraints), runs
  ``run_consensus(**family.build(seed=s, **params))`` untraced and
  reduces the report to ``{rounds, spread, terminated, correct}``;
- ``trial.batch_fn(seeds=[...], **params)`` returns exactly
  ``[trial(seed=s, **params) for s in seeds]``: two or more seeds run
  as one :func:`repro.sim.batch.run_lanes` call over
  ``family.lanes(**params)`` (a numpy kernel, or serial-engine lanes
  where no kernel runs the family); an observed call or a single seed
  runs the serial trial once per seed.

``observe=True`` attaches a fresh observer bus to each serial run and
adds its aggregate under ``"metrics"``. A trial pickles as its
family's name and version, so jobs ship small and workers look the
family up in their own registry.

>>> trial = family_trial("dac")
>>> summary = trial(n=5, seed=0)
>>> sorted(summary)
['correct', 'rounds', 'spread', 'terminated']
>>> summary["correct"] and summary["terminated"]
True
>>> trial.batch_fn(n=5, seeds=[0]) == [summary]
True
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import Any

from repro.scenario.registry import RegistryEntry, lookup, validate_params
from repro.scenario.resolve import ensure_builtin_families
from repro.sim.arena import empty_arena_plan
from repro.sim.runner import output_verdict, run_consensus

__all__ = ["FamilyTrial", "family_trial"]


def _observer_hooks(observe: bool) -> tuple[dict[str, Any], Any]:
    """(run_consensus kwargs, summary-finisher) for an observed trial.

    ``observe=True`` attaches a fresh :class:`repro.obs` bus with a
    :class:`~repro.obs.observers.MetricsAggregator` to the run; the
    finisher stamps the aggregator's summary into the trial's result
    dict (key ``"metrics"``), so it ships back inside the
    ``SweepRecord`` from any worker process. The bus's ``RunFinished``
    event is additionally handed to
    :func:`repro.sim.parallel.record_event`, so sweeps requesting
    ``on_event`` forwarding see one completion event per trial, in
    spec order. The summary is a deterministic function of the seed --
    workers=N returns the identical dict.
    """
    if not observe:
        return {}, lambda summary: summary
    from repro.obs import MetricsAggregator, ObserverBus, consensus_hooks
    from repro.obs.events import RunFinished
    from repro.sim.parallel import record_event

    bus = ObserverBus()
    aggregator = bus.attach(MetricsAggregator())
    bus.subscribe(RunFinished, record_event)
    hooks = consensus_hooks(bus)

    def finish(summary: dict[str, Any]) -> dict[str, Any]:
        summary["metrics"] = aggregator.summary()
        return summary

    return hooks, finish


def _lane_summary(lane, epsilon: float) -> dict[str, Any]:
    """The trial summary dict for one batch lane.

    The runner's verdict (:func:`repro.sim.runner.output_verdict`) over
    the lane's outputs and inputs, so batched and serial summaries are
    equal value for value. Works for every lane family because
    :class:`repro.sim.batch.LaneResult.outputs` already carries the
    stop-mode-appropriate outputs (decided values for ``"output"``
    stopping, fault-free states for ``"oracle"``), exactly as
    :func:`repro.sim.runner.run_consensus` reports them.
    """
    verdict = output_verdict(lane.outputs, lane.inputs, epsilon)
    return {
        "rounds": lane.rounds,
        "spread": verdict.spread,
        "terminated": lane.stopped,
        "correct": lane.stopped and verdict.correct,
    }


class FamilyTrial:
    """The serial and batched trial of one registered family.

    Built once per family by :func:`family_trial`. Each call or batch
    completes its flat parameters once, through
    :func:`repro.scenario.registry.validate_params`, so a trial refuses
    exactly what :func:`repro.scenario.resolve` refuses, with the same
    :class:`repro.scenario.SpecError`. ``observe`` is a keyword of the
    trial, not a parameter of the family.
    """

    __slots__ = ("name", "version", "entry", "family")

    def __init__(self, entry: RegistryEntry) -> None:
        self.name = entry.name
        self.version = entry.version
        self.entry = entry
        self.family = entry.obj

    def __reduce__(self) -> tuple[Any, tuple[str, int]]:
        return (family_trial, (self.name, self.version))

    def __repr__(self) -> str:
        return f"family_trial({self.name!r}, {self.version})"

    def _run(self, seed: int, observe: bool, params: dict[str, Any]) -> dict[str, Any]:
        hooks, finish = _observer_hooks(observe)
        report = run_consensus(
            **self.family.build(seed=seed, **params),
            record_trace=False,
            verify_promise=False,
            track_phases=False,
            **hooks,
        )
        return finish(
            {
                "rounds": report.rounds,
                "spread": report.output_spread,
                "terminated": report.terminated,
                "correct": report.correct,
            }
        )

    def __call__(self, *, seed: int = 0, observe: bool = False, **params: Any) -> dict[str, Any]:
        """One execution's summary; deterministic in ``seed``."""
        return self._run(seed, observe, validate_params(self.entry, params))

    def batch_fn(
        self, *, seeds: Iterable[int] = (), observe: bool = False, **params: Any
    ) -> list[dict[str, Any]]:
        """One summary per seed, in order, equal to the per-seed calls."""
        params = validate_params(self.entry, params)
        seeds = [int(seed) for seed in seeds]
        if observe or len(seeds) < 2:
            return [self._run(seed, observe, params) for seed in seeds]
        # Deferred: the kernels load numpy, which serial paths never need.
        from repro.sim.batch import run_lanes

        lanes = run_lanes(self.family.lanes(**params), seeds)
        return [_lane_summary(lane, params["epsilon"]) for lane in lanes]

    # Compatibility stub read by perfbench's traced pooled path; see
    # repro.sim.arena.empty_arena_plan.
    batch_fn.arena_plan = empty_arena_plan  # type: ignore[attr-defined]


_TRIALS: dict[tuple[str, str, int], FamilyTrial] = {}


def family_trial(name: str, version: int | None = None) -> FamilyTrial:
    """The trial of the registered family ``name`` (latest version by default)."""
    ensure_builtin_families()
    entry = lookup("algorithm", name, version)
    trial = _TRIALS.get(entry.key)
    if trial is None or trial.family is not entry.obj:
        trial = _TRIALS[entry.key] = FamilyTrial(entry)
    return trial
