"""Ready-made executions: the scenarios the paper reasons about.

Each builder assembles a full execution -- processes, adversary, port
numberings, fault plan -- and returns keyword arguments for
:func:`repro.sim.runner.run_consensus`, so examples, tests and
benchmarks share one vocabulary of scenarios:

- :func:`build_dac_execution` -- DAC at its feasibility boundary:
  ``n >= 2f + 1`` crash-faulty nodes under an enforcing
  ``(T, floor(n/2))`` worst-case adversary;
- :func:`build_dbac_execution` -- DBAC at its boundary:
  ``n >= 5f + 1`` with equivocating Byzantine nodes under an enforcing
  ``(T, floor((n+3f)/2))`` adversary;
- :func:`theorem9_split_execution` -- the Theorem 9 necessity
  construction (two silent halves);
- :func:`theorem10_split_execution` -- the Theorem 10 necessity
  construction (overlapping groups, two-faced Byzantine core).
"""

from __future__ import annotations

from typing import Any

from repro.adversary.constrained import (
    LastMinuteQuorumAdversary,
    RotatingQuorumAdversary,
)
from repro.adversary.split import (
    IsolateThenConnectAdversary,
    ReceiveSetsAdversary,
    SplitGroupsAdversary,
    halves_partition,
    theorem10_groups,
)
from repro.core.baselines import IteratedMidpointProcess, TrimmedMeanProcess
from repro.core.dac import DACProcess
from repro.core.dbac import DBACProcess
from repro.core.phases import dac_end_phase, rounds_upper_bound
from repro.faults.base import FaultPlan
from repro.faults.byzantine import (
    ByzantineStrategy,
    ExtremeByzantine,
    FixedValueByzantine,
    PhaseLiarByzantine,
    RandomByzantine,
    TwoFacedByzantine,
)
from repro.faults.crash import staggered_crashes
from repro.net.ports import random_ports
from repro.scenario.registry import (
    AlgorithmFamily,
    ParamSpec,
    declare_adversary,
    declare_faults,
    declare_network,
    register_algorithm,
)
from repro.sim.arena import empty_arena_plan
from repro.sim.rng import child_rng, spawn_inputs


def dac_degree(n: int) -> int:
    """The DAC sufficiency threshold ``D = floor(n/2)``."""
    return n // 2


def dbac_degree(n: int, f: int) -> int:
    """The DBAC sufficiency threshold ``D = floor((n+3f)/2)``."""
    return (n + 3 * f) // 2


def _quorum_adversary(window: int, degree: int, selector: str):
    if window == 1:
        return RotatingQuorumAdversary(degree, selector=selector)
    return LastMinuteQuorumAdversary(window, degree, selector=selector)


def build_dac_execution(
    n: int,
    f: int,
    epsilon: float = 1e-3,
    seed: int = 0,
    window: int = 1,
    selector: str = "rotate",
    crash_nodes: int | None = None,
    crash_start: int = 1,
    enable_jump: bool = True,
    stop_mode: str = "output",
    max_rounds: int | None = None,
) -> dict[str, Any]:
    """DAC under the enforcing ``(window, floor(n/2))`` adversary.

    ``crash_nodes`` (default: ``f``) of the highest-numbered nodes
    crash cleanly, staggered one per window starting at
    ``crash_start``. Inputs are uniform on [0, 1] from ``seed``.
    Returns kwargs for :func:`repro.sim.runner.run_consensus`.
    """
    if n < 2 * f + 1:
        raise ValueError(f"DAC needs n >= 2f+1, got n={n}, f={f}")
    num_crashes = f if crash_nodes is None else crash_nodes
    if num_crashes > f:
        raise ValueError(f"cannot crash {num_crashes} nodes with fault bound f={f}")
    inputs = spawn_inputs(seed, n)
    ports = random_ports(n, child_rng(seed, "ports"))
    crashes = staggered_crashes(
        range(n - num_crashes, n), first_round=crash_start, spacing=window
    )
    plan = FaultPlan(n, crashes=crashes)
    processes = {
        node: DACProcess(
            n,
            f,
            inputs[node],
            ports.self_port(node),
            epsilon=epsilon,
            enable_jump=enable_jump,
        )
        for node in plan.non_byzantine
    }
    bound = rounds_upper_bound(window, dac_end_phase(epsilon))
    return {
        "processes": processes,
        "adversary": _quorum_adversary(window, dac_degree(n), selector),
        "ports": ports,
        "epsilon": epsilon,
        "f": f,
        "fault_plan": plan,
        "stop_mode": stop_mode,
        "max_rounds": max_rounds if max_rounds is not None else max(64, 4 * bound + 8 * window),
        "seed": seed,
    }


def build_dbac_execution(
    n: int,
    f: int,
    epsilon: float = 1e-3,
    seed: int = 0,
    window: int = 1,
    selector: str = "nearest",
    byzantine_factory=None,
    end_phase: int | None = None,
    stop_mode: str = "oracle",
    max_rounds: int = 50_000,
) -> dict[str, Any]:
    """DBAC under the enforcing ``(window, floor((n+3f)/2))`` adversary.

    The ``f`` highest-numbered nodes are Byzantine
    (:class:`~repro.faults.byzantine.ExtremeByzantine` equivocators by
    default; pass ``byzantine_factory=lambda node: strategy`` to vary).
    Default stopping is oracle mode -- Equation 6's ``p_end`` is
    astronomically conservative (see DESIGN.md) -- pass ``end_phase``
    plus ``stop_mode="output"`` for algorithm-local termination.
    """
    if n < 5 * f + 1:
        raise ValueError(f"DBAC needs n >= 5f+1, got n={n}, f={f}")
    inputs = spawn_inputs(seed, n)
    ports = random_ports(n, child_rng(seed, "ports"))
    byz: dict[int, ByzantineStrategy] = {}
    for node in range(n - f, n):
        byz[node] = byzantine_factory(node) if byzantine_factory else ExtremeByzantine()
    plan = FaultPlan(n, byzantine=byz)
    processes = {
        node: DBACProcess(
            n,
            f,
            inputs[node],
            ports.self_port(node),
            epsilon=epsilon,
            end_phase=end_phase,
        )
        for node in plan.non_byzantine
    }
    return {
        "processes": processes,
        "adversary": _quorum_adversary(window, dbac_degree(n, f), selector),
        "ports": ports,
        "epsilon": epsilon,
        "f": f,
        "fault_plan": plan,
        "stop_mode": stop_mode,
        "max_rounds": max_rounds,
        "seed": seed,
    }


def theorem9_split_execution(
    n: int,
    epsilon: float = 1e-3,
    seed: int = 0,
    eager_quorum: bool = True,
    max_rounds: int = 400,
) -> dict[str, Any]:
    """The Theorem 9 construction: two silent halves, inputs 0 vs 1.

    The adversary keeps the two halves internally complete and mutually
    silent -- a ``(1, floor(n/2) - 1)``-dynaDegree trace, one short of
    DAC's requirement. With ``eager_quorum=True`` the processes run the
    proof's hypothetical algorithm (quorum lowered to ``floor(n/2)``,
    which *does* terminate at this degree): both halves decide, 0 vs 1,
    violating epsilon-agreement. With ``eager_quorum=False`` plain DAC
    runs and simply never terminates (the other horn of the dilemma).
    """
    if n < 4:
        raise ValueError(f"need n >= 4 for a meaningful split, got {n}")
    group_a, group_b = halves_partition(n)
    ports = random_ports(n, child_rng(seed, "ports"))
    quorum = (n // 2) if eager_quorum else None
    processes = {
        node: DACProcess(
            n,
            0,
            0.0 if node in group_a else 1.0,
            ports.self_port(node),
            epsilon=epsilon,
            quorum_override=quorum,
        )
        for node in range(n)
    }
    return {
        "processes": processes,
        "adversary": SplitGroupsAdversary([group_a, group_b]),
        "ports": ports,
        "epsilon": epsilon,
        "f": 0,
        "fault_plan": FaultPlan.fault_free_plan(n),
        "stop_mode": "output",
        "max_rounds": max_rounds,
        "seed": seed,
    }


def theorem10_split_execution(
    f: int,
    n: int | None = None,
    epsilon: float = 1e-3,
    seed: int = 0,
    end_phase: int = 12,
    eager_quorum: bool = True,
    max_rounds: int = 2_000,
) -> dict[str, Any]:
    """The Theorem 10 construction: overlapping groups, two-faced core.

    Group A (size ``D = floor((n+3f)/2)``) and group B overlap in
    ``3f`` middle nodes; the central ``f`` are Byzantine and run the
    honest algorithm twice -- facing A as an honest node with input 0,
    facing B as one with input 1. The adversary pins every honest
    node's *listening set* inside one group (input-0 overlap nodes
    listen to A, input-1 ones to B), producing a
    ``(1, D - 1)``-dynaDegree trace -- one short of DBAC's requirement.

    With ``eager_quorum=True`` the processes run the proof's
    hypothetical algorithm (quorum lowered to ``D``, the most any
    algorithm can wait for at this degree): both sides terminate,
    A-listeners deciding near 0 and B-listeners near 1 --
    epsilon-agreement violated. With ``eager_quorum=False`` plain DBAC
    runs and its A-side never reaches quorum -- termination violated.
    """
    if f < 1:
        raise ValueError(f"Theorem 10 scenario needs f >= 1, got {f}")
    size = (5 * f + 1) if n is None else n
    group_a, group_b, byz_nodes = theorem10_groups(size, f)
    ports = random_ports(size, child_rng(seed, "ports"))

    # Inputs per the proof: 0 below the Byzantine band, 1 above it.
    low_end = (size - f) // 2  # nodes 0 .. low_end-1 have input 0
    high_start = (size + f) // 2  # nodes high_start .. size-1 have input 1
    degree = (size + 3 * f) // 2
    quorum = degree if eager_quorum else None

    # Honest listening assignment: input-0 nodes hear group A, input-1
    # nodes hear group B; the Byzantine band (omitted) hears everyone.
    receive_sets: dict[int, frozenset[int]] = {}
    for node in range(size):
        if node in byz_nodes:
            continue
        receive_sets[node] = group_a if node < low_end else group_b

    def dbac_factory(n_: int, f_: int, input_value: float, self_port: int) -> DBACProcess:
        return DBACProcess(
            n_,
            f_,
            input_value,
            self_port,
            epsilon=epsilon,
            end_phase=end_phase,
            quorum_override=quorum,
        )

    listeners_a = frozenset(v for v in receive_sets if receive_sets[v] is group_a)
    listeners_b = frozenset(v for v in receive_sets if receive_sets[v] is group_b)
    byz = {
        node: TwoFacedByzantine(
            dbac_factory,
            group_a,
            group_b,
            input_a=0.0,
            input_b=1.0,
            listeners_a=listeners_a,
            listeners_b=listeners_b,
        )
        for node in byz_nodes
    }
    plan = FaultPlan(size, byzantine=byz)
    processes = {
        node: dbac_factory(
            size,
            f,
            0.0 if node < high_start else 1.0,
            ports.self_port(node),
        )
        for node in plan.non_byzantine
    }
    return {
        "processes": processes,
        "adversary": ReceiveSetsAdversary(receive_sets),
        "ports": ports,
        "epsilon": epsilon,
        "f": f,
        "fault_plan": plan,
        "stop_mode": "output",
        "max_rounds": max_rounds,
        "seed": seed,
    }


def theorem9_part2_execution(
    n: int,
    epsilon: float = 1e-3,
    seed: int = 0,
    isolation_rounds: int = 32,
    max_rounds: int = 200,
) -> dict[str, Any]:
    """Theorem 9, second construction: ``n <= 2f`` beats any finite ``T``.

    With ``n = 2f`` an algorithm must be able to decide after
    communicating with only ``f`` nodes (all others may have crashed),
    i.e. quorum ``n/2``. The adversary isolates the two halves just
    long enough for that decision (``isolation_rounds`` rounds covers
    the eager algorithm's ``p_end`` phases) and then restores the
    complete graph forever. The resulting trace satisfies
    ``(isolation_rounds + 1, n - 1)``-dynaDegree -- maximal stability
    for a window the algorithm cannot know -- yet outputs are 0 vs 1.
    """
    if n < 4 or n % 2 != 0:
        raise ValueError(f"need even n >= 4 (n = 2f construction), got {n}")
    f = n // 2
    group_a, group_b = halves_partition(n)
    ports = random_ports(n, child_rng(seed, "ports"))
    processes = {
        node: DACProcess(
            n,
            f,
            0.0 if node in group_a else 1.0,
            ports.self_port(node),
            epsilon=epsilon,
            quorum_override=n // 2,
        )
        for node in range(n)
    }
    return {
        "processes": processes,
        "adversary": IsolateThenConnectAdversary([group_a, group_b], isolation_rounds),
        "ports": ports,
        "epsilon": epsilon,
        "f": f,
        "fault_plan": FaultPlan.fault_free_plan(n),
        "stop_mode": "output",
        "max_rounds": max_rounds,
        "seed": seed,
    }


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


def run_dac_trial(
    n: int,
    f: int | None = None,
    epsilon: float = 1e-3,
    window: int = 1,
    selector: str = "rotate",
    crash_nodes: int | None = None,
    crash_start: int = 1,
    max_rounds: int | None = None,
    seed: int = 0,
    fast: bool = True,
    observe: bool = False,
) -> dict[str, Any]:
    """One boundary DAC execution reduced to a small, picklable summary.

    The module-level trial function for parallel sweeps
    (:mod:`repro.sim.parallel` requires picklable callables): builds
    the standard ``n >= 2f + 1`` execution, runs it -- untraced and
    without phase bookkeeping by default, so the engine takes its fast
    path -- and returns plain scalars that ship cheaply between
    processes. ``f`` defaults to the boundary ``(n - 1) // 2``;
    ``crash_nodes``/``crash_start``/``max_rounds`` pass through to
    :func:`build_dac_execution` (defaults: crash ``f`` nodes from
    round 1, bound-derived cap). ``observe=True`` adds a
    ``"metrics"`` key: the per-round delivery/liveness aggregate from
    an attached observer bus (see :func:`_observer_hooks`).

    Deterministic in ``seed``: the same call always returns the same
    summary, on any worker schedule and at any batch size (the
    ``batch_fn`` attribute carries the batched form the parallel layer
    dispatches under ``batch=B``).

    >>> summary = run_dac_trial(n=5, seed=0)
    >>> sorted(summary)
    ['correct', 'rounds', 'spread', 'terminated']
    >>> summary["correct"] and summary["terminated"]
    True
    >>> run_dac_trial.batch_fn(n=5, seeds=[0]) == [summary]
    True
    """
    from repro.sim.runner import run_consensus  # local import: runner is heavy

    if f is None:
        f = (n - 1) // 2
    hooks, finish = _observer_hooks(observe)
    report = run_consensus(
        **build_dac_execution(
            n=n,
            f=f,
            epsilon=epsilon,
            seed=seed,
            window=window,
            selector=selector,
            crash_nodes=crash_nodes,
            crash_start=crash_start,
            max_rounds=max_rounds,
        ),
        record_trace=not fast,
        verify_promise=not fast,
        track_phases=not fast,
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


def _lane_summary(lane, epsilon: float) -> dict[str, Any]:
    """The ``run_*_trial`` summary dict for one batch lane.

    Re-derives the runner's verdicts (spread, epsilon-agreement,
    validity) from the lane's outputs and inputs with the runner's own
    arithmetic and float slack, so batched and serial summaries are
    equal value for value. Works for every lane family because
    :class:`repro.sim.batch.LaneResult.outputs` already carries the
    stop-mode-appropriate outputs (decided values for ``"output"``
    stopping, fault-free states for ``"oracle"``), exactly as
    :func:`repro.sim.runner.run_consensus` reports them.
    """
    from repro.sim.runner import _FLOAT_SLACK

    outputs = lane.outputs
    spread = 0.0
    if outputs:
        spread = max(outputs.values()) - min(outputs.values())
    eps_agreement = not outputs or spread <= epsilon + _FLOAT_SLACK
    hull_lo = min(lane.inputs.values())
    hull_hi = max(lane.inputs.values())
    validity = all(
        hull_lo - _FLOAT_SLACK <= value <= hull_hi + _FLOAT_SLACK
        for value in outputs.values()
    )
    return {
        "rounds": lane.rounds,
        "spread": spread,
        "terminated": lane.stopped,
        "correct": lane.stopped and validity and eps_agreement,
    }


def run_dac_trial_batch(
    n: int,
    f: int | None = None,
    epsilon: float = 1e-3,
    window: int = 1,
    selector: str = "rotate",
    crash_nodes: int | None = None,
    crash_start: int = 1,
    max_rounds: int | None = None,
    fast: bool = True,
    observe: bool = False,
    seeds: Any = (),
) -> list[dict[str, Any]]:
    """Batched :func:`run_dac_trial`: one summary per seed, in order.

    The batched-trial form the parallel layer dispatches (attached
    below as ``run_dac_trial.batch_fn``): returns exactly
    ``[run_dac_trial(..., seed=s) for s in seeds]``, computed by one
    vectorized :class:`repro.sim.batch.BatchEngine` pass when
    :func:`~repro.sim.batch.dac_kernel_refusal` accepts the selector.
    Everything else -- no numpy, a selector the kernel does not model,
    the non-fast and observed paths that record per-trial engine
    snapshots, and a single seed, where one serial trial beats a
    one-lane kernel pass -- runs the serial trial once per seed.
    """
    from repro.sim.batch import BatchEngine, dac_kernel_refusal

    seeds = [int(seed) for seed in seeds]
    if f is None:
        f = (n - 1) // 2
    if not fast or observe or len(seeds) == 1 or dac_kernel_refusal(selector):
        return [
            run_dac_trial(
                n=n,
                f=f,
                epsilon=epsilon,
                window=window,
                selector=selector,
                crash_nodes=crash_nodes,
                crash_start=crash_start,
                max_rounds=max_rounds,
                seed=seed,
                fast=fast,
                observe=observe,
            )
            for seed in seeds
        ]
    lanes = BatchEngine(
        n,
        f,
        seeds,
        epsilon=epsilon,
        window=window,
        selector=selector,
        crash_nodes=crash_nodes,
        crash_start=crash_start,
        max_rounds=max_rounds,
    ).run()
    return [_lane_summary(lane, epsilon) for lane in lanes]


run_dac_trial.batch_fn = run_dac_trial_batch  # type: ignore[attr-defined]


# Mobile-omission targeting modes accepted by run_byz_trial's
# ``adversary`` parameter as "mobile-<mode>" -- the adversary module's
# canonical tuple, so a new mode needs exactly one edit.
from repro.adversary.mobile import MOBILE_MODES as _MOBILE_MODES  # noqa: E402


# Byzantine strategy menu shared by the DBAC trial and the CLIs. Plain
# factories keyed by name keep the trial function picklable (the name,
# not the strategy object, travels to worker processes).
TRIAL_BYZANTINE_STRATEGIES: dict[str, Any] = {
    "extreme": ExtremeByzantine,
    "random": RandomByzantine,
    "phase-liar": lambda: PhaseLiarByzantine(value=1.0, phase_lead=500),
    "pin-high": lambda: FixedValueByzantine(1.0),
    "pin-low": lambda: FixedValueByzantine(0.0),
}


def run_dbac_trial(
    n: int,
    f: int | None = None,
    epsilon: float = 1e-3,
    window: int = 1,
    selector: str = "nearest",
    strategy: str = "extreme",
    stop_mode: str = "oracle",
    max_rounds: int = 50_000,
    seed: int = 0,
    fast: bool = True,
    observe: bool = False,
) -> dict[str, Any]:
    """One boundary DBAC execution reduced to a picklable summary.

    The DBAC counterpart of :func:`run_dac_trial` for parallel
    comparative grids: ``f`` defaults to the boundary ``(n - 1) // 5``,
    the ``f`` highest nodes run the named Byzantine ``strategy`` (see
    ``TRIAL_BYZANTINE_STRATEGIES``), and stopping defaults to oracle
    mode like :func:`build_dbac_execution` (Equation 6's ``p_end`` is
    astronomically conservative) -- ``rounds`` then measures how long
    the adversary can hold the honest spread above ``epsilon``.

    Deterministic in ``seed`` with the same batch_fn contract as
    :func:`run_dac_trial`; under ``batch=B`` vectorizable lanes advance
    through the :class:`repro.sim.batch.ByzBatchEngine` kernel.

    >>> summary = run_dbac_trial(n=6, seed=1)
    >>> summary["terminated"]
    True
    >>> run_dbac_trial.batch_fn(n=6, seeds=[1]) == [summary]
    True
    """
    from repro.sim.runner import run_consensus  # local import: runner is heavy

    if f is None:
        f = (n - 1) // 5
    if strategy not in TRIAL_BYZANTINE_STRATEGIES:
        raise ValueError(
            f"unknown strategy {strategy!r}; "
            f"known: {sorted(TRIAL_BYZANTINE_STRATEGIES)}"
        )
    factory = TRIAL_BYZANTINE_STRATEGIES[strategy]
    hooks, finish = _observer_hooks(observe)
    report = run_consensus(
        **build_dbac_execution(
            n=n,
            f=f,
            epsilon=epsilon,
            seed=seed,
            window=window,
            selector=selector,
            byzantine_factory=lambda node: factory(),
            stop_mode=stop_mode,
            max_rounds=max_rounds,
        ),
        record_trace=not fast,
        verify_promise=not fast,
        track_phases=not fast,
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


def run_dbac_trial_batch(
    n: int,
    f: int | None = None,
    epsilon: float = 1e-3,
    window: int = 1,
    selector: str = "nearest",
    strategy: str = "extreme",
    stop_mode: str = "oracle",
    max_rounds: int = 50_000,
    fast: bool = True,
    observe: bool = False,
    seeds: Any = (),
) -> list[dict[str, Any]]:
    """Batched :func:`run_dbac_trial`: one summary per seed, in order.

    The batched-trial form the parallel layer dispatches (attached
    below as ``run_dbac_trial.batch_fn``): returns exactly
    ``[run_dbac_trial(..., seed=s) for s in seeds]``, computed by one
    vectorized :class:`repro.sim.batch.ByzBatchEngine` pass (witness
    counters, trimmed updates, stable-argsort ``nearest`` selection)
    when :func:`~repro.sim.batch.byz_kernel_refusal` accepts the
    selector/strategy pair, and by the serial trial once per seed
    otherwise -- as for the non-fast and observed paths, whose
    per-trial traces batching cannot amortize, and for a single seed.
    """
    from repro.sim.batch import ByzBatchEngine, byz_kernel_refusal

    seeds = [int(seed) for seed in seeds]
    if not fast or observe or len(seeds) == 1 or byz_kernel_refusal(
        "quorum", selector, strategy
    ):
        return [
            run_dbac_trial(
                n=n,
                f=f,
                epsilon=epsilon,
                window=window,
                selector=selector,
                strategy=strategy,
                stop_mode=stop_mode,
                max_rounds=max_rounds,
                seed=seed,
                fast=fast,
                observe=observe,
            )
            for seed in seeds
        ]
    lanes = ByzBatchEngine(
        n,
        f,
        seeds,
        epsilon=epsilon,
        window=window,
        selector=selector,
        strategy=strategy,
        stop_mode=stop_mode,
        max_rounds=max_rounds,
    ).run()
    return [_lane_summary(lane, epsilon) for lane in lanes]


run_dbac_trial.batch_fn = run_dbac_trial_batch  # type: ignore[attr-defined]


def build_mobile_execution(
    n: int,
    mode: str = "block_min",
    epsilon: float = 1e-3,
    seed: int = 0,
    stop_mode: str = "oracle",
    max_rounds: int = 50_000,
) -> dict[str, Any]:
    """Fault-free DAC under the Gafni-Losa mobile-omission power.

    The Corollary 1 scenario: every node runs DAC with ``f = 0`` on
    the complete graph, but each receiver loses at most one incoming
    link per round, targeted by ``mode`` (one of
    :data:`repro.adversary.mobile.MOBILE_MODES`). Default stopping is
    oracle mode -- ``rounds`` then measures how long the adversary
    holds the spread above ``epsilon``. Returns kwargs for
    :func:`repro.sim.runner.run_consensus`.
    """
    from repro.adversary.mobile import MobileOmissionAdversary

    if mode not in _MOBILE_MODES:
        raise ValueError(f"unknown mobile mode {mode!r}; known: {_MOBILE_MODES}")
    inputs = spawn_inputs(seed, n)
    ports = random_ports(n, child_rng(seed, "ports"))
    processes = {
        node: DACProcess(n, 0, inputs[node], ports.self_port(node), epsilon=epsilon)
        for node in range(n)
    }
    return {
        "processes": processes,
        "adversary": MobileOmissionAdversary(mode),
        "ports": ports,
        "epsilon": epsilon,
        "f": 0,
        "fault_plan": FaultPlan.fault_free_plan(n),
        "stop_mode": stop_mode,
        "max_rounds": max_rounds,
        "seed": seed,
    }


def run_byz_trial(
    n: int,
    f: int | None = None,
    epsilon: float = 1e-3,
    window: int = 1,
    selector: str = "nearest",
    strategy: str = "extreme",
    adversary: str = "quorum",
    stop_mode: str = "oracle",
    max_rounds: int = 50_000,
    seed: int = 0,
    fast: bool = True,
    observe: bool = False,
) -> dict[str, Any]:
    """One Byzantine-or-mobile fault-model execution, as a picklable summary.

    The comparative fault-model trial for parallel grids: sweeping
    ``adversary`` (and ``strategy``) through
    :class:`~repro.bench.sweep.Sweep` compares the paper's fault models
    on equal seed/input/port footing, with every cell a module-level
    picklable call that fans out under ``workers=N`` and groups under
    ``--batch``.

    - ``adversary="quorum"`` -- boundary DBAC under the enforcing
      ``(window, floor((n+3f)/2))`` adversary with the ``f``
      highest-numbered nodes running the named Byzantine ``strategy``
      (see ``TRIAL_BYZANTINE_STRATEGIES``); exactly
      :func:`run_dbac_trial`.
    - ``adversary="mobile-<mode>"`` -- the Gafni-Losa mobile-omission
      power (Corollary 1): fault-free DAC on the complete graph where
      each node loses at most one incoming link per round, targeted by
      ``<mode>`` (one of ``block_min``, ``block_max``, ``rotate``,
      ``none``). ``strategy``/``window``/``selector`` are ignored;
      ``f`` must be 0 (default).

    Deterministic in ``seed``; both families batch through the
    attached ``batch_fn`` (one summary per seed, in seed order, equal
    to the per-trial calls), vectorized by
    :class:`repro.sim.batch.ByzBatchEngine` where it applies.

    >>> summary = run_byz_trial(n=6, adversary="mobile-none", seed=0)
    >>> summary["correct"]
    True
    >>> run_byz_trial.batch_fn(n=6, adversary="mobile-none", seeds=[0]) == [summary]
    True
    """
    from repro.sim.runner import run_consensus  # local import: runner is heavy

    if adversary == "quorum":
        return run_dbac_trial(
            n=n,
            f=f,
            epsilon=epsilon,
            window=window,
            selector=selector,
            strategy=strategy,
            stop_mode=stop_mode,
            max_rounds=max_rounds,
            seed=seed,
            fast=fast,
            observe=observe,
        )
    if not adversary.startswith("mobile-"):
        raise ValueError(
            f"unknown adversary {adversary!r}; use 'quorum' or "
            f"'mobile-<mode>' with mode in {_MOBILE_MODES}"
        )
    mode = adversary[len("mobile-") :]
    if f not in (None, 0):
        raise ValueError(f"mobile-omission trials are fault-free, got f={f}")
    hooks, finish = _observer_hooks(observe)
    report = run_consensus(
        **build_mobile_execution(
            n=n,
            mode=mode,
            epsilon=epsilon,
            seed=seed,
            stop_mode=stop_mode,
            max_rounds=max_rounds,
        ),
        record_trace=not fast,
        verify_promise=not fast,
        track_phases=not fast,
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


def run_byz_trial_batch(
    n: int,
    f: int | None = None,
    epsilon: float = 1e-3,
    window: int = 1,
    selector: str = "nearest",
    strategy: str = "extreme",
    adversary: str = "quorum",
    stop_mode: str = "oracle",
    max_rounds: int = 50_000,
    fast: bool = True,
    observe: bool = False,
    seeds: Any = (),
) -> list[dict[str, Any]]:
    """Batched :func:`run_byz_trial`: one summary per seed, in order.

    Attached as ``run_byz_trial.batch_fn`` and dispatched by the
    parallel layer, so fault-model comparison grids batch too: both the
    ``"quorum"`` (DBAC) and ``"mobile-<mode>"`` lane families run
    through one vectorized :class:`repro.sim.batch.ByzBatchEngine`
    pass when :func:`~repro.sim.batch.byz_kernel_refusal` accepts the
    parameters; a missing numpy, the non-fast and observed paths and a
    single seed run the serial trial per seed like
    :func:`run_dbac_trial_batch` does.
    """
    from repro.sim.batch import ByzBatchEngine, byz_kernel_refusal

    seeds = [int(seed) for seed in seeds]
    if not fast or observe or len(seeds) == 1 or byz_kernel_refusal(
        adversary, selector, strategy
    ):
        return [
            run_byz_trial(
                n=n,
                f=f,
                epsilon=epsilon,
                window=window,
                selector=selector,
                strategy=strategy,
                adversary=adversary,
                stop_mode=stop_mode,
                max_rounds=max_rounds,
                seed=seed,
                fast=fast,
                observe=observe,
            )
            for seed in seeds
        ]
    lanes = ByzBatchEngine(
        n,
        f,
        seeds,
        epsilon=epsilon,
        window=window,
        selector=selector,
        strategy=strategy,
        adversary=adversary,
        stop_mode=stop_mode,
        max_rounds=max_rounds,
    ).run()
    return [_lane_summary(lane, epsilon) for lane in lanes]


run_byz_trial.batch_fn = run_byz_trial_batch  # type: ignore[attr-defined]


_BASELINE_PROCESSES = {
    "midpoint": IteratedMidpointProcess,
    "trimmed": TrimmedMeanProcess,
}


def build_baseline_execution(
    n: int,
    algorithm: str = "midpoint",
    f: int = 0,
    epsilon: float = 1e-3,
    seed: int = 0,
    window: int = 1,
    selector: str = "rotate",
    num_rounds: int | None = None,
) -> dict[str, Any]:
    """An averaging baseline under DAC's boundary adversary.

    The reliable-channel iterated-averaging baselines (``"midpoint"``
    or trim-``f`` ``"trimmed"``) against the enforcing
    ``(window, floor(n/2))`` adversary and the same input/port streams
    as :func:`build_dac_execution`. ``num_rounds`` defaults to DAC's
    ``p_end``; the cap adds a window of slack because the baselines
    advance one round per delivery batch. Returns kwargs for
    :func:`repro.sim.runner.run_consensus`.
    """
    if algorithm not in _BASELINE_PROCESSES:
        raise ValueError(
            f"unknown algorithm {algorithm!r}; known: {sorted(_BASELINE_PROCESSES)}"
        )
    if num_rounds is None:
        num_rounds = dac_end_phase(epsilon)
    inputs = spawn_inputs(seed, n)
    ports = random_ports(n, child_rng(seed, "ports"))
    process_type = _BASELINE_PROCESSES[algorithm]
    processes = {
        node: process_type(
            n, f, inputs[node], ports.self_port(node), num_rounds=num_rounds
        )
        for node in range(n)
    }
    return {
        "processes": processes,
        "adversary": _quorum_adversary(window, dac_degree(n), selector),
        "ports": ports,
        "epsilon": epsilon,
        "f": f,
        "fault_plan": FaultPlan.fault_free_plan(n),
        "stop_mode": "output",
        "max_rounds": num_rounds + 2 * window,
        "seed": seed,
    }


def run_baseline_trial(
    n: int,
    algorithm: str = "midpoint",
    f: int = 0,
    epsilon: float = 1e-3,
    window: int = 1,
    selector: str = "rotate",
    num_rounds: int | None = None,
    seed: int = 0,
    fast: bool = True,
    observe: bool = False,
) -> dict[str, Any]:
    """One averaging-baseline execution under DAC's boundary adversary.

    Runs a Charron-Bost-style reliable-channel iterated-averaging
    baseline (``"midpoint"`` -- Dolev et al. iterated midpoint -- or
    ``"trimmed"`` -- trim-``f`` mean) against the same enforcing
    ``(window, floor(n/2))`` adversary and input/port streams as
    :func:`run_dac_trial`, so comparative DAC-vs-baseline grids sweep
    both through :class:`repro.bench.sweep.Sweep` on equal footing.
    ``num_rounds`` defaults to DAC's ``p_end`` (the baselines complete
    one phase per round on reliable graphs, making the round budgets
    comparable).

    Deterministic in ``seed`` with the same batch_fn contract as
    :func:`run_dac_trial`; under ``batch=B`` vectorizable lanes advance
    through the :class:`repro.sim.batch.BaselineBatchEngine` kernel
    (two floats of per-node state, fixed round budget).

    >>> summary = run_baseline_trial(n=6, algorithm="midpoint", seed=0)
    >>> summary["terminated"]
    True
    >>> run_baseline_trial.batch_fn(n=6, algorithm="midpoint", seeds=[0]) == [summary]
    True
    """
    from repro.sim.runner import run_consensus  # local import: runner is heavy

    hooks, finish = _observer_hooks(observe)
    report = run_consensus(
        **build_baseline_execution(
            n=n,
            algorithm=algorithm,
            f=f,
            epsilon=epsilon,
            seed=seed,
            window=window,
            selector=selector,
            num_rounds=num_rounds,
        ),
        record_trace=not fast,
        verify_promise=not fast,
        track_phases=not fast,
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


def run_baseline_trial_batch(
    n: int,
    algorithm: str = "midpoint",
    f: int = 0,
    epsilon: float = 1e-3,
    window: int = 1,
    selector: str = "rotate",
    num_rounds: int | None = None,
    fast: bool = True,
    observe: bool = False,
    seeds: Any = (),
) -> list[dict[str, Any]]:
    """Batched :func:`run_baseline_trial`: one summary per seed, in order.

    The batched-trial form the parallel layer dispatches (attached
    below as ``run_baseline_trial.batch_fn``): returns exactly
    ``[run_baseline_trial(..., seed=s) for s in seeds]``, computed by
    one :class:`repro.sim.batch.BaselineBatchEngine` pass -- a
    fixed-budget vectorized value iteration -- when
    :func:`~repro.sim.batch.baseline_kernel_refusal` accepts the
    selector, and by the serial trial once per seed otherwise, as for
    the non-fast and observed paths and a single seed.
    """
    from repro.sim.batch import BaselineBatchEngine, baseline_kernel_refusal

    seeds = [int(seed) for seed in seeds]
    if not fast or observe or len(seeds) == 1 or baseline_kernel_refusal(selector):
        return [
            run_baseline_trial(
                n=n,
                algorithm=algorithm,
                f=f,
                epsilon=epsilon,
                window=window,
                selector=selector,
                num_rounds=num_rounds,
                seed=seed,
                fast=fast,
                observe=observe,
            )
            for seed in seeds
        ]
    lanes = BaselineBatchEngine(
        n,
        seeds,
        algorithm=algorithm,
        f=f,
        epsilon=epsilon,
        window=window,
        selector=selector,
        num_rounds=num_rounds,
    ).run()
    return [_lane_summary(lane, epsilon) for lane in lanes]


run_baseline_trial.batch_fn = run_baseline_trial_batch  # type: ignore[attr-defined]


# Compatibility stubs read by perfbench's traced pooled path; see
# repro.sim.arena.empty_arena_plan.
run_dac_trial_batch.arena_plan = empty_arena_plan  # type: ignore[attr-defined]
run_dbac_trial_batch.arena_plan = empty_arena_plan  # type: ignore[attr-defined]
run_byz_trial_batch.arena_plan = empty_arena_plan  # type: ignore[attr-defined]
run_baseline_trial_batch.arena_plan = empty_arena_plan  # type: ignore[attr-defined]


# -- Scenario registry: the built-in component vocabulary ------------------
#
# Declared once, at import time, in this module (the owner of the
# trial vocabulary) -- the registry-registration lint rule pins that
# discipline. Components are parameter namespaces the families'
# ``build`` methods interpret; nothing foreign is constructed here.

declare_network(
    "dynadegree",
    params=(
        ParamSpec("window", "int", default=1),
        ParamSpec(
            "selector", "str", default="rotate",
            choices=("rotate", "nearest", "random"),
        ),
    ),
    description="enforcing (window, D)-dynaDegree quorum graph source",
)
declare_adversary(
    "quorum",
    description="worst-case degree-capped quorum adversary (rotating or "
    "last-minute, per the network window)",
)
declare_adversary(
    "mobile",
    params=(
        ParamSpec("mode", "str", default="block_min", choices=tuple(_MOBILE_MODES)),
    ),
    description="Gafni-Losa mobile omission: one lost in-link per "
    "receiver per round",
)
declare_faults(
    "crash",
    params=(
        ParamSpec("crash_nodes", "int", default=None, nullable=True),
        ParamSpec("crash_start", "int", default=1),
    ),
    description="staggered clean crashes of the highest-numbered nodes",
)
declare_faults(
    "byzantine",
    params=(
        ParamSpec(
            "strategy", "str", default="extreme",
            choices=("extreme", "phase-liar", "pin-high", "pin-low", "random"),
        ),
    ),
    description="the f highest-numbered nodes run a named Byzantine "
    "strategy (TRIAL_BYZANTINE_STRATEGIES)",
)


@register_algorithm("dac", version=1)
class DacFamily(AlgorithmFamily):
    """Boundary DAC: crash faults under the enforcing quorum adversary."""

    params = (
        ParamSpec("n", "int"),
        ParamSpec("f", "int", default=None, nullable=True),
        ParamSpec("epsilon", "float", default=1e-3),
        ParamSpec("max_rounds", "int", default=None, nullable=True),
    )
    components = {
        "network": ("dynadegree",),
        "adversary": ("quorum",),
        "faults": ("crash",),
    }
    conformance = {
        "quorum": ({"n": 5}, {"n": 7, "window": 2}),
    }
    rounds_param = "max_rounds"
    trial = staticmethod(run_dac_trial)

    def normalize(self, params):
        if params.get("f") is None:
            params["f"] = (params["n"] - 1) // 2
        return params

    def build(self, *, seed, **params):
        return build_dac_execution(seed=seed, **params)

    def batch(self, seeds, **params):
        from repro.sim.batch import run_dac_batch

        return run_dac_batch(
            params["n"],
            params["f"],
            seeds,
            epsilon=params["epsilon"],
            window=params["window"],
            selector=params["selector"],
            crash_nodes=params["crash_nodes"],
            crash_start=params["crash_start"],
            max_rounds=params["max_rounds"],
        )

    def vectorizable(self, params):
        from repro.sim.batch import dac_kernel_refusal

        return dac_kernel_refusal(params.get("selector", "rotate")) is None


@register_algorithm("dbac", version=1)
class DbacFamily(AlgorithmFamily):
    """Boundary DBAC: Byzantine equivocators under the quorum adversary."""

    params = (
        ParamSpec("n", "int"),
        ParamSpec("f", "int", default=None, nullable=True),
        ParamSpec("epsilon", "float", default=1e-3),
        ParamSpec("max_rounds", "int", default=50_000),
    )
    components = {
        "network": ("dynadegree",),
        "adversary": ("quorum",),
        "faults": ("byzantine",),
    }
    component_param_defaults = {"network": {"selector": "nearest"}}
    harness_defaults = {"max_rounds": 2_000}
    conformance = {
        "quorum": ({"n": 6}, {"n": 6, "strategy": "pin-high"}),
    }
    rounds_param = "max_rounds"
    trial = staticmethod(run_dbac_trial)

    def normalize(self, params):
        if params.get("f") is None:
            params["f"] = (params["n"] - 1) // 5
        return params

    def build(self, *, seed, **params):
        factory = TRIAL_BYZANTINE_STRATEGIES[params["strategy"]]
        return build_dbac_execution(
            n=params["n"],
            f=params["f"],
            epsilon=params["epsilon"],
            seed=seed,
            window=params["window"],
            selector=params["selector"],
            byzantine_factory=lambda node: factory(),
            max_rounds=params["max_rounds"],
        )

    def batch(self, seeds, **params):
        from repro.sim.batch import run_dbac_batch

        return run_dbac_batch(
            params["n"],
            params["f"],
            seeds,
            epsilon=params["epsilon"],
            window=params["window"],
            selector=params["selector"],
            strategy=params["strategy"],
            max_rounds=params["max_rounds"],
        )

    def vectorizable(self, params):
        from repro.sim.batch import byz_kernel_refusal

        return byz_kernel_refusal(
            "quorum",
            params.get("selector", "nearest"),
            params.get("strategy", "extreme"),
        ) is None


@register_algorithm("byz", version=1)
class ByzFamily(AlgorithmFamily):
    """Fault-free DAC under the mobile-omission power (Corollary 1)."""

    params = (
        ParamSpec("n", "int"),
        ParamSpec("epsilon", "float", default=1e-3),
        ParamSpec("max_rounds", "int", default=50_000),
    )
    components = {"adversary": ("mobile",)}
    harness_defaults = {"max_rounds": 2_000}
    conformance = {
        "mobile": ({"n": 5}, {"n": 4, "mode": "rotate"}),
    }
    rounds_param = "max_rounds"
    trial = staticmethod(run_byz_trial)

    def build(self, *, seed, **params):
        return build_mobile_execution(
            n=params["n"],
            mode=params["mode"],
            epsilon=params["epsilon"],
            seed=seed,
            max_rounds=params["max_rounds"],
        )

    def batch(self, seeds, **params):
        from repro.sim.batch import run_byz_batch

        return run_byz_batch(
            params["n"],
            None,
            seeds,
            epsilon=params["epsilon"],
            adversary=f"mobile-{params['mode']}",
            max_rounds=params["max_rounds"],
        )

    def trial_kwargs(self, params):
        mode = params.pop("mode")
        params["adversary"] = f"mobile-{mode}"
        return params

    def vectorizable(self, params):
        from repro.sim.batch import byz_kernel_refusal

        return byz_kernel_refusal(f"mobile-{params.get('mode', 'block_min')}") is None


@register_algorithm("baseline", version=1)
class BaselineFamily(AlgorithmFamily):
    """Reliable-channel averaging baselines under the quorum adversary."""

    params = (
        ParamSpec("n", "int"),
        ParamSpec(
            "algorithm", "str", default="midpoint",
            choices=("midpoint", "trimmed"),
        ),
        ParamSpec("f", "int", default=0),
        ParamSpec("epsilon", "float", default=1e-3),
        ParamSpec("num_rounds", "int", default=None, nullable=True),
    )
    components = {
        "network": ("dynadegree",),
        "adversary": ("quorum",),
    }
    conformance = {
        "quorum": ({"n": 6}, {"n": 5, "algorithm": "trimmed"}),
    }
    rounds_param = "num_rounds"
    trial = staticmethod(run_baseline_trial)

    def build(self, *, seed, **params):
        return build_baseline_execution(seed=seed, **params)

    def batch(self, seeds, **params):
        from repro.sim.batch import run_baseline_batch

        return run_baseline_batch(
            params["n"],
            seeds,
            algorithm=params["algorithm"],
            f=params["f"],
            epsilon=params["epsilon"],
            window=params["window"],
            selector=params["selector"],
            num_rounds=params["num_rounds"],
        )

    def vectorizable(self, params):
        from repro.sim.batch import baseline_kernel_refusal

        return baseline_kernel_refusal(params.get("selector", "rotate")) is None
