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

The kernel-backed builders (DAC, DBAC, mobile omission, baselines) are
each split in two: a ``*_lane_family`` function derives the
seed-independent :class:`LaneFamily`, and :func:`lane_execution` adds
one seed's inputs, ports and processes. The batch layer in
:mod:`repro.sim.batch` (:func:`~repro.sim.batch.run_lanes`) takes the
family alone; its kernels draw their own per-seed material.

The end of the module registers the ``dac``, ``dbac``, ``byz`` and
``baseline`` algorithm families over these builders (``build`` for one
seed, ``lanes`` for the family); their trials (serial and batched)
come from :func:`repro.scenario.family_trial`.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any

from repro.adversary.constrained import LastMinuteQuorumAdversary
from repro.adversary.mobile import MOBILE_MODES, MobileOmissionAdversary
from repro.adversary.split import (
    IsolateThenConnectAdversary,
    ReceiveSetsAdversary,
    SplitGroupsAdversary,
    halves_partition,
    theorem10_groups,
)
from repro.analysis.guarantees import Guarantees
from repro.core.baselines import IteratedMidpointProcess, TrimmedMeanProcess
from repro.core.dac import DACProcess
from repro.core.dbac import DBACProcess
from repro.core.phases import (
    dac_convergence_rate,
    dac_end_phase,
    dbac_convergence_rate,
    dbac_end_phase,
    rounds_upper_bound,
)
from repro.faults.base import FaultPlan
from repro.faults.byzantine import (
    ByzantineStrategy,
    ExtremeByzantine,
    FixedValueByzantine,
    PhaseLiarByzantine,
    RandomByzantine,
    TwoFacedByzantine,
)
from repro.faults.crash import CrashEvent, staggered_crashes
from repro.net.ports import random_ports
from repro.scenario.registry import (
    AlgorithmFamily,
    Constraint,
    ParamSpec,
    declare_adversary,
    declare_faults,
    declare_network,
    register_algorithm,
)
from repro.sim.rng import child_rng, spawn_inputs


def dac_degree(n: int) -> int:
    """The DAC sufficiency threshold ``D = floor(n/2)``."""
    return n // 2


def dbac_degree(n: int, f: int) -> int:
    """The DBAC sufficiency threshold ``D = floor((n+3f)/2)``."""
    return (n + 3 * f) // 2


@dataclass(frozen=True)
class LaneFamily:
    """The seed-independent half of a kernel-backed execution builder.

    What every execution of one parameter assignment shares: the
    validated parameters, the enforcing adversary's degree (0 for the
    mobile-omission adversary, which has none), its window and sender
    selector as :func:`repro.sim.batch.select_delivered` names it
    (``mobile-<mode>`` for the mobile-omission adversary), the round
    cap, the crash schedule and Byzantine node set, the process class
    (``process_type``, which picks the batch kernel by exact type) and
    its constants (quorum, end phase, trim depth, round budget, jumping,
    averaging rule; ``None`` where the class has none). Built by the
    ``*_lane_family`` functions; :func:`lane_execution` adds one seed's
    inputs, ports and processes, and each ``build_*_execution`` builder
    is exactly that pair. The batch kernels read a family and nothing else, so no kernel
    builds an execution it would throw away.

    The ``make_*`` factories build the per-execution objects: the
    adversary and Byzantine strategies carry per-run state, so every
    execution gets fresh ones, and a family serves any number of seeds.
    """

    n: int
    f: int
    epsilon: float
    stop_mode: str
    max_rounds: int
    degree: int
    window: int
    selector: str
    make_adversary: Callable[[], Any]
    make_process: Callable[[float, int], Any]
    process_type: type
    crashes: Mapping[int, CrashEvent] = field(default_factory=dict)
    byzantine: tuple[int, ...] = ()
    make_strategy: Callable[[int], ByzantineStrategy] | None = None
    quorum: int | None = None
    end_phase: int | None = None
    trim: int | None = None
    num_rounds: int | None = None
    enable_jump: bool | None = None
    rule: str | None = None

    @cached_property  # read once per finished kernel lane
    def fault_free(self) -> tuple[int, ...]:
        """The nodes that never fail, ascending."""
        faulty = set(self.crashes) | set(self.byzantine)
        return tuple(v for v in range(self.n) if v not in faulty)


def lane_family(**fields: Any) -> LaneFamily:
    """The :class:`LaneFamily` of ``fields``, the one every ``*_lane_family`` returns.

    ``process_type`` and the class constants are read off one template process.
    """
    # One template process (input 0 on port 0) and one adversary: their
    # constructors reject what a serial build would reject, and the
    # process carries its class and the seed-independent constants. The
    # stop mode is checked here, as run_consensus checks it, so the batch
    # kernels and the serial fallback reject it alike.
    if fields["stop_mode"] not in ("output", "oracle"):
        raise ValueError(f"unknown stop_mode {fields['stop_mode']!r}")
    template = fields["make_process"](0.0, 0)
    fields["make_adversary"]()
    constants = ("quorum", "end_phase", "trim", "num_rounds", "enable_jump", "rule")
    return LaneFamily(
        **fields,
        process_type=type(template),
        **{name: getattr(template, name, None) for name in constants},
    )


def lane_execution(family: LaneFamily, seed: int) -> dict[str, Any]:
    """The per-seed half of a kernel-backed builder.

    Inputs and ports from the seed's child streams, a fault plan with
    fresh Byzantine strategies, one process per non-Byzantine node and
    a fresh adversary. Returns kwargs for
    :func:`repro.sim.runner.run_consensus`.
    """
    n = family.n
    inputs = spawn_inputs(seed, n)
    ports = random_ports(n, child_rng(seed, "ports"))
    byz = {node: family.make_strategy(node) for node in family.byzantine}
    plan = FaultPlan(n, crashes=family.crashes, byzantine=byz)
    processes = {
        node: family.make_process(inputs[node], ports.self_port(node))
        for node in plan.non_byzantine
    }
    return {
        "processes": processes,
        "adversary": family.make_adversary(),
        "ports": ports,
        "epsilon": family.epsilon,
        "f": family.f,
        "fault_plan": plan,
        "stop_mode": family.stop_mode,
        "max_rounds": family.max_rounds,
        "seed": seed,
    }


def dac_lane_family(
    n: int,
    f: int,
    epsilon: float = 1e-3,
    window: int = 1,
    selector: str = "rotate",
    crash_nodes: int | None = None,
    crash_start: int = 1,
    enable_jump: bool = True,
    stop_mode: str = "output",
    max_rounds: int | None = None,
) -> LaneFamily:
    """The :class:`LaneFamily` of :func:`build_dac_execution`."""
    if n < 2 * f + 1:
        raise ValueError(f"DAC needs n >= 2f+1, got n={n}, f={f}")
    num_crashes = f if crash_nodes is None else crash_nodes
    if num_crashes > f:
        raise ValueError(f"cannot crash {num_crashes} nodes with fault bound f={f}")
    crashes = staggered_crashes(
        range(n - num_crashes, n), first_round=crash_start, spacing=window
    )
    bound = rounds_upper_bound(window, dac_end_phase(epsilon))
    return lane_family(
        n=n,
        f=f,
        epsilon=epsilon,
        stop_mode=stop_mode,
        max_rounds=max_rounds if max_rounds is not None else max(64, 4 * bound + 8 * window),
        degree=dac_degree(n),
        window=window,
        selector=selector,
        make_adversary=lambda: LastMinuteQuorumAdversary(
            window, dac_degree(n), selector=selector
        ),
        make_process=lambda value, port: DACProcess(
            n, f, value, port, epsilon=epsilon, enable_jump=enable_jump
        ),
        crashes=crashes,
    )


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
    family = dac_lane_family(
        n,
        f,
        epsilon=epsilon,
        window=window,
        selector=selector,
        crash_nodes=crash_nodes,
        crash_start=crash_start,
        enable_jump=enable_jump,
        stop_mode=stop_mode,
        max_rounds=max_rounds,
    )
    return lane_execution(family, seed)


def dbac_lane_family(
    n: int,
    f: int,
    epsilon: float = 1e-3,
    window: int = 1,
    selector: str = "nearest",
    byzantine_factory=None,
    end_phase: int | None = None,
    stop_mode: str = "oracle",
    max_rounds: int = 50_000,
) -> LaneFamily:
    """The :class:`LaneFamily` of :func:`build_dbac_execution`."""
    if n < 5 * f + 1:
        raise ValueError(f"DBAC needs n >= 5f+1, got n={n}, f={f}")
    return lane_family(
        n=n,
        f=f,
        epsilon=epsilon,
        stop_mode=stop_mode,
        max_rounds=max_rounds,
        degree=dbac_degree(n, f),
        window=window,
        selector=selector,
        make_adversary=lambda: LastMinuteQuorumAdversary(
            window, dbac_degree(n, f), selector=selector
        ),
        make_process=lambda value, port: DBACProcess(
            n, f, value, port, epsilon=epsilon, end_phase=end_phase
        ),
        byzantine=tuple(range(n - f, n)),
        make_strategy=byzantine_factory or (lambda node: ExtremeByzantine()),
    )


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
    astronomically conservative (14,144 phases at n = 11 and epsilon =
    1e-3, :func:`~repro.core.phases.dbac_end_phase`) -- pass ``end_phase``
    plus ``stop_mode="output"`` for algorithm-local termination.
    """
    family = dbac_lane_family(
        n,
        f,
        epsilon=epsilon,
        window=window,
        selector=selector,
        byzantine_factory=byzantine_factory,
        end_phase=end_phase,
        stop_mode=stop_mode,
        max_rounds=max_rounds,
    )
    return lane_execution(family, seed)


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


# Byzantine strategy menu of the dbac family and the CLIs. Plain
# factories keyed by name keep trials picklable (the name, not the
# strategy object, travels to worker processes).
TRIAL_BYZANTINE_STRATEGIES: dict[str, Any] = {
    "extreme": ExtremeByzantine,
    "random": RandomByzantine,
    "phase-liar": lambda: PhaseLiarByzantine(value=1.0, phase_lead=500),
    "pin-high": lambda: FixedValueByzantine(1.0),
    "pin-low": lambda: FixedValueByzantine(0.0),
}


def mobile_lane_family(
    n: int,
    mode: str = "block_min",
    epsilon: float = 1e-3,
    stop_mode: str = "oracle",
    max_rounds: int = 50_000,
) -> LaneFamily:
    """The :class:`LaneFamily` of :func:`build_mobile_execution`."""
    if mode not in MOBILE_MODES:
        raise ValueError(f"unknown mobile mode {mode!r}; known: {MOBILE_MODES}")
    return lane_family(
        n=n,
        f=0,
        epsilon=epsilon,
        stop_mode=stop_mode,
        max_rounds=max_rounds,
        degree=0,
        window=1,
        selector=f"mobile-{mode}",
        make_adversary=lambda: MobileOmissionAdversary(mode),
        make_process=lambda value, port: DACProcess(n, 0, value, port, epsilon=epsilon),
    )


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
    family = mobile_lane_family(
        n, mode=mode, epsilon=epsilon, stop_mode=stop_mode, max_rounds=max_rounds
    )
    return lane_execution(family, seed)


_BASELINE_PROCESSES = {
    "midpoint": IteratedMidpointProcess,
    "trimmed": TrimmedMeanProcess,
}


def baseline_lane_family(
    n: int,
    algorithm: str = "midpoint",
    f: int = 0,
    epsilon: float = 1e-3,
    window: int = 1,
    selector: str = "rotate",
    num_rounds: int | None = None,
) -> LaneFamily:
    """The :class:`LaneFamily` of :func:`build_baseline_execution`."""
    if algorithm not in _BASELINE_PROCESSES:
        raise ValueError(
            f"unknown algorithm {algorithm!r}; known: {sorted(_BASELINE_PROCESSES)}"
        )
    if num_rounds is None:
        num_rounds = dac_end_phase(epsilon)
    process_type = _BASELINE_PROCESSES[algorithm]
    return lane_family(
        n=n,
        f=f,
        epsilon=epsilon,
        stop_mode="output",
        max_rounds=num_rounds + 2 * window,
        degree=dac_degree(n),
        window=window,
        selector=selector,
        make_adversary=lambda: LastMinuteQuorumAdversary(
            window, dac_degree(n), selector=selector
        ),
        make_process=lambda value, port: process_type(n, f, value, port, num_rounds=num_rounds),
    )


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
    family = baseline_lane_family(
        n,
        algorithm=algorithm,
        f=f,
        epsilon=epsilon,
        window=window,
        selector=selector,
        num_rounds=num_rounds,
    )
    return lane_execution(family, seed)


# -- Scenario registry: the built-in component vocabulary ------------------
#
# Declared once, at import time, in this module (the owner of the
# execution builders) -- the registry-registration lint rule pins that
# discipline. Components are parameter namespaces the families'
# ``build`` methods interpret; nothing foreign is constructed here.

# Declared ceilings of the size-bearing parameters, checked on every
# resolved spec (the CLI's ``spec`` and ``sweep``, the daemon's
# ``POST /jobs``). One default DAC trial peaks near 60 MB of RSS at
# n = 256 and near 600 MB (about 10 s) at n = 1024, on CPython 3.11 and
# one core of a 2-CPU x86-64 box. Every experiment, example, perfbench
# cell and CI spec fits inside them; the builders, called directly,
# take any size.
MAX_N = 256
MAX_ROUNDS = 100_000
MAX_WINDOW = 64

# Preconditions the families share (repro.scenario.registry.Constraint):
# the builders refuse outside them, so resolution refuses first.
EPSILON_POSITIVE = Constraint(
    "algorithm.epsilon", lambda p: p["epsilon"] > 0, "epsilon must be > 0, got {epsilon!r}"
)
F_BELOW_N = Constraint("algorithm.f", lambda p: p["f"] < p["n"], "need f < n, got f={f}, n={n}")
QUORUM_N = Constraint(
    "algorithm.n", lambda p: p["n"] >= 2, "a quorum of degree >= 1 needs n >= 2, got n={n}"
)

declare_network(
    "dynadegree",
    params=(
        ParamSpec("window", "int", default=1, low=1, high=MAX_WINDOW),
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
        ParamSpec("mode", "str", default="block_min", choices=tuple(MOBILE_MODES)),
    ),
    description="Gafni-Losa mobile omission: one lost in-link per "
    "receiver per round",
)
declare_faults(
    "crash",
    params=(
        ParamSpec("crash_nodes", "int", default=None, nullable=True, low=0, high=MAX_N),
        ParamSpec("crash_start", "int", default=1, low=0, high=MAX_ROUNDS),
    ),
    description="staggered clean crashes of the highest-numbered nodes",
)
declare_faults(
    "byzantine",
    params=(
        ParamSpec(
            "strategy", "str", default="extreme", choices=tuple(sorted(TRIAL_BYZANTINE_STRATEGIES))
        ),
    ),
    description="the f highest-numbered nodes run a named Byzantine "
    "strategy (TRIAL_BYZANTINE_STRATEGIES)",
)


@register_algorithm("dac", version=1)
class DacFamily(AlgorithmFamily):
    """Boundary DAC: crash faults under the enforcing quorum adversary."""

    params = (
        ParamSpec("n", "int", low=1, high=MAX_N),
        ParamSpec("f", "int", default=None, nullable=True, low=0, high=MAX_N),
        ParamSpec("epsilon", "float", default=1e-3),
        ParamSpec(
            "max_rounds", "int", default=None, nullable=True, low=0, high=MAX_ROUNDS
        ),
    )
    components = {
        "network": ("dynadegree",),
        "adversary": ("quorum",),
        "faults": ("crash",),
    }
    constraints = (
        EPSILON_POSITIVE,
        Constraint(
            "algorithm.f", lambda p: p["n"] > 2 * p["f"], "DAC needs n >= 2f+1, got n={n}, f={f}"
        ),
        Constraint(
            "faults.crash_nodes",
            lambda p: (p["crash_nodes"] or 0) <= p["f"],
            "cannot crash {crash_nodes} nodes with fault bound f={f}",
        ),
        QUORUM_N,
    )
    conformance = {
        "quorum": ({"n": 5}, {"n": 7, "window": 2}),
    }
    rounds_param = "max_rounds"

    def normalize(self, params):
        if params.get("f") is None:
            params["f"] = (params["n"] - 1) // 2
        return params

    def build(self, *, seed, **params):
        return build_dac_execution(seed=seed, **params)

    def lanes(self, **params):
        return dac_lane_family(**params)

    def guarantees(self, **params):
        return Guarantees(
            dac_convergence_rate(), params["window"], dac_end_phase(params["epsilon"])
        )


def _dbac_params(params):
    """The DBAC builder's keywords: the (validated) strategy name becomes a factory."""
    factory = TRIAL_BYZANTINE_STRATEGIES[params["strategy"]]
    return dict(
        n=params["n"],
        f=params["f"],
        epsilon=params["epsilon"],
        window=params["window"],
        selector=params["selector"],
        byzantine_factory=lambda node: factory(),
        max_rounds=params["max_rounds"],
    )


@register_algorithm("dbac", version=1)
class DbacFamily(AlgorithmFamily):
    """Boundary DBAC: Byzantine equivocators under the quorum adversary."""

    params = (
        ParamSpec("n", "int", low=1, high=MAX_N),
        ParamSpec("f", "int", default=None, nullable=True, low=0, high=MAX_N),
        ParamSpec("epsilon", "float", default=1e-3),
        ParamSpec("max_rounds", "int", default=50_000, low=0, high=MAX_ROUNDS),
    )
    components = {
        "network": ("dynadegree",),
        "adversary": ("quorum",),
        "faults": ("byzantine",),
    }
    component_param_defaults = {"network": {"selector": "nearest"}}
    harness_defaults = {"max_rounds": 2_000}
    constraints = (
        EPSILON_POSITIVE,
        Constraint(
            "algorithm.f", lambda p: p["n"] > 5 * p["f"], "DBAC needs n >= 5f+1, got n={n}, f={f}"
        ),
        QUORUM_N,
    )
    conformance = {
        "quorum": ({"n": 6}, {"n": 6, "strategy": "pin-high"}),
    }
    rounds_param = "max_rounds"

    def normalize(self, params):
        if params.get("f") is None:
            params["f"] = (params["n"] - 1) // 5
        return params

    def build(self, *, seed, **params):
        return build_dbac_execution(seed=seed, **_dbac_params(params))

    def lanes(self, **params):
        return dbac_lane_family(**_dbac_params(params))

    def guarantees(self, **params):
        n = params["n"]
        return Guarantees(
            dbac_convergence_rate(n), params["window"], dbac_end_phase(params["epsilon"], n)
        )


@register_algorithm("byz", version=1)
class ByzFamily(AlgorithmFamily):
    """Fault-free DAC under the mobile-omission power (Corollary 1)."""

    params = (
        ParamSpec("n", "int", low=1, high=MAX_N),
        ParamSpec("epsilon", "float", default=1e-3),
        ParamSpec("max_rounds", "int", default=50_000, low=0, high=MAX_ROUNDS),
    )
    components = {"adversary": ("mobile",)}
    harness_defaults = {"max_rounds": 2_000}
    constraints = (EPSILON_POSITIVE,)
    conformance = {
        "mobile": ({"n": 5}, {"n": 4, "mode": "rotate"}),
    }
    rounds_param = "max_rounds"

    def build(self, *, seed, **params):
        return build_mobile_execution(seed=seed, **params)

    def lanes(self, **params):
        return mobile_lane_family(**params)

    def guarantees(self, **params):
        # Dropping one in-link per node per round leaves (1, n-2)-dynaDegree,
        # at least DAC's (1, floor(n/2)) (Corollary 1) at every n but 2,
        # where it leaves (1, 0) and block_min starves DAC forever.
        if params["n"] == 2:
            return None
        return Guarantees(dac_convergence_rate(), 1, dac_end_phase(params["epsilon"]))


@register_algorithm("baseline", version=1)
class BaselineFamily(AlgorithmFamily):
    """Reliable-channel averaging baselines under the quorum adversary."""

    params = (
        ParamSpec("n", "int", low=1, high=MAX_N),
        ParamSpec(
            "algorithm", "str", default="midpoint",
            choices=("midpoint", "trimmed"),
        ),
        ParamSpec("f", "int", default=0, low=0, high=MAX_N),
        ParamSpec("epsilon", "float", default=1e-3),
        ParamSpec(
            "num_rounds", "int", default=None, nullable=True, low=0, high=MAX_ROUNDS
        ),
    )
    components = {
        "network": ("dynadegree",),
        "adversary": ("quorum",),
    }
    constraints = (EPSILON_POSITIVE, F_BELOW_N, QUORUM_N)
    conformance = {
        "quorum": ({"n": 6}, {"n": 5, "algorithm": "trimmed"}),
    }
    rounds_param = "num_rounds"

    def build(self, *, seed, **params):
        return build_baseline_execution(seed=seed, **params)

    def lanes(self, **params):
        return baseline_lane_family(**params)
