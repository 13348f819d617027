"""repro -- Fault-tolerant consensus in anonymous dynamic networks.

A complete, executable reproduction of *"Fault-tolerant Consensus in
Anonymous Dynamic Network"* (Zhang & Tseng, ICDCS 2024;
arXiv:2405.03017): the synchronous anonymous-network simulation
substrate, the DAC and DBAC algorithms, the ``(T, D)``-dynaDegree
stability property, the message adversaries from the impossibility
proofs, and the measurement harness for every claim in the paper.

Quickstart
----------
>>> from repro import build_dac_execution, run_consensus
>>> execution = build_dac_execution(n=9, f=4, epsilon=1e-3, seed=7)
>>> report = run_consensus(**execution)
>>> report.correct
True

See ``examples/`` for full scenarios and ``benchmarks/`` for the
experiment suite (``python -m repro.bench.cli --list`` prints its index).
"""

from repro.adversary import (
    AlternatingAdversary,
    RootedStarAdversary,
    StableSpanningTreeAdversary,
    EventuallyStableAdversary,
    IsolateThenConnectAdversary,
    LastMinuteQuorumAdversary,
    LookaheadQuorumAdversary,
    MessageAdversary,
    MobileOmissionAdversary,
    PhaseSkewAdversary,
    RandomLinkAdversary,
    ReceiveSetsAdversary,
    ScheduleAdversary,
    SplitGroupsAdversary,
    StaticAdversary,
    figure1_adversary,
)
from repro.analysis import judge_outputs, summarize
from repro.core import (
    AsymptoticAveragingProcess,
    DACProcess,
    DBACProcess,
    FloodMinProcess,
    IteratedMidpointProcess,
    MajorityVoteProcess,
    PiggybackDACProcess,
    TrimmedMeanProcess,
    dac_convergence_rate,
    dac_end_phase,
    dbac_convergence_rate,
    dbac_end_phase,
    rounds_upper_bound,
)
from repro.faults import (
    ByzantineStrategy,
    CrashEvent,
    ExtremeByzantine,
    FaultPlan,
    FixedValueByzantine,
    PhaseLiarByzantine,
    RandomByzantine,
    TwoFacedByzantine,
    staggered_crashes,
)
from repro.mc import BoundedExplorer, mobile_omission_choices
from repro.net import (
    Topology,
    DynamicGraph,
    EdgeSchedule,
    PortNumbering,
    check_dynadegree,
    identity_ports,
    max_degree_for_window,
    random_ports,
)
from repro.sim import (
    ConsensusProcess,
    load_trace,
    replay_adversary,
    save_trace,
    Delivery,
    Engine,
    ExecutionReport,
    StateMessage,
    run_consensus,
)
from repro.workloads import (
    build_dac_execution,
    build_dbac_execution,
    theorem9_part2_execution,
    theorem9_split_execution,
    theorem10_split_execution,
)

__version__ = "1.0.0"


def __getattr__(name: str):
    # The batch-kernel names load numpy, so they resolve on first use,
    # through repro.sim's own lazy names.
    from repro import sim

    if name in sim._BATCH_NAMES:
        return getattr(sim, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    # Algorithms
    "DACProcess",
    "DBACProcess",
    "AsymptoticAveragingProcess",
    "PiggybackDACProcess",
    "IteratedMidpointProcess",
    "TrimmedMeanProcess",
    "FloodMinProcess",
    "MajorityVoteProcess",
    # Phase math
    "dac_end_phase",
    "dbac_end_phase",
    "dac_convergence_rate",
    "dbac_convergence_rate",
    "rounds_upper_bound",
    # Network
    "Topology",
    "DynamicGraph",
    "EdgeSchedule",
    "PortNumbering",
    "identity_ports",
    "random_ports",
    "check_dynadegree",
    "max_degree_for_window",
    # Adversaries
    "MessageAdversary",
    "StaticAdversary",
    "ScheduleAdversary",
    "AlternatingAdversary",
    "figure1_adversary",
    "RandomLinkAdversary",
    "EventuallyStableAdversary",
    "LastMinuteQuorumAdversary",
    "PhaseSkewAdversary",
    "LookaheadQuorumAdversary",
    "SplitGroupsAdversary",
    "ReceiveSetsAdversary",
    "IsolateThenConnectAdversary",
    "MobileOmissionAdversary",
    "RootedStarAdversary",
    "StableSpanningTreeAdversary",
    # Faults
    "FaultPlan",
    "CrashEvent",
    "staggered_crashes",
    "ByzantineStrategy",
    "FixedValueByzantine",
    "ExtremeByzantine",
    "RandomByzantine",
    "PhaseLiarByzantine",
    "TwoFacedByzantine",
    # Simulation
    "Engine",
    "BatchEngine",
    "LaneResult",
    "run_lanes",
    "numpy_available",
    "ConsensusProcess",
    "Delivery",
    "StateMessage",
    "run_consensus",
    "ExecutionReport",
    "save_trace",
    "load_trace",
    "replay_adversary",
    # Model checking
    "BoundedExplorer",
    "mobile_omission_choices",
    # Analysis
    "judge_outputs",
    "summarize",
    # Workload builders
    "build_dac_execution",
    "build_dbac_execution",
    "theorem9_split_execution",
    "theorem9_part2_execution",
    "theorem10_split_execution",
]
