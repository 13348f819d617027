"""Simulation kernel: synchronous rounds under a message adversary.

The engine implements the paper's execution model exactly:

1. every round, each alive node hands the engine the message it
   broadcasts (Byzantine nodes may hand a different message per
   receiver);
2. the message adversary -- with full read access to node states and
   the algorithm specification -- chooses the reliable link set
   ``E(t)``;
3. messages are delivered along ``E(t)`` tagged with *local port
   numbers*; a node's message to itself is always delivered;
4. nodes transition states on the batch of deliveries.

Anonymity is structural: algorithm code receives ``(port, message)``
pairs and has no channel through which a global ID could leak.
"""

from repro.sim.engine import Engine, EngineView, RoundRecord, RunResult
from repro.sim.messages import StateMessage, message_bits
from repro.sim.metrics import MetricsCollector, PhaseRangeSeries
from repro.sim.node import ConsensusProcess, Delivery
from repro.sim.parallel import (
    TrialSpec,
    resolve_batch,
    resolve_workers,
    run_trials,
    set_default_batch,
    set_default_workers,
)
from repro.sim.persistence import load_trace, replay_adversary, save_trace
from repro.sim.rng import child_rng, derive_seed
from repro.sim.runner import ExecutionReport, run_consensus
from repro.sim.trace import ExecutionTrace

# The batch kernels load numpy, which no serial run uses: their four
# public names resolve on first access (PEP 562), so ``import repro``
# and every serial path stay numpy-free.
_BATCH_NAMES = ("BatchEngine", "LaneResult", "numpy_available", "run_lanes")


def __getattr__(name: str):
    if name in _BATCH_NAMES:
        from repro.sim import batch

        return getattr(batch, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "BatchEngine",
    "LaneResult",
    "numpy_available",
    "run_lanes",
    "Engine",
    "EngineView",
    "RoundRecord",
    "RunResult",
    "TrialSpec",
    "run_trials",
    "resolve_batch",
    "resolve_workers",
    "set_default_batch",
    "set_default_workers",
    "StateMessage",
    "message_bits",
    "MetricsCollector",
    "PhaseRangeSeries",
    "ConsensusProcess",
    "Delivery",
    "child_rng",
    "derive_seed",
    "ExecutionReport",
    "run_consensus",
    "ExecutionTrace",
    "save_trace",
    "load_trace",
    "replay_adversary",
]
