"""Message adversaries: the per-round choice of reliable links.

The dynamic message adversary is the defining feature of the model: in
every round it observes node internal states (and knows the algorithm
specification) and picks the directed link set ``E(t)``; all other
messages are lost. Adversaries range from benign (complete graph every
round) through stochastic (Section VII's probabilistic adversary) to
the hostile constructions used in the impossibility proofs.

Adversaries that *promise* a ``(T, D)``-dynaDegree guarantee expose it
via :meth:`~repro.adversary.base.MessageAdversary.promised_dynadegree`
so the runner can independently verify the promise on the recorded
trace after the run.
"""

from repro.adversary.base import MessageAdversary, ScheduleAdversary, StaticAdversary
from repro.adversary.comparative import (
    RootedStarAdversary,
    StableSpanningTreeAdversary,
)
from repro.adversary.constrained import (
    LastMinuteQuorumAdversary,
    PhaseSkewAdversary,
)
from repro.adversary.greedy import LookaheadQuorumAdversary
from repro.adversary.mobile import MobileOmissionAdversary
from repro.adversary.periodic import AlternatingAdversary, figure1_adversary
from repro.adversary.random_adv import EventuallyStableAdversary, RandomLinkAdversary
from repro.adversary.split import (
    IsolateThenConnectAdversary,
    ReceiveSetsAdversary,
    SplitGroupsAdversary,
)

__all__ = [
    "MessageAdversary",
    "StaticAdversary",
    "ScheduleAdversary",
    "LastMinuteQuorumAdversary",
    "PhaseSkewAdversary",
    "LookaheadQuorumAdversary",
    "MobileOmissionAdversary",
    "RootedStarAdversary",
    "StableSpanningTreeAdversary",
    "AlternatingAdversary",
    "figure1_adversary",
    "RandomLinkAdversary",
    "EventuallyStableAdversary",
    "SplitGroupsAdversary",
    "ReceiveSetsAdversary",
    "IsolateThenConnectAdversary",
]
