"""The own-echo contract: which processes never receive their own message.

The engine never delivers a process its own message when the class
declares ``ignores_own_echo``: delivering rounds leave it out of the
batch, and edge-free rounds, whose batch would hold only it, make no
call. This file checks the declaration on every
:class:`~repro.sim.node.ConsensusProcess` subclass in the package: after
random delivery prefixes, delivering the own message alone must leave
``state_key()`` exactly as it was, and every random round's batch must
leave the same state with the round-start echo in it as without
(compared by ``repr``, so a flipped sign of zero counts as a change).
"""

from __future__ import annotations

import copy
import importlib
import inspect
import pkgutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core.asymptotic import AsymptoticAveragingProcess
from repro.core.averaging import AveragingProcess
from repro.core.baselines import (
    FloodMinProcess,
    IteratedMidpointProcess,
    MajorityVoteProcess,
    TrimmedMeanProcess,
)
from repro.core.dac import DACProcess
from repro.core.dbac import DBACProcess
from repro.core.piggyback import PiggybackDACProcess
from repro.sim.node import ConsensusProcess, Delivery


def _package_process_classes() -> list[type[ConsensusProcess]]:
    """Every concrete ConsensusProcess subclass defined in ``repro``."""
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)
    found: set[type[ConsensusProcess]] = set()
    pending = [ConsensusProcess]
    while pending:
        for sub in pending.pop().__subclasses__():
            pending.append(sub)
            if sub.__module__.startswith("repro.") and not inspect.isabstract(sub):
                found.add(sub)
    return sorted(found, key=lambda cls: f"{cls.__module__}.{cls.__qualname__}")


PROCESS_CLASSES = _package_process_classes()
ECHO_IGNORING = [cls for cls in PROCESS_CLASSES if cls.ignores_own_echo]

_INPUTS = st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0])


def test_walk_finds_the_declaring_classes():
    assert DACProcess in ECHO_IGNORING
    assert DBACProcess in ECHO_IGNORING


@pytest.mark.parametrize(
    "cls",
    [
        IteratedMidpointProcess,
        TrimmedMeanProcess,
        FloodMinProcess,
        MajorityVoteProcess,
        AveragingProcess,
        AsymptoticAveragingProcess,
        PiggybackDACProcess,
    ],
)
def test_classes_that_use_their_echo_keep_the_default(cls):
    assert cls in PROCESS_CLASSES
    assert cls.ignores_own_echo is False


@pytest.mark.parametrize("cls", ECHO_IGNORING, ids=lambda cls: cls.__qualname__)
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_declared_echo_leaves_state_unchanged(cls, data):
    n = data.draw(st.integers(min_value=2, max_value=6), label="n")
    f = data.draw(st.integers(min_value=0, max_value=(n - 1) // 2), label="f")
    kwargs = {}
    for name, param in inspect.signature(cls).parameters.items():
        if name == "end_phase":
            # Small end phases reach the frozen output state too.
            kwargs[name] = data.draw(st.integers(min_value=0, max_value=4), label=name)
        elif isinstance(param.default, bool):  # switches such as enable_jump
            kwargs[name] = data.draw(st.booleans(), label=name)
    inputs = data.draw(st.lists(_INPUTS, min_size=n, max_size=n), label="inputs")
    # Identity ports: node v hears sender u on port u, itself on port v.
    procs = [cls(n, f, inputs[v], v, **kwargs) for v in range(n)]
    # The echo is tried after every prefix; where it is a no-op the run
    # goes on unchanged.
    _assert_echo_is_a_no_op(procs)
    for _ in range(data.draw(st.integers(min_value=0, max_value=6), label="rounds")):
        messages = [proc.broadcast() for proc in procs]
        for v, proc in enumerate(procs):
            heard = data.draw(st.frozensets(st.integers(min_value=0, max_value=n - 1)))
            # The echo sits wherever port v falls in the batch; the state
            # after it must equal the state of the batch without it.
            without = copy.deepcopy(proc)
            without.deliver([Delivery(u, messages[u]) for u in sorted(heard - {v})])
            proc.deliver([Delivery(u, messages[u]) for u in sorted(heard | {v})])
            assert repr(proc.state_key()) == repr(without.state_key()), cls.__qualname__
        _assert_echo_is_a_no_op(procs)


def _assert_echo_is_a_no_op(procs: list[ConsensusProcess]) -> None:
    for proc in procs:
        before = repr(proc.state_key())
        proc.deliver([Delivery(proc.self_port, proc.broadcast())])
        assert repr(proc.state_key()) == before, type(proc).__qualname__
