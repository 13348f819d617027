"""Unit tests for DBAC (Algorithm 2), exercised message by message.

Pins: the quorum floor((n+3f)/2)+1, the phase >= p acceptance rule, the
f+1-bounded recording lists, the trimmed-midpoint update, the absence
of jumping, and the self-value store at phase start (fidelity note 1).
"""

import bisect
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dbac import DBACProcess
from repro.sim.messages import StateMessage
from repro.sim.node import Delivery


def dbac(n=6, f=1, x=0.5, port=0, end_phase=3, **kwargs):
    return DBACProcess(n, f, x, port, end_phase=end_phase, **kwargs)


def msg(value, phase):
    return StateMessage(value, phase)


class TestInitialization:
    def test_quorum_formula(self):
        assert dbac(n=6, f=1).quorum == 5  # floor(9/2)+1
        assert dbac(n=11, f=2).quorum == 9  # floor(17/2)+1
        assert dbac(n=16, f=3).quorum == 13  # floor(25/2)+1

    def test_trim_depth(self):
        assert dbac(f=1).trim == 2
        assert DBACProcess(11, 2, 0.0, 0, end_phase=1).trim == 3

    def test_own_value_stored_at_start(self):
        p = dbac(x=0.4)
        low, high = p.recording_lists
        assert low == (0.4,) and high == (0.4,)
        assert p.received_count == 1

    def test_quorum_override(self):
        assert dbac(quorum_override=4).quorum == 4

    def test_default_end_phase_uses_equation6(self):
        p = DBACProcess(6, 1, 0.0, 0, epsilon=0.5)
        # log(0.5)/log(1 - 2^-6) = 44.04... -> 45
        assert p.end_phase == 45

    def test_zero_end_phase_outputs_immediately(self):
        p = dbac(end_phase=0, x=0.3)
        assert p.has_output() and p.output() == 0.3


class TestAcceptanceRule:
    def test_current_phase_accepted(self):
        p = dbac(x=0.0)
        p.deliver([Delivery(1, msg(0.5, 0))])
        assert p.received_count == 2

    def test_future_phase_accepted_without_jump(self):
        # DBAC stores higher-phase values but never jumps.
        p = dbac(x=0.0)
        p.deliver([Delivery(1, msg(0.5, 7))])
        assert p.received_count == 2
        assert p.phase == 0
        assert p.value == 0.0

    def test_stale_phase_rejected(self):
        p = dbac(x=0.0, quorum_override=2)
        p.deliver([Delivery(1, msg(1.0, 0))])  # quorum 2 -> phase 1
        assert p.phase == 1
        p.deliver([Delivery(2, msg(0.3, 0))])  # phase 0 < 1: ignored
        assert p.received_count == 1

    def test_port_counted_once_per_phase(self):
        p = dbac(x=0.0)
        p.deliver([Delivery(1, msg(0.5, 0)), Delivery(1, msg(0.6, 0))])
        assert p.received_count == 2

    def test_ports_refresh_after_phase_advance(self):
        p = dbac(x=0.0, quorum_override=2)
        p.deliver([Delivery(1, msg(1.0, 0))])
        assert p.phase == 1
        p.deliver([Delivery(1, msg(1.0, 1))])
        assert p.phase == 2


class TestRecordingLists:
    def test_bounded_to_f_plus_one(self):
        # quorum_override=6 keeps the node in phase 0 while we feed it.
        p = dbac(n=6, f=1, x=0.5, quorum_override=6)
        for port, value in enumerate([0.1, 0.9, 0.3, 0.7], start=1):
            p.deliver([Delivery(port, msg(value, 0))])
        low, high = p.recording_lists
        assert len(low) == 2 and len(high) == 2
        assert low == (0.1, 0.3)  # two smallest of {0.5,0.1,0.9,0.3,0.7}
        assert high == (0.7, 0.9)  # two largest

    def test_one_value_can_enter_both_lists(self):
        p = dbac(x=0.5)
        low, high = p.recording_lists
        assert 0.5 in low and 0.5 in high

    def test_trimmed_midpoint_update(self):
        # n=6, f=1, quorum 5: self 0.5 + four others.
        p = dbac(n=6, f=1, x=0.5, end_phase=3)
        batch = [
            Delivery(1, msg(0.0, 0)),
            Delivery(2, msg(1.0, 0)),
            Delivery(3, msg(0.2, 0)),
            Delivery(4, msg(0.8, 0)),
        ]
        p.deliver(batch)
        assert p.phase == 1
        # Sorted stored: 0.0 0.2 0.5 0.8 1.0; R_low=[0,0.2] R_high=[0.8,1]
        # update = (max(R_low) + min(R_high)) / 2 = (0.2 + 0.8)/2 = 0.5
        assert p.value == pytest.approx(0.5)

    def test_byzantine_extremes_are_clipped(self):
        # A single wild value (f=1) cannot drag the update outside the
        # honest range: it lands at the edge of a trimming list.
        p = dbac(n=6, f=1, x=0.5, end_phase=3)
        batch = [
            Delivery(1, msg(1000.0, 0)),  # Byzantine lie
            Delivery(2, msg(0.4, 0)),
            Delivery(3, msg(0.6, 0)),
            Delivery(4, msg(0.5, 0)),
        ]
        p.deliver(batch)
        # Stored: 0.5self 1000 0.4 0.6 0.5; R_low=[0.4,0.5] R_high=[0.6,1000]
        # update = (0.5 + 0.6)/2 = 0.55: inside honest hull.
        assert p.value == pytest.approx(0.55)
        assert 0.4 <= p.value <= 0.6

    def test_reset_reseeds_own_value(self):
        p = dbac(n=6, f=1, x=0.0, quorum_override=2, end_phase=5)
        p.deliver([Delivery(1, msg(1.0, 0))])
        assert p.phase == 1
        low, high = p.recording_lists
        assert low == (p.value,) and high == (p.value,)


def _literal_store(low, high, value, trim):
    """Algorithm 2's store as first written: insort, then pop past f+1."""
    bisect.insort(low, value)
    if len(low) > trim:
        low.pop()
    bisect.insort(high, value)
    if len(high) > trim:
        high.pop(0)


# A small pool so ties are common, plus both zeros, both infinities and NaN.
_STORE_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, math.inf, -math.inf, math.nan]),
    st.floats(allow_nan=True, allow_infinity=True),
)


# Ten times this budget runs in CI under ``--hypothesis-profile=store-10x``.
STORE_SETTINGS = settings(max_examples=max(300, settings().max_examples), deadline=None)


@STORE_SETTINGS
@given(
    f=st.integers(min_value=0, max_value=5),
    values=st.lists(_STORE_VALUES, min_size=2, max_size=40),
)
def test_buffer_matches_insort_and_pop(f, values):
    # The node keeps a phase's stored values as a buffer and derives
    # R_low/R_high from it. After every accept the derived lists must be
    # exactly insort+pop's, signed zeros and NaN placement included,
    # and so must the midpoint the quorum takes from them.
    n = len(values) + 6
    p = dbac(n=n, f=f, x=values[0], quorum_override=n + 1, end_phase=5)
    low, high = [], []
    _literal_store(low, high, values[0], f + 1)
    for port, value in enumerate(values[1:], start=1):
        assert repr(p.recording_lists) == repr((tuple(low), tuple(high)))
        p.deliver([Delivery(port, msg(value, 0))])
        _literal_store(low, high, value, f + 1)
    assert repr(p.recording_lists) == repr((tuple(low), tuple(high)))
    assert p.stored_count == p.received_count == len(values)

    fires = dbac(n=n, f=f, x=values[0], quorum_override=len(values), end_phase=5)
    fires.deliver([Delivery(port, msg(v, 0)) for port, v in enumerate(values[1:], start=1)])
    assert fires.phase == 1
    assert repr(fires.value) == repr(0.5 * (low[-1] + high[0]))


class TestOutput:
    def test_outputs_at_end_phase_and_freezes(self):
        p = dbac(x=0.0, quorum_override=2, end_phase=2)
        p.deliver([Delivery(1, msg(1.0, 0))])
        p.deliver([Delivery(1, msg(1.0, 1))])
        assert p.has_output()
        frozen = p.output()
        p.deliver([Delivery(2, msg(0.0, 2))])
        assert p.output() == frozen

    def test_output_before_termination_raises(self):
        with pytest.raises(RuntimeError, match="not terminated"):
            dbac().output()

    def test_keeps_broadcasting_after_output(self):
        p = dbac(x=0.3, end_phase=0)
        out = p.broadcast()
        assert out.value == 0.3
        assert out.phase == 0


class TestStateKey:
    def test_distinguishes_states(self):
        a, b = dbac(x=0.1), dbac(x=0.1)
        assert a.state_key() == b.state_key()
        a.deliver([Delivery(1, msg(0.9, 0))])
        assert a.state_key() != b.state_key()
