"""Unit tests for repro.net.ports: the anonymity mechanism."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.ports import PortNumbering, identity_ports, port_tables, random_ports


class TestPortNumbering:
    def test_identity_round_trips(self):
        ports = identity_ports(4)
        for receiver in range(4):
            for sender in range(4):
                port = ports.port_of(receiver, sender)
                assert port == sender
                assert ports.sender_of(receiver, port) == sender

    def test_random_is_bijective(self):
        ports = random_ports(6, random.Random(3))
        for receiver in range(6):
            seen = {ports.port_of(receiver, s) for s in range(6)}
            assert seen == set(range(6))

    def test_random_round_trips(self):
        ports = random_ports(5, random.Random(9))
        for receiver in range(5):
            for sender in range(5):
                port = ports.port_of(receiver, sender)
                assert ports.sender_of(receiver, port) == sender

    def test_ports_are_local(self):
        # Two receivers may disagree about the same sender's port --
        # that is the point of anonymity. With a random numbering on
        # enough nodes some disagreement is effectively certain.
        ports = random_ports(12, random.Random(1))
        disagreements = sum(
            1
            for r1 in range(12)
            for r2 in range(12)
            if r1 != r2 and ports.port_of(r1, 0) != ports.port_of(r2, 0)
        )
        assert disagreements > 0

    def test_self_port(self):
        ports = random_ports(5, random.Random(4))
        for node in range(5):
            assert ports.self_port(node) == ports.port_of(node, node)

    def test_non_permutation_rejected(self):
        with pytest.raises(ValueError, match="not a permutation"):
            PortNumbering([[0, 0, 1], [0, 1, 2], [0, 1, 2]])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one node"):
            PortNumbering([])

    def test_equality(self):
        a = identity_ports(3)
        b = identity_ports(3)
        assert a == b
        c = random_ports(3, random.Random(99))
        if c != a:  # overwhelmingly likely
            assert c != b

    def test_repr(self):
        assert "n=3" in repr(identity_ports(3))

    def test_deterministic_from_seed(self):
        a = random_ports(8, random.Random(5))
        b = random_ports(8, random.Random(5))
        assert a == b


@settings(max_examples=150, deadline=None)
@given(n=st.integers(min_value=1, max_value=64), seed=st.integers())
def test_port_tables_replays_shuffle_exactly(n, seed):
    # The inlined Fisher-Yates draw must be n successive shuffles of
    # range(n), bit for bit, and leave the generator where they leave it:
    # every port numbering (and every stream drawn after it) depends on
    # that, on whichever CPython runs the suite.
    inlined, reference = random.Random(seed), random.Random(seed)
    rows = []
    for _ in range(n):
        row = list(range(n))
        reference.shuffle(row)
        rows.append(row)
    assert port_tables(n, inlined) == rows
    assert inlined.getstate() == reference.getstate()
