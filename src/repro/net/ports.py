"""Local port numberings: the paper's anonymity mechanism.

Each node ``i`` owns a private bijection ``P_i : V -> {0..n-1}`` (the
paper writes ``{1..n}``; we use 0-based ports). When a message from
``u`` is delivered to ``v``, the engine tags it with ``P_v(u)`` and the
algorithm sees *only* the port. Ports are static for the whole
execution, so a receiver can (a) tell two senders apart and (b)
recognize repeat messages from the same sender -- exactly the two
powers the algorithms in the paper rely on (the ``R_i`` bit vectors).

Two different nodes may map the same sender to different ports, so
ports cannot be used to reconstruct global identities; and because the
communication layer is authenticated, a Byzantine sender cannot forge
the port its messages arrive on.
"""

from __future__ import annotations

import random
from collections.abc import Sequence


class PortNumbering:
    """All nodes' port bijections for one execution.

    Parameters
    ----------
    tables:
        ``tables[i][j]`` is ``P_i(j)``: the port on which node ``i``
        sees messages from node ``j``. Each row must be a permutation
        of ``0..n-1``.
    """

    def __init__(self, tables: Sequence[Sequence[int]]) -> None:
        n = len(tables)
        if n < 1:
            raise ValueError("port numbering needs at least one node")
        expected = set(range(n))
        self._port_of: list[tuple[int, ...]] = []
        self._sender_of: list[tuple[int, ...]] = []
        for i, row in enumerate(tables):
            row = tuple(row)
            if set(row) != expected:
                raise ValueError(
                    f"row {i} is not a permutation of 0..{n - 1}: {row}"
                )
            inverse = [0] * n
            for sender, port in enumerate(row):
                inverse[port] = sender
            self._port_of.append(row)
            self._sender_of.append(tuple(inverse))
        self._n = n

    @property
    def n(self) -> int:
        """Number of nodes (and of ports at each node)."""
        return self._n

    def port_of(self, receiver: int, sender: int) -> int:
        """``P_receiver(sender)``: the engine uses this to tag deliveries."""
        return self._port_of[receiver][sender]

    def sender_of(self, receiver: int, port: int) -> int:
        """Inverse lookup, for the engine/analysis layers only.

        Algorithms must never call this -- it would break anonymity.
        The analysis layer uses it to translate port-level transcripts
        back into global IDs when checking executions.
        """
        return self._sender_of[receiver][port]

    def self_port(self, node: int) -> int:
        """The port on which ``node`` receives its own (reliable) messages."""
        return self._port_of[node][node]

    def port_rows(self) -> tuple[tuple[int, ...], ...]:
        """All bijections at once: ``port_rows()[i][j] == port_of(i, j)``.

        Bulk accessor for engine-side consumers (the round engine's
        delivery loop, the batched kernels) that would otherwise make
        O(n^2) per-element calls per execution. Rows are immutable
        tuples; algorithms must never see them (anonymity).
        """
        return tuple(self._port_of)

    def sender_rows(self) -> tuple[tuple[int, ...], ...]:
        """All inverse bijections: ``sender_rows()[i][k] == sender_of(i, k)``.

        Bulk counterpart of :meth:`sender_of`, for the same engine-side
        consumers and with the same caveat: using it from algorithm
        code would break anonymity.
        """
        return tuple(self._sender_of)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PortNumbering):
            return NotImplemented
        return self._port_of == other._port_of

    def __repr__(self) -> str:
        return f"PortNumbering(n={self._n})"


def identity_ports(n: int) -> PortNumbering:
    """Every node numbers sender ``j`` as port ``j``.

    Convenient for tests and debugging; note it makes ports *globally
    consistent*, which real executions need not be -- use
    :func:`random_ports` when exercising anonymity-sensitive behavior
    (e.g. Byzantine equivocation going undetected).
    """
    return PortNumbering([list(range(n)) for _ in range(n)])


def random_ports(n: int, rng: random.Random) -> PortNumbering:
    """Independent uniformly-random bijection at every node."""
    tables = []
    for _ in range(n):
        row = list(range(n))
        rng.shuffle(row)
        tables.append(row)
    return PortNumbering(tables)
