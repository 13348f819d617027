"""The kernels' round-structure tables against the serial adversaries.

:func:`repro.sim.arena.rotate_table` scatters
:func:`~repro.adversary.constrained.rotate_picks` straight into a
numpy table, and :func:`repro.sim.arena.mobile_table` builds the
mobile-omission cut; neither goes through a ``Topology``. Row ``v`` of
each must equal the ``in_rows()[v]`` of the graph the serial adversary
plays for the same round.
"""

import random

import pytest

from repro.adversary.constrained import rotate_topology
from repro.adversary.mobile import mobile_topology, mobile_victims
from repro.sim.arena import mobile_table, rotate_table

pytest.importorskip("numpy", exc_type=ImportError)


def _live_sets(n: int) -> list[tuple[int, ...]]:
    """Every node live, plus crash live sets of each size down to one
    node (a seeded sample of which nodes crashed)."""
    rng = random.Random(n)
    live_sets = [tuple(range(n))]
    for size in range(n - 1, 0, -1):
        for _ in range(2):
            live_sets.append(tuple(sorted(rng.sample(range(n), size))))
    return live_sets


def _rows(table) -> list[tuple[int, ...]]:
    return [tuple(row.nonzero()[0].tolist()) for row in table]


@pytest.mark.parametrize("n", range(2, 10))
def test_rotate_table_rows_are_the_serial_rotate_graph(n):
    for live in _live_sets(n):
        for salt in range(n):
            for degree in range(1, n + 1):
                table = rotate_table(n, live, salt, degree)
                expected = rotate_topology(n, live, salt, degree).in_rows()
                assert _rows(table) == list(expected), (live, salt, degree)
                assert rotate_table(n, live, salt + n, degree) is table
                assert not table.flags.writeable


@pytest.mark.parametrize("n", range(2, 10))
def test_mobile_table_rows_are_the_serial_mobile_cut(n):
    for t in range(2 * n):
        table = mobile_table(n, t % n)
        victims = tuple(mobile_victims("rotate", n, t, [0.0] * n))
        assert _rows(table) == list(mobile_topology(n, victims).in_rows()), t
        assert not table.flags.writeable
