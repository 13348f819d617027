"""Round-structure tables: the kernels' per-process memo.

The batch kernels (:mod:`repro.sim.batch`) read one boolean
delivered-from matrix per round graph their adversary replays.
:func:`rotate_table` and :func:`mobile_table` serve them from one
process-wide memo of **read-only** receiver-major ``(n, n)`` bool
arrays. A rotate table is scattered straight from
:func:`~repro.adversary.constrained.rotate_picks`, the function the
serial adversary's ``rotate_topology`` is built from, so a kernel call
builds no ``Topology`` and hashes nothing. A table is the pure graph:
row ``v`` flags the senders ``v`` hears from, no diagonal -- live-set
diagonals are a per-execution concern applied on copies downstream.
Every kernel in a process shares the same array, so none may write
through it (the ``arena-readonly`` lint rule).

Pool workers build the few tables they actually reach through this
memo and keep them warm across calls; the dispatching process ships
nothing but the trial function, its parameters and the seeds.
"""

from __future__ import annotations

from itertools import chain
from typing import Any

from repro.adversary.constrained import rotate_picks

# Bounded like the Topology intern table: cleared wholesale when full.
# An adversary cycle needs at most n tables per live set, so steady
# state for realistic sweeps sits far below the cap.
_TABLE_MEMO_MAX = 1024
_table_memo: dict[tuple, Any] = {}


def scatter_picks(picks: list[list[int]], n: int) -> Any:
    """A fresh ``(len(picks), n)`` bool array, row ``r`` True exactly at
    the senders ``picks[r]``: one numpy assignment for all rows.

    numpy loads on the first call, so a serial run never imports it.
    """
    import numpy as _np

    lengths = [len(row) for row in picks]
    senders = _np.fromiter(chain.from_iterable(picks), dtype=_np.intp, count=sum(lengths))
    table = _np.zeros((len(picks), n), dtype=bool)
    table[_np.repeat(_np.arange(len(picks)), lengths), senders] = True
    return table


def _store(key: tuple, table: Any) -> Any:
    """Freeze a freshly built ``table`` and memoize it under ``key``."""
    table.flags.writeable = False
    if len(_table_memo) >= _TABLE_MEMO_MAX:
        _table_memo.clear()
    _table_memo[key] = table
    return table


def rotate_table(n: int, live: tuple[int, ...], salt: int, degree: int) -> Any:
    """The read-only ``(n, n)`` bool table of one ``rotate`` round.

    ``table[v, u]`` is True iff ``u`` is among receiver ``v``'s
    :func:`~repro.adversary.constrained.rotate_picks` senders: the
    ``in_rows`` of ``rotate_topology(n, live, salt, degree)``, no
    diagonal. Keyed by ``(n, live, salt mod n, degree)``, like the
    serial memo. Kernels that need a diagonal or a transpose copy it
    first.
    """
    key = ("rotate", n, live, salt % n, degree)
    table = _table_memo.get(key)
    if table is None:
        table = _store(key, scatter_picks(rotate_picks(n, live, salt, degree), n))
    return table


def mobile_table(n: int, shift: int) -> Any:
    """The read-only ``(n, n)`` bool table of one mobile-omission cut.

    The complete graph minus receiver ``v``'s in-link from
    ``(v + shift) mod n``; shift 0 cuts only the absent self-loop.
    """
    key = ("mobile", n, shift)
    table = _table_memo.get(key)
    if table is None:
        import numpy as _np

        node_idx = _np.arange(n)
        table = ~_np.eye(n, dtype=bool)
        table[node_idx, (node_idx + shift) % n] = False
        table = _store(key, table)
    return table


class ArenaRegistry:
    """Compatibility stub: nothing is published, so no segment exists.

    perfbench's traced mode still reads ``segment_names()`` (through
    :func:`repro.sim.parallel.arena_registry`); the ``[benchmark]``
    follow-up that drops those reads deletes this class.
    """

    def segment_names(self) -> list[str]:
        return []


def empty_arena_plan(params: dict[str, Any]) -> list[Any]:
    """Compatibility stub for the ``arena_plan`` attribute of the
    ``run_*_trial_batch`` functions, which perfbench's traced pooled
    path copies; the ``[benchmark]`` follow-up that drops that copy
    deletes this function and the attributes."""
    return []
