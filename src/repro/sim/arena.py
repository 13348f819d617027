"""Structure tables keyed by content hash: the kernels' per-process memo.

The batch kernels (:mod:`repro.sim.batch`) derive one boolean
delivered-from matrix per topology in an adversary's replay cycle.
:func:`delivered_table` serves them from one process-wide memo of
**read-only** receiver-major ``(n, n)`` bool arrays, keyed by
``Topology.content_hash`` (stable across processes, unlike
``hash()``). The table is the pure graph: row ``v`` flags the senders
``v`` hears from, no diagonal -- live-set diagonals are a
per-execution concern applied on copies downstream. Every kernel in a
process shares the same array, so none may write through it (the
``arena-readonly`` lint rule).

Pool workers build the few tables they actually reach through this
memo and keep them warm across calls; the dispatching process ships
nothing but the trial function, its parameters and the seeds.
"""

from __future__ import annotations

from typing import Any

from repro.net.topology import Topology

try:
    import numpy as _np
except ImportError:  # pragma: no cover - exercised on the no-numpy CI leg
    _np = None

# Bounded like the Topology intern table: cleared wholesale when full.
# An adversary cycle needs at most n tables per live set, so steady
# state for realistic sweeps sits far below the cap.
_TABLE_MEMO_MAX = 1024
_table_memo: dict[int, Any] = {}


def delivered_table(topology: Topology) -> Any:
    """The read-only receiver-major ``(n, n)`` bool table for ``topology``.

    ``table[v, u]`` is True iff edge ``(u, v)`` exists (v hears u); no
    diagonal. Served from the process-wide memo, or built once from
    :meth:`Topology.delivered_bytes`. Returns ``None`` when numpy is
    unavailable (the serial fallback never asks). The array is never
    writable -- kernels that need a diagonal or a transpose copy it
    first.
    """
    if _np is None:
        return None
    key = topology.content_hash
    cached = _table_memo.get(key)
    if cached is None:
        n = topology.n
        # frombuffer over immutable bytes yields a non-writable array;
        # reshape preserves that, so the view is read-only end to end.
        cached = _np.frombuffer(topology.delivered_bytes(), dtype=bool).reshape(n, n)
        if len(_table_memo) >= _TABLE_MEMO_MAX:
            _table_memo.clear()
        _table_memo[key] = cached
    return cached


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
