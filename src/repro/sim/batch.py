"""Batched execution: advance B independent trials with one kernel pass.

Large sweeps are dominated by grids of *small, independent* executions
(DAC trials across ``n``, ``f``, window and seed). The process-pool
layer (:mod:`repro.sim.parallel`) scales those across cores; this
module attacks the per-trial interpreter overhead inside one process:
a numpy kernel advances ``B`` independent executions of one lane
family *in lock-step*, so one pass over the round structure serves
every lane at once. Node states live in ``(B, n)`` arrays, and each
round's deliveries are consumed by an event-segmented sweep
(:func:`_dac_sweep`, :func:`_dbac_sweep`): a node's state changes only
at a jump or a quorum firing, so one vectorized pass settles every
``(lane, node)`` cell up to its next event, in the serial engine's
sorted-by-port order, and a round costs ``events + 1`` passes.

Every kernel produces **bit-identical final states and round counts**
to ``B`` serial ``Engine`` runs: every lane derives its inputs, ports
and crash plan from its own seed through the exact same
:mod:`repro.sim.rng` child streams the serial builders use, so batching
(and batch *order*) cannot perturb results.

Each kernel has one support predicate next to it --
:func:`dac_kernel_refusal`, :func:`byz_kernel_refusal`,
:func:`baseline_kernel_refusal` -- naming why it cannot replicate a
parameter assignment (numpy is missing, an unknown selector, a
Byzantine strategy outside the trial menu), or ``None`` when it can.
A kernel constructor raises ``ValueError`` with that reason. The
``run_*_batch`` functions consult the same predicate and, outside the
kernel, return :class:`GenericBatchEngine` lanes: one
serial :class:`~repro.sim.engine.Engine` run per seed over the family's
own builder -- the semantic reference itself, so those lanes match by
construction and every ``run_*_batch`` works without numpy.

One selector, :func:`select_delivered`, gives every kernel its
per-round delivered-from masks for all three enforcing selectors:
``rotate`` from the shared interned round tables, ``nearest`` by one
stable argsort, and ``random`` by replaying each lane's own adversary
stream through :func:`~repro.adversary.constrained.random_picks` --
the same function, in the same call order, the serial adversary uses.
The ``random`` Byzantine strategy is replayed the same way, through
:meth:`~repro.faults.byzantine.RandomByzantine.draw`.

Three kernels cover the built-in lane families (see docs/batching.md):

- :class:`BatchEngine` / :func:`run_dac_batch` -- fault-free and
  crash-fault boundary DAC under the enforcing quorum adversaries,
  precisely what :func:`repro.workloads.run_dac_trial` runs;
- :class:`ByzBatchEngine` / :func:`run_dbac_batch` /
  :func:`run_byz_batch` -- boundary DBAC with Byzantine strategies
  under the enforcing ``nearest``/``rotate`` adversaries, and
  mobile-omission DAC, precisely what
  :func:`repro.workloads.run_dbac_trial` / ``run_byz_trial`` run. The
  kernel vectorizes DBAC's witness counters and ``f+1``-trimmed
  updates and supports **lane compaction**:
  finished rows are re-filled from a pending seed queue so long-tailed
  grids keep full vector width;
- :class:`BaselineBatchEngine` / :func:`run_baseline_batch` -- the
  reliable-channel averaging baselines (iterated midpoint / trimmed
  mean) under the same enforcing quorum adversaries, precisely what
  :func:`repro.workloads.run_baseline_trial` runs. Two floats of
  per-node state and a fixed round budget make these the simplest
  lanes: one ``(B, n)`` value matrix advanced for exactly
  ``num_rounds`` delivery rounds.

Composition: :func:`repro.workloads.run_dac_trial_batch` (and the
DBAC/Byzantine/baseline forms) wrap these kernels in the batched-trial
calling convention the parallel layer dispatches, so
``Sweep.run(workers=N, batch=B)`` fans *batches* over processes -- the
two layers multiply. Parameter groups no kernel supports, observed and
non-fast trials, and one-seed groups (a one-lane kernel pass is slower
than one serial trial) run the serial trial once per seed.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from itertools import chain

from repro.adversary.constrained import random_picks, rotate_topology
from repro.net.ports import random_ports
from repro.sim.arena import delivered_table
from repro.sim.engine import Engine
from repro.sim.rng import child_rng, spawn_inputs

try:  # numpy is an optional extra (``pip install repro[numpy]``)
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI leg
    _np = None

# Sentinel crash round for nodes that never crash (far beyond any cap).
_NEVER = 1 << 62

# Cap on each engine's derived-structure cache (live-diagonal matrices
# keyed by (live_key, salt mod n)). Cleared wholesale at the cap, like
# the Topology intern table: a realistic crash schedule settles into a
# cycle of at most a few live sets x n salts, far below the cap, but
# unbounded live-set streams (long mobile sweeps) must not grow it.
_STRUCTURE_CACHE_MAX = 4096


def numpy_available() -> bool:
    """Whether the vectorized numpy kernels can be used at all."""
    return _np is not None


def _workloads():
    """The serial builders' module, :mod:`repro.workloads`.

    The one source of truth for what a lane *is*: kernels probe it for
    their lane family's derived parameters, and the serial fallback
    builds its executions through it. Deferred because
    ``repro.workloads`` imports this module's package.
    """
    # lint: ignore[layering, hot-import] — setup-time access to the serial builders (one source of truth for lane families), deferred to break the cycle; never touched in the round loop
    import repro.workloads as workloads

    return workloads


_NO_NUMPY = "numpy is not installed"

# The enforcing quorum adversaries' selectors, all replicated by
# select_delivered for every kernel: rotate from the shared
# content-hash tables, nearest by one stable argsort, random by
# replaying each lane's own adversary stream.
_VECTOR_SELECTORS = ("rotate", "nearest", "random")


def _selector_refusal(selector: str) -> str | None:
    if _np is None:
        return _NO_NUMPY
    if selector not in _VECTOR_SELECTORS:
        return f"selector {selector!r} is not vectorizable (supported: {_VECTOR_SELECTORS})"
    return None


def _streamed(
    lanes: list[LaneResult], on_lane: Callable[[LaneResult], None] | None
) -> list[LaneResult]:
    """Hand every finished lane to ``on_lane``, in lane (seed) order."""
    if on_lane is not None:
        for lane in lanes:
            on_lane(lane)
    return lanes


@dataclass(frozen=True)
class LaneResult:
    """Final outcome of one lane -- one serial ``Engine`` run's worth.

    ``state_keys`` maps every (non-Byzantine) node to its process's
    full ``state_key()`` (:class:`~repro.core.dac.DACProcess` /
    :class:`~repro.core.dbac.DBACProcess`), the strongest equality the
    determinism suite can assert; ``outputs`` is keyed by node ID and
    holds exactly what :func:`repro.sim.runner.run_consensus` reports
    for the lane's stop mode -- the fault-free nodes that decided
    (``"output"`` stopping), or every fault-free node's current value
    (``"oracle"`` stopping, :class:`ByzBatchEngine` only).
    """

    seed: int
    rounds: int
    stopped: bool
    inputs: dict[int, float]
    outputs: dict[int, float]
    state_keys: dict[int, tuple]


def select_delivered(
    selector: str,
    degree: int,
    values,
    live,
    byz,
    salts,
    rngs,
    rotate_cache: dict,
):
    """Receiver-major delivered-from masks of one enforced round.

    The vectorized form of the enforcing quorum adversaries' sender
    selection, shared by every kernel. Per delivering lane ``b``:
    ``values[b]`` is the ``(n,)`` round-start state row (Byzantine
    entries ignored), ``salts[b]`` the rotate salt and ``rngs[b]`` the
    lane's own ``child_rng(seed, "adversary")`` stream (``random``
    only; ``None`` for a stopped lane, which draws nothing). ``live``
    is the ``(n,)`` transmitting-sender mask (crashed senders out,
    Byzantine senders in) and ``byz`` the sorted Byzantine index
    array. Returns ``(B, n, n)`` bools where ``[b, v, u]`` says ``u``'s
    round broadcast reaches ``v``, without a diagonal: each kernel
    handles self-delivery itself. Rows of Byzantine and crashed
    receivers are unspecified; nothing reads them.

    - ``rotate``: the interned :func:`rotate_topology` table from the
      shared content-hash memo (:func:`repro.sim.arena.delivered_table`,
      warm across calls in pool workers), memoized in ``rotate_cache`` by
      ``(live set, salt mod n)``.
    - ``nearest``: :func:`~repro.adversary.constrained.nearest_picks`
      as one stable argsort per lane. Non-live and Byzantine columns
      sort last at ``+inf`` (the Byzantine senders are picked first,
      separately), the receiver's own column first at ``-inf`` so it
      drops out like the serial walk's ``u == receiver`` skip, and ties
      fall in ascending node order, the specified sort's stability.
    - ``random``: :func:`~repro.adversary.constrained.random_picks` on
      each lane's stream -- a Python loop for the draws only, in the
      serial call order, scattered into the mask in one assignment.
    """
    np = _np
    lanes, n = values.shape
    live_key = tuple(np.nonzero(live)[0].tolist())
    if selector == "rotate":
        tables = dict.fromkeys(salt % n for salt in salts)
        for salt in tables:
            table = rotate_cache.get((live_key, salt))
            if table is None:
                if len(rotate_cache) >= _STRUCTURE_CACHE_MAX:
                    rotate_cache.clear()
                table = delivered_table(rotate_topology(n, live_key, salt, degree))
                rotate_cache[live_key, salt] = table
            tables[salt] = table
        if len(tables) == 1:
            return np.broadcast_to(table, (lanes, n, n))
        return np.stack([tables[salt % n] for salt in salts])
    if selector == "random":
        stopped = [[]] * n  # a lane without a stream draws nothing
        picks = [
            row
            for rng in rngs
            for row in (stopped if rng is None else random_picks(n, live_key, degree, rng))
        ]
        lengths = [len(row) for row in picks]
        senders = np.fromiter(
            chain.from_iterable(picks), dtype=np.intp, count=sum(lengths)
        )
        delivered = np.zeros((lanes * n, n), dtype=bool)
        delivered[np.repeat(np.arange(lanes * n), lengths), senders] = True
        return delivered.reshape(lanes, n, n)
    node_idx = np.arange(n)
    honest_live = live.copy()
    honest_live[byz] = False
    byz_live = byz[live[byz]]
    byz_chosen = min(byz_live.size, degree)
    dist = np.abs(values[:, :, None] - values[:, None, :])
    dist[:, :, ~honest_live] = np.inf
    dist[:, node_idx, node_idx] = -np.inf
    order = np.argsort(dist, axis=2, kind="stable")
    delivered = np.zeros((lanes, n, n), dtype=bool)
    np.put_along_axis(delivered, order[:, :, 1 : degree - byz_chosen + 1], True, axis=2)
    # Picks past the last honest live sender landed on +inf columns:
    # the serial walk simply runs out of candidates there.
    delivered &= honest_live
    delivered[:, :, byz_live[:byz_chosen]] = True
    return delivered


def _in_port_order(delivered, sender_at_port):
    """``[b, v, k]``: does the message on ``v``'s port ``k`` arrive?

    Gathers :func:`select_delivered` masks through each lane's
    ``sender_at_port`` table; a mask shared by every lane (one rotate
    salt) is gathered from its single ``(n, n)`` table.
    """
    np = _np
    lanes, n = sender_at_port.shape[:2]
    col = np.arange(n)[None, :, None]
    if delivered.strides[0] == 0:
        return delivered[0][col, sender_at_port]
    return delivered[np.arange(lanes)[:, None, None], col, sender_at_port]


# -- Event-segmented delivery sweeps ---------------------------------------
#
# A node's state changes at only two kinds of event: a jump (DAC lines
# 5-8) and a quorum firing (DAC lines 9-15, DBAC lines 8-11). Between two
# events each port's accept is independent of the others, so one pass
# over the remaining ports settles a whole segment of every (lane, node)
# cell at once; only cells with an event re-scan the ports after it. A
# round costs (events per cell + 1) passes. Each sweep takes the round's
# port-ordered (B, n, n) tables ([b, v, k]: the message on v's port k),
# the (B, n) receiving cells and the process state arrays, which it
# updates in place through flat (B * n)-cell views (the kernels' arrays
# are C-contiguous). Table rows of other cells are never used, so stale
# scatter-buffer rows are harmless.


def _sweep_start(receiving, state):
    """Flat state views, and each cell's first port: ``n`` (none) for
    cells not receiving or decided."""
    np = _np
    if not all(array.flags.c_contiguous for array in state.values()):
        raise ValueError("sweep state arrays must be C-contiguous: writes go through views")
    n = state["received"].shape[2]
    flat = {key: array.reshape(-1, *array.shape[2:]) for key, array in state.items()}
    return flat, np.where((receiving & ~state["out_mask"]).reshape(-1), 0, n)


def _record(accept, cells, flat, quorum):
    """Record each cell's accepts up to its quorum event, if any.

    ``count + cumsum(accept)`` is the witness count at every port; the
    first accept reaching ``quorum`` fires. Returns that count, the
    recorded accepts, the fired mask and the firing port (``n`` where
    none fired).
    """
    np = _np
    n = accept.shape[1]
    reach = flat["count"][cells][:, None] + np.cumsum(accept, axis=1)
    full = accept & (reach >= quorum)
    fires = full.any(axis=1)
    quorum_port = np.where(fires, full.argmax(axis=1), n)
    taken = accept & (np.arange(n) <= quorum_port[:, None])
    flat["received"][cells] |= taken
    flat["count"][cells] += taken.sum(axis=1)
    return reach, taken, fires, quorum_port


def _new_phase(flat, cells, self_port, end_phase):
    """Reset ``cells``, which hold their new value and phase, and decide
    those at ``end_phase`` (DAC lines 16, 18-20; DBAC 12, 14-16).
    Returns the decided mask."""
    flat["received"][cells] = False
    flat["received"][cells, self_port.reshape(-1)[cells]] = True
    flat["count"][cells] = 1
    decided = flat["phase"][cells] >= end_phase
    done = cells[decided]
    flat["phase"][done] = end_phase
    flat["out_mask"][done] = True
    flat["out_val"][done] = flat["value"][done]
    return decided


def _dac_sweep(
    has_msg, msg_value, msg_phase, receiving, self_port, state, *,
    quorum, end_phase, enable_jump,
) -> None:
    """One round of :meth:`~repro.core.dac.DACProcess.deliver` per cell.

    ``state`` holds ``value``, ``phase``, ``received``, ``count``,
    ``v_min``, ``v_max``, ``out_mask`` and ``out_val``. Per segment, the
    jump event is the first port whose phase is ahead (with
    ``enable_jump``), and the accepts are the fresh same-phase ports
    strictly before it, recorded up to the quorum event. ``v_min`` and
    ``v_max`` fold in the segment's first minimum and first maximum by
    ``_store``'s strict ``<``/``>``.
    """
    np = _np
    n = has_msg.shape[2]
    flat, start = _sweep_start(receiving, state)
    value, phase, v_min, v_max = (flat[key] for key in ("value", "phase", "v_min", "v_max"))
    has_all, value_all, phase_all = (t.reshape(-1, n) for t in (has_msg, msg_value, msg_phase))
    ports, ids = np.arange(n), np.arange(value.size)
    cells = slice(None)  # the first pass covers every cell through views
    while True:
        incoming_value, incoming_phase = value_all[cells], phase_all[cells]
        cell_phase = phase[cells][:, None]
        pending = has_all[cells] & (ports >= start[:, None])
        ahead = pending & (incoming_phase > cell_phase) & enable_jump
        jump_port = np.where(ahead.any(axis=1), ahead.argmax(axis=1), n)
        same = (
            pending
            & (incoming_phase == cell_phase)
            & ~flat["received"][cells]
            & (ports < jump_port[:, None])
        )
        _reach, taken, fires, quorum_port = _record(same, cells, flat, quorum)
        rows = np.arange(start.size)
        low = np.where(taken, incoming_value, np.inf)
        low = low[rows, low.argmin(axis=1)]
        high = np.where(taken, incoming_value, -np.inf)
        high = high[rows, high.argmax(axis=1)]
        cell_min, cell_max = v_min[cells], v_max[cells]
        v_min[cells] = np.where(low < cell_min, low, cell_min)
        v_max[cells] = np.where(high > cell_max, high, cell_max)

        jumps = ~fires & (jump_port < n)
        event = fires | jumps
        if not event.any():
            return
        here = ids[cells]
        fired = here[fires]  # quorum (lines 9-15): the midpoint, next phase
        value[fired] = 0.5 * (v_min[fired] + v_max[fired])
        phase[fired] += 1
        jumped = (jumps, jump_port[jumps])  # jump (lines 5-8): copy the future state
        value[here[jumps]] = incoming_value[jumped]
        phase[here[jumps]] = incoming_phase[jumped]
        start = np.where(fires, quorum_port, jump_port)[event] + 1
        cells = here[event]
        v_min[cells] = v_max[cells] = value[cells]
        more = ~_new_phase(flat, cells, self_port, end_phase) & (start < n)
        cells, start = cells[more], start[more]


def _dbac_sweep(
    has_msg, msg_value, msg_phase, receiving, self_port, state, *,
    quorum, trim, end_phase,
) -> None:
    """One round of :meth:`~repro.core.dbac.DBACProcess.deliver` per cell.

    ``state`` holds ``value``, ``phase``, ``received``, ``count``,
    ``stored``, ``out_mask`` and ``out_val``; ``stored (B, n, quorum)``
    keeps the phase's stored values in witness-count order. Accepts are
    the fresh ports at the current phase or later, and each lands in
    slot ``count - 1`` of its witness count. The quorum firing is the
    only event: the ``trim``-th smallest and largest of the ``quorum``
    stored values, by one ``np.partition``, give the midpoint.
    """
    np = _np
    n = has_msg.shape[2]
    flat, start = _sweep_start(receiving, state)
    value, phase, stored = flat["value"], flat["phase"], flat["stored"]
    has_all, value_all, phase_all = (t.reshape(-1, n) for t in (has_msg, msg_value, msg_phase))
    ports, ids = np.arange(n), np.arange(value.size)
    kth = sorted({trim - 1, quorum - trim})
    cells = slice(None)  # the first pass covers every cell through views
    while True:
        accept = (
            has_all[cells]
            & (ports >= start[:, None])
            & (phase_all[cells] >= phase[cells][:, None])
            & ~flat["received"][cells]
        )
        reach, taken, fires, quorum_port = _record(accept, cells, flat, quorum)
        here = ids[cells]
        row, port = np.nonzero(taken)
        stored[here[row], reach[row, port] - 1] = value_all[here[row], port]

        if not fires.any():
            return
        start = quorum_port[fires] + 1
        cells = here[fires]
        part = np.partition(stored[cells], kth, axis=1)
        value[cells] = 0.5 * (part[:, trim - 1] + part[:, quorum - trim])
        phase[cells] += 1
        stored[cells, 0] = value[cells]
        more = ~_new_phase(flat, cells, self_port, end_phase) & (start < n)
        cells, start = cells[more], start[more]


def _dac_state_keys(state, b: int) -> dict[int, tuple]:
    """Every node's :meth:`~repro.core.dac.DACProcess.state_key` in lane row ``b``."""
    keys = ("value", "phase", "received", "v_min", "v_max", "out_mask", "out_val")
    rows = zip(*(state[key][b].tolist() for key in keys))
    return {
        node: (value, phase, tuple(received), low, high, out if decided else None)
        for node, (value, phase, received, low, high, decided, out) in enumerate(rows)
    }


def dac_kernel_refusal(selector: str = "rotate") -> str | None:
    """Why :class:`BatchEngine` cannot run these lanes, or ``None``.

    >>> dac_kernel_refusal("bogus") is None
    False
    >>> (dac_kernel_refusal("nearest") is None) == numpy_available()
    True
    """
    return _selector_refusal(selector)


class BatchEngine:
    """The numpy kernel for ``B`` boundary-DAC executions in lock-step.

    Parameters mirror :func:`repro.workloads.build_dac_execution` --
    one shared parameter assignment, one seed per lane:

    Parameters
    ----------
    n, f:
        Network size and fault bound (``n >= 2f + 1``).
    seeds:
        One root seed per lane; ``B = len(seeds)``. Each lane's inputs,
        ports and RNG streams derive from its seed exactly as the
        serial builder's do.
    epsilon, window, selector, crash_nodes, crash_start, enable_jump:
        As in ``build_dac_execution``. Raises ``ValueError`` when
        :func:`dac_kernel_refusal` refuses (numpy is missing); the
        builder itself rejects unknown selectors.
    max_rounds:
        Hard cap per lane; defaults to the serial builder's formula.
    """

    #: Read-only marker: lanes of this class come from a numpy kernel.
    backend = "numpy"

    def __init__(
        self,
        n: int,
        f: int,
        seeds: Sequence[int],
        *,
        epsilon: float = 1e-3,
        window: int = 1,
        selector: str = "rotate",
        crash_nodes: int | None = None,
        crash_start: int = 1,
        enable_jump: bool = True,
        max_rounds: int | None = None,
    ) -> None:
        self.seeds = [int(seed) for seed in seeds]
        if not self.seeds:
            raise ValueError("need at least one seed (one lane)")
        # Derive the lane family -- validation, crash schedule, quorum,
        # end phase, default round cap -- from the serial builder itself,
        # so there is exactly one source of truth for what a lane *is*
        # and the bit-identity contract cannot drift out from under a
        # builder change.
        probe = _workloads().build_dac_execution(
            n=n,
            f=f,
            epsilon=epsilon,
            seed=self.seeds[0],
            window=window,
            selector=selector,
            crash_nodes=crash_nodes,
            crash_start=crash_start,
            enable_jump=enable_jump,
            max_rounds=max_rounds,
        )
        reason = dac_kernel_refusal(selector)
        if reason:
            raise ValueError(f"DAC kernel unavailable: {reason}")
        process = next(iter(probe["processes"].values()))
        self.n = n
        self.f = f
        self.epsilon = epsilon
        self.window = window
        self.selector = selector
        self.enable_jump = enable_jump
        self.degree = probe["adversary"].degree
        self.quorum = process.quorum
        self.end_phase = process.end_phase
        self.max_rounds = probe["max_rounds"]
        self._crashes = probe["fault_plan"].crashes
        self._fault_free = sorted(probe["fault_plan"].fault_free)
        # Rotate tables by (live-set key, salt mod n): tiny and cyclic.
        self._rotate_cache: dict[tuple, object] = {}

    @property
    def batch_size(self) -> int:
        """Number of lanes ``B``."""
        return len(self.seeds)

    def run(self) -> list[LaneResult]:
        """Run every lane to its stop condition and return lane results.

        Results come back in ``seeds`` order. Each lane stops exactly
        like ``Engine.run(max_rounds, stop_when=all_fault_free_output)``
        does: the stop condition is evaluated before each round and once
        more at the cap, and the lane's state freezes at that point.
        """
        np = _np
        n = self.n
        lanes = len(self.seeds)

        # Per-lane construction through the serial builders' exact RNG
        # streams: inputs, port bijections (sender-major inverse and
        # self-ports are what the kernel indexes by), adversary streams.
        inputs = np.empty((lanes, n), dtype=np.float64)
        sender_at_port = np.empty((lanes, n, n), dtype=np.intp)
        self_port = np.empty((lanes, n), dtype=np.intp)
        for b, seed in enumerate(self.seeds):
            inputs[b] = spawn_inputs(seed, n)
            ports = random_ports(n, child_rng(seed, "ports"))
            sender_at_port[b] = ports.sender_rows()
            for v in range(n):
                self_port[b, v] = ports.self_port(v)
        adversary_rngs = [child_rng(seed, "adversary") for seed in self.seeds]
        no_byz = np.empty(0, dtype=np.intp)

        crash_round = np.full(n, _NEVER, dtype=np.int64)
        for node, event in self._crashes.items():
            crash_round[node] = event.round
        fault_free = np.array(self._fault_free, dtype=np.intp)

        # DACProcess state, one row per lane (Algorithm 1 init block);
        # end phase 0 decides at once (the init-time _check_output).
        decided = self.end_phase == 0
        state = dict(
            value=inputs.copy(), phase=np.zeros((lanes, n), dtype=np.int64),
            received=np.zeros((lanes, n, n), dtype=bool),
            count=np.ones((lanes, n), dtype=np.int64),
            v_min=inputs.copy(), v_max=inputs.copy(),
            out_mask=np.full((lanes, n), decided),
            out_val=np.where(decided, inputs, 0.0),
        )
        lane_idx = np.arange(lanes)
        state["received"][lane_idx[:, None], np.arange(n)[None, :], self_port] = True
        value, phase, out_mask, out_val = (
            state[key] for key in ("value", "phase", "out_mask", "out_val")
        )
        results: list[LaneResult | None] = [None] * lanes

        def finalize(b: int, rounds: int, stopped: bool) -> None:
            results[b] = LaneResult(
                seed=self.seeds[b],
                rounds=rounds,
                stopped=stopped,
                inputs={node: float(inputs[b, node]) for node in range(n)},
                outputs={
                    int(node): float(out_val[b, node])
                    for node in fault_free
                    if out_mask[b, node]
                },
                state_keys=_dac_state_keys(state, b),
            )

        gather_lane = lane_idx[:, None, None]
        lane_active = np.ones(lanes, dtype=bool)
        end_phase = self.end_phase
        t = 0
        while True:
            # Stop handling in Engine.run order: the condition first,
            # the cap second (a lane at the cap whose condition holds
            # right now reports stopped=True either way).
            finished = lane_active & out_mask[:, fault_free].all(axis=1)
            for b in np.nonzero(finished)[0]:
                finalize(int(b), t, True)
            lane_active &= ~finished
            if t >= self.max_rounds:
                for b in np.nonzero(lane_active)[0]:
                    finalize(int(b), t, False)
                lane_active[:] = False
            if not lane_active.any():
                break
            if self.window > 1 and (t + 1) % self.window != 0:
                # The last-minute adversary's silent rounds change no
                # state: the only delivery is each node's own message,
                # whose port is already marked received.
                t += 1
                continue

            live = crash_round > t  # clean crashes: senders == processors
            salt = t if self.window == 1 else t // self.window
            # A stopped lane draws nothing from its adversary stream.
            # The self message is never materialized: its port is
            # pre-marked at phase start, so the engine's reliable
            # self-delivery is always a no-op.
            rngs = None
            if self.selector == "random":
                rngs = [
                    rng if active else None
                    for rng, active in zip(adversary_rngs, lane_active)
                ]
            delivered = select_delivered(
                self.selector, self.degree, value, live, no_byz, [salt] * lanes,
                rngs, self._rotate_cache,
            )
            has_msg = _in_port_order(delivered, sender_at_port)

            # The gathered tables are the round-start broadcast snapshot.
            msg_value = value[gather_lane, sender_at_port]
            msg_phase = phase[gather_lane, sender_at_port]
            receiving = lane_active[:, None] & live[None, :]
            _dac_sweep(
                has_msg, msg_value, msg_phase, receiving, self_port, state,
                quorum=self.quorum, end_phase=end_phase, enable_jump=self.enable_jump,
            )
            t += 1
        return [result for result in results if result is not None]


def run_dac_batch(
    n: int,
    f: int,
    seeds: Sequence[int],
    *,
    epsilon: float = 1e-3,
    window: int = 1,
    selector: str = "rotate",
    crash_nodes: int | None = None,
    crash_start: int = 1,
    enable_jump: bool = True,
    max_rounds: int | None = None,
    on_lane: Callable[[LaneResult], None] | None = None,
) -> list[LaneResult]:
    """Run one batch of boundary DAC executions, one lane per seed.

    :class:`BatchEngine` lanes when :func:`dac_kernel_refusal` accepts
    the selector, :class:`GenericBatchEngine` lanes over
    :func:`repro.workloads.build_dac_execution` otherwise -- the same
    results either way (see :class:`BatchEngine` for parameter
    semantics). ``on_lane`` is called once per finished lane, in lane
    (seed) order -- the seam :func:`repro.obs.attach.lane_finished`
    plugs into for per-lane ``RunFinished`` events.

    >>> lanes = run_dac_batch(5, 2, [0, 1])
    >>> [(lane.seed, lane.stopped) for lane in lanes]
    [(0, True), (1, True)]
    >>> run_dac_batch(5, 2, [0, 1], selector="nearest")[1].stopped
    True
    """
    params = dict(
        epsilon=epsilon,
        window=window,
        selector=selector,
        crash_nodes=crash_nodes,
        crash_start=crash_start,
        enable_jump=enable_jump,
        max_rounds=max_rounds,
    )
    if dac_kernel_refusal(selector) is None:
        lanes = BatchEngine(n, f, seeds, **params).run()
    else:
        build = _workloads().build_dac_execution
        lanes = GenericBatchEngine(
            seeds, lambda seed: build(n=n, f=f, seed=seed, **params)
        ).run()
    return _streamed(lanes, on_lane)


# -- Batched DBAC / Byzantine / mobile-omission lanes ----------------------

_STOP_MODES = ("oracle", "output")


def _strategy_vector_plan(strategy: object):
    """How the kernel reproduces one Byzantine strategy, or ``None``.

    Most strategies' round messages factor into a static per-receiver
    value -- one value for even-numbered receivers, one for odd -- plus
    a phase that is either a constant or tracks the maximum fault-free
    phase (with a fixed lead). Returns ``((even_value, odd_value),
    phase_kind, phase_arg)`` with ``phase_kind`` in ``{"track",
    "const"}``; ``(None, "draw", 0)`` for
    :class:`~repro.faults.byzantine.RandomByzantine`, whose per-lane
    streams the kernel replays through its
    :meth:`~repro.faults.byzantine.RandomByzantine.draw`; or ``None``
    when the strategy cannot be vectorized. Exact types are matched so
    subclasses with overridden behavior are never mis-vectorized.
    """
    from repro.faults.byzantine import (
        ExtremeByzantine,
        FixedValueByzantine,
        PhaseLiarByzantine,
        RandomByzantine,
    )

    kind = type(strategy)
    if kind is RandomByzantine:
        return None, "draw", 0
    if kind is ExtremeByzantine:
        return (float(strategy.low), float(strategy.high)), "track", 0
    if kind is PhaseLiarByzantine:
        value = float(strategy.value)
        return (value, value), "track", int(strategy.phase_lead)
    if kind is FixedValueByzantine:
        value = float(strategy.value)
        if strategy.phase_mode == "track":
            return (value, value), "track", 0
        return (value, value), "const", int(strategy.phase_mode)
    return None


def byz_kernel_refusal(
    adversary: str = "quorum", selector: str = "nearest", strategy: str = "extreme"
) -> str | None:
    """Why :class:`ByzBatchEngine` cannot run these lanes, or ``None``.

    Mobile-omission lanes vectorize in every mode; quorum lanes need a
    vectorizable selector and a Byzantine strategy (named as in
    :data:`repro.workloads.TRIAL_BYZANTINE_STRATEGIES`) whose messages
    :func:`_strategy_vector_plan` reproduces.

    >>> byz_kernel_refusal(selector="bogus") is None
    False
    >>> (byz_kernel_refusal(strategy="random") is None) == numpy_available()
    True
    """
    if _np is None:
        return _NO_NUMPY
    if adversary != "quorum":
        return None
    reason = _selector_refusal(selector)
    if reason:
        return reason
    factory = _workloads().TRIAL_BYZANTINE_STRATEGIES.get(strategy)
    if factory is not None and _strategy_vector_plan(factory()) is None:
        return (
            f"Byzantine strategy {strategy!r} is not vectorizable "
            "(state-dependent messages)"
        )
    return None


def _byz_builder(
    n: int,
    f: int | None,
    *,
    epsilon: float,
    window: int,
    selector: str,
    strategy: str,
    adversary: str,
    stop_mode: str,
    max_rounds: int,
) -> Callable[[int], dict]:
    """``seed -> run_consensus kwargs`` for one Byzantine-or-mobile lane.

    Exactly the serial builders :func:`repro.workloads.run_byz_trial`
    runs: :func:`~repro.workloads.build_dbac_execution` with the named
    strategy for ``"quorum"``, :func:`~repro.workloads.build_mobile_execution`
    for ``"mobile-<mode>"``.
    """
    workloads = _workloads()
    if adversary == "quorum":
        strategies = workloads.TRIAL_BYZANTINE_STRATEGIES
        if strategy not in strategies:
            raise ValueError(
                f"unknown strategy {strategy!r}; known: {sorted(strategies)}"
            )
        factory = strategies[strategy]
        f = (n - 1) // 5 if f is None else f
        return lambda seed: workloads.build_dbac_execution(
            n=n,
            f=f,
            epsilon=epsilon,
            seed=seed,
            window=window,
            selector=selector,
            byzantine_factory=lambda node: factory(),
            stop_mode=stop_mode,
            max_rounds=max_rounds,
        )
    if not adversary.startswith("mobile-"):
        raise ValueError(
            f"unknown adversary {adversary!r}; use 'quorum' or 'mobile-<mode>'"
        )
    if f not in (None, 0):
        raise ValueError(f"mobile-omission lanes are fault-free, got f={f}")
    return lambda seed: workloads.build_mobile_execution(
        n=n,
        mode=adversary[len("mobile-") :],
        epsilon=epsilon,
        seed=seed,
        stop_mode=stop_mode,
        max_rounds=max_rounds,
    )


class ByzBatchEngine:
    """The numpy kernel for ``B`` DBAC / Byzantine / mobile lanes in lock-step.

    The Byzantine counterpart of :class:`BatchEngine`: one shared
    parameter assignment, one seed per lane, lane families exactly as
    :func:`repro.workloads.run_byz_trial` builds them --

    - ``adversary="quorum"``: boundary DBAC (``n >= 5f + 1``) under the
      enforcing ``(window, floor((n+3f)/2))`` adversary, the ``f``
      highest-numbered nodes running the named Byzantine ``strategy``;
    - ``adversary="mobile-<mode>"``: fault-free DAC under the
      Gafni-Losa mobile-omission adversary (one targeted in-link cut
      per node per round).

    Parameters
    ----------
    n, f:
        Network size and fault bound. ``f=None`` resolves to the trial
        default: the DBAC boundary ``(n - 1) // 5`` for ``"quorum"``,
        ``0`` for mobile lanes (which must be fault-free).
    seeds:
        One root seed per lane. Each lane derives inputs, ports and
        Byzantine RNG streams from its seed exactly as the serial
        builders do, so results are bit-identical to serial runs.
    epsilon, window, selector, strategy, stop_mode, max_rounds:
        As in :func:`repro.workloads.run_dbac_trial` /
        ``run_byz_trial`` (``stop_mode="oracle"`` stops a lane when
        the fault-free spread first dips to ``epsilon``;
        ``"output"`` waits for algorithm-local termination).
        Raises ``ValueError`` when :func:`byz_kernel_refusal` refuses
        (numpy is missing, or a strategy outside the trial menu);
        :func:`run_byz_batch` runs those lanes serially.
    width:
        Maximum concurrent vector lanes. ``None`` (default) runs all
        seeds at once. With ``width=W < len(seeds)`` the kernel
        processes the seed list through ``W`` rows.
    compact:
        Lane compaction (only observable when ``width`` caps the row
        count): ``True`` re-fills each finished row from
        the pending seed queue immediately, keeping the vector width
        full through long-tailed grids; ``False`` drains each
        ``width``-sized chunk completely before starting the next.
        Purely a speed/scheduling knob -- lanes are fully independent,
        so results are bit-identical either way (pinned in tests).
    """

    #: Read-only marker: lanes of this class come from a numpy kernel.
    backend = "numpy"

    def __init__(
        self,
        n: int,
        f: int | None,
        seeds: Sequence[int],
        *,
        epsilon: float = 1e-3,
        window: int = 1,
        selector: str = "nearest",
        strategy: str = "extreme",
        adversary: str = "quorum",
        stop_mode: str = "oracle",
        max_rounds: int = 50_000,
        width: int | None = None,
        compact: bool = True,
    ) -> None:
        self.seeds = [int(seed) for seed in seeds]
        if not self.seeds:
            raise ValueError("need at least one seed (one lane)")
        if stop_mode not in _STOP_MODES:
            raise ValueError(f"stop_mode must be one of {_STOP_MODES}, got {stop_mode!r}")
        if width is not None and width < 1:
            raise ValueError(f"width must be >= 1 (or None), got {width}")
        self.n = n
        self.epsilon = float(epsilon)
        self.window = int(window)
        self.selector = selector
        self.strategy = strategy
        self.adversary = adversary
        self.stop_mode = stop_mode
        self.max_rounds = int(max_rounds)
        self.width = width
        self.compact = bool(compact)
        # Derive the lane family from the serial builder itself (one
        # source of truth, like BatchEngine does for DAC): validates
        # n >= 5f+1, the adversary, mode and strategy names as a side
        # effect.
        probe = _byz_builder(
            n,
            f,
            epsilon=self.epsilon,
            window=self.window,
            selector=selector,
            strategy=strategy,
            adversary=adversary,
            stop_mode=stop_mode,
            max_rounds=self.max_rounds,
        )(self.seeds[0])
        process = next(iter(probe["processes"].values()))
        plan = probe["fault_plan"]
        self.f = probe["f"]
        self.quorum = process.quorum
        self.end_phase = process.end_phase
        if adversary == "quorum":
            self.family = "quorum"
            self.mode = None
            self.trim = process.trim
            self.degree = probe["adversary"].degree
        else:
            self.family = "mobile"
            self.mode = adversary[len("mobile-") :]
            self.trim = 0
            self.degree = 0
        self._byz_nodes = tuple(sorted(plan.byzantine))
        self._fault_free = tuple(sorted(plan.fault_free))
        self._byz_strategies = [plan.byzantine[u] for u in self._byz_nodes]
        reason = byz_kernel_refusal(adversary, selector, strategy)
        if reason:
            raise ValueError(f"Byzantine kernel unavailable: {reason}")
        # Rotate tables by (live-set key, salt mod n): at most n entries.
        self._rotate_cache: dict[tuple, object] = {}

    @property
    def batch_size(self) -> int:
        """Number of lanes (seeds); the vector width is ``min(width, B)``."""
        return len(self.seeds)

    # -- vectorized kernels with lane compaction -----------------------

    def run(self) -> list[LaneResult]:
        """Run every lane to its stop condition; results in seed order.

        Each lane stops exactly like the serial
        ``Engine.run(max_rounds, stop_when=...)`` does for its stop
        mode: the condition is evaluated before each round and once
        more at the cap.
        """
        results: list[LaneResult | None] = [None] * len(self.seeds)
        pending: deque[tuple[int, int]] = deque(enumerate(self.seeds))
        width = len(self.seeds) if self.width is None else min(self.width, len(self.seeds))
        kernel = self._kernel_quorum if self.family == "quorum" else self._kernel_mobile
        if self.compact:
            first = [pending.popleft() for _ in range(width)]
            kernel(first, pending, results)
        else:
            while pending:
                chunk = [
                    pending.popleft() for _ in range(min(width, len(pending)))
                ]
                kernel(chunk, None, results)
        return [result for result in results if result is not None]

    def _lane_tables(self, seed: int):
        """Inputs and port tables for one lane, via the serial RNG streams."""
        n = self.n
        inputs = spawn_inputs(seed, n)
        ports = random_ports(n, child_rng(seed, "ports"))
        sender_at_port = ports.sender_rows()
        self_port = [ports.self_port(v) for v in range(n)]
        return inputs, sender_at_port, self_port

    def _bound_strategy(self, node: int, seed: int):
        """A fresh trial-menu strategy for ``node``, bound exactly as
        the serial engine binds it for the lane with root ``seed``."""
        strategy = _workloads().TRIAL_BYZANTINE_STRATEGIES[self.strategy]()
        strategy.bind(node, self.n, self.f, 0.0, child_rng(seed, f"byzantine-{node}"))
        return strategy

    def _drain_and_refill(
        self, cond_fn, lane_active, lane_t, finalize_row, reset_row, pending
    ) -> None:
        """Stop handling shared by both kernels, in ``Engine.run`` order
        (condition first, cap second), then compaction: freed rows
        immediately restart on queued seeds, and freshly refilled rows
        are re-checked -- a refilled lane may satisfy its stop
        condition at round zero, exactly like a serial run of zero
        rounds.

        ``cond_fn`` returns the per-lane stop-condition bools against
        the kernel's *current* state arrays; ``finalize_row`` /
        ``reset_row`` are the kernel's closures over them.
        """
        np = _np
        while True:
            cond = cond_fn()
            done = lane_active & (cond | (lane_t >= self.max_rounds))
            done_rows = np.nonzero(done)[0]
            if done_rows.size == 0:
                return
            for b in done_rows:
                finalize_row(int(b), bool(cond[b]))
            if not pending:
                return
            for b in done_rows:
                if not pending:
                    break
                result_slot, seed = pending.popleft()
                reset_row(int(b), result_slot, seed)

    def _scatter_messages(
        self, buffers: dict, lanes: int, deliver_rows, has_msg_d, msg_value_d, msg_phase_d
    ):
        """Full-width ``(B, n, n)`` views of one round's message arrays.

        When every lane delivers this round the per-row arrays already
        are full width; otherwise the delivering rows are scattered
        into partial-width buffers cached in ``buffers`` (one dict per
        kernel run, allocated lazily on the first partial round).
        Stale rows from earlier rounds are never cleared -- the
        per-round receiving mask filters them before any read.
        """
        if deliver_rows.size == lanes:
            return has_msg_d, msg_value_d, msg_phase_d
        np = _np
        n = self.n
        if not buffers:
            buffers["has"] = np.empty((lanes, n, n), dtype=bool)
            buffers["value"] = np.empty((lanes, n, n), dtype=np.float64)
            buffers["phase"] = np.empty((lanes, n, n), dtype=np.int64)
        buffers["has"][deliver_rows] = has_msg_d
        buffers["value"][deliver_rows] = msg_value_d
        buffers["phase"][deliver_rows] = msg_phase_d
        return buffers["has"], buffers["value"], buffers["phase"]

    def _kernel_quorum(self, rows, pending, results) -> None:
        """Advance DBAC lanes in lock-step until all rows (and, with a
        ``pending`` queue, all queued refills) are finalized.

        Each delivering round is one :func:`_dbac_sweep`: quorums that
        fire mid-batch re-filter the remaining ports against the new
        phase, as in each ``DBACProcess.deliver`` call. The self message
        is never materialized: its port is pre-marked in ``R_i`` at
        phase start, so the engine's reliable self-delivery is always
        filtered. ``R_low``/``R_high`` are not kept as sorted lists:
        each phase's stored values fill a ``(B, n, quorum)`` buffer in
        witness-count order, the sweep takes the trimmed extremes from
        it by one ``np.partition``, and finalize rebuilds the exact
        serial lists from it -- the same value multisets, so state keys
        and midpoints are bit-identical
        (see :attr:`repro.core.dbac.DBACProcess.stored_count`).
        """
        np = _np
        n = self.n
        trim = self.trim
        quorum = self.quorum
        end_phase = self.end_phase
        window = self.window
        lanes = len(rows)
        node_idx = np.arange(n)

        byz = np.array(self._byz_nodes, dtype=np.intp)
        ff = np.array(self._fault_free, dtype=np.intp)
        honest = np.ones(n, dtype=bool)
        if byz.size:
            honest[byz] = False
        byz_flag = ~honest
        # Byzantine message tables: a static per-(sender, receiver)
        # value matrix plus a per-sender phase rule (track the maximum
        # fault-free phase with a fixed lead, or a constant).
        byz_value = np.zeros((n, n), dtype=np.float64)
        byz_track = np.zeros(n, dtype=bool)
        byz_lead = np.zeros(n, dtype=np.int64)
        byz_const = np.zeros(n, dtype=np.int64)
        # Drawing strategies instead fill per-lane (sender, receiver)
        # tables each round from their own replayed streams.
        byz_draws = np.zeros(n, dtype=bool)
        for node, strategy in zip(self._byz_nodes, self._byz_strategies):
            plan = _strategy_vector_plan(strategy)
            assert plan is not None  # guaranteed by byz_kernel_refusal
            values, phase_kind, phase_arg = plan
            if phase_kind == "draw":
                byz_draws[node] = True
                continue
            byz_value[node] = np.where(node_idx % 2 == 0, *values)
            if phase_kind == "track":
                byz_track[node] = True
                byz_lead[node] = phase_arg
            else:
                byz_const[node] = phase_arg
        draw_nodes = [int(u) for u in np.nonzero(byz_draws)[0]]
        draw_targets = {u: [v for v in range(n) if v != u] for u in draw_nodes}
        drawn_value = np.zeros((lanes, n, n), dtype=np.float64)
        drawn_phase = np.zeros((lanes, n, n), dtype=np.int64)
        lane_strategies: list[list] = [[] for _ in range(lanes)]
        adversary_rngs: list = [None] * lanes
        all_live = np.ones(n, dtype=bool)  # no crashes: everyone transmits

        slot = np.zeros(lanes, dtype=np.intp)
        lane_seed = [0] * lanes
        inputs = np.empty((lanes, n), dtype=np.float64)
        sender_at_port = np.empty((lanes, n, n), dtype=np.intp)
        self_port = np.empty((lanes, n), dtype=np.intp)
        value = np.empty((lanes, n), dtype=np.float64)
        phase = np.zeros((lanes, n), dtype=np.int64)
        received = np.zeros((lanes, n, n), dtype=bool)
        count = np.ones((lanes, n), dtype=np.int64)
        # Per-phase stored values in witness-counter order; slot i holds
        # the (i+1)-th stored value of the current phase (slot 0 is the
        # phase-start self value). count <= quorum always: the quorum
        # fires, and resets the counter, on the accept that reaches it.
        stored = np.zeros((lanes, n, quorum), dtype=np.float64)
        out_mask = np.zeros((lanes, n), dtype=bool)
        out_val = np.zeros((lanes, n), dtype=np.float64)
        state = dict(
            value=value, phase=phase, received=received, count=count,
            stored=stored, out_mask=out_mask, out_val=out_val,
        )
        lane_t = np.zeros(lanes, dtype=np.int64)
        lane_active = np.zeros(lanes, dtype=bool)

        def reset_row(b: int, result_slot: int, seed: int) -> None:
            lane_inputs, lane_sap, lane_self = self._lane_tables(seed)
            slot[b] = result_slot
            lane_seed[b] = seed
            inputs[b] = lane_inputs
            sender_at_port[b] = lane_sap
            self_port[b] = lane_self
            # A refilled row restarts its RNG streams from its new seed.
            adversary_rngs[b] = child_rng(seed, "adversary")
            lane_strategies[b] = [self._bound_strategy(u, seed) for u in draw_nodes]
            value[b] = inputs[b]
            phase[b] = 0
            received[b] = False
            received[b, node_idx, self_port[b]] = True
            count[b] = 1
            stored[b, :, 0] = value[b]
            out_mask[b] = end_phase == 0  # the init-time _check_output
            out_val[b] = value[b] if end_phase == 0 else 0.0
            lane_t[b] = 0
            lane_active[b] = True

        def finalize_row(b: int, stopped: bool) -> None:
            state_keys = {}
            for node in self._fault_free:
                # Reconstruct the exact R_low / R_high lists from the
                # phase's stored-value buffer: the recording lists are
                # the min(stored, f+1) smallest / largest stored values
                # in ascending order (the DBACProcess.stored_count
                # invariant).
                stores = int(count[b, node])
                length = min(stores, trim)
                stored_sorted = np.sort(stored[b, node, :stores])
                decided = bool(out_mask[b, node])
                state_keys[node] = (
                    float(value[b, node]),
                    int(phase[b, node]),
                    tuple(bool(bit) for bit in received[b, node]),
                    tuple(float(v) for v in stored_sorted[:length]),
                    tuple(float(v) for v in stored_sorted[stores - length :]),
                    float(out_val[b, node]) if decided else None,
                )
            if self.stop_mode == "output":
                outputs = {
                    int(node): float(out_val[b, node])
                    for node in ff
                    if out_mask[b, node]
                }
            else:
                outputs = {int(node): float(value[b, node]) for node in ff}
            results[slot[b]] = LaneResult(
                seed=lane_seed[b],
                rounds=int(lane_t[b]),
                stopped=stopped,
                inputs={int(node): float(inputs[b, node]) for node in ff},
                outputs=outputs,
                state_keys=state_keys,
            )
            lane_active[b] = False

        def stop_condition():
            if self.stop_mode == "output":
                return out_mask[:, ff].all(axis=1)
            ff_values = value[:, ff]
            return (ff_values.max(axis=1) - ff_values.min(axis=1)) <= self.epsilon

        for b, (result_slot, seed) in enumerate(rows):
            reset_row(b, result_slot, seed)

        scatter_buffers: dict = {}

        while True:
            self._drain_and_refill(
                stop_condition, lane_active, lane_t, finalize_row, reset_row, pending
            )
            if not lane_active.any():
                return

            if draw_nodes:
                # Drawing strategies draw every round, silent window
                # rounds included, on every active lane: one draw per
                # receiver but the node itself, in ascending order.
                tops = phase[:, ff].max(axis=1).tolist()
                for b in np.nonzero(lane_active)[0]:
                    top = tops[b]
                    for u, strategy in zip(draw_nodes, lane_strategies[b]):
                        targets = draw_targets[u]
                        drawn = [strategy.draw(top) for _ in targets]
                        drawn_value[b, u, targets] = [v for v, _p in drawn]
                        drawn_phase[b, u, targets] = [p for _v, p in drawn]

            delivering = (
                lane_active
                if window == 1
                else lane_active & ((lane_t + 1) % window == 0)
            )
            if delivering.any():
                deliver_rows = np.nonzero(delivering)[0]
                # The round-start state -- what the adversary and the
                # Byzantine strategies see and honest senders transmit --
                # is read before the sweep updates it.
                max_ff_phase = phase[:, ff].max(axis=1)
                sap_d = sender_at_port[deliver_rows]

                delivered_recv = select_delivered(
                    self.selector, self.degree, value[deliver_rows], all_live, byz,
                    (lane_t[deliver_rows] // window).tolist(),
                    [adversary_rngs[b] for b in deliver_rows], self._rotate_cache,
                )
                has_msg_d = _in_port_order(delivered_recv, sap_d)

                gather_d = (deliver_rows[:, None, None], sap_d)
                msg_value_d = value[gather_d]
                msg_phase_d = phase[gather_d]
                if byz.size:
                    is_byz_sender = byz_flag[sap_d]
                    byz_value_d = byz_value[sap_d, node_idx[None, :, None]]
                    byz_phase = np.where(
                        byz_track[None, :],
                        max_ff_phase[:, None] + byz_lead[None, :],
                        byz_const[None, :],
                    )
                    byz_phase_d = byz_phase[gather_d]
                    if draw_nodes:
                        drawn_d = (*gather_d, node_idx[None, :, None])
                        is_drawn = byz_draws[sap_d]
                        byz_value_d = np.where(is_drawn, drawn_value[drawn_d], byz_value_d)
                        byz_phase_d = np.where(is_drawn, drawn_phase[drawn_d], byz_phase_d)
                    msg_value_d = np.where(is_byz_sender, byz_value_d, msg_value_d)
                    msg_phase_d = np.where(is_byz_sender, byz_phase_d, msg_phase_d)

                has_msg, msg_value, msg_phase = self._scatter_messages(
                    scatter_buffers, lanes, deliver_rows,
                    has_msg_d, msg_value_d, msg_phase_d,
                )

                _dbac_sweep(
                    has_msg, msg_value, msg_phase, delivering[:, None] & honest[None, :],
                    self_port, state, quorum=quorum, trim=trim, end_phase=end_phase,
                )
            # Silent window rounds change no state: the only delivery
            # is each node's own message, whose port is already marked.
            lane_t = np.where(lane_active, lane_t + 1, lane_t)

    def _kernel_mobile(self, rows, pending, results) -> None:
        """Advance mobile-omission DAC lanes in lock-step (with refill).

        :class:`BatchEngine`'s update rule, the same :func:`_dac_sweep`,
        under per-lane delivered-from matrices: the complete graph minus
        each receiver's targeted in-link, computed per lane from the
        round-start values with two ``argmin``/``argmax`` passes -- the
        vectorized form of :func:`repro.adversary.mobile.mobile_victims`.
        """
        np = _np
        n = self.n
        quorum = self.quorum
        end_phase = self.end_phase
        mode = self.mode
        lanes = len(rows)
        node_idx = np.arange(n)

        slot = np.zeros(lanes, dtype=np.intp)
        lane_seed = [0] * lanes
        inputs = np.empty((lanes, n), dtype=np.float64)
        sender_at_port = np.empty((lanes, n, n), dtype=np.intp)
        self_port = np.empty((lanes, n), dtype=np.intp)
        state = dict(
            value=np.empty((lanes, n)), phase=np.zeros((lanes, n), dtype=np.int64),
            received=np.zeros((lanes, n, n), dtype=bool),
            count=np.ones((lanes, n), dtype=np.int64),
            v_min=np.empty((lanes, n)), v_max=np.empty((lanes, n)),
            out_mask=np.zeros((lanes, n), dtype=bool), out_val=np.zeros((lanes, n)),
        )
        value, phase, received, out_mask, out_val = (
            state[key] for key in ("value", "phase", "received", "out_mask", "out_val")
        )
        lane_t = np.zeros(lanes, dtype=np.int64)
        lane_active = np.zeros(lanes, dtype=bool)
        complete = ~np.eye(n, dtype=bool)  # receiver-major, no self loop

        def reset_row(b: int, result_slot: int, seed: int) -> None:
            lane_inputs, lane_sap, lane_self = self._lane_tables(seed)
            slot[b] = result_slot
            lane_seed[b] = seed
            inputs[b] = lane_inputs
            sender_at_port[b] = lane_sap
            self_port[b] = lane_self
            for key in ("value", "v_min", "v_max"):
                state[key][b] = inputs[b]
            phase[b] = 0
            received[b] = False
            received[b, node_idx, self_port[b]] = True
            state["count"][b] = 1
            out_mask[b] = end_phase == 0  # the init-time _check_output
            out_val[b] = inputs[b] if end_phase == 0 else 0.0
            lane_t[b] = 0
            lane_active[b] = True

        def finalize_row(b: int, stopped: bool) -> None:
            if self.stop_mode == "output":
                outputs = {
                    int(node): float(out_val[b, node])
                    for node in range(n)
                    if out_mask[b, node]
                }
            else:
                outputs = {int(node): float(value[b, node]) for node in range(n)}
            results[slot[b]] = LaneResult(
                seed=lane_seed[b],
                rounds=int(lane_t[b]),
                stopped=stopped,
                inputs={int(node): float(inputs[b, node]) for node in range(n)},
                outputs=outputs,
                state_keys=_dac_state_keys(state, b),
            )
            lane_active[b] = False

        def stop_condition():
            if self.stop_mode == "output":
                return out_mask.all(axis=1)
            return (value.max(axis=1) - value.min(axis=1)) <= self.epsilon

        for b, (result_slot, seed) in enumerate(rows):
            reset_row(b, result_slot, seed)

        scatter_buffers: dict = {}

        while True:
            self._drain_and_refill(
                stop_condition, lane_active, lane_t, finalize_row, reset_row, pending
            )
            if not lane_active.any():
                return

            deliver_rows = np.nonzero(lane_active)[0]
            sap_d = sender_at_port[deliver_rows]

            delivered_recv = np.broadcast_to(
                complete, (deliver_rows.size, n, n)
            ).copy()
            if mode == "rotate":
                victim = (node_idx[None, :] + lane_t[deliver_rows][:, None]) % n
                cut = victim != node_idx[None, :]
                delivered_recv[
                    np.nonzero(cut)[0], np.nonzero(cut)[1], victim[cut]
                ] = False
            elif mode in ("block_min", "block_max"):
                lane_values = value[deliver_rows]
                pick = np.argmin if mode == "block_min" else np.argmax
                first = pick(lane_values, axis=1)
                masked = lane_values.copy()
                masked[np.arange(deliver_rows.size), first] = (
                    np.inf if mode == "block_min" else -np.inf
                )
                second = pick(masked, axis=1)
                victim = np.broadcast_to(first[:, None], (deliver_rows.size, n)).copy()
                victim[np.arange(deliver_rows.size), first] = second
                delivered_recv[
                    np.arange(deliver_rows.size)[:, None],
                    node_idx[None, :],
                    victim,
                ] = False
            # mode == "none": keep the complete graph.
            has_msg_d = np.take_along_axis(delivered_recv, sap_d, axis=2)
            msg_value_d = value[deliver_rows[:, None, None], sap_d]
            msg_phase_d = phase[deliver_rows[:, None, None], sap_d]

            has_msg, msg_value, msg_phase = self._scatter_messages(
                scatter_buffers, lanes, deliver_rows,
                has_msg_d, msg_value_d, msg_phase_d,
            )

            _dac_sweep(
                has_msg, msg_value, msg_phase, lane_active[:, None], self_port, state,
                quorum=quorum, end_phase=end_phase, enable_jump=True,
            )
            lane_t = np.where(lane_active, lane_t + 1, lane_t)


def run_byz_batch(
    n: int,
    f: int | None,
    seeds: Sequence[int],
    *,
    epsilon: float = 1e-3,
    window: int = 1,
    selector: str = "nearest",
    strategy: str = "extreme",
    adversary: str = "quorum",
    stop_mode: str = "oracle",
    max_rounds: int = 50_000,
    width: int | None = None,
    compact: bool = True,
    on_lane: Callable[[LaneResult], None] | None = None,
) -> list[LaneResult]:
    """Run one batch of Byzantine-or-mobile executions, one lane per seed.

    :class:`ByzBatchEngine` lanes when :func:`byz_kernel_refusal`
    accepts the parameters, :class:`GenericBatchEngine` lanes over the
    serial builders otherwise (``width``/``compact`` only schedule the
    kernel). See :class:`ByzBatchEngine` for parameter semantics;
    ``on_lane`` is called once per finished lane, in lane (seed) order
    (see :func:`run_dac_batch`).

    >>> lanes = run_byz_batch(6, 1, [0, 1])
    >>> [lane.stopped for lane in lanes]
    [True, True]
    """
    params = dict(
        epsilon=epsilon,
        window=window,
        selector=selector,
        strategy=strategy,
        adversary=adversary,
        stop_mode=stop_mode,
        max_rounds=max_rounds,
    )
    if byz_kernel_refusal(adversary, selector, strategy) is None:
        lanes = ByzBatchEngine(
            n, f, seeds, width=width, compact=compact, **params
        ).run()
    else:
        lanes = GenericBatchEngine(seeds, _byz_builder(n, f, **params)).run()
    return _streamed(lanes, on_lane)


def run_dbac_batch(
    n: int,
    f: int | None,
    seeds: Sequence[int],
    *,
    epsilon: float = 1e-3,
    window: int = 1,
    selector: str = "nearest",
    strategy: str = "extreme",
    stop_mode: str = "oracle",
    max_rounds: int = 50_000,
    width: int | None = None,
    compact: bool = True,
    on_lane: Callable[[LaneResult], None] | None = None,
) -> list[LaneResult]:
    """Run one batch of boundary DBAC executions, one lane per seed.

    :func:`run_byz_batch` pinned to the ``"quorum"`` family -- the
    batched counterpart of :func:`repro.workloads.run_dbac_trial`.

    >>> lanes = run_dbac_batch(6, 1, [0, 1, 2], strategy="random")
    >>> [lane.seed for lane in lanes]
    [0, 1, 2]
    """
    return run_byz_batch(
        n,
        f,
        seeds,
        epsilon=epsilon,
        window=window,
        selector=selector,
        strategy=strategy,
        adversary="quorum",
        stop_mode=stop_mode,
        max_rounds=max_rounds,
        width=width,
        compact=compact,
        on_lane=on_lane,
    )


def baseline_kernel_refusal(selector: str = "rotate") -> str | None:
    """Why :class:`BaselineBatchEngine` cannot run these lanes, or ``None``."""
    return _selector_refusal(selector)


class BaselineBatchEngine:
    """The numpy kernel for ``B`` averaging-baseline lanes in lock-step.

    The baseline counterpart of :class:`BatchEngine`: one shared
    parameter assignment, one seed per lane, lane families exactly as
    :func:`repro.workloads.run_baseline_trial` builds them -- the
    reliable-channel iterated ``"midpoint"`` (Dolev et al.) or
    trim-``f`` ``"trimmed"`` mean running fault-free under the same
    enforcing ``(window, floor(n/2))`` quorum adversary and seed/input
    streams as the DAC trials.

    The kernel exploits what makes these lanes special: every
    node advances its round counter on every engine round (self
    delivery keeps the batch non-empty), every lane outputs at exactly
    ``num_rounds``, and the whole per-node state is one float. Silent
    window rounds are provably value-preserving (the midpoint of
    ``{v}`` is ``v``; a trimmed batch of one is either ``{v}`` or
    empty), so the kernel only touches the ``(B, n)`` value matrix on
    delivery rounds. Results are bit-identical to serial runs -- same
    floats, same round counts, same ``state_key()`` tuples.

    Parameters mirror :func:`repro.workloads.run_baseline_trial`;
    ``num_rounds=None`` defaults to DAC's ``p_end`` for the given
    ``epsilon``. Raises ``ValueError`` when
    :func:`baseline_kernel_refusal` refuses (numpy is missing);
    :func:`run_baseline_batch` runs those lanes serially.
    """

    #: Read-only marker: lanes of this class come from a numpy kernel.
    backend = "numpy"

    def __init__(
        self,
        n: int,
        seeds: Sequence[int],
        *,
        algorithm: str = "midpoint",
        f: int = 0,
        epsilon: float = 1e-3,
        window: int = 1,
        selector: str = "rotate",
        num_rounds: int | None = None,
    ) -> None:
        self.seeds = [int(seed) for seed in seeds]
        if not self.seeds:
            raise ValueError("need at least one seed (one lane)")
        # The serial builder validates exactly what a serial trial
        # would reject (algorithm, negative round budgets, selectors,
        # windows, n < 2) and derives the degree and round budget.
        probe = _workloads().build_baseline_execution(
            n,
            algorithm=algorithm,
            f=f,
            epsilon=epsilon,
            seed=self.seeds[0],
            window=window,
            selector=selector,
            num_rounds=num_rounds,
        )
        reason = baseline_kernel_refusal(selector)
        if reason:
            raise ValueError(f"baseline kernel unavailable: {reason}")
        self.n = n
        self.f = int(f)
        self.algorithm = algorithm
        self.window = int(window)
        self.selector = selector
        self.degree = probe["adversary"].degree
        self.num_rounds = next(iter(probe["processes"].values())).num_rounds
        # Rotate tables by (live-set key, salt mod n): at most n entries.
        self._rotate_cache: dict[tuple, object] = {}

    @property
    def batch_size(self) -> int:
        """Number of lanes ``B``."""
        return len(self.seeds)

    def run(self) -> list[LaneResult]:
        """Run every lane to its fixed round budget; results in seed order."""
        np = _np
        n = self.n
        lanes = len(self.seeds)
        trim = self.f

        inputs = np.empty((lanes, n), dtype=np.float64)
        for b, seed in enumerate(self.seeds):
            inputs[b] = spawn_inputs(seed, n)
        value = inputs.copy()
        adversary_rngs = [child_rng(seed, "adversary") for seed in self.seeds]
        all_live = np.ones(n, dtype=bool)
        no_byz = np.empty(0, dtype=np.intp)

        for t in range(self.num_rounds):
            if self.window > 1 and (t + 1) % self.window != 0:
                # Silent window round: only the node's own echo is
                # delivered, which is bit-for-bit value-preserving
                # (0.5 * (v + v) == v; a trimmed batch of one is {v}
                # or empty). Round counters advance uniformly -- the
                # finalize block accounts for every t at once.
                continue
            salt = t if self.window == 1 else t // self.window
            # No diagonal: self delivery is folded in by the update rules.
            delivered = select_delivered(
                self.selector, self.degree, value, all_live, no_byz,
                [salt] * lanes, adversary_rngs, self._rotate_cache,
            )
            vals = value[:, None, :]
            if self.algorithm == "midpoint":
                # min/max over delivered senders and self -- the same
                # two floats the serial deliver() reduces, so the
                # midpoint is the identical IEEE result.
                lo = np.minimum(np.where(delivered, vals, np.inf).min(axis=2), value)
                hi = np.maximum(np.where(delivered, vals, -np.inf).max(axis=2), value)
                value = 0.5 * (lo + hi)
            else:
                # Sort delivered-plus-self per receiver (inf padding
                # keeps absentees past every real value), then read the
                # trim-f extremes at their counted positions.
                stacked = np.concatenate(
                    [np.where(delivered, vals, np.inf), value[:, :, None]], axis=2
                )
                ordered = np.sort(stacked, axis=2)
                counts = delivered.sum(axis=2) + 1
                low = ordered[:, :, min(trim, n)]
                high = np.take_along_axis(
                    ordered, np.clip(counts - trim - 1, 0, n)[:, :, None], axis=2
                )[:, :, 0]
                # Batches of <= 2f values trim to nothing: v unchanged.
                value = np.where(counts > 2 * trim, 0.5 * (low + high), value)

        # Every lane outputs at exactly num_rounds (uniform round
        # advance), where state_key() is (v, num_rounds, output=v).
        results: list[LaneResult] = []
        for b, seed in enumerate(self.seeds):
            lane_outputs = {node: float(value[b, node]) for node in range(n)}
            results.append(
                LaneResult(
                    seed=seed,
                    rounds=self.num_rounds,
                    stopped=True,
                    inputs={node: float(inputs[b, node]) for node in range(n)},
                    outputs=lane_outputs,
                    state_keys={
                        node: (lane_outputs[node], self.num_rounds, lane_outputs[node])
                        for node in range(n)
                    },
                )
            )
        return results


def run_baseline_batch(
    n: int,
    seeds: Sequence[int],
    *,
    algorithm: str = "midpoint",
    f: int = 0,
    epsilon: float = 1e-3,
    window: int = 1,
    selector: str = "rotate",
    num_rounds: int | None = None,
    on_lane: Callable[[LaneResult], None] | None = None,
) -> list[LaneResult]:
    """Run one batch of averaging-baseline executions, one lane per seed.

    :class:`BaselineBatchEngine` lanes when
    :func:`baseline_kernel_refusal` accepts the selector,
    :class:`GenericBatchEngine` lanes over
    :func:`repro.workloads.build_baseline_execution` otherwise. See
    :class:`BaselineBatchEngine` for parameter semantics; ``on_lane``
    is called once per finished lane, in lane (seed) order (see
    :func:`run_dac_batch`).

    >>> lanes = run_baseline_batch(5, [0, 1], num_rounds=3)
    >>> [(lane.seed, lane.rounds, lane.stopped) for lane in lanes]
    [(0, 3, True), (1, 3, True)]
    """
    params = dict(
        algorithm=algorithm,
        f=f,
        epsilon=epsilon,
        window=window,
        selector=selector,
        num_rounds=num_rounds,
    )
    if baseline_kernel_refusal(selector) is None:
        lanes = BaselineBatchEngine(n, seeds, **params).run()
    else:
        build = _workloads().build_baseline_execution
        lanes = GenericBatchEngine(
            seeds, lambda seed: build(n, seed=seed, **params)
        ).run()
    return _streamed(lanes, on_lane)


class GenericBatchEngine:
    """Builder-defined lanes: one serial engine run per seed.

    The serial fallback under every ``run_*_batch`` function and the
    registry's open end: a family registered through
    :mod:`repro.scenario` gets a batched form without writing a
    kernel. ``build(seed)`` returns the family's
    :func:`repro.sim.runner.run_consensus` keyword dict (processes,
    adversary, ports, fault plan, ``stop_mode``, ``max_rounds``,
    ``epsilon``); each lane is one untraced serial
    :class:`~repro.sim.engine.Engine` driven by
    ``Engine.run(max_rounds, stop_when=...)`` for its stop mode, so
    lanes are bit-identical to per-seed serial runs by construction. A
    family that wants vectorized lanes writes a dedicated kernel (like
    :class:`BatchEngine` / :class:`ByzBatchEngine`) with a support
    predicate its ``vectorizable`` hook reports.
    """

    def __init__(self, seeds: Sequence[int], build: Callable[[int], dict]) -> None:
        self.seeds = [int(seed) for seed in seeds]
        self.build = build

    def run(self) -> list[LaneResult]:
        """Run every lane to its stop condition; results in seed order."""
        return [self._run_lane(seed) for seed in self.seeds]

    def _run_lane(self, seed: int) -> LaneResult:
        kwargs = self.build(seed)
        engine = Engine(
            kwargs["processes"],
            kwargs["adversary"],
            kwargs["ports"],
            fault_plan=kwargs["fault_plan"],
            f=kwargs["f"],
            seed=kwargs["seed"],
            record_trace=False,
        )
        fault_free = engine.fault_plan.fault_free
        if kwargs.get("stop_mode", "output") == "output":
            result = engine.run(kwargs["max_rounds"], stop_when=Engine.all_fault_free_output)
            outputs = {
                v: engine.processes[v].output()
                for v in sorted(fault_free)
                if engine.processes[v].has_output()
            }
        else:
            epsilon = kwargs.get("epsilon", 1e-3)
            result = engine.run(
                kwargs["max_rounds"],
                stop_when=lambda eng: eng.fault_free_range() <= epsilon,
            )
            outputs = engine.fault_free_values()
        return LaneResult(
            seed=seed,
            rounds=int(result),
            stopped=result.stopped,
            inputs={node: proc.input_value for node, proc in engine.processes.items()},
            outputs=outputs,
            state_keys={
                node: proc.state_key() for node, proc in engine.processes.items()
            },
        )


def run_generic_batch(
    seeds: Sequence[int],
    build: Callable[[int], dict],
    *,
    on_lane: Callable[[LaneResult], None] | None = None,
) -> list[LaneResult]:
    """Run one batch of builder-defined executions, one lane per seed.

    Convenience wrapper over :class:`GenericBatchEngine`, with the
    same ``on_lane`` streaming hook as :func:`run_dac_batch`.
    """
    return _streamed(GenericBatchEngine(seeds, build).run(), on_lane)
