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
sorted-by-port order. A cell re-scans after its event only while a
later port can still change it, so a round costs at most
``events + 1`` passes, and one when every tail is stale.

Every kernel produces **bit-identical final states and round counts**
to ``B`` serial ``Engine`` runs: every lane derives its inputs, ports
and crash plan from its own seed through the exact same
:mod:`repro.sim.rng` child streams the serial builders use, so batching
(and batch *order*) cannot perturb results.

Which kernel runs a lane is one predicate, :func:`kernel_refusal`: a
:class:`~repro.workloads.LaneFamily` goes to the kernel of its process
class (matched by exact type), or the predicate names why no kernel
can replicate it (numpy is missing, a process class or Byzantine
strategy no kernel reproduces, an unknown selector). A kernel
constructor raises ``ValueError`` with that reason. :func:`run_lanes`
is the one batch entry: kernel lanes where the predicate accepts,
:class:`GenericBatchEngine` lanes otherwise -- one untraced
:func:`repro.sim.runner.run_consensus` per seed over
:func:`repro.workloads.lane_execution`, the semantic reference itself,
so those lanes match by construction and :func:`run_lanes` works
without numpy. Every engine, the fallback included, is built as
``Engine(family, seeds)``.

One lane driver runs every kernel (see docs/batching.md). A round
splits into the round's communication graph and the update rule that
consumes it. :func:`select_delivered` gives the delivered-from masks of
every lane: ``rotate`` from the process-wide tables of
:mod:`repro.sim.arena` (scattered from
:func:`~repro.adversary.constrained.rotate_picks`),
``nearest`` by one stable argsort, ``random`` by replaying each lane's
own adversary stream through
:func:`~repro.adversary.constrained.random_picks` (the function the
serial adversary calls, in the same call order), and the
``mobile-<mode>`` cuts of the mobile-omission adversary. The kernel
supplies only its state rows, its update and its state keys; the
driver owns lane set-up from the family, the round clock all lanes
share, stopping in ``Engine.run`` order and finalizing. Every kernel
is built as ``Kernel(family, seeds)``:

- :class:`BatchEngine` -- :class:`~repro.core.dac.DACProcess` lanes:
  fault-free and crash-fault boundary DAC under the enforcing quorum
  adversaries (the ``dac`` family), and fault-free DAC under the
  ``mobile-<mode>`` masks of the mobile-omission adversary (the
  ``byz`` family);
- :class:`ByzBatchEngine` -- :class:`~repro.core.dbac.DBACProcess`
  lanes: boundary DBAC with Byzantine strategies (witness counters and
  ``f+1``-trimmed midpoints; the ``random`` strategy replayed through
  :meth:`~repro.faults.byzantine.RandomByzantine.draw_row`), the
  ``dbac`` family;
- :class:`BaselineBatchEngine` -- fixed-budget averaging: the
  ``baseline`` family's reliable-channel baselines and the ``averaging``
  family's :class:`~repro.core.averaging.AveragingProcess` (both
  rules), one ``(B, n)`` value matrix advanced for ``num_rounds`` rounds.

Composition: every registered family's ``lanes`` hook builds its lane
family, and the family trial's ``batch_fn`` (:mod:`repro.scenario.trial`)
runs them through :func:`run_lanes` in the batched-trial calling
convention the parallel layer dispatches, so ``Sweep.run(workers=N,
batch=B)`` fans *batches* over processes -- the two layers multiply.
Only observed trials and one-seed groups (a one-lane kernel pass is
slower than one serial trial) run the serial trial once per seed.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.adversary.constrained import random_picks
from repro.adversary.mobile import MOBILE_MODES
from repro.core.averaging import AveragingProcess
from repro.core.baselines import IteratedMidpointProcess, TrimmedMeanProcess
from repro.core.dac import DACProcess
from repro.core.dbac import DBACProcess, recording_lists
from repro.faults.byzantine import (
    ExtremeByzantine,
    FixedValueByzantine,
    PhaseLiarByzantine,
    RandomByzantine,
)
from repro.net.ports import port_tables
from repro.sim.arena import mobile_table, rotate_table, scatter_picks
from repro.sim.rng import child_rng, spawn_inputs
from repro.sim.runner import run_consensus

try:  # numpy is an optional extra (``pip install repro[numpy]``)
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI leg
    _np = None

# Sentinel crash round for nodes that never crash (far beyond any cap).
_NEVER = 1 << 62


def numpy_available() -> bool:
    """Whether the vectorized numpy kernels can be used at all."""
    return _np is not None


def _workloads():
    """The serial builders' module, :mod:`repro.workloads`.

    The serial fallback builds its executions through
    :func:`~repro.workloads.lane_execution`. Deferred because
    ``repro.workloads`` imports this module's package.
    """
    # lint: ignore[layering, hot-import] — the serial fallback's lane_execution, deferred to break the cycle; never touched in the round loop
    import repro.workloads as workloads

    return workloads


_NO_NUMPY = "numpy is not installed"

# The selectors select_delivered replicates: the enforcing quorum
# adversaries' (rotate from the shared rotate_picks tables, nearest by
# one stable argsort, random by replaying each lane's own adversary
# stream) and the mobile-omission adversary's cuts.
_SELECTORS = ("rotate", "nearest", "random", *(f"mobile-{mode}" for mode in MOBILE_MODES))


def _kernel(family) -> tuple[type | None, str | None]:
    """``(kernel class, None)`` when a kernel runs ``family``'s lanes,
    else ``(None, reason)``: see :func:`kernel_refusal`."""
    if _np is None:
        return None, _NO_NUMPY
    kernel = _KERNELS.get(family.process_type)  # exact type: a subclass misses
    if kernel is None:
        return None, f"no kernel runs {family.process_type.__name__} lanes"
    if family.selector not in _SELECTORS:
        return None, f"selector {family.selector!r} has no vectorized form (supported: {_SELECTORS})"
    for node in family.byzantine:
        strategy = family.make_strategy(node)
        if _strategy_vector_plan(strategy) is None:
            return None, (
                f"Byzantine strategy {type(strategy).__name__} has no vectorized plan "
                "(state-dependent messages)"
            )
    return kernel, None


def kernel_refusal(family) -> str | None:
    """Why no numpy kernel can run ``family``'s lanes, or ``None``.

    ``family`` is a :class:`~repro.workloads.LaneFamily`. Its process
    class picks the kernel by exact type, and each Byzantine strategy
    must be one :func:`_strategy_vector_plan` reproduces, also by
    exact type: a subclass with overridden behaviour is never
    mis-vectorized.

    >>> from repro.workloads import dac_lane_family
    >>> (kernel_refusal(dac_lane_family(5, 2)) is None) == numpy_available()
    True
    """
    return _kernel(family)[1]


def run_lanes(family, seeds: Sequence[int]) -> list[LaneResult]:
    """Run one lane per seed of ``family``; results in seed order.

    The one batch entry: the family's kernel when :func:`kernel_refusal`
    accepts it, :class:`GenericBatchEngine` lanes over
    :func:`repro.workloads.lane_execution` otherwise -- the same
    results either way. :func:`repro.obs.attach.lane_finished` turns
    each returned lane into a ``RunFinished`` event.

    >>> from repro.workloads import dac_lane_family, dbac_lane_family
    >>> lanes = run_lanes(dac_lane_family(5, 2), [0, 1])
    >>> [(lane.seed, lane.stopped) for lane in lanes]
    [(0, True), (1, True)]
    >>> [lane.stopped for lane in run_lanes(dbac_lane_family(6, 1), [0, 1])]
    [True, True]
    """
    kernel, _ = _kernel(family)
    return (kernel or GenericBatchEngine)(family, seeds).run()


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
    (``"oracle"`` stopping).
    """

    seed: int
    rounds: int
    stopped: bool
    inputs: dict[int, float]
    outputs: dict[int, float]
    state_keys: dict[int, tuple]


def select_delivered(selector: str, degree: int, values, live, byz, salt, rngs, live_key):
    """Receiver-major delivered-from masks of one round, every lane.

    The vectorized form of the adversaries' sender selection: the
    round's communication graph, which every kernel's update consumes.
    ``values`` is the ``(B, n)`` round-start state (Byzantine entries
    ignored), ``live`` the ``(n,)`` transmitting-sender mask (crashed
    senders out, Byzantine senders in), ``live_key`` the same senders
    as an ascending tuple (the lane driver keeps both until the next
    crash round), ``byz`` the sorted Byzantine index array, ``salt``
    the round's rotate salt (all lanes share one round clock) and
    ``rngs`` the lanes' own ``child_rng(seed, "adversary")`` streams
    (``random`` only). Returns
    ``(B, n, n)`` bools where ``[b, v, u]`` says ``u``'s round broadcast
    reaches ``v``, without a diagonal: each kernel handles self-delivery
    itself. A mask every lane shares (``rotate``, ``mobile-rotate``,
    ``mobile-none``) comes back as its one read-only ``(n, n)`` table,
    which consumers broadcast over the lanes themselves. Rows of
    Byzantine and crashed receivers are unspecified; nothing reads them.

    The enforcing quorum adversaries:

    - ``rotate``: :func:`~repro.adversary.constrained.rotate_picks`
      scattered into one table by :func:`repro.sim.arena.rotate_table`,
      memoized process-wide (warm across calls in pool workers).
    - ``nearest``: :func:`~repro.adversary.constrained.nearest_picks`
      as one stable argsort per lane. Non-live and Byzantine columns
      sort last at ``+inf`` (the Byzantine senders are picked first,
      separately), the receiver's own column first at ``-inf`` so it
      drops out like the serial walk's ``u == receiver`` skip, and ties
      fall in ascending node order, the specified sort's stability.
    - ``random``: :func:`~repro.adversary.constrained.random_picks` on
      each lane's stream -- a Python loop for the draws only, in the
      serial call order, scattered into the mask in one assignment.

    The mobile-omission adversary, :func:`repro.adversary.mobile.mobile_victims`
    (the complete graph minus each receiver's victim in-link):

    - ``mobile-rotate``: receiver ``v`` loses sender ``(v + salt) mod n``;
      ``mobile-none`` is the shift 0, which cuts only the absent
      self-loop. One table per shift, from
      :func:`repro.sim.arena.mobile_table`.
    - ``mobile-block_min`` / ``mobile-block_max``: every receiver loses
      the holder of the first extremum, and that holder the second
      one, by two ``argmin``/``argmax`` passes per lane.
    """
    np = _np
    lanes, n = values.shape
    node_idx = np.arange(n)
    if selector in ("mobile-rotate", "mobile-none"):
        return mobile_table(n, salt % n if selector == "mobile-rotate" else 0)
    if selector in ("mobile-block_min", "mobile-block_max"):
        pick, hide = (np.argmin, np.inf) if selector == "mobile-block_min" else (np.argmax, -np.inf)
        rows = np.arange(lanes)
        first = pick(values, axis=1)
        masked = values.copy()
        masked[rows, first] = hide
        victim = np.repeat(first[:, None], n, axis=1)
        victim[rows, first] = pick(masked, axis=1)
        delivered = np.broadcast_to(~np.eye(n, dtype=bool), (lanes, n, n)).copy()
        delivered[rows[:, None], node_idx, victim] = False
        return delivered
    if selector == "rotate":
        return rotate_table(n, live_key, salt, degree)
    if selector == "random":
        picks = [row for rng in rngs for row in random_picks(n, live_key, degree, rng)]
        return scatter_picks(picks, n).reshape(lanes, n, n)
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
    ``sender_at_port`` table; a mask shared by every lane (a 2-D
    table) is gathered from that table alone.
    """
    np = _np
    lanes, n = sender_at_port.shape[:2]
    col = np.arange(n)[None, :, None]
    if delivered.ndim == 2:
        return delivered[col, sender_at_port]
    return delivered[np.arange(lanes)[:, None, None], col, sender_at_port]


# -- Event-segmented delivery sweeps ---------------------------------------
#
# A node's state changes at only two kinds of event: a jump (DAC lines
# 5-8) and a quorum firing (DAC lines 9-15, DBAC lines 8-11). Between two
# events each port's accept is independent of the others, so one pass
# over the remaining ports settles a whole segment of every (lane, node)
# cell at once; only cells with an event re-scan the ports after it, and
# only while one of them holds a message at the cell's new phase or later
# (_carried). A round costs at most (events per cell + 1) passes; in
# lock-step rounds a quorum leaves every later message a phase behind,
# so usually one. Each sweep takes the round's port-ordered (B, n, n)
# tables ([b, v, k]: the message on v's port k), the (B, n) receiving
# cells and the process state arrays, which it updates in place through
# flat (B * n)-cell views (the kernels' arrays are C-contiguous). Table
# rows of cells that do not receive (crashed and Byzantine nodes) are
# never read.


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


def _carried(cells, start, has_all, phase_all, phase):
    """The ``cells`` (and their ``start``) that a further pass can change:
    both rules ignore messages from a phase below the receiver's, so
    a cell with none at its phase or later from ``start`` on would
    accept nothing, jump nowhere and keep its extremes."""
    np = _np
    pending = has_all[cells] & (np.arange(has_all.shape[1]) >= start[:, None])
    live = (pending & (phase_all[cells] >= phase[cells][:, None])).any(axis=1)
    return cells[live], start[live]


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
        more = ~_new_phase(flat, cells, self_port, end_phase)
        cells, start = _carried(cells[more], start[more], has_all, phase_all, phase)
        if not cells.size:
            return


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
        more = ~_new_phase(flat, cells, self_port, end_phase)
        cells, start = _carried(cells[more], start[more], has_all, phase_all, phase)
        if not cells.size:
            return


def _dac_state_keys(state, b: int) -> dict[int, tuple]:
    """Every node's :meth:`~repro.core.dac.DACProcess.state_key` in lane row ``b``."""
    keys = ("value", "phase", "received", "v_min", "v_max", "out_mask", "out_val")
    rows = zip(*(state[key][b].tolist() for key in keys))
    return {
        node: (value, phase, tuple(received), low, high, out if decided else None)
        for node, (value, phase, received, low, high, decided, out) in enumerate(rows)
    }


# -- The lane driver --------------------------------------------------------


def _objects(items: Sequence) -> object:
    """A 1-D object array of per-lane Python objects (adversary streams,
    bound strategies), so finished lanes leave it like any other table."""
    array = _np.empty(len(items), dtype=object)
    for i, item in enumerate(items):
        array[i] = item
    return array


def _process_state(lanes: dict, end_phase: int, **extra) -> dict:
    """The rows of fresh DAC/DBAC processes (the init blocks): ``R_i``
    holds the node's own port, and end phase 0 decides at once (the
    init-time ``_check_output``). ``extra`` adds the rule's own arrays."""
    np = _np
    inputs = lanes["inputs"]
    rows, n = inputs.shape
    received = np.zeros((rows, n, n), dtype=bool)
    received[np.arange(rows)[:, None], np.arange(n), lanes["self_port"]] = True
    decided = end_phase == 0
    return dict(
        value=inputs.copy(), phase=np.zeros((rows, n), dtype=np.int64),
        received=received, count=np.ones((rows, n), dtype=np.int64),
        out_mask=np.full((rows, n), decided), out_val=np.where(decided, inputs, 0.0),
        **extra,
    )


class _LaneKernel:
    """The lane driver under every numpy kernel.

    A kernel is built as ``Kernel(family, seeds)``: one
    :class:`~repro.workloads.LaneFamily`, one lane per seed. The
    constructor raises ``ValueError`` when :func:`kernel_refusal`
    refuses the family or the family's process class belongs to
    another kernel. A kernel supplies three hooks:

    - ``_init_state(lanes, seeds)`` returns the process-state rows of
      the fresh lanes (and may add per-lane tables of its own to
      ``lanes``);
    - ``_round(lanes, state, delivered, receiving)`` applies one
      delivering round's update, given the :func:`select_delivered`
      masks and the ``(n,)`` mask of live honest receivers;
    - ``_state_keys(state, i)`` returns row ``i``'s ``state_key()``
      tuples.

    :meth:`_run_lanes` does the rest. ``_stopped`` and ``_finish`` (of
    a lane stopping at round ``t``) implement the two stop modes over
    ``out_mask`` / ``value`` rows; the baselines override both.
    """

    _reads_ports = True  # the baselines' update reads no port

    def __init__(self, family, seeds: Sequence[int]) -> None:
        self.seeds = [int(seed) for seed in seeds]
        if not self.seeds:
            raise ValueError("need at least one seed (one lane)")
        kernel, reason = _kernel(family)
        if kernel is not None and kernel is not type(self):
            reason = f"{family.process_type.__name__} lanes run on {kernel.__name__}"
        if reason:
            raise ValueError(f"{type(self).__name__} unavailable: {reason}")
        self.family = family
        self._fault_free = _np.array(family.fault_free, dtype=_np.intp)

    @property
    def batch_size(self) -> int:
        """Number of lanes ``B``."""
        return len(self.seeds)

    def _run_lanes(self) -> list[LaneResult]:
        """Run every lane to its stop condition; results in seed order.

        Lane set-up draws each seed's inputs, ports and adversary stream
        through the serial builders' child streams. All lanes start at
        round 0 and share one round clock. On the last-minute
        adversary's silent rounds nothing is computed: the only delivery
        is each node's own message, whose port is already marked
        received. Lanes stop in ``Engine.run`` order: the condition
        first, the cap second (a lane at the cap whose condition holds
        reports ``stopped=True``). The check runs only where its answer
        can change -- at round 0, after each delivering round (or, for
        the baselines, at their output round) and at the cap -- and the
        clock jumps between checks. A lane that stops is finalized and
        its rows leave every table, so later rounds compute only running
        lanes, and a stopped lane draws nothing more.

        No finished row is refilled with a further seed: the sweep
        layer already caps a kernel call at its batch size, so a call's
        lanes all start together.
        """
        np = _np
        family, seeds = self.family, self.seeds
        n, window = family.n, family.window
        lanes = {
            "row": np.arange(len(seeds)),
            "inputs": np.array([spawn_inputs(seed, n) for seed in seeds]),
        }
        if self._reads_ports:
            # Drawn rows are permutations: one argsort inverts them all
            # (the kernels index senders by port), and the diagonal
            # holds the self ports.
            tables = np.array(
                [port_tables(n, child_rng(seed, "ports")) for seed in seeds], dtype=np.intp
            )
            lanes["sender_at_port"] = np.argsort(tables, axis=2)
            lanes["self_port"] = tables[:, np.arange(n), np.arange(n)]
        if family.selector == "random":  # the one selector that draws
            lanes["rng"] = _objects([child_rng(seed, "adversary") for seed in seeds])
        state = self._init_state(lanes, seeds)

        crash_round = np.full(n, _NEVER, dtype=np.int64)
        for node, event in family.crashes.items():
            crash_round[node] = event.round
        byz = np.array(family.byzantine, dtype=np.intp)
        honest = np.ones(n, dtype=bool)
        honest[byz] = False
        processes = np.nonzero(honest)[0].tolist()
        results: list[LaneResult | None] = [None] * len(seeds)
        cap = family.max_rounds
        t = changes = 0  # the live set holds until round `changes`
        while True:
            stopped = self._stopped(state, t)
            done = stopped | (t >= cap)
            if done.any():
                for i in np.nonzero(done)[0].tolist():
                    b = int(lanes["row"][i])
                    inputs = lanes["inputs"][i].tolist()
                    results[b] = LaneResult(
                        seed=seeds[b],
                        rounds=t,
                        stopped=bool(stopped[i]),
                        inputs={node: inputs[node] for node in processes},
                        **self._finish(state, i, t),
                    )
                if done.all():
                    return results
                lanes, state = ({key: rows[key][~done] for key in rows} for rows in (lanes, state))
            # No lane can stop before the next check: run the delivering
            # rounds (t + 1 a multiple of the window) up to it.
            check = min(self._next_check(t), cap)
            for t in range(t + (window - 1 - t) % window, check, window):
                if t >= changes:  # clean crashes: senders == processors
                    live = crash_round > t
                    live_key, receiving = tuple(np.nonzero(live)[0].tolist()), live & honest
                    changes = crash_round[live].min(initial=_NEVER)
                delivered = select_delivered(
                    family.selector, family.degree, state["value"], live, byz,
                    t // window, lanes.get("rng"), live_key,
                )
                self._round(lanes, state, delivered, receiving)
            t = check

    def _next_check(self, t: int) -> int:
        """The first round after ``t`` whose stop check can differ from
        the one just made at ``t``: the one after the next delivering
        round, since silent rounds change no state."""
        return t + (self.family.window - 1 - t) % self.family.window + 1

    def _stopped(self, state: dict, t: int):
        """Each row's stop condition: every fault-free node output
        (``"output"``), or the fault-free spread within epsilon."""
        if self.family.stop_mode == "output":
            return state["out_mask"][:, self._fault_free].all(axis=1)
        values = state["value"][:, self._fault_free]
        return (values.max(axis=1) - values.min(axis=1)) <= self.family.epsilon

    def _finish(self, state: dict, i: int, t: int) -> dict:
        """Row ``i``'s outputs, as :func:`repro.sim.runner.run_consensus`
        reports them for the stop mode, and its state keys."""
        fault_free = self.family.fault_free
        if self.family.stop_mode == "output":
            decided, outs = state["out_mask"][i].tolist(), state["out_val"][i].tolist()
            outputs = {node: outs[node] for node in fault_free if decided[node]}
        else:
            values = state["value"][i].tolist()
            outputs = {node: values[node] for node in fault_free}
        return {"outputs": outputs, "state_keys": self._state_keys(state, i)}


class BatchEngine(_LaneKernel):
    """The numpy kernel for ``B`` DAC executions in lock-step.

    Runs the lane families whose process class is exactly
    :class:`~repro.core.dac.DACProcess`:
    :func:`repro.workloads.dac_lane_family` (boundary DAC, crash
    faults, the enforcing quorum selectors, ``enable_jump`` from the
    family) and :func:`repro.workloads.mobile_lane_family` (fault-free
    DAC under the ``mobile-<mode>`` masks of :func:`select_delivered`).
    Each lane's inputs, ports and RNG streams derive from its seed
    exactly as the serial builder's do.
    """

    #: Read-only marker: lanes of this class come from a numpy kernel.
    backend = "numpy"

    # Own run, not inherited: perfbench's tracer patches cls.__dict__["run"] only.
    def run(self) -> list[LaneResult]:
        """Run every lane to its stop condition and return lane results.

        Results come back in ``seeds`` order. Each lane stops exactly
        like ``Engine.run(max_rounds, stop_when=...)`` does for its stop
        mode: the stop condition is evaluated before each round and once
        more at the cap, and the lane's state freezes at that point.
        """
        return self._run_lanes()

    def _init_state(self, lanes: dict, seeds: list[int]) -> dict:
        # Fresh DACProcess rows: the extremes start at the input.
        inputs = lanes["inputs"]
        return _process_state(
            lanes, self.family.end_phase, v_min=inputs.copy(), v_max=inputs.copy()
        )

    def _round(self, lanes, state, delivered, receiving) -> None:
        """One delivering round: the round-start broadcast, gathered
        through each lane's ports, through :func:`_dac_sweep`."""
        family = self.family
        sender_at_port = lanes["sender_at_port"]
        gather = (_np.arange(len(sender_at_port))[:, None, None], sender_at_port)
        _dac_sweep(
            _in_port_order(delivered, sender_at_port),
            state["value"][gather], state["phase"][gather], receiving, lanes["self_port"], state,
            quorum=family.quorum, end_phase=family.end_phase, enable_jump=family.enable_jump,
        )

    _state_keys = staticmethod(_dac_state_keys)


# -- Batched DBAC lanes ------------------------------------------------------


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
    :meth:`~repro.faults.byzantine.RandomByzantine.draw_row`; or ``None``
    when the strategy cannot be vectorized. Exact types are matched so
    subclasses with overridden behavior are never mis-vectorized.
    """
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


class ByzBatchEngine(_LaneKernel):
    """The numpy kernel for ``B`` DBAC executions in lock-step.

    Runs the lane families whose process class is exactly
    :class:`~repro.core.dbac.DBACProcess`:
    :func:`repro.workloads.dbac_lane_family`, boundary DBAC
    (``n >= 5f + 1``) under the enforcing ``(window, floor((n+3f)/2))``
    adversary, the ``f`` highest-numbered nodes running the family's
    Byzantine strategies (each one :func:`_strategy_vector_plan`
    reproduces). Each lane derives inputs, ports and Byzantine RNG
    streams from its seed exactly as the serial builder does, so
    results are bit-identical to serial runs. ``stop_mode="oracle"``
    stops a lane when the fault-free spread first dips to ``epsilon``;
    ``"output"`` waits for algorithm-local termination.
    """

    #: Read-only marker: lanes of this class come from a numpy kernel.
    backend = "numpy"

    # Own run, not inherited: perfbench's tracer patches cls.__dict__["run"] only.
    def run(self) -> list[LaneResult]:
        """Run every lane to its stop condition; results in seed order.

        Each lane stops exactly like the serial
        ``Engine.run(max_rounds, stop_when=...)`` does for its stop
        mode: the condition is evaluated before each round and once
        more at the cap.
        """
        return self._run_lanes()

    def _plan_byzantine(self) -> None:
        """The Byzantine senders' message tables, from their strategies.

        Most strategies give a static per-(sender, receiver) value
        matrix plus a per-sender phase rule: track the maximum
        fault-free phase with a fixed lead, or a constant. Drawing
        strategies instead fill per-lane (sender, receiver) tables each
        round from their own replayed streams (:meth:`_draw`).
        """
        np = _np
        family = self.family
        n = family.n
        node_idx = np.arange(n)
        self._byz_flag = np.zeros(n, dtype=bool)
        self._byz_flag[list(family.byzantine)] = True
        self._byz_value = np.zeros((n, n), dtype=np.float64)
        self._byz_track = np.zeros(n, dtype=bool)
        self._byz_lead = np.zeros(n, dtype=np.int64)
        self._byz_const = np.zeros(n, dtype=np.int64)
        self._byz_draws = np.zeros(n, dtype=bool)
        for node in family.byzantine:
            plan = _strategy_vector_plan(family.make_strategy(node))
            assert plan is not None  # guaranteed by kernel_refusal
            values, phase_kind, phase_arg = plan
            if phase_kind == "draw":
                self._byz_draws[node] = True
                continue
            self._byz_value[node] = np.where(node_idx % 2 == 0, *values)
            if phase_kind == "track":
                self._byz_track[node] = True
                self._byz_lead[node] = phase_arg
            else:
                self._byz_const[node] = phase_arg
        self._draw_nodes = np.nonzero(self._byz_draws)[0].tolist()
        # [node, receiver] index grids of one lane's draw_row results:
        # every receiver but the drawing node, ascending.
        self._draw_index = (
            np.array(self._draw_nodes, dtype=np.intp)[:, None],
            np.array(
                [[v for v in range(n) if v != u] for u in self._draw_nodes], dtype=np.intp
            ).reshape(len(self._draw_nodes), n - 1),
        )

    def _init_state(self, lanes: dict, seeds: list[int]) -> dict:
        family = self.family
        self._plan_byzantine()
        if self._draw_nodes:
            # Each drawing node's strategy, bound exactly as the serial
            # engine binds it for the lane's root seed.
            def bound(node: int, seed: int):
                strategy = family.make_strategy(node)
                strategy.bind(node, family.n, family.f, 0.0, child_rng(seed, f"byzantine-{node}"))
                return strategy

            lanes["strategies"] = _objects(
                [tuple(bound(node, seed) for node in self._draw_nodes) for seed in seeds]
            )
        # Per-phase stored values in witness-counter order, each row the
        # serial DBACProcess's own buffer: slot i holds the (i+1)-th
        # stored value of the current phase (slot 0 is the phase-start
        # self value). count <= quorum always: the quorum fires, and
        # resets the counter, on the accept that reaches it.
        inputs = lanes["inputs"]
        stored = _np.zeros((*inputs.shape, family.quorum), dtype=_np.float64)
        stored[:, :, 0] = inputs
        return _process_state(lanes, family.end_phase, stored=stored)

    def _round(self, lanes, state, delivered, receiving) -> None:
        """One delivering round: :func:`_dbac_sweep` with the Byzantine
        senders' messages.

        Quorums that fire mid-round re-filter the remaining ports
        against the new phase, as in each ``DBACProcess.deliver`` call.
        ``R_low``/``R_high`` are kept as the serial process keeps them:
        each phase's stored values fill a ``(B, n, quorum)`` buffer in
        witness-count order, the sweep takes the trimmed extremes from
        it by one ``np.partition``, and :meth:`_state_keys` derives the
        lists from it with :func:`repro.core.dbac.recording_lists`
        (see :attr:`repro.core.dbac.DBACProcess.stored_count`).
        """
        np = _np
        family = self.family
        value, phase = state["value"], state["phase"]
        sender_at_port = lanes["sender_at_port"]
        rows, n = value.shape
        # The round-start state -- what the adversary and the Byzantine
        # strategies see and honest senders transmit -- is read before
        # the sweep updates it.
        gather = (np.arange(rows)[:, None, None], sender_at_port)
        msg_value, msg_phase = value[gather], phase[gather]
        if family.byzantine:
            top = phase[:, self._fault_free].max(axis=1)
            receiver = np.arange(n)[None, :, None]
            byz_value = self._byz_value[sender_at_port, receiver]
            byz_phase = np.where(
                self._byz_track, top[:, None] + self._byz_lead, self._byz_const
            )[gather]
            if self._draw_nodes:
                drawn_value, drawn_phase = self._draw(lanes["strategies"], top)
                drawn = (*gather, receiver)
                is_drawn = self._byz_draws[sender_at_port]
                byz_value = np.where(is_drawn, drawn_value[drawn], byz_value)
                byz_phase = np.where(is_drawn, drawn_phase[drawn], byz_phase)
            is_byz = self._byz_flag[sender_at_port]
            msg_value = np.where(is_byz, byz_value, msg_value)
            msg_phase = np.where(is_byz, byz_phase, msg_phase)
        _dbac_sweep(
            _in_port_order(delivered, sender_at_port), msg_value, msg_phase, receiving,
            lanes["self_port"], state,
            quorum=family.quorum, trim=family.trim, end_phase=family.end_phase,
        )

    def _draw(self, strategies, top):
        """Every lane's drawn ``[sender, receiver]`` value and phase tables.

        One :meth:`~repro.faults.byzantine.RandomByzantine.draw_row` per
        drawing node and round, for every receiver but the node, on the
        round-start maximum fault-free phase ``top``. Serially a node
        draws on every round, silent window rounds included. Those
        messages reach no one, and the state they read is this round's,
        so the window's silent-round draws are made here first and
        dropped: each stream advances exactly as the serial engine's.
        The rows land in one assignment per table.
        """
        np = _np
        family = self.family
        n, silent = family.n, family.window - 1
        draws = []
        for lane_strategies, lane_top in zip(strategies, top.tolist()):
            for strategy in lane_strategies:
                for _ in range(silent):
                    strategy.draw_row(lane_top)
                draws.append(strategy.draw_row(lane_top))
        rows = len(top)
        index = (np.arange(rows)[:, None, None], *self._draw_index)
        shape = (rows, len(self._draw_nodes), n - 1)
        drawn_value = np.zeros((rows, n, n), dtype=np.float64)
        drawn_phase = np.zeros((rows, n, n), dtype=np.int64)
        drawn_value[index] = np.reshape([row[0] for row in draws], shape)
        drawn_phase[index] = np.reshape([row[1] for row in draws], shape)
        return drawn_value, drawn_phase

    def _state_keys(self, state: dict, i: int) -> dict[int, tuple]:
        values, phases, counts, decided, outs, received = (
            state[key][i].tolist()
            for key in ("value", "phase", "count", "out_mask", "out_val", "received")
        )
        stored, trim = state["stored"][i], self.family.trim
        keys = {}
        for node in self.family.fault_free:
            # R_low / R_high from the phase's buffer, by the function the
            # serial process derives them with from its own buffer.
            low, high = recording_lists(stored[node, : counts[node]].tolist(), trim)
            keys[node] = (
                values[node],
                phases[node],
                tuple(received[node]),
                tuple(low),
                tuple(high),
                outs[node] if decided[node] else None,
            )
        return keys


class BaselineBatchEngine(_LaneKernel):
    """The numpy kernel for ``B`` fixed-budget averaging lanes in lock-step.

    Runs the lane families whose process class is exactly
    :class:`~repro.core.baselines.IteratedMidpointProcess` (the
    reliable-channel iterated midpoint of Dolev et al.),
    :class:`~repro.core.baselines.TrimmedMeanProcess` (the trim-``f``
    mean) or :class:`~repro.core.averaging.AveragingProcess` (the
    ``averaging`` family), fault-free under the same enforcing
    ``(window, floor(n/2))`` quorum adversary and seed/input streams
    as the DAC trials. The process class and its ``rule`` pick the
    update; the mean rule sums the trimmed update's sorted rows.

    Every node advances its round counter on every engine round (self
    delivery keeps the batch non-empty), every lane outputs at exactly
    ``num_rounds`` unless capped first, and the per-node state is one
    float. Silent window rounds are value-preserving (the midpoint or
    mean of ``{v}`` is ``v`` for every reachable ``v``; a trimmed batch
    of one is ``{v}`` or empty), so the driver skips them here too.
    Results are bit-identical to serial runs -- same floats, same round
    counts, same ``state_key()`` tuples.
    """

    #: Read-only marker: lanes of this class come from a numpy kernel.
    backend = "numpy"
    _reads_ports = False

    # Own run, not inherited: perfbench's tracer patches cls.__dict__["run"] only.
    def run(self) -> list[LaneResult]:
        """Run every lane to its fixed round budget; results in seed order."""
        return self._run_lanes()

    def _init_state(self, lanes: dict, seeds: list[int]) -> dict:
        return {"value": lanes["inputs"].copy()}

    def _round(self, lanes, state, delivered, receiving) -> None:
        np = _np
        value = state["value"]
        n, rule = self.family.n, self.family.rule
        vals = value[:, None, :]
        if self.family.process_type is IteratedMidpointProcess or rule == "midpoint":
            # min/max over delivered senders and self -- the same two
            # floats the serial deliver() reduces, so the midpoint is
            # the identical IEEE result.
            lo = np.minimum(np.where(delivered, vals, np.inf).min(axis=2), value)
            hi = np.maximum(np.where(delivered, vals, -np.inf).max(axis=2), value)
            state["value"] = 0.5 * (lo + hi)
            return
        # Sort delivered-plus-self per receiver (inf padding keeps
        # absentees past every real value), then read the trim-f
        # extremes, or the mean's sum, at their counted positions (per
        # lane: a shared table is broadcast).
        trim = 0 if rule == "mean" else self.family.f
        delivered = np.broadcast_to(delivered, (len(value), n, n))
        stacked = np.concatenate([np.where(delivered, vals, np.inf), value[:, :, None]], axis=2)
        ordered = np.sort(stacked, axis=2)
        counts = delivered.sum(axis=2) + 1
        # cumsum adds strictly left to right, as deliver() sums the sorted
        # values (np.sum's pairwise reduction does not).
        rows = np.cumsum(ordered, axis=2) if rule == "mean" else ordered
        last = np.take_along_axis(
            rows, np.clip(counts - trim - 1, 0, n)[:, :, None], axis=2
        )[:, :, 0]
        if rule == "mean":  # + 0.0 is the serial sum's start: -0.0 alone sums to 0.0
            state["value"] = (last + 0.0) / counts
            return
        low = ordered[:, :, min(trim, n)]
        # Batches of <= 2f values trim to nothing: v unchanged.
        state["value"] = np.where(counts > 2 * trim, 0.5 * (low + last), value)

    def _stopped(self, state: dict, t: int):
        # Every node advances its round counter on every engine round,
        # so every lane outputs at exactly num_rounds.
        return _np.full(len(state["value"]), t >= self.family.num_rounds)

    def _next_check(self, t: int) -> int:
        # The condition reads only the clock: the next check is the
        # output round (every lane stops at the check made there).
        return self.family.num_rounds

    def _finish(self, state: dict, i: int, t: int) -> dict:
        # state_key() is (v, t, output): v at the output round, None in
        # a lane capped before it.
        values = state["value"][i].tolist()
        out = t >= self.family.num_rounds
        return {
            "outputs": dict(enumerate(values)) if out else {},
            "state_keys": {node: (v, t, v if out else None) for node, v in enumerate(values)},
        }


class GenericBatchEngine:
    """Serial-engine lanes: one untraced run per seed.

    The serial fallback under :func:`run_lanes`, built like the kernels
    as ``GenericBatchEngine(family, seeds)``. Each lane is
    :func:`repro.sim.runner.run_consensus` over
    :func:`repro.workloads.lane_execution` of the family and the seed,
    untraced, so lanes are the per-seed serial runs themselves. It runs
    any :class:`~repro.workloads.LaneFamily`, numpy or not: a registered
    family gets batch lanes without writing a kernel, and a kernel for
    its process class joins :data:`_KERNELS` when it wants vectorized
    ones.
    """

    def __init__(self, family, seeds: Sequence[int]) -> None:
        self.seeds = [int(seed) for seed in seeds]
        self.family = family

    def run(self) -> list[LaneResult]:
        """Run every lane to its stop condition; results in seed order."""
        return [self._run_lane(seed) for seed in self.seeds]

    def _run_lane(self, seed: int) -> LaneResult:
        kwargs = _workloads().lane_execution(self.family, seed)
        report = run_consensus(
            **kwargs, record_trace=False, verify_promise=False, track_phases=False
        )
        return LaneResult(
            seed=seed,
            rounds=report.rounds,
            stopped=report.terminated,
            inputs=report.inputs,
            outputs=report.outputs,
            # The engine advanced these very process objects.
            state_keys={node: proc.state_key() for node, proc in kwargs["processes"].items()},
        )


# Kernel by exact process class; kernel_refusal names what is missing.
_KERNELS: dict[type, type[_LaneKernel]] = {
    DACProcess: BatchEngine,
    DBACProcess: ByzBatchEngine,
    IteratedMidpointProcess: BaselineBatchEngine,
    TrimmedMeanProcess: BaselineBatchEngine,
    AveragingProcess: BaselineBatchEngine,
}
