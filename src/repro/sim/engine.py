"""The synchronous round engine.

One round proceeds exactly as in Section II-A of the paper:

1. every node that is still transmitting produces its broadcast
   message (deterministically from its state); Byzantine strategies
   may produce a different message per receiver;
2. the message adversary -- shown an omniscient view of node states,
   this round's broadcasts, and the fault plan -- chooses the reliable
   link set ``E(t)``; messages sent over other links are lost;
3. each message that traverses a chosen link ``(u, v)`` is delivered
   to ``v`` tagged with ``v``'s local port for ``u``; in addition,
   every alive node reliably receives its own message (self-delivery
   cannot be disrupted by the adversary);
4. non-faulty nodes consume their delivery batch (sorted by port) and
   transition; Byzantine strategies observe their node's inbox.

The engine is deliberately single-threaded and deterministic: given the
same processes, adversary, ports, fault plan and seed, two runs produce
bit-identical traces (asserted by property tests).

Rounds run a **port-major delivery sweep**: instead of materializing
per-receiver inboxes edge by edge, each receiver's delivery batch is
built in one pass from its ``Topology.in_rows()`` row, pre-zipped with
its port bijection *in port order* (so the batch needs no sort),
against a per-round sender-message table with crash and omission masks
applied on the sender axis before fan-in. The per-receiver routing
plans are cached on the Topology instance itself
(:meth:`~repro.net.topology.Topology.routing_plan`), so stable or
cyclic schedules -- the common case, guaranteed by ``EdgeSchedule``
and the interned enforcing-adversary graphs -- pay the plan build once
per distinct graph, not per round. Traced and observer runs take the
same sweep (the :class:`~repro.sim.trace.RoundSnapshot` is assembled
*after* the sweep, from the sender message table's accounting). The
sweep is the engine's only round path; ``tests/test_golden_fingerprints.py``
pins what it produces bit for bit.

Observation never reaches into the round: traces and observers consume
snapshots behind a single ``self.trace is not None or self.observers``
branch, so an unattached engine pays one boolean check per round and
nothing else (the ``repro.obs`` bus and the streaming trace spill both
plug in through that seam, from above).
"""

from __future__ import annotations

from bisect import insort
from collections.abc import Mapping
from dataclasses import dataclass
from itertools import repeat
from typing import Any, Callable

from repro.adversary.base import MessageAdversary
from repro.faults.base import FaultPlan
from repro.net.ports import PortNumbering
from repro.net.topology import Topology
from repro.sim.messages import PHASE_BITS, VALUE_BITS, StateMessage, message_bits

# One (value, phase) entry under the accounting convention -- the
# delivery sweep inlines the StateMessage case of message_bits.
_STATE_BITS = VALUE_BITS + PHASE_BITS
from repro.sim.metrics import MetricsCollector
from repro.sim.node import ConsensusProcess, Delivery
from repro.sim.rng import child_rng
from repro.sim.trace import ExecutionTrace, RoundSnapshot


def _pair_sender(pair: tuple[int, Any]) -> int:
    """Sort key for Byzantine observation merges (sender ID)."""
    return pair[0]


@dataclass(frozen=True)
class RoundRecord:
    """What one call to :meth:`Engine.run_round` did."""

    round: int
    graph: Topology
    delivered: int
    bits: int


class RunResult(int):
    """Round count returned by :meth:`Engine.run`, with early-stop info.

    Behaves exactly like the plain ``int`` number of rounds executed
    (so arithmetic and comparisons keep working), and carries
    ``stopped``: whether ``stop_when`` held when the run ended --
    either because it fired before a round, or via the documented
    final check after the last round.
    """

    stopped: bool

    def __new__(cls, rounds: int, stopped: bool) -> "RunResult":
        result = super().__new__(cls, rounds)
        result.stopped = stopped
        return result

    @property
    def rounds(self) -> int:
        """The number of rounds executed (the integer value itself)."""
        return int(self)

    def __getnewargs__(self) -> tuple[int, bool]:
        # int subclasses with a multi-argument __new__ need this for
        # pickle/copy -- and results containing a RunResult must ship
        # between the parallel layer's worker processes.
        return (int(self), self.stopped)

    def __repr__(self) -> str:
        return f"RunResult(rounds={int(self)}, stopped={self.stopped})"


class EngineView:
    """The omniscient per-round view handed to adversaries and Byzantine
    strategies.

    Exposes node states *at the beginning of the round* (before this
    round's deliveries) plus the messages being broadcast -- exactly
    the adversary's knowledge in the paper (states + deterministic
    algorithm specification).
    """

    def __init__(self, engine: "Engine", t: int, broadcasts: Mapping[int, Any]) -> None:
        self._engine = engine
        self._t = t
        # Shared, not copied: the engine never mutates a round's
        # broadcast map after constructing the view, and views live for
        # exactly one round.
        self._broadcasts = broadcasts

    @property
    def round(self) -> int:
        """The current round index."""
        return self._t

    @property
    def n(self) -> int:
        """Network size."""
        return self._engine.n

    @property
    def fault_plan(self) -> FaultPlan:
        """The execution's fault plan (adversaries may collude with faults)."""
        return self._engine.fault_plan

    @property
    def ports(self) -> PortNumbering:
        """The execution's port numberings.

        The adversary is omniscient, so it may inspect how each node
        labels its senders (it still cannot *change* the labels --
        the communication layer is authenticated).
        """
        return self._engine.ports

    def process(self, node: int) -> ConsensusProcess | None:
        """The process object at ``node`` (``None`` for Byzantine nodes)."""
        return self._engine.processes.get(node)

    def value(self, node: int) -> float | None:
        """Node's current scalar state, ``None`` for Byzantine nodes."""
        proc = self._engine.processes.get(node)
        return None if proc is None else proc.value

    def phase(self, node: int) -> int | None:
        """Node's current phase index, ``None`` for Byzantine nodes."""
        proc = self._engine.processes.get(node)
        return None if proc is None else proc.phase

    def broadcast_of(self, node: int) -> Any | None:
        """The message ``node`` is broadcasting this round (or ``None``)."""
        return self._broadcasts.get(node)

    def max_fault_free_phase(self) -> int:
        """Highest phase among fault-free nodes (0 when none exist)."""
        phases = [
            self._engine.processes[v].phase for v in self._engine.fault_plan.fault_free
        ]
        return max(phases, default=0)

    def live_senders(self) -> frozenset[int]:
        """Nodes transmitting fully this round (crash model awareness)."""
        return self._engine.fault_plan.live_senders(self._t)

    def live_senders_sorted(self) -> tuple[int, ...]:
        """:meth:`live_senders` as a memoized sorted tuple.

        Enforcing adversaries use this directly as a graph-memo key,
        skipping a per-round ``tuple(sorted(...))`` rebuild."""
        return self._engine.fault_plan.live_senders_sorted(self._t)

    def undecided_fault_free(self) -> frozenset[int]:
        """Fault-free nodes that have not output yet."""
        return frozenset(
            v
            for v in self._engine.fault_plan.fault_free
            if not self._engine.processes[v].has_output()
        )


class Engine:
    """Runs one execution: processes + adversary + ports + fault plan.

    Parameters
    ----------
    processes:
        ``node -> ConsensusProcess`` for every **non-Byzantine** node
        (crash-faulty nodes run the algorithm until they die).
    adversary:
        The message adversary choosing ``E(t)``.
    ports:
        The execution's port numberings.
    fault_plan:
        Crash events and Byzantine strategies; defaults to fault-free.
    f:
        The fault bound the nodes were configured with (used to bind
        Byzantine strategies; informational otherwise).
    seed:
        Root seed from which the adversary's and each Byzantine
        strategy's private streams are derived.
    record_trace:
        Set ``False`` to skip snapshotting (large sweeps).
    trace_sink:
        Optional override for where snapshots go: any object with a
        ``record(RoundSnapshot)`` method (e.g. a streaming
        :class:`repro.sim.persistence.TraceWriter` spilling rounds to
        disk). When given, it becomes :attr:`trace` in place of the
        in-memory :class:`~repro.sim.trace.ExecutionTrace`, so a
        traced run's memory stays O(chunk) instead of O(rounds). The
        engine only ever calls ``record``; lifecycle (flush/close) is
        the caller's.
    """

    def __init__(
        self,
        processes: Mapping[int, ConsensusProcess],
        adversary: MessageAdversary,
        ports: PortNumbering,
        fault_plan: FaultPlan | None = None,
        f: int = 0,
        seed: int = 0,
        record_trace: bool = True,
        byzantine_inputs: Mapping[int, float] | None = None,
        trace_sink: Any | None = None,
    ) -> None:
        self.n = ports.n
        self.ports = ports
        self.fault_plan = fault_plan or FaultPlan.fault_free_plan(self.n)
        if self.fault_plan.n != self.n:
            raise ValueError(
                f"fault plan is for n={self.fault_plan.n}, ports for n={self.n}"
            )
        self.processes: dict[int, ConsensusProcess] = dict(processes)
        expected = self.fault_plan.non_byzantine
        if set(self.processes) != set(expected):
            raise ValueError(
                "processes must cover exactly the non-Byzantine nodes "
                f"{sorted(expected)}, got {sorted(self.processes)}"
            )
        self.adversary = adversary
        self.adversary.setup(self.n, self.fault_plan, child_rng(seed, "adversary"))
        byz_inputs = dict(byzantine_inputs or {})
        for node, strategy in self.fault_plan.byzantine.items():
            strategy.bind(
                node,
                self.n,
                f,
                byz_inputs.get(node, 0.0),
                child_rng(seed, f"byzantine-{node}"),
            )
        self.metrics = MetricsCollector()
        # ``trace`` is duck-typed on ``record(RoundSnapshot)``: the
        # in-memory ExecutionTrace by default, or any caller-supplied
        # sink (streaming spill writers) -- the engine never imports
        # the persistence layer.
        if trace_sink is not None:
            self.trace: Any | None = trace_sink
        else:
            self.trace = ExecutionTrace(self.n) if record_trace else None
        self.observers: list[Callable[["Engine", RoundSnapshot], None]] = []
        self._t = 0
        # Per-receiver port rows (P_node(sender) for every sender),
        # precomputed so the delivery loop indexes a row instead of
        # making an O(n^2)-per-round stream of port_of calls. Taken
        # from the numbering's bulk accessor -- no per-element calls
        # at construction time either.
        all_rows = ports.port_rows()
        self._port_rows: dict[int, tuple[int, ...]] = {
            node: all_rows[node] for node in self.processes
        }
        # Port-major sweep state: the fixed receiver iteration order
        # (node, process, own-message port or None for a class that
        # ignores its echo), the token caching this engine's routing
        # plans on Topology instances (identity-compared; a bare object
        # so a cached plan never pins the engine or its processes alive).
        self._proc_plan: list[tuple[int, ConsensusProcess, int | None]] = [
            (node, proc, None if proc.ignores_own_echo else all_rows[node][node])
            for node, proc in self.processes.items()
        ]
        # The receivers an edge-free round still hands their own message.
        self._echo_plan = [e for e in self._proc_plan if e[2] is not None]
        self._route_token = object()

    @property
    def current_round(self) -> int:
        """Index of the next round to run."""
        return self._t

    def state_snapshots(self) -> dict[int, dict[str, Any]]:
        """Adversary-visible snapshots of every non-Byzantine node."""
        return {node: proc.state_snapshot() for node, proc in self.processes.items()}

    # ------------------------------------------------------------------

    def _byzantine_messages(
        self, t: int, view: EngineView
    ) -> dict[int, Mapping[int, Any] | Any]:
        return {
            node: strategy.messages(t, view)
            for node, strategy in self.fault_plan.byzantine.items()
        }

    def _close_round(
        self, t: int, graph: Topology, delivered: int, bits: int, broadcasts: int
    ) -> RoundRecord:
        """Account a finished round, feed the trace and observers, advance the clock.

        The observation seam: one boolean check on unattached runs. The
        :class:`RoundSnapshot` is assembled only here, after delivery,
        from the round's own accounting.
        """
        self.metrics.on_round(delivered, bits, broadcasts=broadcasts)
        if self.trace is not None or self.observers:
            snapshot = RoundSnapshot(
                round=t,
                graph=graph,
                states=self.state_snapshots(),
                delivered=delivered,
                bits=bits,
                live_senders=self.fault_plan.live_senders(t),
            )
            if self.trace is not None:
                self.trace.record(snapshot)
            for observer in self.observers:
                observer(self, snapshot)
        self._t = t + 1
        return RoundRecord(t, graph, delivered, bits)

    def _routing_plan(self, graph: Topology) -> tuple[tuple, tuple[int, ...]]:
        """This engine's per-receiver routing plan for ``graph``.

        The plan is ``(rows_by_proc, sources)``: for every process
        receiver (in :attr:`_proc_plan` order) its in-row as parallel
        ``(ports, senders)`` tuples pre-sorted by port -- iterating
        them column-wise builds the delivery batch already in delivery
        order -- plus the tuple of nodes with outgoing links (the
        sweep's fast-path probe: when every source has an unrestricted
        message, per-pair mask checks are skipped and batches build via
        C-level ``map``/``zip``). Plans derive from ``(graph, ports)``; since ports
        are fixed per engine, each plan is cached on the Topology
        instance under this engine's private token, so replayed graphs
        -- ``EdgeSchedule`` stable patterns, interned enforcing-rotate
        cycles, repeated mobile masks -- hit O(1) per round.
        """
        plan = graph.routing_plan(self._route_token)
        if plan is None:
            in_rows = graph.in_rows()
            port_rows = self._port_rows
            rows_by_proc = []
            for node, _proc, _port in self._proc_plan:
                # Senders in port order (ports are a bijection), as
                # parallel port/sender columns so the sweep's
                # full-senders path runs entirely in C (map/zip).
                port_of = port_rows[node].__getitem__
                senders = tuple(sorted(in_rows[node], key=port_of))
                rows_by_proc.append((tuple(map(port_of, senders)), senders))
            out_rows = graph.out_rows()
            sources = tuple(u for u in range(self.n) if out_rows[u])
            plan = (tuple(rows_by_proc), sources)
            graph.set_routing_plan(self._route_token, plan)
        return plan

    def run_round(self) -> RoundRecord:
        """Execute one synchronous round, as a port-major sweep over ``in_rows()``.

        Crash/omission masks are applied on the sender axis *before*
        fan-in: silent senders never enter the per-round message table,
        and the rare mid-broadcast crashers and equivocating Byzantine
        senders route through a per-receiver extras map instead of
        per-edge checks. Each receiver's batch is then built in one
        pass from its cached ``(port, sender)`` plan -- already in port
        order, so there is no per-batch sort; extras, and the own message
        of a class that takes its echo, are insorted. Delivered/bit
        accounting happens on the sender axis: out-degree times message
        size, the sum of the per-edge counts.

        An edge-free round (every silent round of a window adversary)
        skips the accounting and the fan-in: nothing is delivered, and
        only processes whose class does not declare
        :attr:`~repro.sim.node.ConsensusProcess.ignores_own_echo` get
        their own message, alone. Traced and observed rounds run the
        same sweep; the :class:`RoundSnapshot` they consume is assembled
        after delivery, behind one branch (see :meth:`_close_round`).
        """
        t = self._t
        n = self.n
        fault_plan = self.fault_plan
        silent, restricted, stopped = fault_plan.sender_masks(t)

        broadcasts: dict[int, Any] = {}
        # A receiver's own message is msgs[node]: silent and restricted
        # senders are stopped this round, so never delivered to.
        msgs: list[Any] = [None] * n
        active: list[int] = []  # senders with an unrestricted msgs entry
        restricted_meta: list[tuple[int, Any, frozenset[int]]] = []
        for node, proc, _self_port in self._proc_plan:
            if node in silent:
                continue  # crashed: silent
            message = proc.broadcast()
            broadcasts[node] = message
            # A None broadcast is a deliberately silent round: the view
            # still shows the node as broadcasting None, but nothing is
            # routed (and self-delivery skips it too).
            if message is None:
                continue
            targets = restricted.get(node) if restricted else None
            if targets is None:
                msgs[node] = message
                active.append(node)
            else:
                restricted_meta.append((node, message, targets))

        view = EngineView(self, t, broadcasts)
        byz_out = self._byzantine_messages(t, view)
        broadcast_count = len(broadcasts) + len(byz_out)

        graph = self.adversary.choose(t, view)
        if graph.n != n:
            raise ValueError(f"adversary chose a graph with n={graph.n}, expected {n}")
        rows_by_proc, sources = self._routing_plan(graph)
        if not sources:
            for node, proc, echo_port in self._echo_plan:
                if node not in stopped and (own := msgs[node]) is not None:
                    proc.deliver([Delivery(echo_port, own)])
            for strategy in fault_plan.byzantine.values():
                strategy.observe(t, [])
            return self._close_round(t, graph, 0, 0, broadcast_count)
        out_rows = graph.out_rows()

        delivered = 0
        bits = 0
        extras: dict[int, list[tuple[int, Any]]] | None = None
        for u, outgoing in byz_out.items():
            if isinstance(outgoing, Mapping):
                # Equivocator: a (possibly) different message per
                # receiver -- cannot share a message-table entry.
                if extras is None:
                    extras = {}
                for v in out_rows[u]:
                    message = outgoing.get(v)
                    if message is None:
                        continue
                    extras.setdefault(v, []).append((u, message))
                    delivered += 1
                    bits += message_bits(message)
            elif outgoing is not None:
                msgs[u] = outgoing
                active.append(u)
        for u, message, targets in restricted_meta:
            if extras is None:
                extras = {}
            count = 0
            for v in out_rows[u]:
                if v in targets:
                    extras.setdefault(v, []).append((u, message))
                    count += 1
            delivered += count
            bits += message_bits(message) * count
        for u in active:
            if count := len(out_rows[u]):
                # Inlined message_bits: the exact-type common case
                # (plain DAC/DBAC state messages) without two calls.
                message = msgs[u]
                if type(message) is StateMessage:
                    bits += (_STATE_BITS + _STATE_BITS * len(message.history)) * count
                else:
                    bits += message_bits(message) * count
                delivered += count

        # Fan-in. Delivery instances are built via tuple.__new__,
        # skipping the namedtuple constructor wrapper in this
        # O(n^2)-per-round loop; ports are a bijection per receiver, so
        # insort never compares messages. When every source holds an
        # unrestricted message (the common case: fault-free rounds, and
        # crash rounds once the enforcing adversary draws only live
        # senders) the whole batch builds in C -- map over a zip of the
        # plan's port column with the gathered message column.
        new_delivery = tuple.__new__
        get_message = msgs.__getitem__
        delivery_type = repeat(Delivery)
        full = extras is None and (
            len(active) == n or all(msgs[u] is not None for u in sources)
        )
        if full:
            for (node, proc, echo_port), (ports_row, senders_row) in zip(
                self._proc_plan, rows_by_proc
            ):
                if node in stopped:
                    continue
                batch = list(
                    map(
                        new_delivery,
                        delivery_type,
                        zip(ports_row, map(get_message, senders_row)),
                    )
                )
                if echo_port is not None and (own := msgs[node]) is not None:
                    insort(batch, new_delivery(Delivery, (echo_port, own)))
                proc.deliver(batch)
        else:
            port_rows = self._port_rows
            for (node, proc, echo_port), (ports_row, senders_row) in zip(
                self._proc_plan, rows_by_proc
            ):
                if node in stopped:
                    continue
                batch = [
                    new_delivery(Delivery, (p, msgs[s]))
                    for p, s in zip(ports_row, senders_row)
                    if msgs[s] is not None
                ]
                ex = extras.get(node) if extras else None
                if ex:
                    row = port_rows[node]
                    for u, message in ex:
                        insort(batch, new_delivery(Delivery, (row[u], message)))
                if echo_port is not None and (own := msgs[node]) is not None:
                    insort(batch, new_delivery(Delivery, (echo_port, own)))
                proc.deliver(batch)

        # Byzantine strategies observe their inbox with true sender
        # IDs, in sender order -- in-rows are already sorted, extras
        # (disjoint senders) merge in by one stable sort.
        if fault_plan.byzantine:
            in_rows = graph.in_rows()
            for node, strategy in fault_plan.byzantine.items():
                observed = [
                    (u, msgs[u]) for u in in_rows[node] if msgs[u] is not None
                ]
                ex = extras.get(node) if extras else None
                if ex:
                    observed.extend(ex)
                    observed.sort(key=_pair_sender)
                strategy.observe(t, observed)

        return self._close_round(t, graph, delivered, bits, broadcast_count)

    def run(
        self,
        max_rounds: int,
        stop_when: Callable[["Engine"], bool] | None = None,
    ) -> RunResult:
        """Run rounds until ``stop_when`` fires or ``max_rounds`` elapse.

        Returns a :class:`RunResult`: an ``int`` equal to the number of
        rounds actually executed, whose ``stopped`` attribute records
        whether ``stop_when`` held when the run ended. ``stop_when`` is
        evaluated *before* each round (so a vacuously-true condition
        runs zero rounds) and checked again after the final round --
        callers need no manual re-check to learn whether the cap or the
        condition ended the run.
        """
        if max_rounds < 0:
            raise ValueError(f"max_rounds must be non-negative, got {max_rounds}")
        executed = 0
        stopped = False
        while executed < max_rounds:
            if stop_when is not None and stop_when(self):
                stopped = True
                break
            self.run_round()
            executed += 1
        else:
            # The documented final check: the last round (or the state
            # handed in when max_rounds == 0) may already satisfy it.
            stopped = stop_when(self) if stop_when is not None else False
        return RunResult(executed, stopped)

    # -- Convenience stop conditions -----------------------------------

    def all_fault_free_output(self) -> bool:
        """True once every fault-free node has produced its output."""
        return all(
            self.processes[v].has_output() for v in self.fault_plan.fault_free
        )

    def fault_free_values(self) -> dict[int, float]:
        """Current scalar states of the fault-free nodes."""
        return {v: self.processes[v].value for v in self.fault_plan.fault_free}

    def fault_free_range(self) -> float:
        """Spread of the fault-free states (0.0 when none exist)."""
        values = list(self.fault_free_values().values())
        if not values:
            return 0.0
        return max(values) - min(values)
