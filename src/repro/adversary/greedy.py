"""One-step lookahead adversary: simulate, then pick the cruelest links.

The enforcing adversaries in :mod:`repro.adversary.constrained` choose
senders by fixed heuristics (rotation, nearest value). This module
searches instead: each round it *simulates* the algorithm's response
to every candidate link policy and plays the one that leaves the
fault-free states most spread out -- the strongest within-(1, D)
attack on convergence the framework can express without whole-game
search.

The adversary is entitled to all of this: Section II-A lets it read
internal states and the (deterministic) algorithm specification, which
is exactly what "simulate the round" means.

Candidate evaluation runs against a **copy-on-write state overlay**
(:class:`_StateOverlay`) instead of the per-candidate
``copy.deepcopy`` of every process the original implementation paid:
each round the overlay captures one cheap snapshot of every fault-free
process's (flat) state, each candidate is delivered to the *live*
process objects, the outcome is measured, and the snapshot is written
back before the next candidate. Delivery is deterministic in the
pre-round state and the (fixed) broadcast map, so the measured
``(spread, advances)`` -- and therefore every chosen policy -- is
bit-identical to the deep-copy implementation (kept as the reference
in ``tests/test_adversary_greedy.py``), at a fraction of the
per-candidate cost.

Used by the worst-case-rate tests: even this adversary cannot push
DAC's per-phase contraction above 1/2, nor break its safety --
empirical teeth for the paper's tightness claims.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.adversary.base import MessageAdversary
from repro.adversary.constrained import _QuorumSelector
from repro.net.topology import Topology
from repro.sim.node import ConsensusProcess, Delivery

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import EngineView

_DEFAULT_PORTFOLIO = ("nearest", "rotate", "random")


def _copy_state_value(value: Any) -> Any:
    """A fresh deep-ish copy of one attribute value (builtin containers).

    Consensus-process state is flat by the paper's storage discipline
    (scalars, phase counters, port bit vectors, small value lists);
    copying list/dict/set contents one level at a time reproduces
    ``deepcopy`` exactly for that shape without its dispatch and memo
    machinery. Immutable values (numbers, strings, tuples of numbers,
    frozensets, None, messages) are shared, which is safe because
    ``deliver`` can only rebind them, never mutate in place.
    """
    if isinstance(value, list):
        return [_copy_state_value(item) for item in value]
    if isinstance(value, dict):
        return {key: _copy_state_value(item) for key, item in value.items()}
    if isinstance(value, set):
        return set(value)
    return value


_MUTABLE = (list, dict, set)


def _is_flat(container: Any) -> bool:
    """Whether a container holds no nested mutable values (the common
    case: port bit vectors, float lists), so a C-level shallow copy is
    an exact snapshot."""
    values = container.values() if isinstance(container, dict) else container
    return not any(isinstance(item, _MUTABLE) for item in values)


class _StateOverlay:
    """Copy-on-write snapshot/restore of a set of processes.

    Capturing builds, per process, a *copy plan*: immutable attribute
    values are saved by reference (rebinding is the only way ``deliver``
    can change them), containers are saved once -- by C-level shallow
    copy when flat, by the recursive copier otherwise -- and attributes
    aliasing the *same* container object share one saved copy, so
    ``restore`` re-establishes that aliasing (like ``deepcopy``'s memo
    would). ``restore`` writes the plan back, deleting any attribute a
    candidate ``deliver`` created, leaving both the process and the
    pristine snapshot ready for the next candidate -- this is what
    replaced the per-candidate ``copy.deepcopy`` of every process.

    Exactness contract (documented on :class:`ConsensusProcess`):
    process state must be attributes of immutable values and builtin
    containers without *nested* aliasing; every shipped algorithm
    satisfies this by construction.
    """

    __slots__ = ("_plans",)

    def __init__(self, processes: dict[int, ConsensusProcess]) -> None:
        plans = []
        for proc in processes.values():
            flat: dict[str, Any] = {}
            # Attribute names grouped by the identity of the container
            # they referenced at capture: one saved copy per group, one
            # fresh copy per restore, shared by every alias.
            groups: dict[int, tuple[list[str], Any, bool]] = {}
            for name, value in proc.__dict__.items():
                if isinstance(value, _MUTABLE):
                    group = groups.get(id(value))
                    if group is None:
                        shallow = _is_flat(value)
                        saved = value.copy() if shallow else _copy_state_value(value)
                        groups[id(value)] = ([name], saved, shallow)
                    else:
                        group[0].append(name)
                else:
                    flat[name] = value
            plans.append(
                (proc, frozenset(proc.__dict__), flat, tuple(groups.values()))
            )
        self._plans = plans

    def restore(self) -> None:
        """Reset every captured process to its captured state."""
        for proc, captured, flat, groups in self._plans:
            state = proc.__dict__
            if state.keys() != captured:
                # A deliver() lazily created state mid-candidate: drop
                # it, or it would leak into the next candidate and the
                # real round (deepcopy semantics never expose it).
                for name in [key for key in state if key not in captured]:
                    del state[name]
            state.update(flat)
            for names, saved, shallow in groups:
                fresh = saved.copy() if shallow else _copy_state_value(saved)
                for name in names:
                    state[name] = fresh


class LookaheadQuorumAdversary(MessageAdversary):
    """``(1, D)``-dynaDegree with per-round simulated-outcome selection.

    Parameters
    ----------
    degree:
        The in-degree delivered to every node each round (the promise).
    portfolio:
        Candidate selector policies evaluated each round.
    objective:
        ``"max_range"`` keeps the fault-free spread as wide as possible
        (slows convergence); ``"min_progress"`` minimizes the number of
        fault-free phase advances (slows termination).
    """

    def __init__(
        self,
        degree: int,
        portfolio: tuple[str, ...] = _DEFAULT_PORTFOLIO,
        objective: str = "max_range",
    ) -> None:
        super().__init__()
        if objective not in ("max_range", "min_progress"):
            raise ValueError(f"unknown objective {objective!r}")
        if not portfolio:
            raise ValueError("portfolio must not be empty")
        self.objective = objective
        self._selectors = [_QuorumSelector(degree, name) for name in portfolio]
        self.degree = degree
        self.chosen_policies: list[str] = []
        self._port_rows: list[list[int]] | None = None

    def _on_setup(self) -> None:
        # Port numberings are fixed per execution; the receiver-major
        # rows are rebuilt lazily on the first choose() of each run.
        self._port_rows = None
        for selector in self._selectors:
            selector.reset()

    def _candidate(
        self, selector: _QuorumSelector, t: int, view: "EngineView"
    ) -> Topology:
        return selector.graph_for_round(t, view, self)

    def _sender_info(
        self, t: int, view: "EngineView"
    ) -> dict[int, tuple[Any, frozenset[int] | None]]:
        """Per-round ``sender -> (message, receiver whitelist)`` map.

        Graph-independent, so it is resolved once per round and shared
        by every candidate's delivery construction (the engine's round
        resolves its sender masks once per round the same way). Byzantine
        senders are skipped in the simulation (their round-``t`` lies
        are not exposed through the view); the heuristic therefore
        under-approximates their effect, which only makes the chosen
        policy *less* cruel -- safe for an upper-bound search.
        """
        plan = view.fault_plan
        info: dict[int, tuple[Any, frozenset[int] | None]] = {}
        for u in range(self.n):
            if plan.is_byzantine(u):
                continue
            message = view.broadcast_of(u)
            if message is None:
                continue
            info[u] = (message, plan.send_targets(u, t))
        return info

    def _deliveries_for(
        self,
        node: int,
        graph: Topology,
        sender_info: dict[int, tuple[Any, frozenset[int] | None]],
    ) -> list[Delivery]:
        """The delivery batch ``node`` would consume under ``graph``."""
        row = self._port_rows[node]
        # Ports are a bijection per receiver, so sorting (port, message)
        # tuples never compares messages; Delivery instances are built
        # via tuple.__new__ like the engine's delivery loop.
        new_delivery = tuple.__new__
        batch = []
        for u in graph.in_row(node):
            info = sender_info.get(u)
            if info is None:
                continue
            message, targets = info
            if targets is not None and node not in targets:
                continue
            batch.append(new_delivery(Delivery, (row[u], message)))
        own = sender_info.get(node)
        if own is not None:
            batch.append(new_delivery(Delivery, (row[node], own[0])))
        batch.sort()
        return batch

    def _simulate(
        self,
        graph: Topology,
        sender_info: dict[int, tuple[Any, frozenset[int] | None]],
        processes: dict[int, ConsensusProcess],
        before_phases: dict[int, int],
        overlay: _StateOverlay,
    ) -> tuple[float, int]:
        """Post-round (fault-free range, phase advances) under ``graph``.

        Delivers to the live processes and restores the overlay before
        returning -- the caller observes no state change, even when a
        deliver raises mid-candidate.
        """
        try:
            for node, proc in processes.items():
                proc.deliver(self._deliveries_for(node, graph, sender_info))
            values = [proc.value for proc in processes.values()]
            spread = (max(values) - min(values)) if values else 0.0
            advances = sum(
                1
                for node, proc in processes.items()
                if proc.phase > before_phases[node]
            )
        finally:
            overlay.restore()
        return spread, advances

    def choose(self, t: int, view: "EngineView") -> Topology:
        if self._port_rows is None:
            port_of = view.ports.port_of
            self._port_rows = [
                [port_of(receiver, sender) for sender in range(self.n)]
                for receiver in range(self.n)
            ]
        plan = view.fault_plan
        processes: dict[int, ConsensusProcess] = {}
        before_phases: dict[int, int] = {}
        for v in plan.fault_free:
            proc = view.process(v)
            assert proc is not None
            processes[v] = proc
            before_phases[v] = proc.phase
        overlay = _StateOverlay(processes)
        sender_info = self._sender_info(t, view)

        best_graph: Topology | None = None
        best_key: tuple[float, float] | None = None
        best_name = ""
        for selector in self._selectors:
            graph = self._candidate(selector, t, view)
            spread, advances = self._simulate(
                graph, sender_info, processes, before_phases, overlay
            )
            if self.objective == "max_range":
                key = (spread, -advances)
            else:
                key = (-advances, spread)
            if best_key is None or key > best_key:
                best_key = key
                best_graph = graph
                best_name = selector.selector
        assert best_graph is not None
        self.chosen_policies.append(best_name)
        return best_graph

    def promised_dynadegree(self) -> tuple[int, int]:
        return (1, self.degree)
