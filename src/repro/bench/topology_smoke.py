"""Topology-layer perf smoke: enforced-adversary and lookahead legs.

Measures the two hot paths the Topology refactor targeted and emits a
machine-readable ``BENCH_topology.json`` so the perf trajectory is
tracked from this PR on (CI runs it at tiny ``n``; the
``bench_engine_scaling`` suite runs the same legs at larger sizes):

- **enforced** -- untraced engine rounds/s under the boundary
  ``(window, floor(n/2))`` rotating-quorum adversary (the ISSUE's
  acceptance scenario), plus a graph-construction micro-comparison:
  the legacy dict-of-frozensets ``DirectedGraph`` build (what every
  pre-Topology cache miss paid, replicated here verbatim) vs a cold
  ``Topology`` build vs the interned replay hit that enforced rounds
  actually take.
- **lookahead** -- ``LookaheadQuorumAdversary`` candidate evaluations
  per second through the copy-on-write overlay, against a reference
  implementation of the pre-Topology per-candidate
  ``copy.deepcopy`` simulation (kept here, outside the shipping
  adversary, purely as the comparison baseline).

Also asserts the refactor's identity contracts at tiny ``n`` (serial
vs both batch backends; no ``copy.deepcopy`` inside the candidate
loop), so the CI smoke is a correctness gate as well as a trend line.

Usage::

    python -m repro.bench.topology_smoke --out BENCH_topology.json
"""

from __future__ import annotations

import argparse
import copy
import json
import sys
import time
from typing import Any

from repro.adversary.constrained import rotate_picks
from repro.adversary.greedy import LookaheadQuorumAdversary
from repro.core.dac import DACProcess
from repro.net.ports import random_ports
from repro.net.topology import Topology
from repro.sim.engine import Engine, EngineView
from repro.sim.node import Delivery
from repro.sim.rng import child_rng, spawn_inputs
from repro.workloads import build_dac_execution


def _build_engine(kwargs: dict[str, Any]) -> Engine:
    return Engine(
        kwargs["processes"],
        kwargs["adversary"],
        kwargs["ports"],
        fault_plan=kwargs["fault_plan"],
        f=kwargs["f"],
        seed=kwargs["seed"],
        record_trace=False,
    )


def _legacy_graph_build(n: int, edges: list[tuple[int, int]]) -> dict:
    """The pre-Topology ``DirectedGraph.__init__`` body, verbatim.

    Reproduced here (not imported -- the shipping class no longer works
    this way) so the construction micro-benchmark compares against what
    every cache miss used to cost: a frozenset edge set plus two dicts
    of per-node frozensets, rebuilt from scratch.
    """
    in_neighbors: dict[int, set[int]] = {v: set() for v in range(n)}
    out_neighbors: dict[int, set[int]] = {v: set() for v in range(n)}
    edge_set: set[tuple[int, int]] = set()
    for u, v in edges:
        edge_set.add((u, v))
        in_neighbors[v].add(u)
        out_neighbors[u].add(v)
    return {
        "edges": frozenset(edge_set),
        "in": {v: frozenset(s) for v, s in in_neighbors.items()},
        "out": {v: frozenset(s) for v, s in out_neighbors.items()},
    }


def measure_enforced(
    n: int = 9, rounds: int = 2000, window: int = 1, selector: str = "rotate"
) -> dict[str, Any]:
    """Enforced-adversary rounds/s plus the construction micro-bench."""
    engine = _build_engine(
        build_dac_execution(n=n, f=(n - 1) // 2, epsilon=1e-12, seed=3, window=window,
                            selector=selector, max_rounds=rounds + 1)
    )
    start = time.perf_counter()
    for _ in range(rounds):
        engine.run_round()
    elapsed = max(time.perf_counter() - start, 1e-9)

    # Construction micro-bench on one representative rotate round.
    live = tuple(range(n))
    edges = sorted(
        (u, receiver)
        for receiver, senders in enumerate(rotate_picks(n, live, 1, n // 2))
        for u in senders
    )
    reps = 400

    start = time.perf_counter()
    for _ in range(reps):
        _legacy_graph_build(n, edges)
    legacy = max(time.perf_counter() - start, 1e-9) / reps

    # Cold-path timing requires clearing the intern table; snapshot and
    # restore it so process-wide hash-consing identity (other live
    # memos, identity assertions in the same test process) survives.
    table = Topology._intern
    saved = dict(table)
    try:
        start = time.perf_counter()
        for _ in range(reps):
            table.clear()  # force the cold path
            graph = Topology.from_sorted_edges(n, edges)
            graph.out_rows()  # adjacency the engine will read
        cold = max(time.perf_counter() - start, 1e-9) / reps
    finally:
        table.clear()
        table.update(saved)

    graph = Topology.from_sorted_edges(n, edges)
    graph.out_rows()
    start = time.perf_counter()
    for _ in range(reps):
        Topology.from_sorted_edges(n, edges).out_rows()
    hit = max(time.perf_counter() - start, 1e-9) / reps

    return {
        "n": n,
        "window": window,
        "selector": selector,
        "rounds": rounds,
        "rounds_per_s": rounds / elapsed,
        "construction_us": {
            "legacy_dict_of_frozensets": legacy * 1e6,
            "topology_cold": cold * 1e6,
            "topology_interned_hit": hit * 1e6,
        },
        "construction_speedup_cold": legacy / cold,
        "construction_speedup_hit": legacy / hit,
    }


def _deepcopy_simulate(
    adversary: LookaheadQuorumAdversary,
    graph: Topology,
    t: int,
    view: EngineView,
) -> tuple[float, int]:
    """The pre-Topology candidate evaluation, kept as the bench baseline:
    deep-copy every fault-free process, deliver to the clones."""
    plan = view.fault_plan
    clones = {}
    before_phases = {}
    for v in plan.fault_free:
        proc = view.process(v)
        clones[v] = copy.deepcopy(proc)
        before_phases[v] = proc.phase
    for v, clone in clones.items():
        pairs = []
        for u in graph.in_row(v):
            if plan.is_byzantine(u):
                continue
            message = view.broadcast_of(u)
            if message is None:
                continue
            targets = plan.send_targets(u, t)
            if targets is not None and v not in targets:
                continue
            pairs.append((u, message))
        own = view.broadcast_of(v)
        if own is not None:
            pairs.append((v, own))
        batch = [Delivery(view.ports.port_of(v, u), message) for u, message in pairs]
        batch.sort(key=lambda d: d.port)
        clone.deliver(batch)
    values = [clone.value for clone in clones.values()]
    spread = (max(values) - min(values)) if values else 0.0
    advances = sum(1 for v, c in clones.items() if c.phase > before_phases[v])
    return spread, advances


def measure_lookahead(n: int = 9, rounds: int = 60, degree: int | None = None) -> dict[str, Any]:
    """Lookahead rounds/s and overlay-vs-deepcopy candidate evaluation."""
    degree = n // 2 if degree is None else degree

    def fresh_engine() -> tuple[Engine, LookaheadQuorumAdversary]:
        ports = random_ports(n, child_rng(11, "ports"))
        inputs = spawn_inputs(11, n)
        procs = {
            v: DACProcess(n, 0, inputs[v], ports.self_port(v), epsilon=1e-12)
            for v in range(n)
        }
        adv = LookaheadQuorumAdversary(degree)
        return Engine(procs, adv, ports, record_trace=False), adv

    engine, adv = fresh_engine()
    start = time.perf_counter()
    for _ in range(rounds):
        engine.run_round()
    elapsed = max(time.perf_counter() - start, 1e-9)
    candidates = rounds * len(adv._selectors)

    # Candidate-evaluation micro-bench: same round, same candidate
    # graph, overlay vs the deep-copy reference. The overlay leg runs
    # the shipping `_simulate` (deliver to the live processes, restore
    # the plan); the reference leg is the pre-Topology per-candidate
    # deep copy. The state-management decomposition (snapshot/restore
    # vs deepcopy alone, the exact cost the refactor removed) is
    # reported alongside the end-to-end ratio, which also pays the
    # (shared) delivery work.
    engine, adv = fresh_engine()
    broadcasts, _meta = engine._collect_broadcasts(0)
    view = EngineView(engine, 0, broadcasts)
    graph = adv._candidate(adv._selectors[0], 0, view)
    adv.choose(0, view)  # builds the port rows; state-neutral
    sender_info = adv._sender_info(0, view)
    reps = 200

    from repro.adversary.greedy import _StateOverlay

    processes = {v: view.process(v) for v in view.fault_plan.fault_free}
    before = {v: proc.phase for v, proc in processes.items()}
    overlay = _StateOverlay(processes)
    start = time.perf_counter()
    for _ in range(reps):
        overlay_result = adv._simulate(graph, sender_info, processes, before, overlay)
    overlay_s = max(time.perf_counter() - start, 1e-9) / reps

    start = time.perf_counter()
    for _ in range(reps):
        deepcopy_result = _deepcopy_simulate(adv, graph, 0, view)
    deepcopy_s = max(time.perf_counter() - start, 1e-9) / reps

    assert overlay_result == deepcopy_result, (
        f"overlay simulate diverged from deep-copy reference: "
        f"{overlay_result} vs {deepcopy_result}"
    )

    # State management alone: what one candidate used to pay to clone
    # every process vs what the overlay pays to rewind them.
    start = time.perf_counter()
    for _ in range(reps):
        overlay.restore()
    restore_s = max(time.perf_counter() - start, 1e-9) / reps
    start = time.perf_counter()
    for _ in range(max(reps // 4, 1)):
        for proc in processes.values():
            copy.deepcopy(proc)
    clone_s = max(time.perf_counter() - start, 1e-9) / max(reps // 4, 1)

    return {
        "n": n,
        "degree": degree,
        "rounds": rounds,
        "rounds_per_s": rounds / elapsed,
        "candidate_evals_per_s": candidates / elapsed,
        "candidate_eval_us": {
            "overlay": overlay_s * 1e6,
            "deepcopy_reference": deepcopy_s * 1e6,
        },
        "candidate_eval_speedup": deepcopy_s / overlay_s,
        "state_management_us": {
            "overlay_restore": restore_s * 1e6,
            "deepcopy_clone": clone_s * 1e6,
        },
        "state_management_speedup": clone_s / restore_s,
    }


def verify_contracts(n: int = 7) -> dict[str, Any]:
    """The refactor's identity contracts, asserted at tiny ``n``."""
    from repro.sim.batch import numpy_available, run_dac_batch

    seeds = [0, 1, 2]
    f = (n - 1) // 2
    lanes = run_dac_batch(n, f, seeds)
    # Serial reference: independent Engine runs, lane for lane.
    for seed, lane in zip(seeds, lanes):
        kwargs = build_dac_execution(n=n, f=f, seed=seed)
        engine = _build_engine(kwargs)
        result = engine.run(
            kwargs["max_rounds"], stop_when=Engine.all_fault_free_output
        )
        assert lane.rounds == int(result) and lane.stopped == result.stopped, (
            f"batch lane diverged from serial engine (seed {seed})"
        )
        assert lane.state_keys == {
            node: proc.state_key() for node, proc in engine.processes.items()
        }, f"batch state diverged from serial engine (seed {seed})"
    # With numpy installed the lanes above came from the kernel.
    checks = {"serial_vs_batch": True, "numpy_checked": numpy_available()}

    # No deepcopy inside the candidate loop.
    real_deepcopy = copy.deepcopy

    def forbidden(*args, **kwargs):  # pragma: no cover - must not run
        raise AssertionError("copy.deepcopy called in the candidate loop")

    copy.deepcopy = forbidden
    try:
        ports = random_ports(n, child_rng(5, "ports"))
        inputs = spawn_inputs(5, n)
        procs = {
            v: DACProcess(n, 0, inputs[v], ports.self_port(v), epsilon=1e-3)
            for v in range(n)
        }
        Engine(
            procs, LookaheadQuorumAdversary(n // 2), ports, record_trace=False
        ).run(4)
    finally:
        copy.deepcopy = real_deepcopy
    checks["lookahead_no_deepcopy"] = True
    return checks


def run_smoke(n: int = 9, rounds: int = 800) -> dict[str, Any]:
    """All legs at one size; the payload written to BENCH_topology.json."""
    return {
        "bench": "topology",
        "contracts": verify_contracts(min(n, 7)),
        "enforced": measure_enforced(n=n, rounds=rounds),
        "enforced_window": measure_enforced(n=n, rounds=rounds, window=3),
        "lookahead": measure_lookahead(n=n, rounds=max(20, rounds // 20)),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-topology-smoke", description=__doc__.splitlines()[0]
    )
    parser.add_argument("--n", type=int, default=9, help="network size (default 9)")
    parser.add_argument(
        "--rounds", type=int, default=800, help="enforced rounds to time (default 800)"
    )
    parser.add_argument(
        "--out",
        metavar="PATH",
        default="BENCH_topology.json",
        help="JSON output path (default BENCH_topology.json)",
    )
    args = parser.parse_args(argv)
    payload = run_smoke(n=args.n, rounds=args.rounds)
    with open(args.out, "w") as handle:
        json.dump(payload, handle, indent=1)
    enforced = payload["enforced"]
    lookahead = payload["lookahead"]
    print(f"contracts: {payload['contracts']}")
    print(
        f"enforced   n={enforced['n']} T={enforced['window']}: "
        f"{enforced['rounds_per_s']:.0f} rounds/s; construction "
        f"legacy/cold {enforced['construction_speedup_cold']:.2f}x, "
        f"legacy/hit {enforced['construction_speedup_hit']:.2f}x"
    )
    print(
        f"lookahead  n={lookahead['n']} D={lookahead['degree']}: "
        f"{lookahead['candidate_evals_per_s']:.0f} candidate evals/s; "
        f"overlay vs deepcopy {lookahead['candidate_eval_speedup']:.2f}x "
        f"end-to-end, {lookahead['state_management_speedup']:.2f}x on "
        f"state management"
    )
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
