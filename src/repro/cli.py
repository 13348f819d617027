"""Scenario command line: run single executions from a shell.

Usage::

    python -m repro.cli dac --n 9 --f 4 --epsilon 1e-3 --window 3
    python -m repro.cli dbac --n 11 --f 2 --strategy extreme
    python -m repro.cli theorem9 --n 8
    python -m repro.cli theorem10 --f 1
    python -m repro.cli figure1
    python -m repro.cli dac --save-trace run.json
    python -m repro.cli dac --n 9 --f 4 --observe --trace-out run.jsonl
    python -m repro.cli sweep --n 5 9 13 --window 1 2 --repeats 5 --workers 4
    python -m repro.cli sweep --n 9 --repeats 32 --workers 4 --batch 8
    python -m repro.cli sweep --family dbac --n 11 16 --strategy extreme --batch 8
    python -m repro.cli sweep --n 9 --workers 4 --batch 8 --pool fresh
    python -m repro.cli sweep --spec "algorithm: averaging@1(n=6); rounds: 40"
    python -m repro.cli spec "algorithm: dac@1(n=9); network: dynadegree@1(window=3)"
    python -m repro.cli serve --port 8787 --cache results.jsonl --workers 4
    python -m repro.cli submit "algorithm: dac@1(n=9); rounds: 500" --seeds 0 1 2
    python -m repro.cli submit - --stream < scenario.json

Exit status is 0 when the run's verdict matches the theory: a ``dac``
or ``dbac`` run leaves :func:`~repro.analysis.guarantees.check_guarantees`
with no violation and no missing evidence, every result of a ``spec``,
``sweep`` or ``submit`` run keeps what its family declares
(``_keeps_guarantees``), ``figure1`` is correct, and the impossibility
constructions show their horn
(:func:`~repro.analysis.guarantees.shows_necessity_horn`). An
out-of-domain spec or flag exits 2, naming its field.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
from collections.abc import Callable, Mapping

from repro.adversary.periodic import figure1_adversary
from repro.analysis.guarantees import check_guarantees, shows_necessity_horn
from repro.core.dac import DACProcess
from repro.net.ports import random_ports
from repro.scenario.registry import AlgorithmFamily
from repro.scenario.spec import SpecError
from repro.sim.persistence import save_trace
from repro.sim.rng import child_rng
from repro.sim.runner import ExecutionReport, run_consensus
from repro.workloads import (
    TRIAL_BYZANTINE_STRATEGIES as _STRATEGIES,
    theorem9_split_execution,
    theorem10_split_execution,
)


def _keeps_guarantees(family: AlgorithmFamily, params: Mapping, summary: Mapping) -> bool:
    """Whether a trial ``summary`` keeps what ``family`` declares for its
    completed ``params`` (:meth:`~repro.scenario.registry.AlgorithmFamily.guarantees`).

    A summary keeps no phase series or trace for ``check_guarantees``
    to read (until trials keep them, ROADMAP item 20), so it must read
    ``correct`` where the family declares guarantees and ``terminated``
    where it declares none.
    """
    return summary["correct" if family.guarantees(**params) is not None else "terminated"]


def _print_report(report: ExecutionReport, verbose: bool) -> None:
    print(report.summary())
    if verbose:
        print(f"  inputs  : { {k: round(v, 4) for k, v in sorted(report.inputs.items())} }")
        print(f"  outputs : { {k: round(v, 4) for k, v in sorted(report.outputs.items())} }")
        print(f"  promise : {report.dynadegree_promise} verified={report.dynadegree_verified}")
        print(f"  ranges  : {[round(r, 5) for r in report.phase_ranges]}")
        print(f"  rates   : {[round(r, 4) for r in report.convergence_rates]}")
        if report.metrics:
            print(
                f"  traffic : {report.metrics.delivered} msgs, "
                f"{report.metrics.bits} bits over {report.metrics.rounds} rounds"
            )


def _maybe_save(report: ExecutionReport, path: str | None) -> None:
    if path and report.trace is not None:
        save_trace(report.trace, path)
        print(f"  trace saved to {path}")


def _observation(args: argparse.Namespace, n: int):
    """(run_consensus extras, finish callback) for --observe/--trace-out.

    ``--observe`` wires a fresh observer bus (live progress on stderr,
    metrics summary printed by ``finish``); ``--trace-out`` streams
    the execution through a v3 :class:`TraceWriter` spill instead of
    holding the trace in memory. Both are read-only: the run is
    bit-identical with or without them.
    """
    extras: dict = {}
    closers = []
    if getattr(args, "observe", False):
        from repro.obs import (
            MetricsAggregator,
            ObserverBus,
            ProgressReporter,
            consensus_hooks,
        )

        bus = ObserverBus()
        aggregator = bus.attach(MetricsAggregator())
        bus.attach(ProgressReporter())
        extras.update(consensus_hooks(bus))

        def _print_metrics() -> None:
            summary = aggregator.summary()
            print(
                f"  observed: {summary['rounds']} rounds, "
                f"{summary['delivered']} msgs, {summary['bits']} bits, "
                f"live senders {summary['live_senders_min']}"
                f"-{summary['live_senders_max']}"
            )

        closers.append(_print_metrics)
    if getattr(args, "trace_out", None):
        from repro.sim.persistence import TraceWriter

        writer = TraceWriter(args.trace_out, n)
        extras["trace_sink"] = writer

        def _close_writer() -> None:
            writer.close()
            print(
                f"  trace   : {writer.rounds_written} rounds spilled "
                f"to {args.trace_out}"
            )

        closers.append(_close_writer)

    def finish() -> None:
        for closer in closers:
            closer()

    return extras, finish


def _cmd_boundary(args: argparse.Namespace) -> int:
    """``dac`` / ``dbac``: one traced run of the family at the flags."""
    from repro.scenario import family_trial, validate_params

    entry = family_trial(args.command).entry
    flags = {
        "n": args.n,
        "f": args.f,
        "epsilon": args.epsilon,
        "window": args.window,
        "selector": getattr(args, "selector", None),
        "strategy": getattr(args, "strategy", None),
    }
    params = validate_params(entry, {k: v for k, v in flags.items() if v is not None})
    kwargs = entry.obj.build(seed=args.seed, **params)
    extras, finish = _observation(args, kwargs["ports"].n)
    report = run_consensus(**kwargs, **extras)
    _print_report(report, args.verbose)
    finish()
    _maybe_save(report, args.save_trace)
    violations, missing = check_guarantees(report, entry.obj.guarantees(**params))
    if args.trace_out:  # a streamed trace is spilled, never re-checked (trace_sink)
        missing = [line for line in missing if not line.startswith("dynadegree:")]
    return 1 if violations or missing else 0


def _cmd_necessity(build: Callable[..., dict], size: str, args: argparse.Namespace) -> int:
    """``theorem9`` / ``theorem10``: ``build``'s construction at the ``--<size>`` flag."""
    kwargs = build(**{size: getattr(args, size)}, seed=args.seed, eager_quorum=not args.plain)
    extras, finish = _observation(args, kwargs["ports"].n)
    report = run_consensus(**kwargs, **extras)
    _print_report(report, args.verbose)
    finish()
    _maybe_save(report, args.save_trace)
    return 0 if shows_necessity_horn(report, eager=not args.plain) else 1


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.bench.sweep import Sweep
    from repro.scenario import parse_spec, resolve, spec_for

    if args.save_trace or args.trace_out:
        print("error: sweep runs untraced; --save-trace/--trace-out are not supported here")
        return 2
    ns = args.n
    if args.spec:
        if args.strategy is not None or args.sweep_selector is not None:
            print("error: with --spec, set strategy/selector inside the spec")
            return 2
        spec = parse_spec(args.spec)
    else:
        # Family mode is a spec of the flags, swept like any other.
        ns = ns or [5, 9]
        flags = {
            "n": ns[0],
            "epsilon": args.epsilon,
            "strategy": args.strategy,
            "selector": args.sweep_selector,
        }
        spec = spec_for(args.family, {k: v for k, v in flags.items() if v is not None})
    resolved = resolve(spec)
    family = resolved.entry.name
    # Swept dimensions: n, explicit --window values, and --observe; the
    # spec's given parameters ride into every cell, and family mode
    # keeps a single-value window dimension so the table groups by it.
    grid: dict = {"n": ns or [resolved.params["n"]]}
    if args.window is not None:
        if "window" not in resolved.params:
            print(f"error: family {family!r} does not take --window")
            return 2
        grid["window"] = args.window
    elif not args.spec and "window" in resolved.params:
        grid["window"] = [1]
    if args.observe:
        # Per-trial observer bus: each record's result carries the
        # aggregator summary under "metrics" (identical at any
        # workers/batch -- batched forms delegate to observed serial
        # runs per seed).
        grid["observe"] = [True]
    epsilon = resolved.params.get("epsilon", args.epsilon)
    if family == "dbac":
        title = (
            f"DBAC rounds to epsilon-spread (boundary adversary, "
            f"strategy={resolved.params['strategy']}, eps={epsilon:g})"
        )
    elif family == "dac":
        title = f"DAC rounds to output (boundary adversary, eps={epsilon:g})"
    else:
        title = (
            f"{family} rounds to stop "
            f"(spec {resolved.spec.content_hash[:12]}, eps={epsilon:g})"
        )
    sweep = Sweep(grid=grid, repeats=args.repeats, seed0=args.seed)
    started = time.perf_counter()
    sweep.run(spec, workers=args.workers, batch=args.batch, pool=args.pool)
    elapsed = time.perf_counter() - started
    table = sweep.to_table(
        *(("n", "window") if "window" in grid else ("n",)),
        title=title,
        value=lambda record: float(record.result["rounds"]),
    )
    print(table.render())
    if args.verbose:
        for record in sweep.records:
            cell = ", ".join(f"{k}={v}" for k, v in record.params)
            print(f"  {cell}, seed={record.seed}: {record.result}")
    trials = len(sweep.records)
    print(
        f"  {trials} trials in {elapsed:.2f}s "
        f"({trials / elapsed:.1f} trials/s, workers={args.workers}, "
        f"batch={args.batch})"
    )
    # A record's params are its cell's completed parameters.
    ok = all(_keeps_guarantees(resolved.family, dict(r.params), r.result) for r in sweep.records)
    return 0 if ok else 1


def _cmd_spec(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.scenario import resolve

    resolved = resolve(args.text)
    canonical = resolved.canonical_spec()
    print(
        f"spec   : {canonical.content_hash}  "
        f"{resolved.entry.name}@{resolved.entry.version}"
    )
    for line in canonical.encode().splitlines():
        print(f"  {line}")
    summary = resolved.run(args.seed)
    print(f"result : {summary}")
    if args.out:
        payload = {
            "hash": canonical.content_hash,
            "spec": canonical.to_dict(),
            "params": dict(resolved.params),
            "result": summary,
        }
        Path(args.out).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )
        print(f"  resolved spec written to {args.out}")
    return 0 if _keeps_guarantees(resolved.family, resolved.params, summary) else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.service import serve as service_serve

    def announce(host: str, port: int) -> None:
        cache = args.cache or "in-memory"
        print(
            f"repro service listening on http://{host}:{port} "
            f"(workers={args.workers}, batch={args.batch}, cache={cache})",
            flush=True,
        )

    try:
        asyncio.run(
            service_serve(
                host=args.host,
                port=args.port,
                cache_path=args.cache,
                workers=args.workers,
                batch=args.batch,
                queue_size=args.queue_size,
                # lint: ignore[worker-closure] — ready is called in-process
                # by serve() on bind, never shipped to a pool worker
                ready=announce,
            )
        )
    except KeyboardInterrupt:
        print("repro service stopped")
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    import json

    from repro.scenario import resolve
    from repro.service import ServiceClient, ServiceError

    spec = args.text
    if spec == "-":
        spec = sys.stdin.read()
    # Resolved here only to judge the rows by the spec's family; not run.
    resolved = resolve(spec)
    on_event = None
    if args.stream:

        def on_event(entry: dict) -> None:
            print(json.dumps(entry, sort_keys=True), file=sys.stderr)

    client = ServiceClient(args.host, args.port)
    try:
        payload = client.submit(
            spec, seeds=args.seeds, stream=args.stream, on_event=on_event
        )
    except ServiceError as exc:
        print(f"error: {exc}")
        return 2
    except OSError as exc:
        print(f"error: cannot reach service at {args.host}:{args.port} ({exc})")
        return 2
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"job    : {payload['job']}  scenario {payload['scenario']}")
        print(
            f"status : computed={payload['computed']} hit={payload['hit']} "
            f"coalesced={payload['coalesced']}"
        )
        for row in payload["results"]:
            print(f"  seed {row['seed']} [{row['status']}]: {row['result']}")
    ok = all(
        _keeps_guarantees(resolved.family, resolved.params, row["result"])
        for row in payload["results"]
    )
    return 0 if ok else 1


def _cmd_figure1(args: argparse.Namespace) -> int:
    n = 3
    ports = random_ports(n, child_rng(args.seed, "ports"))
    inputs = [0.0, 0.5, 1.0]
    processes = {
        v: DACProcess(n, 0, inputs[v], ports.self_port(v), epsilon=args.epsilon)
        for v in range(n)
    }
    extras, finish = _observation(args, n)
    report = run_consensus(
        processes,
        figure1_adversary(),
        ports,
        epsilon=args.epsilon,
        max_rounds=500,
        seed=args.seed,
        **extras,
    )
    _print_report(report, args.verbose)
    finish()
    _maybe_save(report, args.save_trace)
    return 0 if report.correct else 1


def build_parser() -> argparse.ArgumentParser:
    # ``spec`` takes the common flags but its own --seed (default: the spec's).
    unseeded = argparse.ArgumentParser(add_help=False)
    unseeded.add_argument("--epsilon", type=float, default=1e-3)
    unseeded.add_argument("-v", "--verbose", action="store_true")
    unseeded.add_argument("--save-trace", metavar="PATH", default=None)
    unseeded.add_argument(
        "--trace-out",
        metavar="PATH",
        default=None,
        help="stream the trace to PATH as chunked JSONL (format v3) "
        "while running -- O(chunk) memory however long the run",
    )
    unseeded.add_argument(
        "--observe",
        action="store_true",
        help="attach the observer bus: live progress on stderr plus a "
        "metrics summary (sweep: per-trial metrics in the records)",
    )
    common = argparse.ArgumentParser(add_help=False, parents=[unseeded])
    common.add_argument("--seed", type=int, default=0)

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Run single consensus scenarios from the ICDCS'24 reproduction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_dac = sub.add_parser("dac", parents=[common], help="DAC at the crash-model boundary")
    p_dac.add_argument("--n", type=int, default=9)
    p_dac.add_argument("--f", type=int, default=None)
    p_dac.add_argument("--window", type=int, default=1)
    p_dac.add_argument("--selector", choices=["rotate", "nearest", "random"], default="rotate")
    p_dac.set_defaults(fn=_cmd_boundary)

    p_dbac = sub.add_parser("dbac", parents=[common], help="DBAC at the Byzantine boundary")
    p_dbac.add_argument("--n", type=int, default=11)
    p_dbac.add_argument("--f", type=int, default=None)
    p_dbac.add_argument("--window", type=int, default=1)
    p_dbac.add_argument("--strategy", choices=sorted(_STRATEGIES), default="extreme")
    p_dbac.set_defaults(fn=_cmd_boundary)

    p_t9 = sub.add_parser(
        "theorem9", parents=[common], help="the crash-model necessity construction"
    )
    p_t9.add_argument("--n", type=int, default=8)
    p_t9.add_argument("--plain", action="store_true", help="run real DAC (stalls)")
    p_t9.set_defaults(fn=functools.partial(_cmd_necessity, theorem9_split_execution, "n"))

    p_t10 = sub.add_parser(
        "theorem10", parents=[common], help="the Byzantine necessity construction"
    )
    p_t10.add_argument("--f", type=int, default=1)
    p_t10.add_argument("--plain", action="store_true", help="run real DBAC (stalls)")
    p_t10.set_defaults(fn=functools.partial(_cmd_necessity, theorem10_split_execution, "f"))

    p_fig = sub.add_parser(
        "figure1", parents=[common], help="DAC on the paper's Figure 1 adversary"
    )
    p_fig.set_defaults(fn=_cmd_figure1)

    from repro.scenario import algorithm_entries

    p_sweep = sub.add_parser(
        "sweep",
        parents=[common],
        help="registered-family grid sweep, optionally fanned out over "
        "worker processes",
    )
    p_sweep.add_argument("--n", type=int, nargs="+", default=None)
    p_sweep.add_argument("--window", type=int, nargs="+", default=None)
    p_sweep.add_argument("--repeats", type=int, default=3)
    p_sweep.add_argument(
        "--family",
        choices=sorted({entry.name for entry in algorithm_entries()}),
        default="dac",
        help="registered trial family (repro.scenario registry); every "
        "family batches and fans out identically",
    )
    p_sweep.add_argument(
        "--spec",
        metavar="SPEC",
        default=None,
        help="sweep a scenario spec instead of --family flags: a DSL "
        "one-liner (';'-separated sections) or JSON, see "
        "docs/scenarios.md; --n/--window still sweep over it",
    )
    p_sweep.add_argument(
        "--strategy",
        choices=sorted(_STRATEGIES),
        default=None,
        help="Byzantine strategy for families with a byzantine faults "
        "section (e.g. dbac)",
    )
    p_sweep.add_argument(
        "--selector",
        dest="sweep_selector",
        choices=["rotate", "nearest", "random"],
        default=None,
        help="adversary link selector for families with a dynadegree "
        "network section",
    )
    p_sweep.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for the sweep (0 = one per CPU); "
        "records are identical for every worker count",
    )
    p_sweep.add_argument(
        "--batch",
        type=int,
        default=1,
        help="trials advanced in lock-step per batched call "
        "(repro.sim.batch; composes with --workers); records are "
        "identical for every batch size",
    )
    p_sweep.add_argument(
        "--pool",
        choices=["persist", "fresh"],
        default="persist",
        help="worker-pool lifecycle: 'persist' (default) reuses one "
        "warm pool across sweeps in this process, 'fresh' spins a "
        "pool up per sweep; records are identical either way",
    )
    p_sweep.set_defaults(fn=_cmd_sweep)

    p_spec = sub.add_parser(
        "spec",
        parents=[unseeded],
        help="resolve one scenario spec, print its canonical form and "
        "content hash, and run it",
    )
    p_spec.add_argument(
        "text",
        metavar="SPEC",
        help="scenario spec: DSL text (';' separates sections in a "
        "one-liner) or a JSON object, see docs/scenarios.md",
    )
    p_spec.add_argument(
        "--out",
        metavar="PATH",
        default=None,
        help="write the resolved spec (canonical JSON + content hash + "
        "flat params + trial result) to PATH",
    )
    p_spec.add_argument(
        "--seed", type=int, default=None, help="run this seed (default: the spec's seed)"
    )
    p_spec.set_defaults(fn=_cmd_spec)

    p_serve = sub.add_parser(
        "serve",
        help="run the consensus-as-a-service daemon: submit scenario "
        "specs over HTTP/JSON, results memoized in a content-addressed "
        "cache (repro.service, docs/service.md)",
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8787)
    p_serve.add_argument(
        "--cache",
        metavar="PATH",
        default=None,
        help="append-only JSONL cache file; replayed on startup so "
        "results survive restarts (default: in-memory only)",
    )
    p_serve.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes per job dispatch (0 = one per CPU); "
        "cached payloads are identical for every worker count",
    )
    p_serve.add_argument(
        "--batch",
        type=int,
        default=1,
        help="lock-step lanes per batched call for jobs whose family "
        "has a batched form",
    )
    p_serve.add_argument(
        "--queue-size",
        type=int,
        default=16,
        help="bounded job-queue depth; submissions past it wait "
        "(backpressure) instead of piling up",
    )
    p_serve.set_defaults(fn=_cmd_serve)

    p_submit = sub.add_parser(
        "submit",
        help="submit one scenario spec to a running service daemon and "
        "print its (possibly cached) results",
    )
    p_submit.add_argument(
        "text",
        metavar="SPEC",
        help="scenario spec: DSL text or a JSON object ('-' reads from "
        "stdin), see docs/scenarios.md",
    )
    p_submit.add_argument("--host", default="127.0.0.1")
    p_submit.add_argument("--port", type=int, default=8787)
    p_submit.add_argument(
        "--seeds",
        type=int,
        nargs="+",
        default=None,
        help="trial seeds to run (default: the spec's own seed); each "
        "seed is cached independently",
    )
    p_submit.add_argument(
        "--stream",
        action="store_true",
        help="stream the job's event log to stderr as JSONL while it "
        "runs (chunked HTTP response)",
    )
    p_submit.add_argument(
        "--json",
        action="store_true",
        help="print the raw response payload as JSON instead of the "
        "per-seed summary",
    )
    p_submit.set_defaults(fn=_cmd_submit)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except SpecError as exc:
        print(f"error: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
