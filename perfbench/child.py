"""One benchmark process: a set-up probe or a measured run.

``python -m perfbench.child setup WORKLOAD SEED WORKDIR`` sets the
workload up, tears it down and prints the set-up seconds.
``python -m perfbench.child measure WORKLOAD SEED WORKDIR SECONDS TRACE``
sets up, runs the timed window (and, with TRACE=1, a second, traced
window), checks every output, and prints one JSON line.
:mod:`perfbench.run` starts both kinds with a fixed environment.

Every reported time is scaled to a reference speed, from the
calibrations around the measured work: sweep and set-up times by the
loop of :mod:`perfbench.calibrate`, service times by round trips to
:mod:`perfbench.refservice`. The ``info`` line keeps the raw figures.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import statistics
import sys
import time
from typing import Any

from perfbench import layers, refservice
from perfbench.calibrate import calibrate, cpu_seconds, scale, scales
from perfbench.service_mix import ServiceWorkload, Window
from perfbench.sweeps import SweepWorkload, digest, failed_trials
from perfbench.tracing import Tracer, instrument, read_trace

SWEEPS = {"sweep-serial": "serial", "sweep-batched": "batched", "sweep-pooled": "pooled"}
WORKLOADS = tuple(SWEEPS) + ("service-mix",)

# The tail is a fixed percentile per workload, and a window runs on
# past --seconds until at least ten samples lie beyond it, so the
# reported percentile never changes with machine speed. A sweep's
# "request" is one cell's run_trials call; the service's is one HTTP job.
TAIL_PERCENTILE = {"sweep-serial": 95, "sweep-batched": 95, "sweep-pooled": 95,
                   "service-mix": 99}
# The service window is cut into slices with a calibration between them,
# timed on the reference service (see perfbench.refservice).
SLICE_S = 1.0


def min_samples(percentile: float) -> int:
    """Samples needed for ten to lie beyond ``percentile``."""
    return round(10 * 100 / (100 - percentile))


def percentile(values: list[float], pct: float) -> float:
    """The ``pct`` percentile of ``values`` (linear interpolation)."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (len(ordered) - 1) * pct / 100
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def cpu_times() -> tuple[int, int]:
    """``(stolen, total)`` CPU ticks so far, from ``/proc/stat`` (zeros elsewhere).

    Steal is time the hypervisor ran someone else on our CPUs; a run
    whose window saw much of it is slow for reasons outside the program.
    """
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = [int(value) for value in handle.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def steal_share(before: tuple[int, int]) -> float:
    stolen, total = cpu_times()
    return (stolen - before[0]) / (total - before[1]) if total > before[1] else 0.0


def pin_to_one_cpu() -> None:
    """Run this process, and every process it starts, on one CPU.

    The hypervisor steals far more time when a guest keeps both of its
    vCPUs busy, and steal lands in wall-clock latency; on one CPU the
    daemon or pool workers and the load share a core whose speed the
    calibration measures directly. Throughputs are per CPU-second, so
    they do not depend on the CPU count.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def settle() -> None:
    """Same collector state before every window: empty young generations,
    set-up objects frozen out of later full collections."""
    gc.collect()
    gc.freeze()


def make(workload: str, seed: int, workdir: str, traced: bool = False) -> Any:
    if workload in SWEEPS:
        return SweepWorkload(SWEEPS[workload], seed)
    if workload == "service-mix":
        return ServiceWorkload(seed, workdir, traced=traced)
    raise SystemExit(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def timed_setup(bench: Any) -> tuple[float, float, dict[str, float]]:
    """``(scaled, raw, steps)`` set-up seconds: imports and registry,
    resolve, warm-up, pool or daemon."""
    before = calibrate()
    start = time.perf_counter()
    from repro.scenario import ensure_builtin_families

    ensure_builtin_families()
    steps = bench.setup()
    raw = time.perf_counter() - start
    return raw * scale(before, calibrate()), raw, steps


# -- sweeps -----------------------------------------------------------------


def sweep_window(bench: SweepWorkload, seconds: float, tail_pct: float) -> dict[str, Any]:
    """Whole passes until ``seconds`` elapsed and the tail has its samples.

    Each cell call's wall time and CPU time (this process and any pool
    workers) are scaled by the calibrations around it.
    """
    pids = bench.pids()
    passes: list[list[dict[str, Any]]] = []
    walls: list[float] = []
    cpus: list[float] = []
    calibrations = [calibrate()]
    need = min_samples(tail_pct)
    start = time.perf_counter()
    deadline = start + seconds
    while True:
        results: list[dict[str, Any]] = []
        for index in range(len(bench.cells)):
            cpu = cpu_seconds(pids)
            began = time.perf_counter()
            results.extend(bench.run_cell(index))
            walls.append(time.perf_counter() - began)
            cpus.append(cpu_seconds(pids) - cpu)
            calibrations.append(calibrate())
        passes.append(results)
        if time.perf_counter() >= deadline and len(walls) >= need:
            break
    factors = scales(calibrations)
    return {"elapsed": time.perf_counter() - start, "passes": passes,
            "wall": [w * f for w, f in zip(walls, factors)],
            "cpu": [c * f for c, f in zip(cpus, factors)],
            "raw_wall": walls, "raw_cpu": cpus}


def sweep_metrics(passes: list[list[dict]], wall: list[float], cpu: list[float],
                  tail_pct: float) -> dict[str, float]:
    """Throughputs per CPU-second over the whole window; latencies from
    the wall time of the cell calls."""
    spent = sum(cpu)
    return {
        "trials_per_cpu_s": sum(map(len, passes)) / spent,
        "rounds_per_cpu_s": sum(r["rounds"] for results in passes for r in results) / spent,
        "requests_per_cpu_s": len(cpu) / spent,
        "req_p50_ms": statistics.median(wall) * 1e3,
        "req_tail_ms": percentile(wall, tail_pct) * 1e3,
    }


def measure_sweep(workload: str, seed: int, workdir: str, seconds: float,
                  trace: bool) -> dict[str, Any]:
    bench = make(workload, seed, "")
    tail_pct = TAIL_PERCENTILE[workload]
    try:
        setup_s, setup_raw, steps = timed_setup(bench)
        settle()
        ticks = cpu_times()
        windows = [sweep_window(bench, seconds, tail_pct)]
        stolen = steal_share(ticks)
        window = windows[0]
        metrics = sweep_metrics(window["passes"], window["wall"], window["cpu"], tail_pct)
        raw = sweep_metrics(window["passes"], window["raw_wall"], window["raw_cpu"], tail_pct)
        per_layer = None
        if trace:
            from repro.sim.parallel import arena_registry

            tracer = Tracer()
            bench.tracer = tracer
            patches = instrument(tracer)
            settle()
            try:
                windows.append(sweep_window(bench, seconds, tail_pct))
            finally:
                patches.restore()
                bench.tracer = None
            window = windows[1]
            traced = sweep_metrics(window["passes"], window["wall"], window["cpu"], tail_pct)
            ctx = layers.Context(
                workload=workload,
                window_s=windows[1]["elapsed"],
                workers=bench.workers,
                untraced_per_s=metrics["trials_per_cpu_s"],
                traced_per_s=traced["trials_per_cpu_s"],
                pool_start_s=steps.get("pool_start_s", 0.0),
                segments=len(arena_registry().segment_names()),
            )
            per_layer = layers.values(tracer, ctx)
            tracer.write(f"{workdir}/trace-{workload}-{seed}.jsonl")
        # The gate, outside the timed windows: every pass must equal
        # direct resolve(spec).run(seed) calls, trial by trial.
        reference = bench.reference()
        passes = [results for window in windows for results in window["passes"]]
        failed = sum(failed_trials(results, reference) for results in passes)
        info = {
            "digest": digest(bench.cells, reference),
            "passes": len(windows[0]["passes"]),
            "trials_per_pass": bench.trials_per_pass,
            "tail_percentile": tail_pct,
            "samples": len(windows[0]["wall"]),
            "raw_trials_per_cpu_s": raw["trials_per_cpu_s"],
            "raw_req_p50_ms": raw["req_p50_ms"],
        }
    finally:
        bench.close()
    return finish(metrics, per_layer, sum(map(len, passes)), failed,
                  dict(info, setup_s_in_run=setup_s, raw_setup_s_in_run=setup_raw,
                       steal_share=stolen))


# -- service ------------------------------------------------------------------


class Slice:
    """One slice of a service window: its requests, CPU time and scale."""

    def __init__(self, window: Window, cpu: float, factor: float) -> None:
        self.window, self.cpu, self.factor = window, cpu, factor


def service_window(bench: ServiceWorkload, ref: refservice.RefService, seconds: float,
                   tail_pct: float, tracer: Tracer | None = None) -> list[Slice]:
    """One-second slices, each with its CPU time (load process and daemon)
    and scale, until ``seconds`` have passed and the tail has its samples.

    The scale comes from round trips to the reference service between
    slices, which slow with the host as service requests do.
    """
    pids = [os.getpid(), bench.daemon_pid]
    need = min_samples(tail_pct)
    pieces: list[tuple[Window, float]] = []
    calibrations = [ref.calibrate()]
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or sum(
            len(window.outcomes) for window, _cpu in pieces) < need:
        cpu = cpu_seconds(pids)
        window = bench.run_window(SLICE_S, tracer)
        pieces.append((window, cpu_seconds(pids) - cpu + window.client_cpu))
        calibrations.append(ref.calibrate())
    factors = scales(calibrations, reference=refservice.REFERENCE_S)
    return [Slice(window, cpu, factor) for (window, cpu), factor in zip(pieces, factors)]


def service_metrics(slices: list[Slice], tail_pct: float, scaled: bool = True) -> dict[str, float]:
    """Throughputs per CPU-second over the whole window; latencies over
    all requests."""
    spent = 0.0
    latencies: list[float] = []
    results: list[list[dict]] = []
    for piece in slices:
        factor = piece.factor if scaled else 1.0
        spent += piece.cpu * factor
        outcomes = piece.window.outcomes
        latencies.extend(outcome.latency_s * factor for outcome in outcomes)
        results.extend(outcome.payload["results"] for outcome in outcomes if outcome.payload)
    return {
        "trials_per_cpu_s": sum(map(len, results)) / spent,
        "rounds_per_cpu_s": sum(entry["result"]["rounds"] for seeds in results
                                for entry in seeds) / spent,
        "requests_per_cpu_s": len(latencies) / spent,
        "req_p50_ms": statistics.median(latencies) * 1e3,
        "req_tail_ms": percentile(latencies, tail_pct) * 1e3,
    }


def client_counts(slices: list[Slice]) -> dict[str, float]:
    counts = {"requests": 0, "seeds": 0, "hit": 0, "coalesced": 0, "computed": 0,
              "streams": 0, "events": 0, "latency_s": 0.0}
    for piece in slices:
        for outcome in piece.window.outcomes:
            counts["requests"] += 1
            counts["latency_s"] += outcome.latency_s
            if outcome.op.stream:
                counts["streams"] += 1
                counts["events"] += outcome.events
            if outcome.payload:
                for status in ("hit", "coalesced", "computed"):
                    counts[status] += outcome.payload.get(status, 0)
                counts["seeds"] += len(outcome.payload["results"])
    return counts


def measure_service(seed: int, workdir: str, seconds: float, trace: bool) -> dict[str, Any]:
    tail_pct = TAIL_PERCENTILE["service-mix"]
    bench = make("service-mix", seed, workdir + "/untraced")
    with refservice.RefService() as ref:
        try:
            setup_s, setup_raw, _ = timed_setup(bench)
            settle()
            ticks = cpu_times()
            windows = [service_window(bench, ref, seconds, tail_pct)]
            stolen = steal_share(ticks)
            # The system under test is the daemon; the load process holds
            # every payload for the gate, so its memory is left out.
            peak_rss = bench.daemon_peak_rss_mb()
        finally:
            bench.close()
        metrics = service_metrics(windows[0], tail_pct)
        raw = service_metrics(windows[0], tail_pct, scaled=False)
        per_layer = None
        if trace:
            traced_bench = make("service-mix", seed, workdir + "/traced", traced=True)
            tracer = Tracer()
            try:
                timed_setup(traced_bench)
                patches = instrument(tracer)
                settle()
                try:
                    windows.append(service_window(traced_bench, ref, seconds, tail_pct, tracer))
                finally:
                    patches.restore()
            finally:
                traced_bench.close()
            tracer.merge(read_trace(traced_bench.trace_file), request="daemon")
            traced = service_metrics(windows[1], tail_pct)
            ctx = layers.Context(
                workload="service-mix",
                window_s=sum(piece.window.seconds for piece in windows[1]),
                untraced_per_s=metrics["requests_per_cpu_s"],
                traced_per_s=traced["requests_per_cpu_s"],
                client=client_counts(windows[1]),
            )
            per_layer = layers.values(tracer, ctx)
            tracer.write(f"{workdir}/trace-service-mix-{seed}.jsonl")
    known: dict[tuple[int, int], dict] = {}
    outcomes = [piece.window for slices in windows for piece in slices]
    failed = sum(bench.check(window, known) for window in outcomes)
    info = {
        "tail_percentile": tail_pct,
        "samples": sum(len(piece.window.outcomes) for piece in windows[0]),
        "distinct_trials_checked": len(known),
        "raw_requests_per_cpu_s": raw["requests_per_cpu_s"],
        "raw_req_p50_ms": raw["req_p50_ms"],
        "setup_s_in_run": setup_s,
        "raw_setup_s_in_run": setup_raw,
        "steal_share": stolen,
    }
    attempted = sum(len(window.outcomes) for window in outcomes)
    return finish(metrics, per_layer, attempted, failed, info, peak_rss)


# -- shared -------------------------------------------------------------------


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest (reaped) child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024


def finish(metrics: dict[str, float], per_layer: dict[str, float] | None,
           attempted: int, failed: int, info: dict[str, Any],
           peak_rss: float | None = None) -> dict[str, Any]:
    metrics = dict(metrics, peak_rss_mb=peak_rss_mb() if peak_rss is None else peak_rss,
                   ok_ratio=(attempted - failed) / attempted if attempted else 0.0)
    return {"attempted": attempted, "failed": failed, "metrics": metrics,
            "per_layer": per_layer, "info": info}


def main(argv: list[str]) -> int:
    kind, workload, seed, workdir = argv[0], argv[1], int(argv[2]), argv[3]
    pin_to_one_cpu()
    if kind == "setup":
        bench = make(workload, seed, workdir + "/probe")
        try:
            setup_s, _raw, _steps = timed_setup(bench)
        finally:
            bench.close()
        print(json.dumps({"setup_s": setup_s}))
        return 0
    seconds, trace = float(argv[4]), argv[5] == "1"
    if workload in SWEEPS:
        result = measure_sweep(workload, seed, workdir, seconds, trace)
    else:
        result = measure_service(seed, workdir, seconds, trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
