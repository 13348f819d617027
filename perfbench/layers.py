"""Per-layer metrics of a traced run, derived from the tracer's aggregates.

``layers.json`` beside this file is the mapping later changes cite:
for each per-layer metric its unit, which end-to-end metric it should
move, and on which workload. ``spans`` lists the traced spans; each
also reports ``<span>.calls`` and ``<span>.self_ms`` (total self time
in the traced window).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any

from perfbench.tracing import Tracer

_HERE = os.path.dirname(os.path.abspath(__file__))


def load_mapping() -> dict[str, Any]:
    with open(os.path.join(_HERE, "layers.json"), encoding="utf-8") as handle:
        return json.load(handle)


def declared() -> list[dict[str, str]]:
    """Every per-layer metric as ``{name, unit, better}``, in order."""
    mapping = load_mapping()
    rows = [{k: m[k] for k in ("name", "unit", "better")} for m in mapping["metrics"]]
    for span in mapping["spans"]:
        rows.append({"name": span["name"] + ".calls", "unit": "count", "better": "lower"})
        rows.append({"name": span["name"] + ".self_ms", "unit": "ms", "better": "lower"})
    return rows


@dataclass
class Context:
    """What the traced window measured outside the tracer."""

    workload: str
    window_s: float
    workers: int = 1
    untraced_per_s: float = 0.0
    traced_per_s: float = 0.0
    pool_start_s: float = 0.0
    segments: int = 0
    client: dict[str, float] = field(default_factory=dict)


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def values(tracer: Tracer, ctx: Context) -> dict[str, float]:
    """Every declared per-layer metric's value (0 where a layer did not run)."""
    us, ms = 1e-3, 1e-6
    counters = tracer.counters
    pooled = ctx.workload == "sweep-pooled"
    service = ctx.workload == "service-mix"
    client = ctx.client
    requests = client.get("requests", 0)
    seeds = client.get("seeds", 0)
    hits = counters.get("net.topology.hit", 0)
    built = counters.get("net.topology.built", 0)
    kernel_lanes = counters.get("sim.batch.kernel.lanes", 0)
    fallback_lanes = counters.get("sim.batch.fallback.lanes", 0)
    pickles = tracer.calls("sim.parallel.job_pickle")
    server_side = (tracer.total_ns("service.jobs.submit") + tracer.total_ns("service.jobs.result"))
    out = {
        "adversary.choose_us": tracer.mean_ns("adversary.choose") * us,
        "core.broadcast_us": tracer.mean_ns("core.broadcast") * us,
        "core.deliver_us": tracer.mean_ns("core.deliver") * us,
        "sim.engine.round_self_us": tracer.mean_ns("sim.engine.round", own=True) * us,
        "net.topology_intern_hit_ratio": _ratio(hits, hits + built),
        "net.topologies_built": built,
        "workloads.build_ms": tracer.mean_ns("workloads.build") * ms,
        "sim.runner.trial_ms": tracer.mean_ns("sim.runner.trial") * ms,
        "sim.batch.kernel_lane_round_us": _ratio(
            tracer.total_ns("sim.batch.kernel"),
            counters.get("sim.batch.kernel.lane_rounds", 0)) * us,
        "sim.batch.fallback_lane_round_us": _ratio(
            tracer.total_ns("sim.batch.fallback"),
            counters.get("sim.batch.fallback.lane_rounds", 0)) * us,
        "sim.batch.fallback_lane_share": _ratio(fallback_lanes, kernel_lanes + fallback_lanes),
        "sim.parallel.pool_start_s": ctx.pool_start_s,
        "sim.parallel.job_pickle_bytes": _ratio(
            counters.get("sim.parallel.job_pickle_bytes", 0), pickles),
        "sim.parallel.job_pickle_us": tracer.mean_ns("sim.parallel.job_pickle") * us,
        "sim.parallel.dispatch_wait_ms": (
            tracer.mean_ns("sim.parallel.run_trials", own=True) * ms if pooled else 0.0),
        "sim.parallel.worker_busy_share": _ratio(
            tracer.total_ns("sim.parallel.worker_call"), ctx.workers * ctx.window_s * 1e9),
        "sim.arena.publish_ms": tracer.mean_ns("sim.arena.publish") * ms,
        "sim.arena.segments": ctx.segments,
        "scenario.parse_us": tracer.mean_ns("scenario.parse") * us,
        "scenario.resolve_us": tracer.mean_ns("scenario.resolve") * us,
        "scenario.hash_us": tracer.mean_ns("scenario.hash") * us,
        "service.jobs.submit_us": tracer.mean_ns("service.jobs.submit") * us,
        "service.cache.get_us": tracer.mean_ns("service.cache.get") * us,
        "service.server.overhead_ms": (
            (client.get("latency_s", 0) * 1e9 - server_side) / requests * ms
            if requests else 0.0),
        "service.jobs.queue_wait_ms": _ratio(
            counters.get("service.jobs.queue_wait_ns", 0),
            counters.get("service.jobs.queued", 0)) * ms,
        "service.jobs.compute_ms": (
            tracer.mean_ns("sim.parallel.run_trials") * ms if service else 0.0),
        "service.cache.put_us": tracer.mean_ns("service.cache.put") * us,
        "service.cache.hit_ratio": _ratio(client.get("hit", 0), seeds),
        "service.jobs.coalesced_ratio": _ratio(client.get("coalesced", 0), seeds),
        "obs.events_per_stream": _ratio(client.get("events", 0), client.get("streams", 0)),
        "trace.overhead_per_s": ctx.traced_per_s - ctx.untraced_per_s,
        "trace.overhead_share": 1.0 - _ratio(ctx.traced_per_s, ctx.untraced_per_s),
    }
    for span in load_mapping()["spans"]:
        name = span["name"]
        out[name + ".calls"] = tracer.calls(name)
        out[name + ".self_ms"] = tracer.self_ns(name) * ms
    return out
