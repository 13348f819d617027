"""Batched-DBAC perf smoke: vectorized Byzantine lanes and compaction.

Measures the lane families the batched Byzantine kernel
(:class:`repro.sim.batch.ByzBatchEngine`) vectorizes and emits a
machine-readable ``BENCH_batch_dbac.json`` so the perf trajectory is
tracked from this PR on (CI runs it at tiny sizes; the
``bench_engine_scaling`` suite runs the same legs at larger ones):

- **dbac** -- aggregate rounds/s for boundary DBAC lanes (``nearest``
  enforcing adversary, equivocating Byzantine nodes) on the serial
  fast path (one untraced engine run per seed) vs the vectorized numpy
  kernel;
- **mobile** -- the same comparison for mobile-omission DAC lanes;
- **compaction** -- long-tailed DBAC grids at capped vector width,
  chunked drain (``compact=False``) vs seed-queue refill
  (``compact=True``).

Also asserts the kernel's identity contracts at tiny sizes (batched
lanes vs independent serial engines by full state key; compaction
on/off equality; mobile kernel lanes vs serial-engine lanes), so the CI
smoke is a correctness gate as well as a trend line.

Usage::

    python -m repro.bench.batch_smoke --out BENCH_batch_dbac.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Any

from repro.sim.batch import (
    numpy_available,
    run_byz_batch,
    run_dbac_batch,
    run_generic_batch,
)
from repro.sim.engine import Engine
from repro.workloads import build_dbac_execution, build_mobile_execution


def _serial_dbac_lane(
    n: int, f: int, seed: int, epsilon: float, max_rounds: int = 50_000
) -> tuple[Engine, Any]:
    """One serial engine run of the exact lane the batch engine claims."""
    from repro.workloads import TRIAL_BYZANTINE_STRATEGIES

    factory = TRIAL_BYZANTINE_STRATEGIES["extreme"]
    kwargs = build_dbac_execution(
        n=n,
        f=f,
        epsilon=epsilon,
        seed=seed,
        byzantine_factory=lambda node: factory(),
    )
    engine = Engine(
        kwargs["processes"],
        kwargs["adversary"],
        kwargs["ports"],
        fault_plan=kwargs["fault_plan"],
        f=kwargs["f"],
        seed=kwargs["seed"],
        record_trace=False,
    )
    result = engine.run(
        max_rounds, stop_when=lambda eng: eng.fault_free_range() <= epsilon
    )
    return engine, result


def verify_contracts(n: int = 6) -> dict[str, Any]:
    """The batched Byzantine kernel's identity contracts, at tiny ``n``."""
    f = (n - 1) // 5
    seeds = [0, 1, 2, 3]
    lanes = run_dbac_batch(n, f, seeds)
    for seed, lane in zip(seeds, lanes):
        engine, result = _serial_dbac_lane(n, f, seed, epsilon=1e-3)
        assert lane.rounds == int(result) and lane.stopped == result.stopped, (
            f"batch lane diverged from serial engine (seed {seed})"
        )
        assert lane.state_keys == {
            node: proc.state_key() for node, proc in engine.processes.items()
        }, f"batch state diverged from serial engine (seed {seed})"
    checks: dict[str, Any] = {"serial_vs_batch": True, "numpy_checked": False}
    if numpy_available():
        compacted = run_dbac_batch(n, f, seeds * 3, width=3, compact=True)
        chunked = run_dbac_batch(n, f, seeds * 3, width=3, compact=False)
        assert compacted == chunked, "lane compaction changed results"
        mobile_serial = run_generic_batch(
            seeds, lambda seed: build_mobile_execution(n=n, seed=seed)
        )
        mobile_numpy = run_byz_batch(n, None, seeds, adversary="mobile-block_min")
        assert mobile_numpy == mobile_serial, "numpy mobile kernel diverged"
        checks["numpy_checked"] = True
        checks["compaction_identity"] = True
        checks["mobile_identity"] = True
    return checks


def measure_dbac(
    n: int, lanes: int = 32, epsilon: float = 1e-6
) -> dict[str, Any]:
    """Serial-fast-path vs vectorized aggregate rounds/s for DBAC lanes."""
    f = (n - 1) // 5
    seeds = list(range(lanes))
    start = time.perf_counter()
    serial = run_generic_batch(
        seeds,
        lambda seed: build_dbac_execution(n=n, f=f, epsilon=epsilon, seed=seed),
    )
    serial_s = max(time.perf_counter() - start, 1e-9)
    rounds = sum(lane.rounds for lane in serial)
    start = time.perf_counter()
    batched = run_dbac_batch(n, f, seeds, epsilon=epsilon)
    batched_s = max(time.perf_counter() - start, 1e-9)
    assert batched == serial, "batched DBAC lanes diverged from the serial path"
    return {
        "n": n,
        "f": f,
        "lanes": lanes,
        "epsilon": epsilon,
        "total_rounds": rounds,
        "serial_rounds_per_s": rounds / serial_s,
        "batched_rounds_per_s": rounds / batched_s,
        "speedup": serial_s / batched_s,
        "backend": "numpy" if numpy_available() else "python",
    }


def measure_mobile(
    n: int, lanes: int = 32, mode: str = "block_min", epsilon: float = 1e-6
) -> dict[str, Any]:
    """Serial-fast-path vs vectorized rounds/s for mobile-omission lanes."""
    seeds = list(range(lanes))
    adversary = f"mobile-{mode}"
    start = time.perf_counter()
    serial = run_generic_batch(
        seeds,
        lambda seed: build_mobile_execution(
            n=n, mode=mode, epsilon=epsilon, seed=seed
        ),
    )
    serial_s = max(time.perf_counter() - start, 1e-9)
    rounds = sum(lane.rounds for lane in serial)
    start = time.perf_counter()
    batched = run_byz_batch(n, None, seeds, adversary=adversary, epsilon=epsilon)
    batched_s = max(time.perf_counter() - start, 1e-9)
    assert batched == serial, "batched mobile lanes diverged from the serial path"
    return {
        "n": n,
        "mode": mode,
        "lanes": lanes,
        "epsilon": epsilon,
        "total_rounds": rounds,
        "serial_rounds_per_s": rounds / serial_s,
        "batched_rounds_per_s": rounds / batched_s,
        "speedup": serial_s / batched_s,
        "backend": "numpy" if numpy_available() else "python",
    }


def measure_compaction(
    n: int, seeds_total: int = 64, width: int = 8, epsilon: float = 1e-6
) -> dict[str, Any]:
    """Chunked drain vs seed-queue compaction at capped vector width.

    Long-tailed grids are where compaction earns its keep: without it
    every ``width``-sized chunk waits for its slowest lane before the
    next chunk may start; with it, freed rows restart on queued seeds
    immediately. Results are asserted identical.
    """
    f = (n - 1) // 5
    seeds = list(range(seeds_total))
    start = time.perf_counter()
    chunked = run_dbac_batch(n, f, seeds, epsilon=epsilon, width=width, compact=False)
    chunked_s = max(time.perf_counter() - start, 1e-9)
    start = time.perf_counter()
    compacted = run_dbac_batch(n, f, seeds, epsilon=epsilon, width=width, compact=True)
    compacted_s = max(time.perf_counter() - start, 1e-9)
    assert compacted == chunked, "lane compaction changed results"
    rounds = sum(lane.rounds for lane in chunked)
    return {
        "n": n,
        "f": f,
        "seeds": seeds_total,
        "width": width,
        "epsilon": epsilon,
        "total_rounds": rounds,
        "chunked_rounds_per_s": rounds / chunked_s,
        "compacted_rounds_per_s": rounds / compacted_s,
        "compaction_speedup": chunked_s / compacted_s,
    }


def run_smoke(n: int = 11, lanes: int = 16) -> dict[str, Any]:
    """All legs at one size; the payload written to BENCH_batch_dbac.json."""
    return {
        "bench": "batch_dbac",
        "contracts": verify_contracts(min(n, 6)),
        "dbac": measure_dbac(n=n, lanes=lanes),
        "mobile": measure_mobile(n=n, lanes=lanes),
        "compaction": measure_compaction(
            n=n, seeds_total=4 * lanes, width=max(2, lanes // 2)
        ),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-batch-smoke", description=__doc__.splitlines()[0]
    )
    parser.add_argument("--n", type=int, default=11, help="network size (default 11)")
    parser.add_argument(
        "--lanes", type=int, default=16, help="batch lanes B (default 16)"
    )
    parser.add_argument(
        "--out",
        metavar="PATH",
        default="BENCH_batch_dbac.json",
        help="JSON output path (default BENCH_batch_dbac.json)",
    )
    args = parser.parse_args(argv)
    payload = run_smoke(n=args.n, lanes=args.lanes)
    with open(args.out, "w") as handle:
        json.dump(payload, handle, indent=1)
    dbac = payload["dbac"]
    mobile = payload["mobile"]
    compaction = payload["compaction"]
    print(f"contracts: {payload['contracts']}")
    print(
        f"dbac    n={dbac['n']} f={dbac['f']} B={dbac['lanes']}: "
        f"{dbac['batched_rounds_per_s']:.0f} rounds/s "
        f"({dbac['speedup']:.2f}x vs serial fast path, {dbac['backend']})"
    )
    print(
        f"mobile  n={mobile['n']} {mobile['mode']} B={mobile['lanes']}: "
        f"{mobile['batched_rounds_per_s']:.0f} rounds/s "
        f"({mobile['speedup']:.2f}x vs serial fast path)"
    )
    print(
        f"compact n={compaction['n']} width={compaction['width']} "
        f"seeds={compaction['seeds']}: {compaction['compaction_speedup']:.2f}x "
        f"vs chunked drain"
    )
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
