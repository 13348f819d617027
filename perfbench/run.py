"""The benchmark command.

    python3 perfbench/run.py --workload sweep-serial --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. It compiles the sources, takes the
median of several fresh-process set-up probes as ``setup_s``, then
runs one measured process (:mod:`perfbench.child`) and prints every
metric by name with its unit, then one JSON line. ``--trace 0``
reports the end-to-end metrics of ``BENCHMARK.json``, ``--trace 1``
the per-layer ones (from a second, traced window). Any output that
differs from a direct run, or misses the paper's verdicts, makes
``correct`` false and the exit code 1.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("sweep-serial", "sweep-batched", "sweep-pooled", "service-mix")
# setup_s is the median of these fresh-process probes and the measured
# process's own set-up; a cold first process only lifts the top sample.
SETUP_PROBES = 3
CHILD_TIMEOUT_S = 170


def child_env() -> dict[str, str]:
    """The same interpreter state for every child: fixed hash seed, no
    inherited path, sources from this checkout."""
    env = {key: value for key, value in os.environ.items() if not key.startswith("PYTHON")}
    env["PYTHONPATH"] = os.pathsep.join([SRC, ROOT])
    env["PYTHONHASHSEED"] = "0"
    return env


def child(args: list[str], timeout: float) -> dict:
    """Run ``perfbench.child`` with ``args``; its last stdout line as JSON.

    The child leads its own process group, so a timeout stops it and
    everything it started (daemon, pool workers) together.
    """
    process = subprocess.Popen(
        [sys.executable, "-m", "perfbench.child", *args],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = process.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise SystemExit(f"perfbench.child {args[0]} timed out after {timeout:.0f} s")
    if process.returncode != 0:
        raise SystemExit(f"perfbench.child {args[0]} exited with {process.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no repro sources under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    benchmark = load_benchmark()
    compileall.compile_dir(SRC, quiet=1)
    compileall.compile_dir(os.path.join(ROOT, "perfbench"), quiet=1)
    workdir = os.path.join(OUT, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    started = time.perf_counter()
    try:
        common = [args.workload, str(args.seed), workdir]
        setup = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                setup.append(child(["setup", *common], CHILD_TIMEOUT_S)["setup_s"])
        remaining = CHILD_TIMEOUT_S - (time.perf_counter() - started)
        result = child(["measure", *common, f"{args.seconds:g}", str(args.trace)], remaining)
    finally:
        # Caches and probe directories go; trace files stay for reading.
        for entry in os.scandir(workdir):
            if entry.is_dir():
                shutil.rmtree(entry.path, ignore_errors=True)
        if not os.listdir(workdir):
            os.rmdir(workdir)

    if args.trace:
        declared = benchmark["per_layer"]
        values = result["per_layer"]
    else:
        declared = benchmark["end_to_end"]
        setup.append(result["info"]["setup_s_in_run"])
        values = dict(result["metrics"], setup_s=statistics.median(setup))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    correct = result["failed"] == 0
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print("info " + json.dumps(dict(result["info"], setup_samples_s=setup), sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
