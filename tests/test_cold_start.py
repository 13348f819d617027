"""Cold start: serial runs, the CLI and the service never load numpy.

numpy is needed only by the batch kernels (:mod:`repro.sim.batch` and
the structure tables of :mod:`repro.sim.arena`). Each check runs in a
fresh subprocess, because a module once imported stays in
``sys.modules`` for the life of the process:

1. importing ``repro``, ``repro.cli`` and ``repro.service``, one
   resolved serial run, one serial ``run_trials`` call and one
   in-process service compute and hit leave both ``numpy`` and
   ``repro.sim.batch`` unloaded; the batch names still resolve on
   first access, and with numpy they run the kernel;
2. :func:`repro.sim.parallel.get_pool` loads the kernels in the parent
   before the workers fork, so the workers inherit them.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def _run(code: str) -> dict:
    """Run ``code`` in a fresh interpreter; its last stdout line as JSON."""
    env = dict(os.environ)
    src = str(REPO / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO,
        timeout=120,
    )
    assert proc.returncode == 0, f"stdout:\n{proc.stdout}\nstderr:\n{proc.stderr}"
    return json.loads(proc.stdout.strip().splitlines()[-1])


SERIAL_SURFACES = """
import asyncio
import json
import sys

import repro
import repro.cli
import repro.service
from repro.scenario import resolve
from repro.service.jobs import JobManager
from repro.sim.parallel import TrialSpec, run_trials

SPEC = "algorithm: dac@1(n=5); rounds: 400"
resolved = resolve(SPEC)
run = resolved.run(1)
params = tuple(sorted(resolved.trial_kwargs().items()))
trials = run_trials(
    resolved.trial_fn, [TrialSpec(params, 0), TrialSpec(params, 1)],
    workers=1, batch=1,
)


async def compute_then_hit():
    manager = JobManager()
    try:
        statuses = []
        for _ in range(2):
            job = await manager.submit(SPEC, seeds=[0])
            payload = await job.result()
            statuses += [row["status"] for row in payload["results"]]
        return statuses
    finally:
        await manager.close(shutdown_pool=False)


statuses = asyncio.run(compute_then_hit())
serial_loaded = sorted({"numpy", "repro.sim.batch"} & set(sys.modules))

from repro.sim import BatchEngine

available = repro.numpy_available()
lanes_equal = backend = None
if available:
    from repro.sim.batch import GenericBatchEngine
    from repro.workloads import dac_lane_family

    backend = BatchEngine(dac_lane_family(5, 2), [0, 1]).backend
    serial_lanes = GenericBatchEngine(dac_lane_family(5, 2), [0, 1]).run()
    lanes_equal = repro.run_lanes(dac_lane_family(5, 2), [0, 1]) == serial_lanes
print(json.dumps({
    "serial_loaded": serial_loaded,
    "statuses": statuses,
    "trials": len(trials),
    "available": available,
    "numpy_after": "numpy" in sys.modules,
    "backend": backend,
    "lanes_equal": lanes_equal,
}))
"""


def test_serial_surfaces_leave_numpy_unloaded():
    seen = _run(SERIAL_SURFACES)
    assert seen["serial_loaded"] == []
    assert seen["statuses"] == ["computed", "hit"]
    assert seen["trials"] == 2
    if seen["available"]:
        # First access to a batch name loads the kernels and numpy,
        # and a 2-lane kernel batch equals the serial-engine lanes.
        assert seen["numpy_after"]
        assert seen["backend"] == "numpy"
        assert seen["lanes_equal"] is True
    else:
        assert seen["backend"] is None


POOL = """
import json
import sys

from repro.sim.parallel import close_pool, get_pool

before = "repro.sim.batch" in sys.modules
get_pool(2)
after = "repro.sim.batch" in sys.modules
close_pool()

import repro

print(json.dumps({
    "before": before,
    "after": after,
    "available": repro.numpy_available(),
    "numpy": "numpy" in sys.modules,
}))
"""


def test_get_pool_loads_the_kernels_before_workers_fork():
    seen = _run(POOL)
    assert seen == {
        "before": False,
        "after": True,
        "available": seen["available"],
        "numpy": seen["available"],
    }
