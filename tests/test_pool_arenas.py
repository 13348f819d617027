"""Persistent worker pool lifecycle and dispatch tests.

Pooled dispatch (:mod:`repro.sim.parallel`) is a pure speed knob, so
three properties carry all the weight:

- **determinism** -- warm-pool batched dispatch returns bit-identical
  results to the serial path, across multiple sweeps over the *same*
  pool, with observer events forwarded in the same order;
- **small jobs** -- a batched job ships only ``(batch_fn, params,
  seeds, forward)``; workers build the structure tables they reach;
- **recovery** -- a crashed pool is torn down, and the next call
  rebuilds it; an interpreter dying by ``KeyboardInterrupt`` still
  reaches the pool teardown, and one killed by ``SIGTERM`` or
  ``SIGKILL`` takes its workers with it.

The names the benchmark harness still reads (``run_trials(arenas=)``,
``arena_registry()``, ``batch_fn.arena_plan``) are pinned as inert
compatibility stubs at the end.
"""

from __future__ import annotations

import json
import os
import pickle
import signal
import subprocess
import sys
import time
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest

from repro.bench.sweep import Sweep
from repro.scenario import family_trial
from repro.sim import parallel
from repro.sim.parallel import TrialSpec, close_pool, run_trials
from tests.helpers import family_entry, process_running

REPO = Path(__file__).resolve().parent.parent
BUILTIN_FAMILIES = ["averaging", "baseline", "byz", "dac", "dbac"]
dac_trial = family_trial("dac")


def _dac_specs(seeds, n: int = 9) -> list[TrialSpec]:
    return [TrialSpec((("n", n),), seed=int(s)) for s in seeds]


# -- Determinism ----------------------------------------------------------


def test_warm_pool_reused_across_sweeps_matches_serial():
    """Two batched Sweep.run calls share one warm pool; records match
    a serial sweep record for record."""
    close_pool()
    grid = {"n": [7, 9], "window": [1, 2]}

    serial = Sweep(grid=grid, repeats=3).run(dac_trial, workers=1, batch=1)
    first = Sweep(grid=grid, repeats=3).run(dac_trial, workers=4, batch=3)
    pool_obj = parallel._pool_executor
    assert pool_obj is not None, "persistent pool was not created"
    second = Sweep(grid=grid, repeats=3).run(dac_trial, workers=4, batch=3)
    assert parallel._pool_executor is pool_obj, "pool was not reused warm"

    assert first == serial
    assert second == serial


DISPATCH_MODES = {
    "persist-batched": {"batch": 3},
    "persist-unbatched": {},
    "fresh-batched": {"batch": 3, "pool": "fresh"},
}


@pytest.mark.parametrize("mode", list(DISPATCH_MODES))
def test_dispatch_mode_is_a_pure_speed_knob(mode):
    """Each dispatch mode matches serial, cold and on a warm pool, and
    never replaces the persistent pool it runs beside."""
    close_pool()
    options = DISPATCH_MODES[mode]
    specs = _dac_specs(range(6))
    serial = run_trials(dac_trial, specs, workers=1)
    cold = run_trials(dac_trial, specs, workers=2, **options)
    fresh = options.get("pool") == "fresh"
    assert (parallel._pool_executor is None) == fresh, (
        "only fresh mode leaves no persistent pool behind"
    )
    run_trials(dac_trial, specs, workers=2, batch=3)
    pool_obj = parallel._pool_executor
    assert pool_obj is not None, "persistent pool was not created"
    warm = run_trials(dac_trial, specs, workers=2, **options)
    assert parallel._pool_executor is pool_obj, "persistent pool was replaced"
    assert cold == serial
    assert warm == serial


def test_pooled_observer_forwarding_matches_serial():
    """Events recorded inside observed trials replay identically (same
    events, same order) whether trials ran in-process or on the warm
    pool."""
    close_pool()
    specs = [
        TrialSpec((("n", 7), ("observe", True)), seed=s) for s in range(4)
    ]
    serial_events: list = []
    pooled_events: list = []
    serial = run_trials(
        dac_trial, specs, workers=1, on_event=serial_events.append
    )
    pooled = run_trials(
        dac_trial, specs, workers=4, on_event=pooled_events.append
    )
    assert pooled == serial
    assert serial_events, "observed trials emitted no events"
    assert pooled_events == serial_events


def test_pooled_batched_jobs_ship_no_tables(monkeypatch):
    """A pooled batched DAC call pickles only functions, params and
    seeds -- well under 1 KB -- on a cold pool and on a warm one, and
    still equals the serial path."""
    close_pool()
    shipped: list[int] = []
    check = parallel._check_shippable

    def spy(fn, jobs, count):
        shipped.append(len(pickle.dumps(jobs)))
        check(fn, jobs, count)

    monkeypatch.setattr(parallel, "_check_shippable", spy)
    specs = _dac_specs(range(8), n=33)
    serial = run_trials(dac_trial, specs, workers=1)
    cold = run_trials(dac_trial, specs, workers=2, batch=4)
    warm = run_trials(dac_trial, specs, workers=2, batch=4)
    assert len(shipped) == 2, "both calls must dispatch to the pool"
    assert max(shipped) < 1024, f"pooled jobs pickled to {shipped} bytes"
    assert cold == serial
    assert warm == serial


# -- Recovery -------------------------------------------------------------


def _crashing_trial(n: int, seed: int) -> None:
    """Module-level so it pickles; kills its worker without cleanup."""
    os._exit(13)


def test_pool_crash_tears_down_the_pool():
    close_pool()
    with pytest.raises(BrokenProcessPool):
        run_trials(_crashing_trial, _dac_specs(range(4), n=5), workers=2)
    assert parallel._pool_executor is None, "crashed pool must be torn down"
    # The next pooled call starts clean on a rebuilt pool.
    specs = _dac_specs(range(2), n=5)
    assert run_trials(dac_trial, specs, workers=2) == run_trials(
        dac_trial, specs, workers=1
    )


_INTERRUPT_SCRIPT = """\
from repro.sim import parallel
from repro.scenario import family_trial
from repro.sim.parallel import TrialSpec, run_trials

dac_trial = family_trial("dac")
specs = [TrialSpec((("n", 9),), seed=s) for s in range(8)]
run_trials(dac_trial, specs, workers=2, batch=4)
pool = parallel._pool_executor
real_shutdown = pool.shutdown


def shutdown(*args, **kwargs):
    print("SHUTDOWN", flush=True)
    return real_shutdown(*args, **kwargs)


pool.shutdown = shutdown
raise KeyboardInterrupt
"""


def test_keyboard_interrupt_reaches_pool_teardown():
    """An interpreter dying by KeyboardInterrupt after a pooled call
    still runs the atexit teardown, which shuts the pool down."""
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", _INTERRUPT_SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0, "child was expected to die interrupted"
    assert "KeyboardInterrupt" in proc.stderr
    assert proc.stdout.splitlines() == ["SHUTDOWN"], proc.stdout + proc.stderr


_ORPHAN_SCRIPT = """
import json, time
from repro.sim import parallel
from repro.sim.parallel import TrialSpec, run_trials

assert run_trials(dict, [TrialSpec((), seed=s) for s in range(4)], workers=2)
print(json.dumps(sorted(parallel._pool_executor._processes)), flush=True)
time.sleep(120)
"""


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads /proc")
@pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGKILL], ids=["SIGTERM", "SIGKILL"])
def test_pool_workers_die_with_their_parent(signum):
    """A parent killed after a pooled call (neither signal runs atexit,
    so close_pool never runs) takes its pool workers with it."""
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-c", _ORPHAN_SCRIPT], env=env, stdout=subprocess.PIPE, text=True
    )
    workers: list[int] = []
    try:
        workers = json.loads(proc.stdout.readline())
        assert len(workers) == 2
        proc.send_signal(signum)
        assert proc.wait(timeout=30) == -signum
        deadline = time.monotonic() + 5.0
        while any(process_running(pid) for pid in workers) and time.monotonic() < deadline:
            time.sleep(0.05)
        survivors = [pid for pid in workers if process_running(pid)]
        assert survivors == [], f"pool workers outlived their parent: {survivors}"
    finally:
        for pid in [proc.pid, *workers]:
            if process_running(pid):
                os.kill(pid, signal.SIGKILL)
        proc.wait(timeout=30)
        proc.stdout.close()


# -- Compatibility stubs ----------------------------------------------------


def test_run_trials_ignores_the_arenas_keyword():
    close_pool()
    specs = _dac_specs(range(6))
    serial = run_trials(dac_trial, specs, workers=1)
    for arenas in (True, False):
        assert run_trials(dac_trial, specs, workers=2, batch=3, arenas=arenas) == serial
    assert parallel.arena_registry().segment_names() == []


def test_builtin_family_list_is_complete():
    from repro.scenario.registry import entries

    family_entry("dac")  # registers the built-in families
    builtin = {
        entry.name
        for entry in entries("algorithm")
        if type(entry.obj).__module__.startswith("repro.")
    }
    assert builtin == set(BUILTIN_FAMILIES)


@pytest.mark.parametrize("family", BUILTIN_FAMILIES)
def test_batch_fn_keeps_an_empty_arena_plan(family):
    batch_fn = family_trial(family).batch_fn
    assert batch_fn.arena_plan({"n": 9}) == []
