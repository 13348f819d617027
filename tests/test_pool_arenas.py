"""Persistent worker pool + shared-memory arena lifecycle tests.

The zero-copy dispatch stack (:mod:`repro.sim.parallel` +
:mod:`repro.sim.arena`) is a pure speed knob, so two properties carry
all the weight:

- **determinism** -- warm-pool batched dispatch returns bit-identical
  results to the serial path, across multiple sweeps over the *same*
  pool, with observer events forwarded in the same order;
- **hygiene** -- shared-memory segments are unlinked on every exit
  path: explicit :func:`close_pool`, a crashed pool, and interpreter
  death by ``KeyboardInterrupt``. ``/dev/shm`` is checked directly,
  not just the registry's own ledger.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest

from repro.bench.sweep import Sweep
from repro.sim import parallel
from repro.sim.arena import arenas_available
from repro.sim.parallel import TrialSpec, close_pool, run_trials
from repro.workloads import run_dac_trial

REPO = Path(__file__).resolve().parent.parent
SHM = Path("/dev/shm")


def _shm_segments(pid: int | None = None) -> list[str]:
    """This process's (or ``pid``'s) arena segments visible to the OS."""
    if not SHM.is_dir():
        return []
    pid = os.getpid() if pid is None else pid
    return sorted(p.name for p in SHM.glob(f"repro_arena_{pid}_*"))


def _dac_specs(seeds, n: int = 9) -> list[TrialSpec]:
    return [TrialSpec((("n", n),), seed=int(s)) for s in seeds]


# -- Determinism ----------------------------------------------------------


def test_warm_pool_reused_across_sweeps_matches_serial():
    """Two batched Sweep.run calls share one warm pool; records match
    a serial sweep record for record."""
    close_pool()
    grid = {"n": [7, 9], "window": [1, 2]}

    serial = Sweep(grid=grid, repeats=3).run(run_dac_trial, workers=1, batch=1)
    first = Sweep(grid=grid, repeats=3).run(run_dac_trial, workers=4, batch=3)
    pool_obj = parallel._pool_executor
    assert pool_obj is not None, "persistent pool was not created"
    second = Sweep(grid=grid, repeats=3).run(run_dac_trial, workers=4, batch=3)
    assert parallel._pool_executor is pool_obj, "pool was not reused warm"

    assert first == serial
    assert second == serial


DISPATCH_MODES = {
    "persist-batched": {"batch": 3},
    "persist-unbatched": {},
    "fresh-batched": {"batch": 3, "pool": "fresh"},
    "no-arenas": {"batch": 3, "arenas": False},
    "fresh-no-arenas": {"batch": 3, "pool": "fresh", "arenas": False},
}


@pytest.mark.parametrize("mode", list(DISPATCH_MODES))
def test_dispatch_mode_is_a_pure_speed_knob(mode):
    """Each dispatch mode matches serial, cold and on a warm pool, and
    never replaces the persistent pool it runs beside."""
    close_pool()
    options = DISPATCH_MODES[mode]
    specs = _dac_specs(range(6))
    serial = run_trials(run_dac_trial, specs, workers=1)
    cold = run_trials(run_dac_trial, specs, workers=2, **options)
    fresh = options.get("pool") == "fresh"
    assert (parallel._pool_executor is None) == fresh, (
        "only fresh mode leaves no persistent pool behind"
    )
    run_trials(run_dac_trial, specs, workers=2, batch=3)
    pool_obj = parallel._pool_executor
    assert pool_obj is not None, "persistent pool was not created"
    warm = run_trials(run_dac_trial, specs, workers=2, **options)
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
        run_dac_trial, specs, workers=1, on_event=serial_events.append
    )
    pooled = run_trials(
        run_dac_trial, specs, workers=4, on_event=pooled_events.append
    )
    assert pooled == serial
    assert serial_events, "observed trials emitted no events"
    assert pooled_events == serial_events


# -- Hygiene --------------------------------------------------------------


@pytest.mark.skipif(not arenas_available(), reason="shared-memory arenas unavailable")
def test_close_pool_unlinks_all_segments():
    close_pool()
    specs = _dac_specs(range(8))
    pooled = run_trials(run_dac_trial, specs, workers=4, batch=4)
    assert parallel.arena_registry().segment_names(), "no tables were published"
    if SHM.is_dir():
        assert _shm_segments(), "published segments not visible in /dev/shm"
    close_pool()
    assert parallel.arena_registry().segment_names() == []
    assert _shm_segments() == []
    assert pooled == run_trials(run_dac_trial, specs, workers=1)


def _crashing_trial(n: int, seed: int) -> None:
    """Module-level so it pickles; kills its worker without cleanup."""
    os._exit(13)


def test_pool_crash_tears_down_pool_and_arenas():
    close_pool()
    if arenas_available():
        run_trials(run_dac_trial, _dac_specs(range(8)), workers=4, batch=4)
        assert parallel.arena_registry().segment_names()
    with pytest.raises(BrokenProcessPool):
        run_trials(_crashing_trial, _dac_specs(range(4), n=5), workers=2)
    assert parallel._pool_executor is None, "crashed pool must be torn down"
    assert parallel.arena_registry().segment_names() == []
    assert _shm_segments() == []
    # The next pooled call starts clean on a rebuilt pool.
    specs = _dac_specs(range(2), n=5)
    assert run_trials(run_dac_trial, specs, workers=2) == run_trials(
        run_dac_trial, specs, workers=1
    )


_INTERRUPT_SCRIPT = """\
import os
from repro.sim import parallel
from repro.sim.parallel import TrialSpec, run_trials
from repro.workloads import run_dac_trial

specs = [TrialSpec((("n", 9),), seed=s) for s in range(8)]
run_trials(run_dac_trial, specs, workers=2, batch=4)
print("PID", os.getpid(), flush=True)
print("SEGS", len(parallel.arena_registry().segment_names()), flush=True)
raise KeyboardInterrupt
"""


@pytest.mark.skipif(not SHM.is_dir(), reason="no /dev/shm to inspect")
def test_keyboard_interrupt_unlinks_segments():
    """An interpreter dying by KeyboardInterrupt still runs the atexit
    teardown: nothing the child published survives it."""
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
    pid_match = re.search(r"^PID (\d+)$", proc.stdout, re.MULTILINE)
    segs_match = re.search(r"^SEGS (\d+)$", proc.stdout, re.MULTILINE)
    assert pid_match and segs_match, proc.stdout + proc.stderr
    if arenas_available():
        assert int(segs_match.group(1)) > 0, "child published no tables"
    assert _shm_segments(pid=int(pid_match.group(1))) == []
