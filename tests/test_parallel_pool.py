"""Pool lifecycle hardening and the dispatch shippability seams.

Regression coverage for three failure modes the service daemon
stresses:

1. the persistent-pool *grow* path must be atomic -- a failing
   replacement constructor leaves the previous pool installed and the
   module state consistent, never a half-torn-down singleton;
2. ``close_pool`` must clear the module state before the executor
   shuts down, so a raising shutdown leaves no zombie pool installed,
   and must tolerate being raced against ``get_pool`` from another
   thread;
3. shippability is checked on the *full dispatched jobs* (every
   chunk's payloads) before anything reaches the pool, and the
   worker-side return path diagnoses unpicklable results/events with
   the offending trial's identity instead of an opaque pool crash.
"""

from __future__ import annotations

import threading
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.sim import parallel
from repro.sim.parallel import (
    TrialSpec,
    _check_returnable,
    _check_shippable,
    _invoke_batch_chunk,
    _invoke_chunk,
    close_pool,
    get_pool,
    record_event,
    run_trials,
)


@pytest.fixture(autouse=True)
def clean_pool():
    close_pool()
    yield
    close_pool()


# -- grow-path atomicity ---------------------------------------------------


class _ExplodingExecutor:
    def __init__(self, *args, **kwargs):
        raise OSError("no more processes")


def test_failed_grow_keeps_the_previous_pool(monkeypatch):
    small = get_pool(1)
    assert parallel._pool_size == 1
    monkeypatch.setattr(parallel, "ProcessPoolExecutor", _ExplodingExecutor)
    with pytest.raises(OSError, match="no more processes"):
        get_pool(4)
    # The old pool survives, consistent with its recorded size...
    assert parallel._pool_executor is small
    assert parallel._pool_size == 1
    monkeypatch.undo()
    # ...and still dispatches work.
    assert small.submit(max, 1, 2).result() == 2
    grown = get_pool(2)
    assert grown is not small
    assert parallel._pool_size == 2


def test_failed_first_creation_leaves_state_clean(monkeypatch):
    monkeypatch.setattr(parallel, "ProcessPoolExecutor", _ExplodingExecutor)
    with pytest.raises(OSError):
        get_pool(2)
    assert parallel._pool_executor is None
    assert parallel._pool_size == 0
    monkeypatch.undo()
    assert isinstance(get_pool(1), ProcessPoolExecutor)


def test_reuse_never_replaces_a_wide_enough_pool():
    wide = get_pool(2)
    assert get_pool(1) is wide
    assert get_pool(2) is wide
    assert parallel._pool_size == 2


# -- close_pool robustness -------------------------------------------------


def test_close_pool_clears_state_when_shutdown_raises(monkeypatch):
    pool = get_pool(1)
    real_shutdown = pool.shutdown
    calls = []

    def exploding_shutdown(wait=True):
        calls.append(wait)
        real_shutdown(wait=wait)
        raise RuntimeError("shutdown interrupted")

    monkeypatch.setattr(pool, "shutdown", exploding_shutdown)
    with pytest.raises(RuntimeError, match="shutdown interrupted"):
        close_pool()
    # The executor was asked to shut down (and waited), and the
    # singleton is cleared, so the next call starts from scratch
    # instead of reusing a zombie.
    assert calls == [True]
    assert parallel._pool_executor is None
    assert parallel._pool_size == 0
    with pytest.raises(RuntimeError):
        pool.submit(max, 1, 2)  # "cannot schedule new futures after shutdown"
    assert get_pool(1) is not pool


def test_close_pool_is_idempotent():
    get_pool(1)
    close_pool()
    close_pool()
    assert parallel._pool_executor is None


def test_concurrent_get_and_close_keep_state_consistent():
    errors: list[BaseException] = []
    stop = threading.Event()

    def churn(fn):
        while not stop.is_set():
            try:
                fn()
            except BaseException as exc:  # noqa: BLE001 - collected for the assert
                errors.append(exc)
                return

    threads = [
        threading.Thread(target=churn, args=(lambda: get_pool(1),)),
        threading.Thread(target=churn, args=(close_pool,)),
    ]
    for thread in threads:
        thread.start()
    timer = threading.Timer(1.0, stop.set)
    timer.start()
    for thread in threads:
        thread.join()
    timer.cancel()
    assert errors == []
    close_pool()
    assert parallel._pool_executor is None and parallel._pool_size == 0


# -- shippability of full job tuples ---------------------------------------


def _trial(n, seed=0):
    return n * seed


def test_check_shippable_covers_every_job():
    # The unpicklable value hides in the *last* chunk's parameters.
    jobs = [
        [(_trial, (("n", 3),), (0,), False)],
        [(_trial, (("n", lambda: None),), (1,), False)],
    ]
    with pytest.raises(ValueError, match="job envelope"):
        _check_shippable(_trial, jobs, count=2)


def test_check_shippable_passes_plain_jobs():
    jobs = [[(_trial, (("n", 3),), (0,), False)]]
    _check_shippable(_trial, jobs, count=2)


def test_unpicklable_params_still_diagnosed_from_run_trials():
    specs = [TrialSpec((("n", 3), ("fn", lambda: None)), seed=s) for s in (0, 1)]
    with pytest.raises(ValueError, match="picklable"):
        run_trials(_trial, specs, workers=2, pool="fresh")


# -- the worker return path ------------------------------------------------


def _records_unpicklable_event(n, seed=0):
    record_event(lambda: None)  # an event that cannot cross processes
    return n * seed


def _records_scalar_event(n, seed=0):
    record_event(("finished", seed))
    return n * seed


def test_return_path_names_the_offending_trial():
    payloads = [(_records_unpicklable_event, TrialSpec((("n", 3),), seed=7), True)]
    with pytest.raises(ValueError) as excinfo:
        _invoke_chunk(payloads)
    message = str(excinfo.value)
    assert "'n': 3" in message and "[7]" in message
    assert "pickled back" in message


def test_return_path_check_skipped_without_forwarding():
    # No on_event, no forwarding: the event is dropped at the source
    # and nothing needs to cross a process boundary.
    payloads = [(_records_unpicklable_event, TrialSpec((("n", 3),), seed=7), False)]
    assert _invoke_chunk(payloads) == [21]


def test_batched_return_path_names_params_and_seeds():
    def batch(n, seeds=()):
        record_event(lambda: None)
        return [n * seed for seed in seeds]

    payloads = [(batch, (("n", 3),), (1, 2), True)]
    with pytest.raises(ValueError) as excinfo:
        _invoke_batch_chunk(payloads)
    assert "[1, 2]" in str(excinfo.value)


def test_picklable_events_pass_the_return_check():
    payloads = [(_records_scalar_event, TrialSpec((("n", 3),), seed=2), True)]
    ((result, events),) = _invoke_chunk(payloads)
    assert result == 6
    assert events == [("finished", 2)]


def test_check_returnable_accepts_plain_values():
    _check_returnable({"rounds": 4}, _trial, (("n", 3),), (0,))


def test_forwarding_still_works_end_to_end_over_the_pool():
    seen: list = []
    specs = [TrialSpec((("n", 3),), seed=s) for s in (1, 2, 3)]
    results = run_trials(
        _records_scalar_event, specs, workers=2, pool="fresh", on_event=seen.append
    )
    assert results == [3, 6, 9]
    assert seen == [("finished", 1), ("finished", 2), ("finished", 3)]
