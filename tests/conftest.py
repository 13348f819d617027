"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import os
from pathlib import Path

import pytest
from hypothesis import settings

from repro.net.ports import identity_ports, random_ports
from repro.sim.rng import child_rng

# ``--hypothesis-profile sweeps-10x`` runs the sweep-vs-per-port-loop
# property tests (tests/test_batch_sweeps.py) and the kernel mean's
# (tests/test_core_averaging.py) at ten times their tier-1 budget of
# 150 examples; CI's numpy legs have a step for it.
settings.register_profile("sweeps-10x", max_examples=1500)
# ``--hypothesis-profile store-10x`` runs DBAC's buffer-vs-insort
# property test (tests/test_core_dbac.py) at ten times its 300 examples;
# CI runs it on both numpy legs.
settings.register_profile("store-10x", max_examples=3000)


def _running_children() -> list[int]:
    """Children of this process that have not exited, from ``/proc``;
    empty where ``/proc`` does not list children."""
    from tests.helpers import process_running

    children = []
    for listing in Path(f"/proc/{os.getpid()}/task").glob("*/children"):
        try:
            pids = listing.read_text().split()
        except OSError:
            continue
        children.extend(int(pid) for pid in pids if process_running(int(pid)))
    return children


@pytest.fixture(scope="session", autouse=True)
def pool_arena_hygiene():
    """Whole-suite process and shared-memory hygiene gate.

    After the last test, close the persistent worker pool, then assert
    that no child process of the test run is still alive (a pool
    worker, a daemon or a helper a test forgot to reap) and that no
    ``repro_arena_<pid>_*`` segment of this process sits on the
    kernel's shared-memory filesystem. Nothing publishes segments any
    more; that check guards against shared-memory publication coming
    back without its cleanup.
    """
    yield
    from repro.sim import parallel

    parallel.close_pool()
    stray = _running_children()
    assert stray == [], f"stray child processes after the suite: {stray}"
    shm = Path("/dev/shm")
    if shm.is_dir():
        leaked = sorted(p.name for p in shm.glob(f"repro_arena_{os.getpid()}_*"))
        assert leaked == [], f"leaked shared-memory segments: {leaked}"


@pytest.fixture
def ports5():
    """Identity ports for a 5-node network."""
    return identity_ports(5)


@pytest.fixture
def ports9():
    """Identity ports for a 9-node network."""
    return identity_ports(9)


@pytest.fixture
def shuffled_ports9():
    """Random (but deterministic) ports for a 9-node network."""
    return random_ports(9, child_rng(1234, "test-ports"))

