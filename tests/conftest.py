"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.net.ports import identity_ports, random_ports
from repro.sim.rng import child_rng


@pytest.fixture(scope="session", autouse=True)
def pool_arena_hygiene():
    """Whole-suite shared-memory hygiene gate.

    After the last test, close the persistent worker pool and assert
    no ``repro_arena_<pid>_*`` segment of this process sits on the
    kernel's shared-memory filesystem. Nothing publishes segments any
    more; the check guards against shared-memory publication coming
    back without its cleanup.
    """
    yield
    from repro.sim import parallel

    parallel.close_pool()
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

