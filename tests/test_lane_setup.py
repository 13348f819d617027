"""Kernel lane set-up: no throwaway executions, one port draw per lane,
no Topology behind a rotate table.

The numpy kernels read their lane family (``repro.workloads.*_lane_family``)
and draw each lane's ports once through :func:`repro.net.ports.port_tables`.
None of them may build a full execution through a ``build_*_execution``
builder -- that would cost ``n`` processes and one port draw per kernel
call for constants that do not depend on the seed. The spies count both:
builder calls, and port draws wherever they happen (the kernels' own
import and the one :func:`~repro.net.ports.random_ports` uses).

Under the ``rotate`` selector a cold kernel call interns no
``Topology`` and reads no content hash, and a repeated call builds no
table: both are pinned as counts.

The lane driver builds the live-sender key it hands the selector only
when a crash round changes the live set; that count is pinned too.

A batch of averaging lanes is one baseline kernel run: no serial engine
runs a lane of it.

The delivery sweeps re-scan a cell after a jump or quorum only while a
later port can still change it. On the pooled grid's boundary cells no
later port can, so a delivering round is one pass; random Byzantine
nodes keep live tails, and their rounds take more.
"""

import pytest

import repro.net.ports as ports_module
import repro.scenario.trial as trial_module
import repro.sim.arena as arena
import repro.sim.batch as batch
import repro.workloads as workloads
from repro.adversary.constrained import rotate_picks
from repro.families.averaging import averaging_lane_family
from repro.net.topology import Topology
from repro.scenario import family_trial
from repro.sim.batch import BaselineBatchEngine, run_lanes
from repro.workloads import (
    TRIAL_BYZANTINE_STRATEGIES,
    baseline_lane_family,
    dac_lane_family,
    dbac_lane_family,
    mobile_lane_family,
)

pytest.importorskip("numpy", exc_type=ImportError)

BUILDERS = (
    "build_dac_execution",
    "build_dbac_execution",
    "build_mobile_execution",
    "build_baseline_execution",
)
SEEDS = [0, 1, 2, 3, 4]


def dac_lanes(n, f, seeds, **params):
    return run_lanes(dac_lane_family(n, f, **params), seeds)


def dbac_lanes(n, f, seeds, strategy="extreme", **params):
    factory = TRIAL_BYZANTINE_STRATEGIES[strategy]
    return run_lanes(
        dbac_lane_family(n, f, byzantine_factory=lambda node: factory(), **params), seeds
    )


# name -> (batch call over a seed list, port draws per lane)
CASES = {
    "dac-rotate": (lambda seeds: dac_lanes(9, 4, seeds), 1),
    "dac-nearest-window": (
        lambda seeds: dac_lanes(9, 4, seeds, selector="nearest", window=2), 1
    ),
    "dac-random": (lambda seeds: dac_lanes(9, 4, seeds, selector="random"), 1),
    "dbac-extreme": (lambda seeds: dbac_lanes(11, 2, seeds), 1),
    "dbac-random-strategy": (
        lambda seeds: dbac_lanes(
            11, 2, seeds, selector="random", strategy="random", max_rounds=300
        ),
        1,
    ),
    "dbac-capped": (lambda seeds: dbac_lanes(11, 2, seeds, window=2, max_rounds=19), 1),
    "mobile": (
        lambda seeds: run_lanes(mobile_lane_family(6, mode="block_min"), seeds), 1
    ),
    "baseline": (
        lambda seeds: run_lanes(
            baseline_lane_family(6, algorithm="trimmed", f=1, num_rounds=5), seeds
        ),
        0,
    ),
    "averaging": (
        lambda seeds: run_lanes(averaging_lane_family(7, num_rounds=6), seeds), 0
    ),
}


def counting(counts, fn, key):
    """``fn``, adding one to ``counts[key]`` per call."""

    def spy(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)

    return spy


@pytest.fixture
def calls(monkeypatch):
    counts = {"build": 0, "draw": 0}
    for name in BUILDERS:
        monkeypatch.setattr(workloads, name, counting(counts, getattr(workloads, name), "build"))
    for module in (batch, ports_module):
        monkeypatch.setattr(module, "port_tables", counting(counts, module.port_tables, "draw"))
    return counts


@pytest.mark.parametrize("case", sorted(CASES))
def test_kernel_calls_build_nothing_and_draw_once_per_lane(case, calls):
    run, draws_per_lane = CASES[case]
    lanes = run(SEEDS)
    assert [lane.seed for lane in lanes] == SEEDS
    assert lanes[0].state_keys  # the kernel really ran the lanes
    assert calls["build"] == 0
    assert calls["draw"] == draws_per_lane * len(SEEDS)


def test_averaging_batch_is_one_kernel_run(monkeypatch):
    # Four seeds of the averaging cell: one BaselineBatchEngine run and
    # no run_consensus, the serial fallback's per-lane engine run.
    counts = {"kernel": 0, "serial": 0}
    monkeypatch.setattr(
        BaselineBatchEngine, "run", counting(counts, BaselineBatchEngine.run, "kernel")
    )
    for module in (batch, trial_module):  # the fallback's lanes, the serial trial
        monkeypatch.setattr(
            module, "run_consensus", counting(counts, module.run_consensus, "serial")
        )
    summaries = family_trial("averaging").batch_fn(seeds=[0, 1, 2, 3], n=7, num_rounds=40)
    assert len(summaries) == 4
    assert counts == {"kernel": 1, "serial": 0}


# The rotate selector's kernel tables come straight from rotate_picks
# (repro.sim.arena.rotate_table): no interned Topology, no content hash.
ROTATE_CASES = {
    "dac-rotate-crashes": lambda: dac_lanes(9, 4, SEEDS),
    "dac-rotate-window": lambda: dac_lanes(7, 3, SEEDS, window=2),
    "dbac-rotate": lambda: dbac_lanes(11, 2, SEEDS, selector="rotate"),
}


@pytest.mark.parametrize("case", sorted(ROTATE_CASES))
def test_rotate_tables_build_no_topology_and_are_built_once(case, monkeypatch):
    counts = {"lookup": 0, "hash": 0, "picks": 0}
    lookup = Topology._lookup.__func__
    content_hash = Topology.content_hash.fget

    def counted_lookup(cls, n, edge_tuple):
        counts["lookup"] += 1
        return lookup(cls, n, edge_tuple)

    def counted_hash(self):
        counts["hash"] += 1
        return content_hash(self)

    def counted_picks(*args):
        counts["picks"] += 1
        return rotate_picks(*args)

    monkeypatch.setattr(Topology, "_lookup", classmethod(counted_lookup))
    monkeypatch.setattr(Topology, "content_hash", property(counted_hash))
    monkeypatch.setattr(arena, "rotate_picks", counted_picks)
    monkeypatch.setattr(arena, "_table_memo", {})  # a cold process

    run = ROTATE_CASES[case]
    cold = run()
    assert counts["lookup"] == counts["hash"] == 0
    built = counts["picks"]
    assert built == len(arena._table_memo) > 0
    assert run() == cold
    assert counts == {"lookup": 0, "hash": 0, "picks": built}


# name -> (kernel call, whether every delivering round is one pass)
PASS_CASES = {
    "dac-rotate-n49": (lambda: dac_lanes(49, 24, SEEDS, epsilon=1e-2), True),
    "dbac-extreme-n46": (
        lambda: dbac_lanes(46, 9, SEEDS, epsilon=1e-2, selector="rotate"), True
    ),
    "dbac-random-n11": (
        lambda: dbac_lanes(11, 2, SEEDS, epsilon=1e-6, selector="rotate", strategy="random"),
        False,
    ),
}


@pytest.mark.parametrize("case", sorted(PASS_CASES))
def test_sweeps_skip_stale_tails(case, monkeypatch):
    counts = {"pass": 0, "round": 0}
    monkeypatch.setattr(batch, "_record", counting(counts, batch._record, "pass"))
    for sweep in ("_dac_sweep", "_dbac_sweep"):  # one call per delivering round
        monkeypatch.setattr(batch, sweep, counting(counts, getattr(batch, sweep), "round"))
    run, one_pass = PASS_CASES[case]
    assert run()[0].stopped
    assert counts["round"] > 0
    if one_pass:
        assert counts["pass"] == counts["round"]
    else:
        assert counts["pass"] > counts["round"]


# (selector, window, distinct live sets): f=4 staggered crashes, one per
# window from round 1, reach every delivering round's live set.
KEY_CASES = [("rotate", 1, 5), ("random", 1, 5), ("nearest", 2, 4)]


@pytest.mark.parametrize("selector,window,live_sets", KEY_CASES)
def test_live_key_is_built_once_per_live_set(selector, window, live_sets, monkeypatch):
    keys = []
    select = batch.select_delivered

    def spy(*args):
        keys.append(args[7])  # live_key, kept alive so no id is reused
        return select(*args)

    monkeypatch.setattr(batch, "select_delivered", spy)
    lanes = dac_lanes(9, 4, SEEDS, selector=selector, window=window)
    assert all(lane.stopped for lane in lanes)
    assert len({id(key) for key in keys}) == len(set(keys)) == live_sets
    assert len(keys) > live_sets  # delivering rounds share a key
