"""What the benchmark runs: the sweep grids and the service request mix.

Everything here is a pure function of the workload seed, so the same
``--seed`` always yields the same cells, trial seeds and op list, and
nothing in this module imports ``repro``: the program under test only
ever receives the spec texts and seeds generated here.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# The paper grid shared by sweep-serial and sweep-batched. Every cell
# sits inside the paper's sufficient conditions (DAC at n = 2f+1 with
# staggered crashes, DBAC at n = 5f+1, fault-free mobile omission) or,
# for the baseline and averaging families, runs a budget that reaches
# epsilon-agreement by a wide margin, so every trial must come back
# correct and terminated. The random-selector, random-strategy and
# averaging cells are the ones the batched executor sends down its
# Python lock-step fallback instead of a numpy kernel.
#
# The second field is the cell's seed count. Cells whose round count
# depends on the seed (phase-liar and random Byzantine nodes, the
# random selector, mobile omission) get at least 8. The counts also
# space the cells' call times apart so that, in both the serial and the
# batched workload, the median call and the p95 call each fall inside
# one seed-independent cell rather than between two.
SWEEP_CELLS = (
    ("algorithm: dac@1(n=9, epsilon=1e-6); network: dynadegree@1(window=1, selector=rotate); "
     "faults: crash@1(crash_start=1)", 4),
    ("algorithm: dac@1(n=17, epsilon=1e-6); network: dynadegree@1(window=2, selector=nearest); "
     "faults: crash@1(crash_start=2)", 16),
    ("algorithm: dac@1(n=25, epsilon=1e-6); network: dynadegree@1(window=4, selector=rotate); "
     "faults: crash@1(crash_start=3)", 4),
    ("algorithm: dac@1(n=9, epsilon=1e-6); network: dynadegree@1(window=2, selector=random)", 8),
    ("algorithm: dbac@1(n=11, epsilon=1e-6); network: dynadegree@1(window=4, selector=nearest); "
     "faults: byzantine@1(strategy=extreme)", 4),
    ("algorithm: dbac@1(n=16, epsilon=1e-6); network: dynadegree@1(window=1, selector=nearest); "
     "faults: byzantine@1(strategy=extreme)", 4),
    ("algorithm: dbac@1(n=11, epsilon=1e-6); network: dynadegree@1(window=2, selector=rotate); "
     "faults: byzantine@1(strategy=phase-liar)", 8),
    ("algorithm: dbac@1(n=11, epsilon=1e-6); network: dynadegree@1(window=1, selector=rotate); "
     "faults: byzantine@1(strategy=random)", 16),
    ("algorithm: dbac@1(n=16, epsilon=1e-6); network: dynadegree@1(window=1, selector=random); "
     "faults: byzantine@1(strategy=extreme)", 8),
    ("algorithm: byz@1(n=9, epsilon=1e-6); adversary: mobile@1(mode=block_min)", 8),
    ("algorithm: baseline@1(n=7, epsilon=1e-3, num_rounds=40, algorithm=midpoint); "
     "network: dynadegree@1(window=1, selector=rotate)", 8),
    ("algorithm: baseline@1(n=7, epsilon=1e-3, num_rounds=40, algorithm=trimmed); "
     "network: dynadegree@1(window=2, selector=nearest)", 4),
    ("algorithm: averaging@1(n=7, epsilon=1e-3, num_rounds=40, rule=mean); "
     "network: dynadegree@1(window=1)", 4),
)
SWEEP_BATCH = 8

# Short cells at larger n for the pooled workload: few rounds each, so
# pool dispatch, job pickling and arena publication are a large share
# of the time. Rotate selectors keep every cell on a kernel with an
# arena plan. An odd cell count keeps the median call inside one cell.
POOLED_CELLS = tuple(
    (f"algorithm: dac@1(n={n}, epsilon=1e-2); network: dynadegree@1(window=1, selector=rotate)",
     8)
    for n in (33, 41, 49)
) + tuple(
    (f"algorithm: dbac@1(n={n}, epsilon=1e-2); network: dynadegree@1(window=1, selector=rotate); "
     "faults: byzantine@1(strategy=extreme)", 8)
    for n in (36, 41, 46)
) + tuple(
    (f"algorithm: baseline@1(n={n}, epsilon=1e-2, num_rounds=12); "
     "network: dynadegree@1(window=1, selector=rotate)", 8)
    for n in (33, 41, 49)
)
POOLED_BATCH = 4
POOLED_WORKERS = 2


def cell_seeds(seed: int, label: str, count: int) -> list[int]:
    """``count`` distinct trial seeds for one cell, derived from ``seed``."""
    rng = random.Random(f"perfbench:{seed}:{label}")
    seeds: list[int] = []
    while len(seeds) < count:
        value = rng.randrange(1 << 31)
        if value not in seeds:
            seeds.append(value)
    return seeds


@dataclass(frozen=True)
class Cell:
    """One grid cell: a spec text and the trial seeds it runs."""

    index: int
    spec: str
    seeds: tuple[int, ...]


def sweep_grid(seed: int, cells: tuple[tuple[str, int], ...]) -> list[Cell]:
    """The cells of one grid pass, each with its seeds from ``seed``."""
    return [
        Cell(i, text, tuple(cell_seeds(seed, f"cell{i}", count)))
        for i, (text, count) in enumerate(cells)
    ]


# -- service mix ----------------------------------------------------------

# Small scenarios the daemon computes cheaply. Each entry lists
# equivalent spellings: the first is the one primed into the cache,
# the others differ in parameter order, elided defaults or JSON form
# and must still hit the same canonical cache entry.
SERVICE_SCENARIOS = (
    (
        "algorithm: dac@1(n=5, epsilon=1e-3); network: dynadegree@1(window=1, selector=rotate)",
        "algorithm: dac@1(epsilon=0.001, n=5, f=2)\nnetwork: dynadegree@1(selector=rotate)",
        {"algorithm": {"name": "dac", "version": 1, "params": {"n": 5}}},
    ),
    (
        "algorithm: dac@1(n=7, epsilon=1e-4); network: dynadegree@1(window=2, selector=nearest)",
        "algorithm: dac@1(epsilon=1e-4, n=7); network: dynadegree@1(selector=nearest, window=2); "
        "adversary: quorum@1; faults: crash@1",
        {
            "algorithm": {"name": "dac", "version": 1, "params": {"epsilon": 1e-4, "n": 7}},
            "network": {"name": "dynadegree", "version": 1,
                        "params": {"window": 2, "selector": "nearest"}},
        },
    ),
    (
        "algorithm: dbac@1(n=6, epsilon=1e-3); faults: byzantine@1(strategy=extreme)",
        "algorithm: dbac@1(f=1, n=6); faults: byzantine@1",
        {"algorithm": {"name": "dbac", "version": 1, "params": {"n": 6, "epsilon": 0.001}}},
    ),
    (
        "algorithm: byz@1(n=5, epsilon=1e-3); adversary: mobile@1(mode=block_min)",
        "algorithm: byz@1(epsilon=0.001, n=5); adversary: mobile@1",
        {"algorithm": {"name": "byz", "version": 1, "params": {"n": 5}},
         "adversary": {"name": "mobile", "version": 1, "params": {"mode": "block_min"}}},
    ),
    (
        "algorithm: baseline@1(n=5, epsilon=1e-3, num_rounds=30)",
        "algorithm: baseline@1(num_rounds=30, n=5, algorithm=midpoint, f=0)",
        {"algorithm": {"name": "baseline", "version": 1, "params": {"n": 5, "num_rounds": 30}}},
    ),
    (
        "algorithm: averaging@1(n=5, epsilon=1e-3, num_rounds=30)",
        "algorithm: averaging@1(num_rounds=30, rule=mean, n=5)",
        {"algorithm": {"name": "averaging", "version": 1,
                       "params": {"n": 5, "num_rounds": 30}}},
    ),
)
# Fresh seeds go to the cheapest scenarios, all with an ``observe``
# knob so a streamed request carries forwarded observer events. Engine
# work stays a small share of the daemon's time: most requests are hits.
FRESH_SCENARIOS = (0, 2, 3)
PRIMED_SEEDS = 8

# Shares of one block of ops. ``hit`` and ``respelled`` resubmit
# primed (spec, seed) pairs; ``fresh`` and ``stream`` use seeds never
# sent before; ``coalesce`` sends one fresh pair on both connections at
# once.
MIX = (("hit", 52), ("respelled", 40), ("fresh", 4), ("coalesce", 2), ("stream", 2))
BLOCK = sum(count for _kind, count in MIX)
MAX_SEEDS = 8


@dataclass(frozen=True)
class Op:
    """One request: which scenario, how it is spelled, which seeds."""

    index: int
    kind: str
    scenario: int
    spelling: int
    seeds: tuple[int, ...]

    @property
    def copies(self) -> int:
        """How many connections send this request at once."""
        return 2 if self.kind == "coalesce" else 1

    @property
    def stream(self) -> bool:
        return self.kind == "stream"

    def spec(self) -> str | dict:
        return SERVICE_SCENARIOS[self.scenario][self.spelling]


def primed_seeds(seed: int, scenario: int) -> list[int]:
    """The seeds of ``scenario`` computed before the timed window."""
    return cell_seeds(seed, f"primed{scenario}", PRIMED_SEEDS)


def op_shape(kind: str, ordinal: int) -> tuple[int, int, int]:
    """``(width, scenario, spelling)`` of the ``ordinal``-th op of ``kind``.

    Shapes cycle through every width and scenario (and, for
    ``respelled``, every other spelling), so the work in a run does not
    depend on the seed: only which primed seeds are resent and the
    order of the ops do.
    """
    width = 1 + ordinal % MAX_SEEDS
    turn = ordinal // MAX_SEEDS
    if kind not in ("hit", "respelled"):
        return width, FRESH_SCENARIOS[turn % len(FRESH_SCENARIOS)], 0
    scenario = turn % len(SERVICE_SCENARIOS)
    if kind == "hit":
        return width, scenario, 0
    others = len(SERVICE_SCENARIOS[scenario]) - 1
    return width, scenario, 1 + (turn // len(SERVICE_SCENARIOS)) % others


def op_block(seed: int, block: int) -> list[Op]:
    """Block ``block`` of the op list: exact mix shares and op shapes,
    seeded order and seeds.

    Fresh seeds sit at ``1 << 32`` and above, offset per workload seed
    and spaced by op index, so they never collide with primed seeds or
    with each other.
    """
    rng = random.Random(f"perfbench:{seed}:ops{block}")
    fresh_base = (1 << 32) + (random.Random(f"perfbench:{seed}:fresh").randrange(1 << 20) << 24)
    shapes = {}
    for kind, count in MIX:
        shapes[kind] = [op_shape(kind, block * count + i) for i in range(count)]
        rng.shuffle(shapes[kind])
    kinds = [kind for kind, count in MIX for _ in range(count)]
    rng.shuffle(kinds)
    ops = []
    for position, kind in enumerate(kinds):
        index = block * BLOCK + position
        width, scenario, spelling = shapes[kind].pop()
        if kind in ("hit", "respelled"):
            seeds = tuple(rng.sample(primed_seeds(seed, scenario), width))
        else:
            base = fresh_base + index * MAX_SEEDS
            seeds = tuple(base + k for k in range(width))
        ops.append(Op(index, kind, scenario, spelling, seeds))
    return ops


def op_stream(seed: int):
    """The endless op list for ``seed``, block after block."""
    block = 0
    while True:
        yield from op_block(seed, block)
        block += 1

