"""Seeded randomized-grid differential tests.

Fuzzed (n, fault plan, adversary, selector, rounds) configurations run
through the full executor suite of the shared harness
(:mod:`tests.helpers`): the serial port-major sweep (reference), the
legacy untraced loop, fully traced execution, the family's batch lanes, a
``workers=4`` pool and the pooled *batched* leg (persistent pool +
shared-memory arenas + guided chunking) must agree on full
``state_key`` / rounds / outputs for every configuration.

The grids are *deterministically* fuzzed from a fixed master-seed
matrix (so CI runs are reproducible), and any divergence prints the
complete offending config -- lane seeds included -- via the harness's
assertion message, so one paste reproduces it:

    from tests.helpers import assert_equivalent_runs
    assert_equivalent_runs([<printed config>])

Override the matrix locally with ``REPRO_FUZZ_SEEDS=1,2,3`` (and widen
it with ``REPRO_FUZZ_CONFIGS=<count per seed>``) to fuzz fresh grids.
"""

import os
import random

import pytest

from repro.adversary.mobile import MOBILE_MODES
from tests.helpers import assert_equivalent_runs, differential_executors

# The fixed seed matrix CI runs; env overrides for local exploration.
_DEFAULT_MASTER_SEEDS = (101, 202, 303)
MASTER_SEEDS = tuple(
    int(s)
    for s in os.environ.get(
        "REPRO_FUZZ_SEEDS", ",".join(map(str, _DEFAULT_MASTER_SEEDS))
    ).split(",")
)
CONFIGS_PER_SEED = int(os.environ.get("REPRO_FUZZ_CONFIGS", "8"))

_DBAC_STRATEGIES = ("extreme", "pin-high", "pin-low", "phase-liar", "random")


def fuzz_configs(master_seed: int, count: int) -> list[dict]:
    """``count`` valid random configs drawn from ``master_seed``.

    Samples across all three scenario families and their full legal
    parameter space: crash counts up to the DAC bound, all three
    enforcing selectors, every trial-menu Byzantine strategy, all
    mobile-omission modes, windows 1..3, and capped-round runs (so
    unstopped lanes are compared too, not just terminating ones).
    """
    rng = random.Random(master_seed)
    configs: list[dict] = []
    for _ in range(count):
        family = rng.choice(("dac", "dac", "dbac", "mobile", "baseline"))
        seeds = tuple(rng.randrange(10_000) for _ in range(rng.randint(1, 3)))
        if family == "dac":
            n = rng.randrange(5, 14)
            f = rng.randint(0, (n - 1) // 2)
            config = {
                "family": "dac",
                "n": n,
                "f": f,
                "crash_nodes": rng.randint(0, f),
                "window": rng.randint(1, 3),
                "selector": rng.choice(("rotate", "nearest", "random")),
                "seeds": seeds,
            }
            if rng.random() < 0.25:
                # Capped run: every executor must agree on the exact
                # mid-flight states of lanes that never stop.
                config["max_rounds"] = rng.randint(3, 12)
        elif family == "dbac":
            f = rng.randint(0, 2)
            n = 5 * f + 1 + rng.randrange(1, 4)
            config = {
                "family": "dbac",
                "n": n,
                "f": f,
                "window": rng.randint(1, 2),
                "selector": rng.choice(("nearest", "rotate", "random")),
                "strategy": rng.choice(_DBAC_STRATEGIES),
                "seeds": seeds,
            }
        elif family == "mobile":
            config = {
                "family": "mobile",
                "n": rng.randrange(4, 10),
                "mode": rng.choice(MOBILE_MODES),
                "seeds": seeds,
            }
        else:
            config = {
                "family": "baseline",
                "n": rng.randrange(4, 10),
                "algorithm": rng.choice(("midpoint", "trimmed")),
                "f": rng.randint(0, 2),
                "window": rng.randint(1, 3),
                "selector": rng.choice(("rotate", "nearest", "random")),
                "seeds": seeds,
            }
            if rng.random() < 0.5:
                # Small explicit budgets (0 included: output at init)
                # keep the fixed-round semantics honest across kernels.
                config["num_rounds"] = rng.randint(0, 8)
        configs.append(config)
    return configs


@pytest.mark.parametrize("master_seed", MASTER_SEEDS)
def test_fuzzed_grids_bit_identical_across_executors(master_seed):
    grid = fuzz_configs(master_seed, CONFIGS_PER_SEED)
    assert_equivalent_runs(grid, differential_executors(pooled=3))
