# lint-corpus-module: repro.bench.widget
"""Known-bad: module-level imports that load the batch kernel (and
numpy) with a module that serial runs import."""

import repro.sim.batch
from repro.sim import BatchEngine  # a lazy re-export, resolved eagerly
from repro.sim.batch import run_dac_batch


def lanes(seeds):
    return run_dac_batch(5, 2, seeds), BatchEngine, repro.sim.batch
