# lint-corpus-module: repro.bench.widget
"""Known-bad: module-level imports that load the batch kernel (and
numpy) with a module that serial runs import."""

import repro.sim.batch
from repro.sim import run_lanes  # a lazy re-export, resolved eagerly
from repro.sim.batch import kernel_refusal


def lanes(family, seeds):
    return run_lanes(family, seeds), kernel_refusal(family), repro.sim.batch
