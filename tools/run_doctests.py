#!/usr/bin/env python
"""Run doctests for modules imported *canonically*, by dotted name.

``python -m doctest path/to/file.py`` imports the file as a flat
top-level module outside its package, so a module the package has
already pulled in (``repro/__init__`` imports ``repro.workloads``)
executes a second time under a different name. For modules with
import-time side effects -- the scenario registry's module-level
registrations -- that second execution trips the
duplicate-registration guard by design. Importing by module name runs
each module exactly once, the way production code sees it.

Usage: PYTHONPATH=src python tools/run_doctests.py [MODULE ...]

With no arguments it runs :data:`DOCTEST_MODULES`, the one list of
modules whose docstring examples are checked (``tests/test_docs.py``
runs the same list inside tier-1).
"""

from __future__ import annotations

import doctest
import importlib
import sys

# The public-API modules whose docstrings carry executable examples:
# batching, the parallel layer, the family trial, the two shuffle
# replays (the port draw and the random selector; their examples pin
# the drawn rows for one seed), the guarantee checker, the averaging
# mean (its examples pin the left-to-right bits), and the phase range
# series (its example pins Definition 6's fill-in of a jump).
DOCTEST_MODULES = [
    "repro.sim.batch",
    "repro.sim.parallel",
    "repro.scenario.trial",
    "repro.net.ports",
    "repro.adversary.constrained",
    "repro.analysis.guarantees",
    "repro.core.averaging",
    "repro.sim.metrics",
]


def main(names: list[str]) -> int:
    failed = 0
    for name in names or DOCTEST_MODULES:
        module = importlib.import_module(name)
        result = doctest.testmod(module)
        print(f"{name}: {result.attempted} examples, {result.failed} failed")
        failed += result.failed
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
