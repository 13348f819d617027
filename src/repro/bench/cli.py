"""Command-line experiment runner.

Usage::

    python -m repro.bench.cli                 # run everything, quick grid
    python -m repro.bench.cli --full          # full grids (slower)
    python -m repro.bench.cli -e E1 -e I4     # selected experiments
    python -m repro.bench.cli --workers 4     # parallel sweep default
    python -m repro.bench.cli --batch 8       # batched lock-step trials
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.bench.registry import EXPERIMENTS, run_experiment
from repro.sim.parallel import set_default_batch, set_default_workers


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Reproduce the paper's claims (--list prints the index).",
    )
    parser.add_argument(
        "-e",
        "--experiment",
        action="append",
        dest="experiments",
        metavar="ID",
        help="experiment id (repeatable); default: all",
    )
    parser.add_argument(
        "--full",
        action="store_true",
        help="run the full parameter grids instead of the quick ones",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        help="list experiment ids and exit",
    )
    parser.add_argument(
        "--markdown",
        metavar="PATH",
        default=None,
        help="additionally write the results as a markdown report",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="default worker processes for sweep-based experiments "
        "(0 = one per CPU); results are identical for every worker count",
    )
    parser.add_argument(
        "--batch",
        type=int,
        default=1,
        metavar="B",
        help="default lock-step batch size for sweep-based experiments "
        "(repro.sim.batch; composes with --workers); results are "
        "identical for every batch size",
    )
    args = parser.parse_args(argv)

    # Experiments built on repro.bench.sweep.Sweep pick these defaults
    # up without every experiment function growing extra parameters.
    set_default_workers(args.workers)
    set_default_batch(args.batch)

    if args.list:
        for experiment_id in EXPERIMENTS:
            print(experiment_id)
        return 0

    selected = args.experiments or list(EXPERIMENTS)
    results = []
    all_passed = True
    for experiment_id in selected:
        start = time.perf_counter()
        result = run_experiment(experiment_id, quick=not args.full)
        elapsed = time.perf_counter() - start
        print(result.render())
        print(f"  ({elapsed:.2f}s)")
        print()
        results.append(result)
        all_passed = all_passed and result.passed

    if args.markdown:
        from pathlib import Path

        from repro.bench.markdown import report_to_markdown

        grid = "full" if args.full else "quick"
        Path(args.markdown).write_text(
            report_to_markdown(results, title=f"Experiment results ({grid} grid)")
        )
        print(f"markdown report written to {args.markdown}")
    return 0 if all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
