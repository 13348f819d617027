"""Benchmark harness: the experiment registry that reproduces the paper's claims.

Every table/figure-equivalent claim of the paper maps to one experiment
function here; :data:`~repro.bench.registry.EXPERIMENTS` is the index.
Experiments return :class:`~repro.bench.tables.TableResult` objects that
render as fixed-width tables; ``python -m repro.bench.cli`` runs them
from the command line, and the ``benchmarks/`` pytest-benchmark suite
wraps them with timing and assertions.
"""

from repro.bench.registry import EXPERIMENTS, run_experiment
from repro.bench.tables import TableResult, render_table

__all__ = ["EXPERIMENTS", "run_experiment", "TableResult", "render_table"]
