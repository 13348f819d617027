"""Post-hoc analysis: verdicts, guarantee checks, convergence extraction, trial statistics."""

from repro.analysis.agreement import OutputVerdict, judge_outputs
from repro.analysis.convergence import fit_geometric_rate, summarize_rates
from repro.analysis.guarantees import Guarantees, check_guarantees
from repro.analysis.probabilistic import (
    binomial_tail,
    expected_rounds_per_phase,
    prob_round_degree,
)
from repro.analysis.statistics import Summary, mean_confidence_interval, summarize

__all__ = [
    "OutputVerdict",
    "judge_outputs",
    "Guarantees",
    "check_guarantees",
    "fit_geometric_rate",
    "summarize_rates",
    "binomial_tail",
    "prob_round_degree",
    "expected_rounds_per_phase",
    "Summary",
    "mean_confidence_interval",
    "summarize",
]
