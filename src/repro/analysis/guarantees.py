"""The paper's guarantees, checked on one execution report.

A registered family declares what the paper proves for its executions
through :meth:`repro.scenario.registry.AlgorithmFamily.guarantees`: a
:class:`Guarantees` value, or ``None`` where the paper promises nothing
(the baselines, averaging). :func:`check_guarantees` reads one
:class:`~repro.sim.runner.ExecutionReport` against it and returns two
lists, one line each: the guarantees the run violated, and the evidence
it failed to show. A run kept every guarantee only when both are empty;
a caller that accepts a kind of missing evidence filters its prefix out
and says why. It only reads the report, so nothing it computes reaches
a payload, a cache entry or a ``state_key``.

The violations use fields that every ``run_consensus`` report fills:

- validity, and epsilon-agreement wherever outputs are final (output
  stopping, or an oracle run that terminated);
- termination within ``T * p_end`` rounds (Section VII): a run that
  stopped later, or that was still running at the bound, violates it;
- every per-phase contraction ``range(V(p+1)) / range(V(p))`` within
  the proven rate -- ``1/2`` for DAC (Remark 1), ``1 - 2^-n`` for DBAC
  (Theorem 7) -- up to :data:`RATE_SLACK_ULPS` of rounding;
- the adversary's dynaDegree promise, where a traced run re-checked it.

The missing evidence, each kind under a fixed prefix: ``termination:``
(still running when capped below ``T * p_end``), ``rate:`` (no phase
contraction recorded, so the rate check holds vacuously) and
``dynadegree:`` (the trace was not re-checked).

>>> from repro.scenario.registry import lookup
>>> from repro.scenario.resolve import ensure_builtin_families
>>> from repro.sim.runner import run_consensus
>>> ensure_builtin_families()
>>> family = lookup("algorithm", "dac").obj
>>> params = {"n": 7, "f": 3, "epsilon": 1e-3, "window": 1, "selector": "rotate"}
>>> report = run_consensus(**family.build(seed=1, **params))
>>> check_guarantees(report, family.guarantees(**params))
([], [])
>>> violations, missing = check_guarantees(report, Guarantees(rate=0.2, window=1, end_phase=8))
>>> for line in violations:
...     print(line)
rounds: terminated after 10 rounds, bound 8
rate: phase 0 -> 1 contracted by 0.24719260514160465, bound 0.2
>>> capped = family.build(seed=1, max_rounds=3, **params)
>>> capped = run_consensus(**capped, verify_promise=False)
>>> check_guarantees(capped, family.guarantees(**params))
([], ['termination: still running after 3 rounds', 'dynadegree: the trace was not re-checked'])
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.phases import rounds_upper_bound
from repro.sim.runner import ExecutionReport

__all__ = ["Guarantees", "RATE_SLACK_ULPS", "check_guarantees", "shows_necessity_horn"]

#: Float slack on a contraction, in ulps of the largest input. Rounded
#: midpoints make an exact 1/2 measure a hair above it, by more as the
#: ranges shrink (``0.5000000000000389`` at a range near 1e-3), so the
#: check is ``range(V(p+1)) <= rate * range(V(p)) + slack`` on the ranges.
RATE_SLACK_ULPS = 4


@dataclass(frozen=True)
class Guarantees:
    """What the paper proves for one parameter assignment.

    ``rate`` is the per-phase contraction bound, ``window`` the ``T``
    of the enforced dynaDegree and ``end_phase`` the algorithm's
    ``p_end``; the round bound is ``T * p_end``.
    """

    rate: float
    window: int
    end_phase: int

    @property
    def round_bound(self) -> int:
        """``T * p_end``: the rounds by which every run must terminate."""
        return rounds_upper_bound(self.window, self.end_phase)


def check_guarantees(
    report: ExecutionReport, guarantees: Guarantees
) -> tuple[list[str], list[str]]:
    """The guarantees ``report`` violates and the evidence it lacks, one line each."""
    violations = []
    if not report.validity:
        violations.append("validity: an output lies outside the input hull")
    final = report.terminated or report.stop_mode == "output"
    if final and not report.epsilon_agreement:
        violations.append(
            f"agreement: outputs spread {report.output_spread!r} > eps {report.epsilon!r}"
        )
    bound = guarantees.round_bound
    if report.rounds > bound or (not report.terminated and report.rounds >= bound):
        state = "terminated" if report.terminated else "still running"
        violations.append(f"rounds: {state} after {report.rounds} rounds, bound {bound}")
    # Each convergence_rates entry, as the pair of ranges it divides.
    top = max(map(abs, report.inputs.values()), default=0.0)
    slack = RATE_SLACK_ULPS * math.ulp(top)
    ranges = report.phase_ranges
    for phase, (before, after) in enumerate(zip(ranges, ranges[1:])):
        if after > guarantees.rate * before + slack:
            rate = after / before if before else math.inf
            violations.append(
                f"rate: phase {phase} -> {phase + 1} contracted by {rate!r}, "
                f"bound {guarantees.rate!r}"
            )
    if report.dynadegree_verified is False:
        violations.append(
            f"dynadegree: the trace breaks the promised {report.dynadegree_promise}"
        )
    missing = []
    if not report.terminated and report.rounds < bound:
        missing.append(f"termination: still running after {report.rounds} rounds")
    if not report.convergence_rates:
        missing.append("rate: no phase contraction was recorded")
    if report.dynadegree_verified is None:
        missing.append("dynadegree: the trace was not re-checked")
    return violations, missing


def shows_necessity_horn(report: ExecutionReport, eager: bool) -> bool:
    """Whether a run of a Theorem 9/10 construction shows the horn it must.

    The eager run (a quorum one short of the algorithm's) terminates
    without epsilon-agreement; the plain run never terminates.
    """
    if eager:
        return report.terminated and not report.epsilon_agreement
    return not report.terminated
