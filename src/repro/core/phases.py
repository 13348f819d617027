"""Termination-phase formulas and convergence-rate bounds.

The paper derives, for inputs scaled to ``[0, 1]``:

- DAC converges with rate ``1/2`` per phase (Remark 1) and outputs at
  phase ``p_end = log_(1/2)(epsilon)`` (Equation 2);
- DBAC converges with rate at most ``1 - 2^-n`` per phase (Theorem 7)
  and outputs at ``p_end = log(epsilon) / log(1 - 2^-n)`` (Equation 6).

Both formulas are ceilinged to integers here (the paper leaves the
rounding implicit; an algorithm can only terminate at a whole phase,
and rounding *down* could leave the range just above epsilon).

DBAC's bound is exponentially conservative -- ``p_end`` grows like
``2^n ln(1/epsilon)`` -- which experiment E5 quantifies by comparing it
with measured phase counts.
"""

from __future__ import annotations

import math


def dac_convergence_rate() -> float:
    """The proven per-phase rate of DAC: exactly ``1/2`` (Remark 1).

    This matches the lower bound of Fuegger-Nowak-Schwarz (JACM'21),
    so DAC is rate-optimal.
    """
    return 0.5


def dbac_convergence_rate(n: int) -> float:
    """The proven per-phase rate bound of DBAC: ``1 - 2^-n`` (Theorem 7)."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return 1.0 - 2.0 ** (-n)


def _end_phase(epsilon: float, rate: float, initial_range: float) -> int:
    """Smallest integer ``p`` with ``initial_range * rate^p <= epsilon``."""
    if epsilon <= 0.0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if not (0.0 < rate < 1.0):
        raise ValueError(f"rate must be in (0, 1), got {rate}")
    if initial_range <= epsilon:
        return 0
    # p >= log(epsilon / range) / log(rate); guard float error at the edge.
    exact = math.log(epsilon / initial_range) / math.log(rate)
    p = max(0, math.ceil(exact))
    while initial_range * rate**p > epsilon:
        p += 1
    return p


def dac_end_phase(epsilon: float, initial_range: float = 1.0) -> int:
    """Equation 2: DAC's termination phase ``p_end = log_(1/2)(epsilon)``.

    ``initial_range`` generalizes the paper's ``[0, 1]`` scaling: with
    inputs spanning ``r``, the same derivation gives
    ``p_end = log2(r / epsilon)``.
    """
    return _end_phase(epsilon, dac_convergence_rate(), initial_range)


def dbac_end_phase(epsilon: float, n: int, initial_range: float = 1.0) -> int:
    """Equation 6: DBAC's termination phase under the ``1 - 2^-n`` bound.

    For moderate ``n`` this is astronomically conservative (it is a
    *worst-case* bound); prefer oracle-stopping when measuring real
    convergence, and see experiment E5 for the measured gap.
    """
    if epsilon <= 0.0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if initial_range <= epsilon:
        return 0
    # log(1 - 2^-n) via log1p for precision at large n.
    log_rate = math.log1p(-(2.0 ** (-n)))
    if log_rate == 0.0:
        raise OverflowError(f"rate bound 1 - 2^-{n} indistinguishable from 1.0")
    exact = math.log(epsilon / initial_range) / log_rate
    return max(0, math.ceil(exact))


def rounds_upper_bound(window: int, end_phase: int) -> int:
    """Worst-case rounds to terminate: ``T * p_end`` (Section VII).

    Each phase completes within one ``T``-round window once every
    fault-free node is in the phase, so ``T * p_end`` rounds suffice.
    """
    if window < 1:
        raise ValueError(f"window T must be >= 1, got {window}")
    if end_phase < 0:
        raise ValueError(f"end phase must be non-negative, got {end_phase}")
    return window * end_phase


def measured_phases_to_epsilon(
    range_series: list[float], epsilon: float
) -> int | None:
    """First phase whose recorded range is within ``epsilon``.

    Utility for experiments comparing the analytic ``p_end`` against
    what an execution actually needed; ``None`` when the series never
    got there. Delegates to :func:`repro.analysis.convergence.phases_until`
    (one implementation of the search).
    """
    # lint: ignore[layering] — documented delegation upward: the one search implementation lives in analysis; deferred so core never imports it at module load
    from repro.analysis.convergence import phases_until

    return phases_until(range_series, epsilon)
