"""The ``(T, D)``-dynaDegree stability property (Definition 1), executable.

A dynamic graph satisfies ``(T, D)``-dynaDegree when for every round
``t``, the *window union* ``G_t = (V, E(t) u ... u E(t+T-1))`` gives
every fault-free node at least ``D`` distinct incoming neighbors. The
incoming links may arrive in different rounds of the window, and the
neighbors need not be fault-free.

Two subtleties the paper leaves implicit are made explicit here:

- **Crashed senders.** A Byzantine in-neighbor still transmits (bogus)
  messages, so it legitimately counts toward ``D``; a *crashed* sender
  transmits nothing, so a link from it delivers no message and cannot
  help termination. The checker takes an optional ``senders_at``
  callback restricting which tails count in each round (the enforcing
  adversaries use "alive senders" in the crash model).
- **Finite traces.** Definition 1 quantifies over all ``t in N``; on a
  finite recorded trace of ``L`` rounds we check every *complete*
  window, i.e. ``t = 0 .. L - T``. Traces shorter than ``T`` have no
  complete window and are vacuously accepted (flagged in the verdict).

:func:`check_dynadegree` is the one window check: the runner applies
it to every traced run's recorded graphs to re-verify the adversary's
promise (:attr:`repro.sim.runner.ExecutionReport.dynadegree_verified`),
and the profile helpers below build on the same per-window neighbor
sets.
"""

from __future__ import annotations

from collections.abc import Callable, Collection, Sequence
from dataclasses import dataclass, field

from repro.net.dynamic import DynamicGraph

SendersAt = Callable[[int], Collection[int]]


@dataclass(frozen=True)
class DynaDegreeViolation:
    """A single witness that a window fails the property."""

    window_start: int
    node: int
    degree: int
    required: int

    def __str__(self) -> str:
        return (
            f"window starting at round {self.window_start}: node {self.node} "
            f"has {self.degree} distinct in-neighbors, needs {self.required}"
        )


@dataclass(frozen=True)
class DynaDegreeVerdict:
    """Outcome of checking one ``(T, D)`` pair against a trace."""

    holds: bool
    window: int
    degree: int
    complete_windows: int
    violations: tuple[DynaDegreeViolation, ...] = ()

    @property
    def vacuous(self) -> bool:
        """True when the trace was too short to contain a full window."""
        return self.complete_windows == 0


def _window_in_neighbors(
    trace: DynamicGraph,
    start: int,
    window: int,
    senders_at: SendersAt | None,
) -> dict[int, set[int]]:
    """Distinct (counting) in-neighbors per node over one window."""
    neighbors: dict[int, set[int]] = {v: set() for v in range(trace.n)}
    for offset in range(window):
        t = start + offset
        graph = trace.at(t)
        allowed = None if senders_at is None else set(senders_at(t))
        for u, v in graph.edge_list:
            if allowed is None or u in allowed:
                neighbors[v].add(u)
    return neighbors


def check_dynadegree(
    trace: DynamicGraph,
    window: int,
    degree: int,
    fault_free: Collection[int] | None = None,
    senders_at: SendersAt | None = None,
    max_violations: int = 16,
) -> DynaDegreeVerdict:
    """Check ``(window, degree)``-dynaDegree on a recorded trace.

    Parameters
    ----------
    trace:
        The recorded dynamic graph.
    window:
        The paper's ``T`` (>= 1).
    degree:
        The paper's ``D`` (1 <= D <= n-1).
    fault_free:
        Nodes whose in-degree must meet ``degree``; defaults to all
        nodes. Faulty nodes never constrain the adversary.
    senders_at:
        Optional per-round filter on which tails count (e.g. alive
        senders under crash faults). ``None`` counts every chosen link.
    max_violations:
        Cap on collected violation witnesses (checking continues only
        until the cap to keep worst-case analysis cheap).
    """
    if window < 1:
        raise ValueError(f"window T must be >= 1, got {window}")
    if not (1 <= degree <= trace.n - 1):
        raise ValueError(f"degree D must be in [1, n-1]=[1, {trace.n - 1}], got {degree}")
    targets = set(range(trace.n)) if fault_free is None else set(fault_free)

    complete = max(0, len(trace) - window + 1)
    violations: list[DynaDegreeViolation] = []
    for start in range(complete):
        neighbors = _window_in_neighbors(trace, start, window, senders_at)
        for node in sorted(targets):
            got = len(neighbors[node])
            if got < degree:
                violations.append(DynaDegreeViolation(start, node, got, degree))
                if len(violations) >= max_violations:
                    return DynaDegreeVerdict(False, window, degree, complete, tuple(violations))
    return DynaDegreeVerdict(not violations, window, degree, complete, tuple(violations))


def max_degree_for_window(
    trace: DynamicGraph,
    window: int,
    fault_free: Collection[int] | None = None,
    senders_at: SendersAt | None = None,
) -> int:
    """Largest ``D`` such that ``(window, D)``-dynaDegree holds.

    Returns 0 when even ``D = 1`` fails (some node hears nobody in some
    window), and ``n - 1`` at most. A trace with no complete window
    returns ``n - 1`` (vacuous truth), mirroring :func:`check_dynadegree`.
    """
    targets = set(range(trace.n)) if fault_free is None else set(fault_free)
    complete = max(0, len(trace) - window + 1)
    best = trace.n - 1
    for start in range(complete):
        neighbors = _window_in_neighbors(trace, start, window, senders_at)
        for node in targets:
            best = min(best, len(neighbors[node]))
            if best == 0:
                return 0
    return best


def min_window_for_degree(
    trace: DynamicGraph,
    degree: int,
    fault_free: Collection[int] | None = None,
    senders_at: SendersAt | None = None,
    max_window: int | None = None,
) -> int | None:
    """Smallest ``T`` such that ``(T, degree)``-dynaDegree holds.

    Searches ``T = 1 .. max_window`` (default: trace length) and returns
    the first window size that passes, or ``None`` when none does. Note
    that dynaDegree is monotone in ``T``: enlarging the window can only
    add neighbors, so the first passing ``T`` is the minimum.
    """
    limit = len(trace) if max_window is None else min(max_window, len(trace))
    for window in range(1, limit + 1):
        verdict = check_dynadegree(trace, window, degree, fault_free, senders_at)
        if verdict.holds and not verdict.vacuous:
            return window
    return None


@dataclass
class DynaDegreeProfile:
    """Summary of a trace's stability: max ``D`` for a range of ``T``.

    Produced by :meth:`from_trace`; rendered by the benchmark harness
    when reproducing Figure 1.
    """

    n: int
    rounds: int
    max_degree_by_window: dict[int, int] = field(default_factory=dict)

    @classmethod
    def from_trace(
        cls,
        trace: DynamicGraph,
        windows: Sequence[int],
        fault_free: Collection[int] | None = None,
        senders_at: SendersAt | None = None,
    ) -> "DynaDegreeProfile":
        profile = cls(n=trace.n, rounds=len(trace))
        for window in windows:
            profile.max_degree_by_window[window] = max_degree_for_window(
                trace, window, fault_free, senders_at
            )
        return profile

    def satisfies(self, window: int, degree: int) -> bool:
        """Whether the profiled trace satisfied ``(window, degree)``."""
        if window not in self.max_degree_by_window:
            raise KeyError(f"window T={window} was not profiled")
        return self.max_degree_by_window[window] >= degree
