"""Run orchestration: execute a consensus instance and judge it.

:func:`run_consensus` wires an engine together, runs it to a stopping
condition, and returns an :class:`ExecutionReport` containing verdicts
for the paper's three correctness properties (termination, validity,
epsilon-agreement), the measured per-phase convergence series, and an
independent re-check of the adversary's ``(T, D)``-dynaDegree promise
on the recorded trace.

Two stopping modes reflect the two ways the paper's algorithms are
read:

- ``"output"`` -- paper-faithful: run until every fault-free node has
  reached its termination phase ``p_end`` and output (Equations 2/6);
- ``"oracle"`` -- run until an omniscient observer sees the fault-free
  states within ``epsilon`` (used to measure how conservative the
  ``p_end`` bounds are, especially DBAC's Equation 6).
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, field
from typing import Any

from repro.adversary.base import MessageAdversary
from repro.faults.base import FaultPlan
from repro.net.dynadegree import check_dynadegree
from repro.net.ports import PortNumbering
from repro.sim.engine import Engine
from repro.sim.metrics import MetricsCollector, PhaseRangeSeries, convergence_rates
from repro.sim.node import ConsensusProcess
from repro.sim.trace import ExecutionTrace

# Slack for floating-point comparisons in verdicts. Outputs sitting
# exactly on the hull boundary should not fail validity to rounding.
_FLOAT_SLACK = 1e-9


@dataclass(frozen=True)
class OutputVerdict:
    """Judgment of one set of outputs against one set of inputs."""

    spread: float
    epsilon_agreement: bool
    validity: bool
    hull: tuple[float, float]

    @property
    def correct(self) -> bool:
        """Both safety properties hold."""
        return self.epsilon_agreement and self.validity


def output_verdict(
    outputs: Mapping[int, float], inputs: Mapping[int, float], epsilon: float
) -> OutputVerdict:
    """Epsilon-agreement and validity of ``outputs`` (Definitions 2 and 3).

    ``inputs`` must be the *non-Byzantine* inputs: validity requires
    every output inside their convex hull (Definition 3(ii)). With no
    outputs at all both properties hold vacuously (spread 0.0): the
    failure is termination, which the caller judges. The one verdict
    rule for serial runs, batch lanes and
    :func:`repro.analysis.agreement.judge_outputs`.
    """
    lo, hi = min(inputs.values()), max(inputs.values())
    values = outputs.values()
    spread = max(values) - min(values) if values else 0.0
    return OutputVerdict(
        spread,
        not values or spread <= epsilon + _FLOAT_SLACK,
        all(lo - _FLOAT_SLACK <= value <= hi + _FLOAT_SLACK for value in values),
        (lo, hi),
    )


@dataclass
class ExecutionReport:
    """Everything measured about one execution."""

    n: int
    f: int
    epsilon: float
    stop_mode: str
    rounds: int
    terminated: bool
    inputs: dict[int, float]
    outputs: dict[int, float]
    output_spread: float
    epsilon_agreement: bool
    validity: bool
    phase_ranges: list[float] = field(default_factory=list)
    dynadegree_promise: tuple[int, int] | None = None
    dynadegree_verified: bool | None = None
    metrics: MetricsCollector | None = None
    trace: ExecutionTrace | None = None

    @property
    def correct(self) -> bool:
        """Termination, validity and epsilon-agreement all hold."""
        return self.terminated and self.validity and self.epsilon_agreement

    @property
    def convergence_rates(self) -> list[float]:
        """The measured per-phase contractions of :attr:`phase_ranges`."""
        return convergence_rates(self.phase_ranges)

    def summary(self) -> str:
        """One-line human-readable verdict."""
        verdict = "OK" if self.correct else "VIOLATION"
        return (
            f"[{verdict}] n={self.n} f={self.f} eps={self.epsilon:g} "
            f"rounds={self.rounds} spread={self.output_spread:.3g} "
            f"terminated={self.terminated} validity={self.validity} "
            f"eps-agreement={self.epsilon_agreement}"
        )


def _verify_promise(
    adversary: MessageAdversary,
    trace: ExecutionTrace | None,
    fault_plan: FaultPlan,
) -> tuple[tuple[int, int] | None, bool | None]:
    promise = adversary.promised_dynadegree()
    if promise is None or trace is None or len(trace) == 0:
        return promise, None
    window, degree = promise
    verdict = check_dynadegree(
        trace.dynamic_graph(),
        window,
        degree,
        fault_free=fault_plan.fault_free,
        senders_at=lambda t: trace.rounds[t].live_senders,
    )
    return promise, verdict.holds


def run_consensus(
    processes: Mapping[int, ConsensusProcess],
    adversary: MessageAdversary,
    ports: PortNumbering,
    epsilon: float,
    f: int = 0,
    fault_plan: FaultPlan | None = None,
    max_rounds: int = 100_000,
    stop_mode: str = "output",
    seed: int = 0,
    record_trace: bool = True,
    verify_promise: bool = True,
    track_phases: bool = True,
    observers: Sequence[Callable] = (),
    on_finish: Callable | None = None,
    trace_sink: Any | None = None,
) -> ExecutionReport:
    """Run one consensus execution end to end and judge it.

    Parameters
    ----------
    processes:
        ``node -> process`` for every non-Byzantine node; each node's
        ``input_value`` is taken as its input for the validity check.
    epsilon:
        The agreement tolerance the execution is judged against.
    stop_mode:
        ``"output"`` (wait for the algorithm's own termination) or
        ``"oracle"`` (stop when global spread first dips to epsilon).
    max_rounds:
        Hard cap; an execution hitting the cap without stopping is
        reported as non-terminating (``terminated=False``).
    track_phases:
        Keep the per-phase ``V(p)`` ranges (a
        :class:`~repro.sim.metrics.PhaseRangeSeries` read off the
        watched processes each time the stop condition is evaluated:
        before every round and once after the last). It takes no
        snapshots, so a run with ``record_trace=False`` and no
        observers keeps the engine's unattached fast path either way.
        ``False`` leaves ``phase_ranges``/``convergence_rates`` empty
        and the stop condition bare -- the right configuration for
        large sweeps that only read verdicts and round counts.
    observers:
        Extra per-round snapshot callbacks (``(engine, snapshot) ->
        None``) appended to ``engine.observers`` -- the seam the
        read-only :mod:`repro.obs` bus attaches through
        (``repro.obs.attach.consensus_hooks`` builds this and
        ``on_finish`` from a bus in one call).
    on_finish:
        Called once as ``on_finish(engine, result)`` after the run
        ends, before verdicts are computed -- how a bus learns the
        run's ``RunFinished`` outcome without the runner importing the
        observability layer.
    trace_sink:
        Streaming snapshot destination (see :class:`repro.sim.engine.
        Engine`); overrides ``record_trace``. The report's ``trace``
        field stays ``None`` (rounds live on disk, not in RAM) and the
        dynaDegree promise re-check is skipped -- run it post-hoc on
        the loaded trace if needed.
    """
    if stop_mode not in ("output", "oracle"):
        raise ValueError(f"unknown stop_mode {stop_mode!r}")
    plan = fault_plan or FaultPlan.fault_free_plan(ports.n)
    engine = Engine(
        processes,
        adversary,
        ports,
        fault_plan=plan,
        f=f,
        seed=seed,
        record_trace=record_trace,
        trace_sink=trace_sink,
    )
    engine.observers.extend(observers)

    if stop_mode == "output":
        stop = Engine.all_fault_free_output
    else:
        stop = lambda eng: eng.fault_free_range() <= epsilon  # noqa: E731
    series = PhaseRangeSeries(engine.processes, plan) if track_phases else None
    if series is not None:
        # Engine.run evaluates the stop condition at every round boundary.
        bare_stop = stop

        def stop(eng: Engine) -> bool:
            series.observe()
            return bare_stop(eng)

    result = engine.run(max_rounds, stop_when=stop)
    if on_finish is not None:
        on_finish(engine, result)
    terminated = result.stopped

    inputs = {node: proc.input_value for node, proc in processes.items()}
    if stop_mode == "output":
        outputs = {
            v: engine.processes[v].output()
            for v in plan.fault_free
            if engine.processes[v].has_output()
        }
    else:
        outputs = engine.fault_free_values()

    verdict = output_verdict(outputs, inputs, epsilon)

    # A streaming sink is not an ExecutionTrace: no in-RAM rounds to
    # re-check the promise against, and the report cannot carry it.
    trace = engine.trace if isinstance(engine.trace, ExecutionTrace) else None
    promise, promise_ok = (
        _verify_promise(adversary, trace, plan) if verify_promise else (None, None)
    )

    return ExecutionReport(
        n=ports.n,
        f=f,
        epsilon=epsilon,
        stop_mode=stop_mode,
        rounds=engine.current_round,
        terminated=terminated,
        inputs=inputs,
        outputs=outputs,
        output_spread=verdict.spread,
        epsilon_agreement=verdict.epsilon_agreement,
        validity=verdict.validity,
        phase_ranges=series.ranges() if series is not None else [],
        dynadegree_promise=promise,
        dynadegree_verified=promise_ok,
        metrics=engine.metrics,
        trace=trace,
    )
