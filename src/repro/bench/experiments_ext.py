"""Extension experiments beyond the core reproduction (X5-X8).

- X5 executes Section II-B's claim that ``(T, D)``-dynaDegree is
  *incomparable* with the prior stability properties (rooted spanning
  trees, T-interval connectivity).
- X6 validates an analytic model of the Section VII probabilistic
  adversary against measured rounds.
- X7 searches adversary x Byzantine-strategy space for the slowest
  DBAC contraction ever observed -- an empirical data point for the
  paper's open question on the optimal Byzantine convergence rate.
- X8 probes the multi-hop future work: on networks where *information*
  flow (dynaReach) is rich but *direct* in-degree (dynaDegree) is
  starved, every quorum-counting algorithm stalls -- quantifying why
  anonymity makes multi-hop consensus require new ideas.
"""

from __future__ import annotations

from repro.adversary.comparative import RootedStarAdversary, StableSpanningTreeAdversary
from repro.adversary.constrained import LastMinuteQuorumAdversary
from repro.adversary.random_adv import RandomLinkAdversary
from repro.analysis.probabilistic import (
    expected_rounds_per_phase,
    prob_round_degree,
)
from repro.analysis.statistics import summarize
from repro.bench.experiments import judge
from repro.bench.tables import TableResult
from repro.core.asymptotic import AsymptoticAveragingProcess
from repro.core.dac import DACProcess
from repro.core.phases import dac_end_phase
from repro.net.ports import random_ports
from repro.net.properties import property_profile
from repro.scenario.registry import lookup
from repro.sim.rng import child_rng, spawn_inputs
from repro.sim.runner import run_consensus
from repro.workloads import build_dbac_execution, dac_degree


# ---------------------------------------------------------------------------
# X5 -- stability properties are incomparable (Section II-B).
# ---------------------------------------------------------------------------

def experiment_x5(quick: bool = True) -> TableResult:
    """Prior stability notions vs dynaDegree, head to head.

    Rooted-star and stable-path adversaries satisfy the *prior*
    properties in their strongest forms yet starve dynaDegree; DAC
    (which needs ``(T, floor(n/2))``) stalls on them while asymptotic
    averaging converges. Under the paper's own minimal adversary, both
    succeed. Executable incomparability.
    """
    table = TableResult(
        "X5",
        "Stability-property comparison (Section II-B)",
        [
            "adversary",
            "rooted/round",
            "T-int conn (T=1)",
            "max D (T=4)",
            "DAC",
            "averaging",
        ],
    )
    n = 9
    rounds_cap = 150 if quick else 400
    adversaries = {
        "rooted star (fixed root)": lambda: RootedStarAdversary("fixed"),
        "rooted star (rotating)": lambda: RootedStarAdversary("rotate"),
        "stable spanning path": lambda: StableSpanningTreeAdversary(),
        "(1, n/2) rotating quorum": lambda: LastMinuteQuorumAdversary(1, dac_degree(n)),
    }
    # The fixed star and stable path are rooted/connected forever yet
    # pin dynaDegree at 1 -> DAC starves. The *rotating* star is the
    # instructive subtlety: rotation supplies n-1 distinct senders over
    # a long window, i.e. (T, floor(n/2))-dynaDegree for T ~ n/2+1, so
    # DAC legitimately terminates -- dynaDegree counts distinct
    # senders, not per-round connectivity.
    expectations = {
        "rooted star (fixed root)": ("stalls", "converges"),
        "rooted star (rotating)": ("terminates", "converges"),
        "stable spanning path": ("stalls", "converges"),
        "(1, n/2) rotating quorum": ("terminates", "converges"),
    }
    for name, make in adversaries.items():
        ports = random_ports(n, child_rng(41, "ports"))
        inputs = spawn_inputs(41, n)

        dac_procs = {
            v: DACProcess(n, 0, inputs[v], ports.self_port(v), epsilon=1e-2)
            for v in range(n)
        }
        dac_report = run_consensus(
            dac_procs, make(), ports, epsilon=1e-2, max_rounds=rounds_cap
        )
        avg_procs = {
            v: AsymptoticAveragingProcess(n, 0, inputs[v], ports.self_port(v))
            for v in range(n)
        }
        avg_report = run_consensus(
            avg_procs,
            make(),
            ports,
            epsilon=1e-2,
            stop_mode="oracle",
            max_rounds=rounds_cap,
        )

        trace = dac_report.trace.dynamic_graph()
        profile = property_profile(trace, windows=[1])
        from repro.net.dynadegree import max_degree_for_window

        max_d4 = max_degree_for_window(trace, 4)

        dac_verdict = "terminates" if dac_report.terminated else "stalls"
        avg_verdict = "converges" if avg_report.terminated else "diverges"
        table.add_row(
            name,
            f"{profile['rooted_fraction']:.0%}",
            profile["t_interval_connected"][1],
            max_d4,
            f"{dac_verdict} ({dac_report.rounds}r)",
            f"{avg_verdict} ({avg_report.rounds}r)",
        )
        want_dac, want_avg = expectations[name]
        if dac_verdict != want_dac or avg_verdict != want_avg:
            table.fail(
                f"{name}: expected DAC {want_dac} / averaging {want_avg}, "
                f"got {dac_verdict} / {avg_verdict}"
            )
    table.add_note("Rooted-every-round and T-interval-connected networks can still")
    table.add_note("starve (T, n/2)-dynaDegree -- and vice versa: incomparable, as")
    table.add_note("Section II-B argues. Averaging = Charron-Bost et al. category (ii).")
    return table


# ---------------------------------------------------------------------------
# X6 -- analytic model of the probabilistic adversary vs measurement.
# ---------------------------------------------------------------------------

def experiment_x6(quick: bool = True) -> TableResult:
    """Binomial/coupon-collector model vs measured rounds (Section VII)."""
    table = TableResult(
        "X6",
        "Probabilistic adversary: analytic model vs measured rounds",
        [
            "n",
            "p",
            "P[deg >= D]/round",
            "E[rounds/phase]",
            "model rounds",
            "measured",
            "ratio",
        ],
    )
    n = 9
    epsilon = 1e-2
    quorum = n // 2 + 1
    p_end = dac_end_phase(epsilon)
    grid_p = [0.2, 0.5, 0.8] if quick else [0.15, 0.2, 0.3, 0.5, 0.7, 0.9]
    trials = 8 if quick else 24
    worst_ratio = 0.0
    for p in grid_p:
        per_round = prob_round_degree(n, p, dac_degree(n))
        per_phase = expected_rounds_per_phase(n, p, quorum)
        model = per_phase * p_end
        measured = []
        for trial in range(trials):
            seed = 500 + trial
            ports = random_ports(n, child_rng(seed, "ports"))
            inputs = spawn_inputs(seed, n)
            procs = {
                v: DACProcess(n, 0, inputs[v], ports.self_port(v), epsilon=epsilon)
                for v in range(n)
            }
            report = run_consensus(
                procs,
                RandomLinkAdversary(p),
                ports,
                epsilon=epsilon,
                max_rounds=5000,
                seed=seed,
            )
            if report.terminated:
                measured.append(float(report.rounds))
        stats = summarize(measured)
        ratio = stats.mean / model if model > 0 else float("inf")
        worst_ratio = max(worst_ratio, ratio)
        table.add_row(n, p, per_round, per_phase, model, stats.mean, ratio)
        # The model ignores jumps and phase overlap, so it must be an
        # over-estimate (ratio <= ~1); a ratio far above 1 would mean
        # the model is broken.
        if ratio > 1.25:
            table.fail(f"p={p}: measured exceeds model by {ratio:.2f}x")
    table.add_note("Model: phases are sequential coupon-collector rounds; jumping and")
    table.add_note("overlap make real executions faster, so measured/model <= ~1.")
    return table


# ---------------------------------------------------------------------------
# X7 -- adversarial search for the slowest DBAC contraction.
# ---------------------------------------------------------------------------

def experiment_x7(quick: bool = True) -> TableResult:
    """Empirical probe of the open question: optimal Byzantine rate.

    Sweeps adversary selectors x Byzantine strategies x seeds and
    reports the worst (largest) per-phase contraction DBAC ever showed.
    The proven bound is ``1 - 2^-n``; the open question is how much of
    that gap is real. Everything we can throw at it stays near 1/2.
    """
    from repro.faults.byzantine import (
        ExtremeByzantine,
        FixedValueByzantine,
        PhaseLiarByzantine,
        RandomByzantine,
    )

    table = TableResult(
        "X7",
        "Worst observed DBAC rate vs the 1 - 2^-n bound (open question)",
        ["n", "f", "configs tried", "worst rate seen", "bound", "gap factor"],
    )
    grid_nf = [(6, 1)] if quick else [(6, 1), (11, 2)]
    selectors = ["nearest", "rotate"] if quick else ["nearest", "rotate", "random"]
    strategies = {
        "extreme": ExtremeByzantine,
        "random": lambda: RandomByzantine(low=-1.0, high=2.0),
        "liar": lambda: PhaseLiarByzantine(value=1.0, phase_lead=100),
        "pin": lambda: FixedValueByzantine(0.5),
    }
    seeds = range(3) if quick else range(8)
    dbac = lookup("algorithm", "dbac").obj
    for n, f in grid_nf:
        params = dict(n=n, f=f, epsilon=1e-3, window=1)
        guarantees = dbac.guarantees(**params)
        worst = 0.0
        tried = 0
        for selector in selectors:
            for name, factory in strategies.items():
                for seed in seeds:
                    report = run_consensus(
                        **build_dbac_execution(
                            seed=seed,
                            selector=selector,
                            byzantine_factory=lambda node: factory(),
                            **params,
                        )
                    )
                    tried += 1
                    worst = max([worst, *report.convergence_rates])
                    judge(table, f"n={n} {selector} {name} seed={seed}", report, guarantees)
        bound = guarantees.rate
        gap = (1 - worst) / (1 - bound) if bound < 1 else float("inf")
        table.add_row(n, f, tried, worst, bound, gap)
    table.add_note("No strategy pushed DBAC anywhere near 1 - 2^-n; the worst observed")
    table.add_note("contraction stays ~1/2, evidence the true optimal Byzantine rate is")
    table.add_note("far below the proven bound (the paper's Section VII open question).")
    return table


# ---------------------------------------------------------------------------
# X8 -- the multi-hop future work, probed (Section I / VII).
# ---------------------------------------------------------------------------

def experiment_x8(quick: bool = True) -> TableResult:
    """Multi-hop information flow cannot feed single-hop quorums.

    A static directed ring gives every node in-degree exactly 1
    (dynaDegree pinned at (T, 1) forever) while full-relay information
    flow reaches n-1 distinct origins within n-1 rounds (dynaReach
    (n-1, n-1)). DAC needs floor(n/2) *distinct direct ports* per
    phase, so it stalls; so does the piggyback variant -- relayed
    values are unattributable under anonymity and cannot count toward
    the quorum. Asymptotic averaging, which needs no counting,
    converges. This is the executable content of "multi-hop is left as
    future work": relaying moves *values*, not *port-distinctness*.
    """
    from repro.adversary.base import StaticAdversary
    from repro.core.piggyback import PiggybackDACProcess
    from repro.net.dynadegree import max_degree_for_window
    from repro.net.generators import cycle_edges
    from repro.net.topology import Topology
    from repro.net.temporal import max_reach_for_window

    table = TableResult(
        "X8",
        "Multi-hop probe: directed ring -- rich dynaReach, starved dynaDegree",
        ["n", "algorithm", "max D (direct)", "max D (reach)", "verdict", "rounds"],
    )
    n = 7 if quick else 9
    window = n - 1
    rounds_cap = 120 if quick else 300
    ring = Topology(n, cycle_edges(n, bidirectional=False))
    ports = random_ports(n, child_rng(47, "ports"))
    inputs = spawn_inputs(47, n)

    def ring_adversary():
        return StaticAdversary(ring)

    contenders = {
        "DAC": lambda v: DACProcess(n, 0, inputs[v], ports.self_port(v), epsilon=1e-2),
        "PiggybackDAC k=8": lambda v: PiggybackDACProcess(
            n, 0, inputs[v], ports.self_port(v), epsilon=1e-2, k=8
        ),
        "asymptotic averaging": lambda v: AsymptoticAveragingProcess(
            n, 0, inputs[v], ports.self_port(v)
        ),
    }
    expectations = {
        "DAC": "stalls",
        "PiggybackDAC k=8": "stalls",
        "asymptotic averaging": "converges",
    }
    for name, factory in contenders.items():
        procs = {v: factory(v) for v in range(n)}
        stop_mode = "oracle" if name == "asymptotic averaging" else "output"
        report = run_consensus(
            procs,
            ring_adversary(),
            ports,
            epsilon=1e-2,
            stop_mode=stop_mode,
            max_rounds=rounds_cap,
        )
        trace = report.trace.dynamic_graph()
        direct = max_degree_for_window(trace, window)
        reach = max_reach_for_window(trace, window)
        verdict = (
            "converges"
            if report.terminated and stop_mode == "oracle"
            else ("terminates" if report.terminated else "stalls")
        )
        table.add_row(n, name, direct, reach, verdict, report.rounds)
        want = expectations[name]
        matched = (verdict == want) or (want == "converges" and verdict == "terminates")
        if not matched:
            table.fail(f"{name}: expected {want}, got {verdict}")
    table.add_note("dynaReach hits n-1 (full information flow) while direct dynaDegree")
    table.add_note("is pinned at 1: anonymous quorum counting cannot use journeys, so")
    table.add_note("the paper's multi-hop future work needs new algorithmic ideas.")
    return table
