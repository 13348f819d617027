"""The experiment functions: one per row of DESIGN.md's index.

Every function reproduces one claim of the paper and returns a
:class:`~repro.bench.tables.TableResult` whose ``passed`` flag records
whether the claim held in simulation. Functions accept ``quick=True``
(the default used by the pytest-benchmark wrappers) to run a reduced
but still meaningful parameter grid; ``quick=False`` runs the fuller
sweep recorded in EXPERIMENTS.md.
"""

from __future__ import annotations

import time

from repro.adversary.base import StaticAdversary
from repro.adversary.constrained import PhaseSkewAdversary
from repro.adversary.mobile import MobileOmissionAdversary
from repro.adversary.periodic import figure1_adversary
from repro.adversary.random_adv import RandomLinkAdversary
from repro.analysis.agreement import cross_group_gap, groupwise_spread
from repro.analysis.convergence import fit_geometric_rate, phases_until
from repro.analysis.statistics import summarize
from repro.bench.tables import TableResult
from repro.core.baselines import FloodMinProcess, IteratedMidpointProcess, MajorityVoteProcess
from repro.core.dac import DACProcess
from repro.core.phases import (
    dac_end_phase,
    dbac_convergence_rate,
    dbac_end_phase,
    rounds_upper_bound,
)
from repro.core.piggyback import PiggybackDACProcess
from repro.faults.base import FaultPlan
from repro.faults.byzantine import (
    ExtremeByzantine,
    FixedValueByzantine,
    PhaseLiarByzantine,
    RandomByzantine,
)
from repro.mc.explorer import BoundedExplorer, mobile_omission_choices
from repro.net.dynadegree import DynaDegreeProfile
from repro.net.dynamic import DynamicGraph
from repro.net.ports import identity_ports, random_ports
from repro.sim.engine import Engine
from repro.sim.rng import child_rng, spawn_inputs
from repro.sim.runner import run_consensus
from repro.workloads import (
    build_dac_execution,
    build_dbac_execution,
    dac_degree,
    dbac_degree,
    theorem9_part2_execution,
    theorem9_split_execution,
    theorem10_split_execution,
)


# ---------------------------------------------------------------------------
# F1 -- Figure 1: the (2,1)-but-not-(1,1) example adversary.
# ---------------------------------------------------------------------------

def experiment_f1(quick: bool = True) -> TableResult:
    """Reproduce Figure 1: profile the example adversary's stability."""
    table = TableResult(
        "F1",
        "Figure 1 adversary: max D per window T (n=3)",
        ["T", "max D", "(T,1) holds?", "paper says"],
    )
    adversary = figure1_adversary()
    adversary.setup(3, FaultPlan.fault_free_plan(3), child_rng(0, "adv"))
    trace = DynamicGraph(3)
    rounds = 12 if quick else 64
    for t in range(rounds):
        trace.record(adversary.choose(t, None))
    profile = DynaDegreeProfile.from_trace(trace, windows=[1, 2, 3, 4])
    expectations = {1: "violated", 2: "holds", 3: "holds", 4: "holds"}
    for window in (1, 2, 3, 4):
        max_d = profile.max_degree_by_window[window]
        holds = profile.satisfies(window, 1)
        table.add_row(window, max_d, holds, expectations[window])
        if (expectations[window] == "holds") != holds:
            table.fail(f"(T={window}, D=1) expected {expectations[window]}")
    table.add_note("Paper: satisfies (2,1)-dynaDegree but not (1,1)-dynaDegree.")
    return table


# ---------------------------------------------------------------------------
# E1 -- DAC correctness at the feasibility boundary (Theorem 3).
# ---------------------------------------------------------------------------

def experiment_e1(quick: bool = True) -> TableResult:
    """DAC correct at n >= 2f+1 with (T, floor(n/2))-dynaDegree."""
    table = TableResult(
        "E1",
        "DAC correctness at the boundary (f = (n-1)/2 crashes, D = floor(n/2))",
        ["n", "f", "T", "selector", "rounds", "spread", "correct", "trace (T,D) ok"],
    )
    grid_n = [5, 9] if quick else [5, 9, 15, 25]
    grid_t = [1, 3] if quick else [1, 3, 5]
    selectors = ["rotate", "nearest"] if quick else ["rotate", "nearest", "random"]
    for n in grid_n:
        f = (n - 1) // 2
        for window in grid_t:
            for selector in selectors:
                report = run_consensus(
                    **build_dac_execution(
                        n=n,
                        f=f,
                        epsilon=1e-3,
                        seed=n * 100 + window,
                        window=window,
                        selector=selector,
                    )
                )
                table.add_row(
                    n,
                    f,
                    window,
                    selector,
                    report.rounds,
                    report.output_spread,
                    report.correct,
                    bool(report.dynadegree_verified),
                )
                if not report.correct or not report.dynadegree_verified:
                    table.fail(f"n={n} T={window} {selector}: {report.summary()}")
    table.add_note("Paper: termination + validity + eps-agreement (Theorem 3).")
    return table


# ---------------------------------------------------------------------------
# E2 -- DAC convergence rate 1/2 (Remark 1).
# ---------------------------------------------------------------------------

def experiment_e2(quick: bool = True) -> TableResult:
    """Per-phase contraction of range(V(p)) vs the proven 1/2."""
    table = TableResult(
        "E2",
        "DAC per-phase convergence rate (bound: 0.5, optimal per [17])",
        ["n", "adversary", "phases", "max rate", "mean rate", "fit", "<= 0.5"],
    )
    grid = [(9, "nearest"), (9, "rotate")] if quick else [
        (9, "nearest"),
        (9, "rotate"),
        (15, "nearest"),
        (25, "nearest"),
    ]

    def one_report(n: int, selector: str):
        if selector == "lookahead":
            from repro.adversary.greedy import LookaheadQuorumAdversary

            ports = random_ports(n, child_rng(n, "ports"))
            inputs = spawn_inputs(n, n)
            procs = {
                v: DACProcess(n, 0, inputs[v], ports.self_port(v), epsilon=1e-4)
                for v in range(n)
            }
            return run_consensus(
                procs,
                LookaheadQuorumAdversary(n // 2, objective="max_range"),
                ports,
                epsilon=1e-4,
                max_rounds=400,
            )
        return run_consensus(
            **build_dac_execution(n=n, f=0, epsilon=1e-4, seed=n, selector=selector)
        )

    grid = grid + [(9, "lookahead")]
    for n, selector in grid:
        report = one_report(n, selector)
        rates = report.convergence_rates
        fit = fit_geometric_rate(report.phase_ranges)
        ok = bool(rates) and max(rates) <= 0.5 + 1e-9
        table.add_row(
            n,
            selector,
            len(rates),
            max(rates) if rates else 0.0,
            sum(rates) / len(rates) if rates else 0.0,
            fit if fit is not None else "-",
            ok,
        )
        if not ok:
            table.fail(f"n={n} {selector}: rate above 1/2: {rates}")
    table.add_note("Every measured per-phase rate must be <= 1/2; nearest-value")
    table.add_note("selection drives it close to 1/2 (the worst case is tight).")
    return table


# ---------------------------------------------------------------------------
# E3 -- DAC round complexity vs the T * p_end bound (Eq. 2, Sec. VII).
# ---------------------------------------------------------------------------

def experiment_e3(quick: bool = True) -> TableResult:
    """Measured rounds-to-output vs the worst-case T * p_end."""
    table = TableResult(
        "E3",
        "DAC rounds to terminate vs T * p_end",
        ["T", "epsilon", "p_end", "bound T*p_end", "measured rounds", "within bound"],
    )
    grid_t = [1, 2, 4] if quick else [1, 2, 4, 8]
    grid_eps = [1e-1, 1e-3] if quick else [1e-1, 1e-2, 1e-3]
    for window in grid_t:
        for eps in grid_eps:
            p_end = dac_end_phase(eps)
            bound = rounds_upper_bound(window, p_end)
            report = run_consensus(
                **build_dac_execution(n=9, f=0, epsilon=eps, seed=window, window=window)
            )
            # Start-up slack: nodes may need one extra window to align.
            ok = report.terminated and report.rounds <= bound + 2 * window
            table.add_row(window, eps, p_end, bound, report.rounds, ok)
            if not ok:
                table.fail(f"T={window} eps={eps}: {report.rounds} > {bound}")
    table.add_note("Paper: both algorithms complete in T * p_end rounds worst case.")
    return table


# ---------------------------------------------------------------------------
# E4 -- DBAC correctness at the boundary (Theorems 4 and 7).
# ---------------------------------------------------------------------------

_BYZ_STRATEGIES = {
    "extreme": ExtremeByzantine,
    "random": lambda: RandomByzantine(low=-5.0, high=5.0),
    "phase-liar": lambda: PhaseLiarByzantine(value=1.0, phase_lead=500),
    "pin-high": lambda: FixedValueByzantine(1.0),
}


def experiment_e4(quick: bool = True) -> TableResult:
    """DBAC correct at n >= 5f+1 with (T, floor((n+3f)/2))-dynaDegree."""
    table = TableResult(
        "E4",
        "DBAC correctness at the boundary (f Byzantine, D = floor((n+3f)/2))",
        ["n", "f", "strategy", "T", "rounds", "spread", "ok", "trace ok"],
    )
    grid_nf = [(6, 1)] if quick else [(6, 1), (11, 2), (16, 3)]
    strategies = ["extreme", "phase-liar"] if quick else sorted(_BYZ_STRATEGIES)
    windows = [1] if quick else [1, 3]
    for n, f in grid_nf:
        for name in strategies:
            for window in windows:
                report = run_consensus(
                    **build_dbac_execution(
                        n=n,
                        f=f,
                        epsilon=1e-2,
                        seed=n + window,
                        window=window,
                        byzantine_factory=lambda node: _BYZ_STRATEGIES[name](),
                    )
                )
                ok = report.terminated and report.epsilon_agreement and report.validity
                table.add_row(
                    n,
                    f,
                    name,
                    window,
                    report.rounds,
                    report.output_spread,
                    ok,
                    bool(report.dynadegree_verified),
                )
                if not ok or not report.dynadegree_verified:
                    table.fail(f"n={n} {name} T={window}: {report.summary()}")
    table.add_note("Validity is judged against fault-free inputs (Definition 3).")
    return table


# ---------------------------------------------------------------------------
# E5 -- DBAC convergence: measured vs the 1 - 2^-n bound (Theorem 7, Eq. 6).
# ---------------------------------------------------------------------------

def experiment_e5(quick: bool = True) -> TableResult:
    """How conservative are the Theorem 7 rate and Equation 6 p_end?"""
    table = TableResult(
        "E5",
        "DBAC measured rate / phases vs proven bounds",
        [
            "n",
            "f",
            "rate bound",
            "max measured",
            "Eq.6 p_end",
            "measured phases",
            "bound ok",
        ],
    )
    grid = [(6, 1)] if quick else [(6, 1), (11, 2)]
    epsilon = 1e-2
    for n, f in grid:
        report = run_consensus(
            **build_dbac_execution(n=n, f=f, epsilon=epsilon, seed=5)
        )
        bound = dbac_convergence_rate(n)
        rates = report.convergence_rates
        measured_max = max(rates) if rates else 0.0
        p_end_bound = dbac_end_phase(epsilon, n)
        measured_phases = phases_until(report.phase_ranges, epsilon)
        ok = measured_max <= bound + 1e-9 and (
            measured_phases is None or measured_phases <= p_end_bound
        )
        table.add_row(
            n,
            f,
            bound,
            measured_max,
            p_end_bound,
            measured_phases if measured_phases is not None else "-",
            ok,
        )
        if not ok:
            table.fail(f"n={n}: measured rate {measured_max} vs bound {bound}")
    table.add_note("Eq. 6 is a worst-case bound (~2^n ln(1/eps) phases); measured")
    table.add_note("executions converge near rate 1/2 -- orders of magnitude faster.")
    return table


# ---------------------------------------------------------------------------
# I1 -- Corollary 1: exact consensus impossible at (1, n-2).
# ---------------------------------------------------------------------------

def experiment_i1(quick: bool = True) -> TableResult:
    """Break exact-consensus candidates with the mobile-omission power."""
    table = TableResult(
        "I1",
        "Exact consensus vs (1, n-2) mobile omission (Corollary 1 / [18])",
        ["candidate", "n", "method", "violation", "states explored"],
    )
    n = 3
    candidates = {
        "FloodMin": lambda v, x: FloodMinProcess(n, 0, x, v, num_rounds=2),
        "MajorityVote": lambda v, x: MajorityVoteProcess(n, 0, x, v, num_rounds=2),
    }
    for name, factory in candidates.items():
        explorer = BoundedExplorer(
            n,
            factory,
            [0.0, 1.0, 1.0],
            mobile_omission_choices(n),
            horizon=2,
            cache_choices=True,
        )
        violation = explorer.search()
        table.add_row(
            name,
            n,
            "exhaustive model check",
            violation.kind if violation else "none found",
            explorer.states_explored,
        )
        if violation is None or violation.kind != "disagreement":
            table.fail(f"{name}: no disagreement execution found")

    # Concrete adversary at larger n (the constructive strategy).
    big_n = 5 if quick else 9
    ports = identity_ports(big_n)
    inputs = [0.0] + [1.0] * (big_n - 1)

    def floodmin_under(adversary):
        procs = {
            v: FloodMinProcess(big_n, 0, inputs[v], ports.self_port(v))
            for v in range(big_n)
        }
        return run_consensus(
            procs, adversary, ports, epsilon=0.0, max_rounds=2 * big_n
        )

    report = floodmin_under(MobileOmissionAdversary("block_min"))
    disagreed = report.terminated and not report.epsilon_agreement
    table.add_row(
        "FloodMin",
        big_n,
        "block-min adversary (1, n-2)",
        "disagreement" if disagreed else "none",
        "-",
    )
    if not disagreed or report.dynadegree_verified is not True:
        table.fail(f"block-min adversary failed at n={big_n}")

    # The boundary is tight: one more unit of degree -- the complete
    # graph, (1, n-1) -- and the same algorithm reaches exact agreement.
    clean = floodmin_under(MobileOmissionAdversary("none"))
    agreed = clean.terminated and clean.epsilon_agreement
    table.add_row(
        "FloodMin",
        big_n,
        "complete graph (1, n-1)",
        "exact agreement" if agreed else "UNEXPECTED",
        "-",
    )
    if not agreed:
        table.fail(f"FloodMin failed on the complete graph at n={big_n}")
    table.add_note("Every witness schedule satisfies (1, n-2)-dynaDegree; at (1, n-1)")
    table.add_note("the same algorithm solves exact consensus -- the bound is tight.")
    return table


# ---------------------------------------------------------------------------
# I2 / I3 -- Theorem 9: crash-model necessity.
# ---------------------------------------------------------------------------

def experiment_i2(quick: bool = True) -> TableResult:
    """Degree floor(n/2)-1 and n <= 2f both break DAC-style algorithms."""
    table = TableResult(
        "I2/I3",
        "Crash necessity (Theorem 9): both horns of the dilemma",
        ["scenario", "n", "algorithm", "terminated", "agreement", "verdict"],
    )
    sizes = [8] if quick else [6, 8, 12]
    for n in sizes:
        eager = run_consensus(**theorem9_split_execution(n=n, seed=n))
        horn1 = eager.terminated and not eager.epsilon_agreement
        table.add_row(
            f"(1, n/2-1) split",
            n,
            "eager quorum n/2",
            eager.terminated,
            eager.epsilon_agreement,
            "disagrees 0 vs 1" if horn1 else "UNEXPECTED",
        )
        if not horn1:
            table.fail(f"n={n}: eager run did not disagree")

        stalled = run_consensus(
            **theorem9_split_execution(n=n, seed=n, eager_quorum=False, max_rounds=150)
        )
        horn2 = not stalled.terminated
        table.add_row(
            f"(1, n/2-1) split",
            n,
            "DAC (quorum n/2+1)",
            stalled.terminated,
            stalled.epsilon_agreement,
            "stalls forever" if horn2 else "UNEXPECTED",
        )
        if not horn2:
            table.fail(f"n={n}: plain DAC terminated under the split")

    part2 = run_consensus(**theorem9_part2_execution(n=8, seed=1))
    ok = part2.terminated and not part2.epsilon_agreement
    table.add_row(
        "n = 2f, isolate R rounds",
        8,
        "eager quorum n/2",
        part2.terminated,
        part2.epsilon_agreement,
        "decides too early" if ok else "UNEXPECTED",
    )
    if not ok:
        table.fail("n=2f construction did not split")
    table.add_note("Eager quorum = the most any algorithm can await at this degree.")
    return table


# ---------------------------------------------------------------------------
# I4 -- Theorem 10: Byzantine necessity.
# ---------------------------------------------------------------------------

def experiment_i4(quick: bool = True) -> TableResult:
    """Degree floor((n+3f)/2)-1 + two-faced core splits the network."""
    table = TableResult(
        "I4",
        "Byzantine necessity (Theorem 10): overlap groups + equivocation",
        ["f", "n", "algorithm", "terminated", "A-side", "B-side", "gap", "verdict"],
    )
    fs = [1] if quick else [1, 2, 3]
    for f in fs:
        n = 5 * f + 1
        eager = run_consensus(**theorem10_split_execution(f=f, seed=f))
        low_end = (n - f) // 2
        high_start = (n + f) // 2
        listeners_a = frozenset(range(low_end))
        listeners_b = frozenset(range(high_start, n))
        spreads = groupwise_spread(eager.outputs, {"a": listeners_a, "b": listeners_b})
        gap = cross_group_gap(eager.outputs, listeners_a, listeners_b)
        a_val = (
            sum(eager.outputs[v] for v in listeners_a if v in eager.outputs)
            / max(1, len([v for v in listeners_a if v in eager.outputs]))
        )
        b_val = (
            sum(eager.outputs[v] for v in listeners_b if v in eager.outputs)
            / max(1, len([v for v in listeners_b if v in eager.outputs]))
        )
        horn1 = eager.terminated and gap > 0.9 and max(spreads.values()) < 0.05
        table.add_row(
            f,
            n,
            "eager quorum D",
            eager.terminated,
            a_val,
            b_val,
            gap,
            "0 vs 1 split" if horn1 else "UNEXPECTED",
        )
        if not horn1:
            table.fail(f"f={f}: expected clean 0 vs 1 split, gap={gap}")

        stalled = run_consensus(
            **theorem10_split_execution(f=f, seed=f, eager_quorum=False, max_rounds=150)
        )
        horn2 = not stalled.terminated
        table.add_row(
            f,
            n,
            "DBAC (quorum D+1)",
            stalled.terminated,
            "-",
            "-",
            "-",
            "stalls forever" if horn2 else "UNEXPECTED",
        )
        if not horn2:
            table.fail(f"f={f}: plain DBAC terminated at degree D-1")
    table.add_note("Trace satisfies (1, D-1) exactly; Byzantine nodes run two honest")
    table.add_note("faces (input 0 toward A's listeners, input 1 toward B's).")
    return table


# ---------------------------------------------------------------------------
# X1 -- Section VII: probabilistic message adversary.
# ---------------------------------------------------------------------------

def experiment_x1(quick: bool = True) -> TableResult:
    """Expected rounds-to-epsilon under i.i.d. link probability p."""
    table = TableResult(
        "X1",
        "Probabilistic adversary: rounds to eps-agreement vs link prob p",
        ["n", "p", "trials", "mean rounds", "95% CI", "all safe"],
    )
    grid_n = [5] if quick else [5, 9, 15]
    grid_p = [0.3, 0.6, 0.9] if quick else [0.2, 0.3, 0.5, 0.7, 0.9]
    trials = 5 if quick else 20
    for n in grid_n:
        for p in grid_p:
            rounds = []
            safe = True
            for trial in range(trials):
                seed = 1000 * n + int(100 * p) + trial
                ports = random_ports(n, child_rng(seed, "ports"))
                inputs = spawn_inputs(seed, n)
                procs = {
                    v: DACProcess(n, 0, inputs[v], ports.self_port(v), epsilon=1e-2)
                    for v in range(n)
                }
                report = run_consensus(
                    procs,
                    RandomLinkAdversary(p),
                    ports,
                    epsilon=1e-2,
                    stop_mode="oracle",
                    max_rounds=3000,
                    seed=seed,
                )
                safe = safe and report.validity
                if report.terminated:
                    rounds.append(float(report.rounds))
            if rounds:
                stats = summarize(rounds)
                table.add_row(
                    n,
                    p,
                    len(rounds),
                    stats.mean,
                    f"[{stats.ci_low:.1f}, {stats.ci_high:.1f}]",
                    safe,
                )
            else:
                table.add_row(n, p, 0, "-", "-", safe)
            if not safe:
                table.fail(f"n={n} p={p}: validity violated")
    table.add_note("Section VII proposes this model; rounds shrink as p grows.")
    return table


# ---------------------------------------------------------------------------
# X2 -- Section VII: piggybacking bandwidth / convergence trade-off.
# ---------------------------------------------------------------------------

def experiment_x2(quick: bool = True) -> TableResult:
    """Relay k old states: wall-clock rounds vs bits per round."""
    table = TableResult(
        "X2",
        "Piggyback trade-off: relayed entries k vs rounds and bandwidth",
        ["k", "p", "trials", "mean rounds", "mean bits/round", "safe"],
    )
    n = 9
    grid_k = [0, 2, 8] if quick else [0, 1, 2, 4, 8]
    grid_p = [0.3] if quick else [0.15, 0.3, 0.5]
    trials = 6 if quick else 16
    for p in grid_p:
        for k in grid_k:
            rounds, bits = [], []
            safe = True
            for trial in range(trials):
                seed = 77 + trial
                ports = random_ports(n, child_rng(seed, "ports"))
                inputs = spawn_inputs(seed, n)
                procs = {
                    v: PiggybackDACProcess(
                        n, 0, inputs[v], ports.self_port(v), epsilon=1e-3, k=k
                    )
                    for v in range(n)
                }
                report = run_consensus(
                    procs,
                    RandomLinkAdversary(p),
                    ports,
                    epsilon=1e-3,
                    stop_mode="oracle",
                    max_rounds=2000,
                    seed=seed,
                )
                safe = safe and report.validity
                if report.terminated:
                    rounds.append(float(report.rounds))
                    bits.append(report.metrics.mean_bits_per_round)
            mean_rounds = sum(rounds) / len(rounds) if rounds else float("nan")
            mean_bits = sum(bits) / len(bits) if bits else float("nan")
            table.add_row(k, p, len(rounds), mean_rounds, mean_bits, safe)
            if not safe:
                table.fail(f"k={k} p={p}: validity violated")
    table.add_note("The paper poses this trade-off as open; measured: bandwidth grows")
    table.add_note("linearly in k while round gains are modest (DAC's per-phase rate")
    table.add_note("is already optimal at 1/2).")
    return table


# ---------------------------------------------------------------------------
# X3 -- Jump-rule ablation.
# ---------------------------------------------------------------------------

def experiment_x3(quick: bool = True) -> TableResult:
    """DAC with and without the jump rule under phase skew."""
    table = TableResult(
        "X3",
        "Jump ablation: phase-skew adversary (fast clique + slow nodes)",
        ["n", "slow", "T", "jump", "terminated", "rounds"],
    )
    n = 9
    slow = frozenset({6, 7, 8})
    windows = [3] if quick else [2, 3, 5]
    for window in windows:
        for jump in (True, False):
            ports = random_ports(n, child_rng(23, "ports"))
            inputs = spawn_inputs(23, n)
            procs = {
                v: DACProcess(
                    n, 0, inputs[v], ports.self_port(v), epsilon=1e-2, enable_jump=jump
                )
                for v in range(n)
            }
            report = run_consensus(
                procs,
                PhaseSkewAdversary(n // 2, slow=slow, window=window),
                ports,
                epsilon=1e-2,
                max_rounds=250,
            )
            table.add_row(
                n, len(slow), window, jump, report.terminated, report.rounds
            )
            if jump and not report.correct:
                table.fail(f"T={window}: DAC with jump failed")
            if not jump and report.terminated:
                table.fail(f"T={window}: no-jump run unexpectedly terminated")
    table.add_note("Without jumping, slow nodes wait forever for same-phase states")
    table.add_note("that nobody will resend under O(log n) bandwidth (Section IV).")
    return table


# ---------------------------------------------------------------------------
# X4 -- Baseline comparison: DAC matches the reliable-channel rate.
# ---------------------------------------------------------------------------

def experiment_x4(quick: bool = True) -> TableResult:
    """DAC (hostile dynamic net) vs Dolev et al. (reliable complete net)."""
    table = TableResult(
        "X4",
        "DAC vs reliable-channel iterated midpoint: per-phase rate",
        ["algorithm", "network", "phases", "fit rate", "rate <= 0.5"],
    )
    n = 9
    ports = identity_ports(n)
    inputs = spawn_inputs(31, n)

    baseline_procs = {
        v: IteratedMidpointProcess(n, 0, inputs[v], v, num_rounds=10)
        for v in range(n)
    }
    base_report = run_consensus(
        baseline_procs, StaticAdversary(), ports, epsilon=1e-3, max_rounds=12
    )
    base_fit = fit_geometric_rate(base_report.phase_ranges)
    table.add_row(
        "IteratedMidpoint [13]",
        "reliable complete",
        len(base_report.phase_ranges) - 1,
        base_fit if base_fit is not None else "collapses in 1 phase",
        "n/a" if base_fit is None else base_fit <= 0.5 + 1e-6,
    )
    table.add_note("On a fully reliable complete graph every node sees every value,")
    table.add_note("so the baseline agrees after a single phase (fit undefined).")

    dac_report = run_consensus(
        **build_dac_execution(n=n, f=0, epsilon=1e-3, seed=31, selector="nearest")
    )
    dac_fit = fit_geometric_rate(dac_report.phase_ranges)
    ok = bool(dac_report.convergence_rates) and max(dac_report.convergence_rates) <= 0.5 + 1e-9
    table.add_row(
        "DAC (Algorithm 1)",
        "worst-case (1, n/2) dynamic",
        len(dac_report.phase_ranges) - 1,
        dac_fit if dac_fit else "-",
        ok,
    )
    if not ok:
        table.fail("DAC exceeded rate 1/2")
    table.add_note("Paper: DAC achieves the optimal rate 1/2 even in the dynamic")
    table.add_note("model -- matching the reliable-channel classic per phase.")
    return table


# ---------------------------------------------------------------------------
# S1 -- Engine throughput scaling (engineering sanity).
# ---------------------------------------------------------------------------

def experiment_s1(quick: bool = True) -> TableResult:
    """Simulation throughput: rounds/second vs network size."""
    table = TableResult(
        "S1",
        "Engine throughput (complete graph, DAC, trace off)",
        ["n", "rounds", "seconds", "rounds/s", "link msgs/s"],
    )
    sizes = [10, 40] if quick else [10, 20, 40, 80, 160]
    for n in sizes:
        ports = identity_ports(n)
        inputs = spawn_inputs(3, n)
        procs = {
            v: DACProcess(n, 0, inputs[v], v, epsilon=1e-12) for v in range(n)
        }
        engine = Engine(procs, StaticAdversary(), ports, record_trace=False)
        rounds = 30 if quick else 60
        start = time.perf_counter()
        engine.run(rounds)
        elapsed = max(time.perf_counter() - start, 1e-9)
        table.add_row(
            n,
            rounds,
            elapsed,
            rounds / elapsed,
            engine.metrics.delivered / elapsed,
        )
    table.add_note("Pure-Python reference simulator; scaling is O(n^2) per round.")
    return table


# ---------------------------------------------------------------------------
# S2 -- Sweep executor throughput (engineering sanity, parallel-aware).
# ---------------------------------------------------------------------------

def experiment_s2(quick: bool = True) -> TableResult:
    """Sweep-driver throughput over a DAC grid, honoring ``--workers``.

    Runs the boundary DAC scenario over an ``n x window`` grid through
    :class:`repro.bench.sweep.Sweep` (the parallel-aware executor; the
    CLI's ``--workers`` flag sets the worker default it consults) and
    checks the paper-level sanity claim that rounds-to-output grow
    with the adversary window. Every run also exercises the engine's
    untraced fast path end to end.
    """
    from repro.bench.sweep import Sweep
    from repro.sim.parallel import get_default_workers
    from repro.workloads import run_dac_trial

    table = TableResult(
        "S2",
        f"Sweep executor (DAC grid, workers={get_default_workers()})",
        ["n", "window", "trials", "mean rounds"],
    )
    grid = {
        "n": [5, 9] if quick else [5, 9, 13, 17],
        "window": [1, 2] if quick else [1, 2, 3],
    }
    sweep = Sweep(grid=grid, repeats=3 if quick else 5)
    start = time.perf_counter()
    sweep.run(run_dac_trial)  # workers=None -> process-wide default
    elapsed = max(time.perf_counter() - start, 1e-9)
    stats = sweep.summarize_by(
        "n", "window", value=lambda r: float(r.result["rounds"])
    )
    for (n, window), summary in sorted(stats.items()):
        table.add_row(n, window, summary.count, summary.mean)
    if not all(record.result["correct"] for record in sweep.records):
        table.fail("some sweep trials violated the DAC correctness verdicts")
    for n in grid["n"]:
        if stats[(n, 2)].mean <= stats[(n, 1)].mean:
            table.fail(f"rounds did not grow with the window at n={n}")
    table.add_note(
        f"whole sweep: {len(sweep.records)} trials in {elapsed:.2f}s "
        f"({len(sweep.records) / elapsed:.1f} trials/s); records are "
        "identical for any worker count -- workers only change wall-clock."
    )
    return table


# ---------------------------------------------------------------------------
# S3 -- Batched executor throughput and identity (engineering sanity).
# ---------------------------------------------------------------------------

def experiment_s3(quick: bool = True) -> TableResult:
    """Batched lock-step executor vs per-trial execution, honoring ``--batch``.

    Runs one grid cell's repeats twice through
    :class:`repro.bench.sweep.Sweep` -- once trial by trial, once
    grouped into :mod:`repro.sim.batch` lock-step batches -- and
    asserts the subsystem's core claim: the records are *identical*,
    batch size is purely a speed knob. Throughput for both legs is
    reported; the speedup needs the numpy kernel (without numpy the
    batched form runs the serial trial per seed: portability, not
    speed).
    """
    from repro.bench.sweep import Sweep
    from repro.sim.batch import numpy_available
    from repro.sim.parallel import get_default_batch
    from repro.workloads import run_dac_trial

    batch = get_default_batch()
    if batch <= 1:
        batch = 8  # the experiment's subject is batching; default to 8 lanes
    backend = "numpy" if numpy_available() else "python fallback"
    table = TableResult(
        "S3",
        f"Batched executor (boundary DAC, batch={batch}, backend={backend})",
        ["n", "trials", "serial trials/s", "batched trials/s", "speedup", "identical"],
    )
    sizes = [9, 17] if quick else [9, 17, 33]
    repeats = 2 * batch if quick else 4 * batch
    for n in sizes:
        grid = {"n": [n], "window": [1]}
        serial = Sweep(grid=grid, repeats=repeats)
        start = time.perf_counter()
        serial.run(run_dac_trial, workers=1, batch=1)
        serial_rate = len(serial.records) / max(time.perf_counter() - start, 1e-9)
        batched = Sweep(grid=grid, repeats=repeats)
        start = time.perf_counter()
        batched.run(run_dac_trial, workers=1, batch=batch)
        batched_rate = len(batched.records) / max(time.perf_counter() - start, 1e-9)
        identical = serial.records == batched.records
        table.add_row(
            n,
            len(serial.records),
            serial_rate,
            batched_rate,
            batched_rate / serial_rate,
            identical,
        )
        if not identical:
            table.fail(f"n={n}: batched records differ from per-trial records")
        if not all(record.result["correct"] for record in batched.records):
            table.fail(f"n={n}: batched trials violated the DAC verdicts")
    table.add_note("Batching composes with --workers: batches fan out over the")
    table.add_note("process pool, so the speedups multiply (see docs/scaling.md).")
    return table


def experiment_s4(quick: bool = True) -> TableResult:
    """Batched DBAC/Byzantine lanes vs per-trial execution, honoring ``--batch``.

    The Byzantine counterpart of S3: runs boundary-DBAC grid cells
    (``nearest`` enforcing adversary, equivocating Byzantine nodes --
    the value-dependent selector and witness-counter state the
    vectorized kernel had to learn) twice through
    :class:`repro.bench.sweep.Sweep` -- per trial and grouped into
    :class:`repro.sim.batch.ByzBatchEngine` lock-step batches -- and
    asserts the records are identical: batch size is purely a speed
    knob for the Byzantine lane families too (see docs/batching.md).
    """
    from repro.bench.sweep import Sweep
    from repro.sim.batch import numpy_available
    from repro.sim.parallel import get_default_batch
    from repro.workloads import run_dbac_trial

    batch = get_default_batch()
    if batch <= 1:
        batch = 8  # the experiment's subject is batching; default to 8 lanes
    backend = "numpy" if numpy_available() else "python fallback"
    table = TableResult(
        "S4",
        f"Batched DBAC lanes (boundary adversary, batch={batch}, backend={backend})",
        ["n", "trials", "serial trials/s", "batched trials/s", "speedup", "identical"],
    )
    sizes = [11, 16] if quick else [11, 16, 33]
    repeats = 2 * batch if quick else 4 * batch
    for n in sizes:
        grid = {"n": [n], "window": [1]}
        serial = Sweep(grid=grid, repeats=repeats)
        start = time.perf_counter()
        serial.run(run_dbac_trial, workers=1, batch=1)
        serial_rate = len(serial.records) / max(time.perf_counter() - start, 1e-9)
        batched = Sweep(grid=grid, repeats=repeats)
        start = time.perf_counter()
        batched.run(run_dbac_trial, workers=1, batch=batch)
        batched_rate = len(batched.records) / max(time.perf_counter() - start, 1e-9)
        identical = serial.records == batched.records
        table.add_row(
            n,
            len(serial.records),
            serial_rate,
            batched_rate,
            batched_rate / serial_rate,
            identical,
        )
        if not identical:
            table.fail(f"n={n}: batched records differ from per-trial records")
        if not all(record.result["correct"] for record in batched.records):
            table.fail(f"n={n}: batched trials violated the DBAC verdicts")
    table.add_note("Oracle stopping: each trial measures rounds until the honest")
    table.add_note("spread dips to epsilon under the nearest-value adversary.")
    return table
