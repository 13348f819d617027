#!/usr/bin/env python3
"""Connected-vehicle platoon speed agreement with a compromised car.

A platoon of 11 vehicles negotiates a common cruising speed over
vehicle-to-vehicle radio. Two cars run compromised firmware (Byzantine)
and -- because the network is anonymous (MAC randomization, no PKI) --
can tell every neighbor a different story without being caught.

This is DBAC territory: n = 11 = 5f + 1 tolerates f = 2 Byzantine
vehicles provided the dynamic radio graph supplies
(T, floor((n+3f)/2)) = (T, 8)-dynaDegree. The example runs three attack
strategies against the same platoon and shows none of them can drag
the agreed speed outside the honest vehicles' proposals.

Run:  python examples/vehicle_platoon_speed.py
"""

from repro import (
    DBACProcess,
    ExtremeByzantine,
    FaultPlan,
    FixedValueByzantine,
    LastMinuteQuorumAdversary,
    PhaseLiarByzantine,
    run_consensus,
)
from repro.net.ports import random_ports
from repro.sim.rng import child_rng
from repro.workloads import dbac_degree

N_CARS = 11
MAX_COMPROMISED = 2  # n = 5f + 1
EPSILON_KMH = 0.5

# Honest speed proposals (km/h) -- the lead cars want to go faster.
PROPOSED_SPEED = [92.0, 95.5, 88.0, 97.0, 90.5, 94.0, 89.5, 96.0, 91.0]

ATTACKS = {
    "pin at 140 km/h": lambda: FixedValueByzantine(140.0),
    "equivocate 60/140": lambda: ExtremeByzantine(low=60.0, high=140.0),
    "lie about phase": lambda: PhaseLiarByzantine(value=140.0, phase_lead=100),
}


def drive(attack_name: str, seed: int = 7):
    ports = random_ports(N_CARS, child_rng(seed, "ports"))
    # Cars 9 and 10 are compromised.
    plan = FaultPlan(
        N_CARS,
        byzantine={9: ATTACKS[attack_name](), 10: ATTACKS[attack_name]()},
    )
    lo, hi = min(PROPOSED_SPEED), max(PROPOSED_SPEED)
    processes = {
        v: DBACProcess(
            N_CARS,
            MAX_COMPROMISED,
            PROPOSED_SPEED[v],
            ports.self_port(v),
            epsilon=EPSILON_KMH,
            initial_range=hi - lo,
            end_phase=8,  # Eq. 6's bound is astronomically loose; see DESIGN.md
        )
        for v in plan.non_byzantine
    }
    adversary = LastMinuteQuorumAdversary(
        1, dbac_degree(N_CARS, MAX_COMPROMISED), selector="nearest"
    )
    return run_consensus(
        processes,
        adversary,
        ports,
        epsilon=EPSILON_KMH,
        f=MAX_COMPROMISED,
        fault_plan=plan,
        stop_mode="output",
        max_rounds=500,
        seed=seed,
    )


def main() -> None:
    lo, hi = min(PROPOSED_SPEED), max(PROPOSED_SPEED)
    print(f"Platoon of {N_CARS} cars, 2 compromised; honest proposals "
          f"span [{lo}, {hi}] km/h.")
    print(f"Radio: churning minimal (1, {dbac_degree(N_CARS, MAX_COMPROMISED)})-"
          "dynaDegree graph, adversarially selected neighbors.")
    print()
    for attack in ATTACKS:
        report = drive(attack)
        speeds = sorted(round(v, 2) for v in report.outputs.values())
        agreed = sum(speeds) / len(speeds)
        contained = all(lo - 1e-9 <= s <= hi + 1e-9 for s in speeds)
        print(f"attack: {attack:<22}  agreed ~{agreed:6.2f} km/h  "
              f"spread {report.output_spread:.3f}  "
              f"inside honest range: {contained}  rounds: {report.rounds}")
        assert report.terminated and report.epsilon_agreement and contained
    print()
    print("All attacks neutralized: the f+1-trimmed update (Algorithm 2)")
    print("guarantees the platoon's speed is always bracketed by honest")
    print("proposals, and anonymity-proof equivocation buys the attacker")
    print("nothing beyond what Theorem 7 already prices in.")


if __name__ == "__main__":
    main()
