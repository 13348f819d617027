#!/usr/bin/env python3
"""Quickstart: approximate consensus in an anonymous dynamic network.

Runs DAC (the paper's crash-tolerant algorithm) on a 9-node network at
its exact feasibility boundary -- f = 4 crash faults (n = 2f + 1) and a
worst-case message adversary that delivers the bare minimum the
(T, floor(n/2))-dynaDegree stability property allows.

Run:  python examples/quickstart.py
"""

from repro import build_dac_execution, run_consensus


def main() -> None:
    execution = build_dac_execution(
        n=9,  # network size (nodes know n, not who is who)
        f=4,  # up to f nodes may crash: n = 2f+1 is the minimum
        epsilon=1e-3,  # how close the outputs must land
        window=3,  # the adversary delivers once per 3-round window
        seed=42,
    )
    report = run_consensus(**execution)

    print("DAC at the feasibility boundary (n=9, f=4, T=3, D=4)")
    print("-" * 56)
    print(f"terminated        : {report.terminated} (after {report.rounds} rounds)")
    print(f"validity          : {report.validity}")
    print(f"eps-agreement     : {report.epsilon_agreement} (spread {report.output_spread:.2e})")
    print(f"adversary promise : (T, D) = {report.dynadegree_promise}, "
          f"verified on trace: {report.dynadegree_verified}")
    print()
    print("inputs  :", {k: round(v, 3) for k, v in sorted(report.inputs.items())})
    print("outputs :", {k: round(v, 3) for k, v in sorted(report.outputs.items())})
    print()
    print("per-phase range of states (halves every phase, Remark 1):")
    for phase, spread in enumerate(report.phase_ranges):
        bar = "#" * max(1, int(spread * 48)) if spread > 0 else ""
        print(f"  phase {phase:2d}  range {spread:8.5f}  {bar}")

    assert report.correct, "the paper's Theorem 3 guarantees this run"


if __name__ == "__main__":
    main()
