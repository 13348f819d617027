"""Golden fingerprints of the serial engine.

The serial engine is the semantic reference every other executor is
compared with, so a change that is meant to be bit-exact -- a faster
round, a memo, a reused message -- must leave what it produces exactly
as it was. This file pins that: one sha256 per configuration over the
canonical JSON of

- the round count and ``stopped`` of every seed;
- every non-Byzantine node's final ``state_key()``;
- the engine's metrics (per-round delivered messages and bits, the
  broadcast count);
- for the first seed, a second, traced run's ``trace_to_dict``.

The grid covers every registered algorithm family, the ``rotate``,
``nearest`` and ``random`` selectors, windows 1, 2 and 4, staggered
crashes, the ``extreme``, ``random`` and ``phase-liar`` Byzantine
strategies, DAC at ``n=9, f=4`` and DBAC at ``n=9, f=1``, the four mobile-omission modes, and directly built runs:
a ``LookaheadQuorumAdversary`` (its candidate overlay snapshots and
restores process state, cached messages included), a crash plan with
simultaneous and partial crashes under random links, so crashed and
mid-broadcast senders are offered links and the engine masks them, and
window adversaries whose silent rounds carry a piggyback or
iterated-midpoint node's own message, a crash, or Byzantine draws.

The literals were computed before the serial round's broadcast reuse,
receiver-row graph memo, no-op DBAC stores and bisect crash keys went
in; the four silent-round configs before the edge-free round path and
the ``nearest`` memo; the four ``n9`` boundary builds while the
engine still carried a second, sender-major round loop that was
asserted equal to the sweep on them. Only a change that *means* to alter executions
may update them:
``PYTHONPATH=src python tests/test_golden_fingerprints.py`` prints the
current table.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Any, Callable

import pytest

from repro.adversary.constrained import LastMinuteQuorumAdversary
from repro.adversary.greedy import LookaheadQuorumAdversary
from repro.adversary.random_adv import RandomLinkAdversary
from repro.core.dac import DACProcess
from repro.core.piggyback import PiggybackDACProcess
from repro.faults.base import FaultPlan
from repro.faults.crash import CrashEvent, partial_crash
from repro.net.ports import random_ports
from repro.sim.engine import Engine, RunResult
from repro.sim.persistence import trace_to_dict
from repro.sim.rng import child_rng, spawn_inputs
from repro.workloads import build_dac_execution, build_dbac_execution
from tests.helpers import family_entry, normalize_config

SEEDS = (0, 1, 2)


def _family(family: str, **params: Any) -> Callable[[int], dict[str, Any]]:
    """A registered family's serial build, registry defaults filled."""
    config = normalize_config({"family": family, **params})
    build = family_entry(family).obj.build
    params = {k: v for k, v in config.items() if k not in ("family", "seeds")}
    return lambda seed: build(seed=seed, **params)


def _dac_direct(adversary: Callable[[], Any], plan: Callable[[int], FaultPlan],
                n: int, f: int, process: type = DACProcess) -> Callable[[int], dict[str, Any]]:
    """A DAC-style execution built by hand around ``adversary`` and ``plan``."""

    def build(seed: int) -> dict[str, Any]:
        ports = random_ports(n, child_rng(seed, "ports"))
        inputs = spawn_inputs(seed, n)
        fault_plan = plan(n)
        processes = {
            v: process(n, f, inputs[v], ports.self_port(v), epsilon=1e-3)
            for v in fault_plan.non_byzantine
        }
        return {
            "processes": processes,
            "adversary": adversary(),
            "ports": ports,
            "epsilon": 1e-3,
            "f": f,
            "fault_plan": fault_plan,
            "stop_mode": "output",
            "max_rounds": 200,
            "seed": seed,
        }

    return build


def _mixed_crashes(n: int) -> FaultPlan:
    # Two nodes crash together in round 2, one mid-broadcast in round 3
    # (its last message reaches two receivers), one dead on arrival.
    return FaultPlan(
        n,
        crashes={
            5: CrashEvent(5, 2),
            6: CrashEvent(6, 2),
            7: partial_crash(7, 3, (0, 2)),
            8: CrashEvent(8, 0),
        },
    )


def _silent_round_crash(n: int) -> FaultPlan:
    # Under a window-4 adversary rounds 5 and 9 deliver nothing: one
    # node crashes mid-broadcast on round 5, another cleanly on round 9.
    return FaultPlan(
        n, crashes={7: partial_crash(7, 5, (0, 2)), 8: CrashEvent(8, 9)}
    )


CONFIGS: dict[str, Callable[[int], dict[str, Any]]] = {
    **{
        f"dac-{selector}-w{window}": _family(
            "dac", n=9, f=2, selector=selector, window=window
        )
        for selector in ("rotate", "nearest", "random")
        for window in (1, 2, 4)
    },
    "dac-capped": _family("dac", n=8, f=3, crash_start=0, max_rounds=7),
    **{
        f"dbac-{strategy}": _family("dbac", n=7, f=1, strategy=strategy)
        for strategy in ("extreme", "random", "phase-liar")
    },
    "dbac-random-nearest-w2": _family(
        "dbac", n=7, f=1, strategy="random", selector="nearest", window=2
    ),
    **{
        f"byz-mobile-{mode}": _family("byz", n=7, mode=mode)
        for mode in ("block_min", "block_max", "rotate", "none")
    },
    "baseline-midpoint": _family("baseline", n=7, selector="random"),
    "baseline-midpoint-w3": _family("baseline", n=9, window=3),
    "baseline-trimmed-w2": _family("baseline", n=7, f=1, algorithm="trimmed", window=2),
    "averaging-mean": _family("averaging", n=7, selector="nearest"),
    "averaging-midpoint-w2": _family("averaging", n=7, rule="midpoint", window=2),
    "lookahead": _dac_direct(
        lambda: LookaheadQuorumAdversary(4), FaultPlan.fault_free_plan, 9, 0
    ),
    "mixed-crashes": _dac_direct(lambda: RandomLinkAdversary(0.7), _mixed_crashes, 9, 4),
    # Silent window rounds: an own message that must be delivered (its
    # relay history), a crash on an edge-free round, and Byzantine
    # draws on edge-free rounds.
    "piggyback-lastminute-w3": _dac_direct(
        lambda: LastMinuteQuorumAdversary(3, 4, "nearest"),
        FaultPlan.fault_free_plan, 9, 2, PiggybackDACProcess,
    ),
    "dac-nearest-w4-silent-crash": _dac_direct(
        lambda: LastMinuteQuorumAdversary(4, 4, "nearest"), _silent_round_crash, 9, 2
    ),
    "dbac-random-w4": _family("dbac", n=7, f=1, strategy="random", window=4),
    # Boundary builds at n=9: fault-free, staggered crashes, a window-2
    # schedule and Byzantine DBAC under the nearest selector.
    "dac-n9f4-fault-free": lambda seed: build_dac_execution(
        n=9, f=4, seed=seed, crash_nodes=0
    ),
    "dac-n9f4-crash": lambda seed: build_dac_execution(n=9, f=4, seed=seed),
    "dac-n9f4-w2": lambda seed: build_dac_execution(n=9, f=4, seed=seed, window=2),
    "dbac-n9f1": lambda seed: build_dbac_execution(n=9, f=1, seed=seed),
}


def _run(kwargs: dict[str, Any], traced: bool) -> tuple[Engine, RunResult]:
    engine = Engine(
        kwargs["processes"],
        kwargs["adversary"],
        kwargs["ports"],
        fault_plan=kwargs["fault_plan"],
        f=kwargs["f"],
        seed=kwargs["seed"],
        record_trace=traced,
    )
    if kwargs["stop_mode"] == "output":
        stop = Engine.all_fault_free_output
    else:
        epsilon = kwargs["epsilon"]
        stop = lambda eng: eng.fault_free_range() <= epsilon  # noqa: E731
    return engine, engine.run(kwargs["max_rounds"], stop_when=stop)


def fingerprint(build: Callable[[int], dict[str, Any]]) -> str:
    """sha256 over the canonical JSON of one config's runs."""
    runs = []
    for seed in SEEDS:
        engine, result = _run(build(seed), traced=False)
        runs.append(
            {
                "rounds": int(result),
                "stopped": result.stopped,
                "state_keys": {
                    node: proc.state_key() for node, proc in engine.processes.items()
                },
                "metrics": dataclasses.asdict(engine.metrics),
            }
        )
    traced, _ = _run(build(SEEDS[0]), traced=True)
    payload = {"runs": runs, "trace": trace_to_dict(traced.trace)}
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


GOLDEN = {
    "averaging-mean": "92453d07911cc43bdc8e4052ef88e9ce8fb698ee02451f1902a9184394d1cd29",
    "averaging-midpoint-w2": "6be1722c62c9c3f652649b1efeaf9af7f5906a7e433257b60d020506b1d0dcbb",
    "baseline-midpoint": "0b1a0f33d9b8150c20b077eabaae481ce54db2995888e58333d2100a7b1228e0",
    "baseline-midpoint-w3": "e9d37afc9e65aa463482d58c242c1048497b069298da625c66b17e5bccb40f71",
    "baseline-trimmed-w2": "714a942365b0459f9d34df8851a14edfef08065a21c499370c37ee04f4361c6a",
    "byz-mobile-block_max": "8930073535e4ef3e202e93f2193c2cd62ae7fe5c83d3bf442ddd999dbe734018",
    "byz-mobile-block_min": "2f2e00270db3c71108df2a7357c13d21d7914d77a8c84b2bac8e9d49bf2f430b",
    "byz-mobile-none": "fb80f6d197294d4a19c00647f3fe947af72e49ae78631b4a859b2c96e8de5a1c",
    "byz-mobile-rotate": "b90e4c6b1b6bdd4c8051fdae96c2b96638c949201bdec047a42f953f7aa8dc5b",
    "dac-capped": "23796d205df4dd7501c12946703f1f7f0527684ec26e337a53f004601200e13f",
    "dac-n9f4-crash": "268eebe8c2d5c046d699f3374a744bbfa7d6e0a137fa1d6a402dad39ffd87a2b",
    "dac-n9f4-fault-free": "09d239e891d9ebed0bd27024ef77d98655477c7bc94d372c21970cedf4a3f76f",
    "dac-n9f4-w2": "5f15560313690dbc2f7d9e46a6801b53247412ff7b1f54ca93092bb41c5f2c86",
    "dac-nearest-w1": "bbcc4cc5f8bffcb2a5c538974129386bc21b39e535940d14e01863f0516224f5",
    "dac-nearest-w2": "c6c22c598b767699e1adee8168453266f69a6757f27653ad1c8e4bf19abaa6d6",
    "dac-nearest-w4": "7491b9e6464d86450f2fdbc48047b91ccdfbabd729401248d33c1240d085ade6",
    "dac-nearest-w4-silent-crash": "a184a335785abd1b1294e86f981a2baca05c3bca1b8e9b58243fb4bdf22bd5a9",
    "dac-random-w1": "a72097e6a69c5f274cf03fe995bcb3c5e11fc7ae77410e9e87f881d8d4262d50",
    "dac-random-w2": "f3efc3a9d1ad09366691c1732460ef19ce7f3f5558aa947c8202481b8d46b20d",
    "dac-random-w4": "a5b3e5d69a98ad2b11909eee447318bdfb82eaacf8e694e755014302eeefa0e3",
    "dac-rotate-w1": "8bd29b6137f50fec95e0f9047f24f178fe501547787718d4c2ab740026c2ee47",
    "dac-rotate-w2": "afd348508cdae3a1c6c2152e54255881660f87417a9c6f6f5ddfcf591de46729",
    "dac-rotate-w4": "e5521ce65f7cb1546e761c8291c981e899c81d69f7549791743c6b03ede9f1f7",
    "dbac-extreme": "874cebe8c97ea45f62726d87460c1d334d958c1dee6bd67f248ce7c8e4304e4c",
    "dbac-n9f1": "148e21bf9c989fb467d7a36020b0e04865fd0c5d964bf917603014c4ef8ba37d",
    "dbac-phase-liar": "2b3080d2ea3fdc5410ca28bf0dd4923cdb02f1df6b8f07554a0b4f8ce1d64e75",
    "dbac-random": "700c810e11cc55f8ee011489f085a663eaef7e4c334ef1ae9161063e320753d3",
    "dbac-random-nearest-w2": "8656b222e2896e22cd4c382803eaec3e1ed4b426b2a2a719ffb9a992401247ea",
    "dbac-random-w4": "9edb0f5f659034d62aa5f6a78d16558000ac69075d7655558305aacf0e7f313c",
    "lookahead": "056ab85a5f43b74ab592ec79d6c3d3e357c2bddd22be252e1b0e34cb75fcd8b1",
    "mixed-crashes": "8505186c7f6dff6204c1b99c4ed23d73d8bcf19b2058663cb63b71af6f4d485a",
    "piggyback-lastminute-w3": "71474c2e8584f8ad744be29e1314d13109ab7973f6eaad4e2185d01c2222dab9",
}


def test_grid_is_pinned():
    assert sorted(GOLDEN) == sorted(CONFIGS)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_fingerprint(name):
    assert fingerprint(CONFIGS[name]) == GOLDEN[name]


if __name__ == "__main__":
    for name in sorted(CONFIGS):
        print(f'    "{name}": "{fingerprint(CONFIGS[name])}",')
