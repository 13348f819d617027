#!/usr/bin/env python
"""Committed CLI transcripts: the command list, the masks, the rewrite.

Each entry of :data:`GOLDENS` names one CLI invocation and the one
regular expression that masks its run-dependent text (timing figures,
and S3/S4's ``backend=`` token, which reads ``numpy`` or ``python
fallback`` by numpy leg). A transcript is the command line, its
stdout with every match of the mask replaced by ``<masked>``, and its
exit status; ``tests/golden/<name>.txt`` holds one per entry, and
``tests/test_cli_goldens.py`` re-runs every command and compares.

Usage: python tools/regen_goldens.py [NAME ...]

With no arguments it rewrites every golden. Run it only for a change
meant to alter CLI output, and say why in CHANGES.md: the diff of the
goldens is the evidence of what changed.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

REPO_ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = REPO_ROOT / "tests" / "golden"
MASK = "<masked>"

# The sweep's trailing throughput line: "6 trials in 0.17s (36.3 trials/s, ...".
_SWEEP_TIMING = r"in \d+\.\d+s \(\d+(?:\.\d+)? trials/s"
# A bench experiment's wall-time line: "  (0.15s)".
_BENCH_ELAPSED = r"^  \(\d+\.\d+s\)$"
# S3/S4: the leg-dependent backend, each row's three timing columns up to
# the "identical" cell (their padding varies with the figures), and the
# per-experiment wall time.
_BENCH_TIMING = (
    r"backend=[^,)]+|(?<=\s)\S+\s+\S+\s+\S+\s+(?=(?:yes|no)$)|" + _BENCH_ELAPSED
)

_SPECS = (
    "algorithm: dac@1(n=5); rounds: 400",
    "algorithm: dbac@1(n=6); rounds: 2000",
    "algorithm: byz@1(n=5); rounds: 2000",
    "algorithm: baseline@1(n=6); rounds: 12",
    "algorithm: averaging@1(n=5); rounds: 8",
)


class Golden(NamedTuple):
    """One committed transcript: file stem, ``python -m`` argv, mask."""

    name: str
    argv: tuple[str, ...]
    mask: str | None = None


GOLDENS: tuple[Golden, ...] = (
    *(
        Golden(f"cli-{command}", ("repro.cli", command, "-v"))
        for command in ("dac", "dbac", "theorem9", "theorem10")
    ),
    Golden("cli-figure1", ("repro.cli", "figure1")),
    *(
        Golden(f"cli-spec-{spec.split('@')[0].split()[-1]}", ("repro.cli", "spec", spec))
        for spec in _SPECS
    ),
    Golden(
        "cli-sweep-dac",
        ("repro.cli", "sweep", "--family", "dac", "--n", "9", "17",
         "--selector", "nearest", "--batch", "8"),
        _SWEEP_TIMING,
    ),
    Golden(
        "cli-sweep-dbac",
        ("repro.cli", "sweep", "--family", "dbac", "--n", "11", "16",
         "--strategy", "random", "--batch", "8"),
        _SWEEP_TIMING,
    ),
    Golden(
        "cli-sweep-spec-dbac",
        ("repro.cli", "sweep", "--spec", "algorithm: dbac@1(n=11)", "--n", "11", "16",
         "--batch", "8"),
        _SWEEP_TIMING,
    ),
    Golden(
        "cli-sweep-spec-averaging",
        ("repro.cli", "sweep", "--spec", "algorithm: averaging@1(n=6); rounds: 40"),
        _SWEEP_TIMING,
    ),
    Golden(
        "cli-sweep-byz",
        ("repro.cli", "sweep", "--family", "byz", "--n", "5", "9", "--batch", "8"),
        _SWEEP_TIMING,
    ),
    Golden(
        "cli-sweep-dac-workers",
        ("repro.cli", "sweep", "--family", "dac", "--n", "9", "17",
         "--workers", "2", "--batch", "4"),
        _SWEEP_TIMING,
    ),
    Golden(
        "cli-sweep-spec-averaging-batch",
        ("repro.cli", "sweep", "--spec", "algorithm: averaging@1(n=6); rounds: 40",
         "--batch", "4"),
        _SWEEP_TIMING,
    ),
    Golden(
        "cli-sweep-dac-workers-unbatched",
        ("repro.cli", "sweep", "--family", "dac", "--n", "9", "17", "--workers", "2"),
        _SWEEP_TIMING,
    ),
    Golden(
        "cli-sweep-baseline",
        ("repro.cli", "sweep", "--family", "baseline", "--n", "6", "9", "--batch", "4"),
        _SWEEP_TIMING,
    ),
    Golden(
        "cli-sweep-spec-byz-mobile",
        ("repro.cli", "sweep", "--spec",
         "algorithm: byz@1(n=5); adversary: mobile@1(mode=rotate)", "--batch", "4"),
        _SWEEP_TIMING,
    ),
    *(
        Golden(
            f"cli-sweep-spec-byz-{mode.replace('_', '-')}",
            ("repro.cli", "sweep", "--spec",
             f'algorithm: byz@1(n=5); adversary: mobile@1(mode="{mode}")', "--batch", "4"),
            _SWEEP_TIMING,
        )
        for mode in ("block_min", "block_max", "none")
    ),
    Golden("bench-S2", ("repro.bench.cli", "-e", "S2"), f"{_SWEEP_TIMING}|{_BENCH_ELAPSED}"),
    Golden("bench-S3-S4", ("repro.bench.cli", "-e", "S3", "-e", "S4", "--batch", "4"),
           _BENCH_TIMING),
    Golden(
        "bench-E1-E5-X3-X4-X7",
        ("repro.bench.cli",
         *(arg for exp in ("E1", "E2", "E3", "E4", "E5", "X3", "X4", "X7") for arg in ("-e", exp))),
        _BENCH_ELAPSED,
    ),
)


def _env() -> dict[str, str]:
    """The caller's environment with ``src`` put first on ``PYTHONPATH``.

    Entries already on the path stay after it, so a stub directory that
    shadows numpy (the no-numpy leg) still reaches the child.
    """
    env = dict(os.environ)
    paths = [str(REPO_ROOT / "src"), *filter(None, env.get("PYTHONPATH", "").split(os.pathsep))]
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def transcript(golden: Golden) -> str:
    """Run ``golden``'s command; its masked transcript."""
    done = subprocess.run(
        [sys.executable, "-m", *golden.argv],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env=_env(),
        timeout=120,
    )
    out = done.stdout
    if golden.mask is not None:
        out = re.sub(golden.mask, MASK, out, flags=re.MULTILINE)
    command = " ".join(repr(arg) if " " in arg else arg for arg in golden.argv)
    return f"$ python -m {command}\n{out}[exit {done.returncode}]\n"


def golden_path(golden: Golden) -> Path:
    return GOLDEN_DIR / f"{golden.name}.txt"


def main(names: list[str]) -> int:
    known = {golden.name: golden for golden in GOLDENS}
    unknown = sorted(set(names) - known.keys())
    if unknown:
        print(f"unknown golden(s) {unknown}; known: {sorted(known)}", file=sys.stderr)
        return 2
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for name in names or known:
        path = golden_path(known[name])
        text = transcript(known[name])
        changed = not path.exists() or path.read_text() != text
        path.write_text(text)
        print(f"{path.relative_to(REPO_ROOT)}: {'rewritten' if changed else 'unchanged'}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
