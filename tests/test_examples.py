"""Smoke tests: every example script must run clean (deliverable guard).

Each example runs as a script in a fresh interpreter, exactly as its
``Run:`` line tells a reader to, and must exit 0 with output; a failure
in any example is a release blocker, not a docs nit.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
EXAMPLES_DIR = REPO_ROOT / "examples"
EXAMPLES = sorted(p.name for p in EXAMPLES_DIR.glob("*.py"))


def test_examples_directory_has_the_promised_scripts():
    assert "quickstart.py" in EXAMPLES
    assert len(EXAMPLES) >= 3  # deliverable (b): at least three


@pytest.mark.parametrize("script", EXAMPLES)
def test_example_runs_clean(script):
    # Examples use only the package and the stdlib; PYTHONPATH keeps
    # whatever the suite runs with (the no-numpy stub included).
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / script)],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, f"{script} exited {proc.returncode}:\n{proc.stderr}"
    out = proc.stdout
    assert out.strip(), f"{script} produced no output"
    # No example should print a failure marker.
    assert "Traceback" not in out + proc.stderr
    assert "UNEXPECTED" not in out
