"""CLI output is byte-identical to the committed transcripts.

Every command of ``tools/regen_goldens.py``'s ``GOLDENS`` runs as a
subprocess and its masked transcript must equal
``tests/golden/<name>.txt``. An intended output change regenerates the
goldens (``python tools/regen_goldens.py``) in the same diff.

One golden serves both numpy legs: the S3/S4 mask covers the
``backend=`` token (``numpy`` with numpy, ``python fallback`` without),
and every other line is the same on both legs.
"""

import importlib.util
import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


def _load_regen():
    path = REPO_ROOT / "tools" / "regen_goldens.py"
    spec = importlib.util.spec_from_file_location("regen_goldens", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


regen = _load_regen()


@pytest.mark.parametrize("golden", regen.GOLDENS, ids=lambda golden: golden.name)
def test_cli_output_matches_golden(golden):
    expected = regen.golden_path(golden).read_text()
    assert regen.transcript(golden) == expected, (
        f"{golden.name}: CLI output changed; if intended, run "
        f"`python tools/regen_goldens.py {golden.name}` and say why in CHANGES.md"
    )


def test_every_golden_file_is_declared():
    declared = {regen.golden_path(golden).name for golden in regen.GOLDENS}
    on_disk = {path.name for path in regen.GOLDEN_DIR.glob("*.txt")}
    assert on_disk == declared


def test_masks_hide_timing_and_backend_only():
    sweep = "  6 trials in 0.17s (36.3 trials/s, workers=1, batch=8)\n"
    bench = (
        "== S3: Batched executor (boundary DAC, batch=4, backend=python fallback) [PASS] ==\n"
        "9   8       526.3            993.1             1.887    yes\n"
        "  (0.15s)\n"
    )
    masks = {golden.name: golden.mask for golden in regen.GOLDENS}
    assert re.sub(masks["cli-sweep-dac"], "<m>", sweep) == (
        "  6 trials <m>, workers=1, batch=8)\n"
    )
    assert re.sub(masks["bench-S3-S4"], "<m>", bench, flags=re.MULTILINE) == (
        "== S3: Batched executor (boundary DAC, batch=4, <m>) [PASS] ==\n"
        "9   8       <m>yes\n"
        "<m>\n"
    )
