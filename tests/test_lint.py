"""The lint framework against its fixture corpus and the real tree.

Three layers of guarantees:

1. every shipped rule fires on its known-bad corpus snippet and stays
   silent on the known-good twin (``tests/lint_corpus/``);
2. the suppression mechanism works end to end: reasons are mandatory,
   unknown ids and stale suppressions are findings themselves, and a
   valid suppression actually silences the rule it names;
3. the real ``src/`` tree lints clean with the full rule set -- the
   same gate CI enforces -- and the CLI/JSON surfaces behave.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint import DEFAULT_CONFIG, all_rules, lint_source, run_lint
from repro.lint.engine import module_name_for, select_rules
from repro.lint.report import render_json

REPO = Path(__file__).resolve().parent.parent
CORPUS = Path(__file__).resolve().parent / "lint_corpus"

CHECKER_RULES = [r.id for r in all_rules() if not r.is_meta]


def lint_with(source: str, rule_id: str, path: str = "<corpus>") -> list:
    """Run exactly one rule over ``source`` (suppressions still apply)."""
    rules, _ = select_rules(select=[rule_id])
    return lint_source(source, path=path, rules=rules, restricted=True)


def corpus(rule_id: str, kind: str) -> str:
    path = CORPUS / f"{rule_id.replace('-', '_')}_{kind}.py"
    assert path.is_file(), f"missing corpus file for {rule_id}: {path.name}"
    return path.read_text()


@pytest.mark.parametrize("rule_id", CHECKER_RULES)
def test_rule_fires_on_known_bad(rule_id):
    findings = lint_with(corpus(rule_id, "bad"), rule_id)
    assert findings, f"{rule_id} stayed silent on its known-bad snippet"
    assert {f.rule_id for f in findings} == {rule_id}


@pytest.mark.parametrize("rule_id", CHECKER_RULES)
def test_rule_silent_on_known_good(rule_id):
    findings = lint_with(corpus(rule_id, "good"), rule_id)
    assert findings == [], (
        f"{rule_id} fired on its known-good twin: "
        + "; ".join(f"{f.line}: {f.message}" for f in findings)
    )


def test_known_bad_finding_counts():
    """Each bad file trips its rule at every seeded violation site."""
    expected = {
        "set-iteration": 4,
        "unseeded-random": 4,
        "id-ordering": 4,  # the id()<id() compare flags both operands
        "time-env": 4,
        "topology-mutation": 4,
        "plan-mutation": 5,
        "layering": 2,
        "numpy-guard": 1,
        "kernel-lazy": 3,
        "hot-import": 1,
        "observer-readonly": 6,
        "worker-closure": 3,  # incl. the pool= dispatch site
        "arena-readonly": 4,
        "registry-registration": 4,  # 2 computed literals + 2 buried calls
        "service-readonly": 4,  # 3 module-level + 1 function-local import
    }
    counts = {
        rule_id: len(lint_with(corpus(rule_id, "bad"), rule_id))
        for rule_id in CHECKER_RULES
    }
    assert counts == expected


def test_numpy_guard_keeps_the_table_memo_lazy():
    """repro.sim.arena may import numpy only inside a function: a
    module-level import fails even behind the ImportError guard that
    the batch kernel itself uses."""
    bad = lint_with(corpus("numpy-guard", "lazy_bad"), "numpy-guard")
    assert [(f.rule_id, f.line) for f in bad] == [("numpy-guard", 5)]
    assert lint_with(corpus("numpy-guard", "lazy_good"), "numpy-guard") == []


# -- suppressions ----------------------------------------------------------


def test_suppression_silences_the_named_rule():
    source = (
        "# lint-corpus-module: repro.core.widget\n"
        "def f(items):\n"
        "    # lint: ignore[set-iteration] — order provably irrelevant here\n"
        "    return [x for x in set(items)]\n"
    )
    assert lint_with(source, "set-iteration") == []


def test_trailing_suppression_and_other_lines_still_checked():
    source = (
        "# lint-corpus-module: repro.core.widget\n"
        "def f(items):\n"
        "    a = [x for x in set(items)]  # lint: ignore[set-iteration] — canonicalized below\n"
        "    b = [x for x in set(items)]\n"
        "    return a, b\n"
    )
    findings = lint_with(source, "set-iteration")
    assert [f.line for f in findings] == [4]


def test_suppression_without_reason_is_a_finding():
    source = "x = 1  # lint: ignore[set-iteration]\n"
    findings = lint_source(source, module="repro.core.widget")
    assert any(f.rule_id == "bad-suppression" for f in findings)


def test_suppression_with_unknown_rule_is_a_finding():
    source = "x = 1  # lint: ignore[no-such-rule] — whatever\n"
    findings = lint_source(source, module="repro.core.widget")
    assert any(
        f.rule_id == "bad-suppression" and "no-such-rule" in f.message
        for f in findings
    )


def test_unused_suppression_is_a_finding_on_full_runs():
    source = "x = 1  # lint: ignore[set-iteration] — nothing here fires\n"
    findings = lint_source(source, module="repro.core.widget")
    assert [f.rule_id for f in findings] == ["unused-suppression"]


def test_unused_suppression_not_reported_on_restricted_runs():
    source = "x = 1  # lint: ignore[set-iteration] — nothing here fires\n"
    assert lint_with(source, "layering") == []


def test_syntax_error_is_reported_not_raised():
    findings = lint_source("def broken(:\n", module="repro.core.widget")
    assert [f.rule_id for f in findings] == ["syntax-error"]


# -- the real tree ---------------------------------------------------------


def test_src_tree_is_clean():
    """The CI gate, inside tier-1: full rule set over src/, zero findings."""
    result = run_lint([REPO / "src"])
    assert result.files_checked > 60
    assert result.findings == [], "\n".join(
        f"{f.path}:{f.line}: [{f.rule_id}] {f.message}" for f in result.findings
    )


def test_every_src_suppression_carries_a_reason():
    from repro.lint.suppress import scan

    for path in sorted((REPO / "src").rglob("*.py")):
        suppressions, errors = scan(path.read_text())
        assert errors == [], f"{path}: {errors}"
        for supp in suppressions:
            assert supp.reason, f"{path}:{supp.line} has a reasonless suppression"


def test_module_name_mapping():
    assert module_name_for(REPO / "src/repro/sim/engine.py") == "repro.sim.engine"
    assert module_name_for(REPO / "src/repro/__init__.py") == "repro"
    assert module_name_for(REPO / "tools/check_docs.py") == "check_docs"


def test_layering_flags_unassigned_modules():
    findings = lint_source("x = 1\n", module="repro.mystery.widget")
    assert any(
        f.rule_id == "layering" and "not assigned" in f.message for f in findings
    )


# -- registry / reporting / CLI -------------------------------------------


def test_registry_ids_are_kebab_case_and_documented():
    for entry in all_rules():
        assert entry.id == entry.id.lower()
        assert entry.summary and entry.invariant


def test_config_layers_cover_every_src_module():
    from repro.lint.rules.imports import _layer_of

    for path in sorted((REPO / "src").rglob("*.py")):
        module = module_name_for(path)
        assert _layer_of(module, DEFAULT_CONFIG) is not None, module


def test_json_report_schema():
    result = run_lint([REPO / "src" / "repro" / "net"])
    payload = json.loads(render_json(result))
    assert payload["version"] == 1
    assert payload["ok"] is True
    assert payload["files_checked"] == len(
        list((REPO / "src" / "repro" / "net").rglob("*.py"))
    )
    assert payload["findings"] == []
    assert "layering" in payload["rules_run"]


def _run_cli(*args: str, cwd: Path = REPO) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "repro.lint", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(REPO / "src")},
    )


def test_cli_clean_run_exits_zero(tmp_path):
    out_file = tmp_path / "report.json"
    proc = _run_cli("--format", "json", "--out", str(out_file), "src")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "repro.lint: OK" in proc.stdout
    payload = json.loads(out_file.read_text())
    assert payload["ok"] is True


def test_cli_findings_exit_one(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(corpus("set-iteration", "bad"))
    proc = _run_cli(str(bad))
    assert proc.returncode == 1
    assert "[set-iteration]" in proc.stdout


def test_cli_unknown_rule_exits_two():
    proc = _run_cli("--select", "no-such-rule", "src")
    assert proc.returncode == 2
    assert "unknown rule id" in proc.stderr


def test_cli_missing_path_exits_two():
    proc = _run_cli("definitely/not/here")
    assert proc.returncode == 2


def test_cli_list_rules():
    proc = _run_cli("--list-rules")
    assert proc.returncode == 0
    for entry in all_rules():
        assert entry.id in proc.stdout
