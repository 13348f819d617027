"""Docs hygiene inside tier-1: dead links and doctest-checked examples.

CI runs the same two checks as standalone steps
(``tools/check_docs.py`` and ``python -m doctest``); running them here
too means an ordinary ``pytest`` catches a dead link or a drifted
docstring example without any CI round-trip.
"""

import doctest
import importlib.util
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

# The public-API modules whose docstrings carry executable examples
# (the PR 4 docstring pass): batching, the parallel layer, and the
# picklable trial functions.
DOCTEST_MODULES = ["repro.sim.batch", "repro.sim.parallel", "repro.workloads"]


def _load_checker():
    spec = importlib.util.spec_from_file_location(
        "check_docs", REPO_ROOT / "tools" / "check_docs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_docs_have_no_dead_links():
    checker = _load_checker()
    assert checker.dead_links(REPO_ROOT) == []


def test_docs_checker_covers_the_docs_site():
    checker = _load_checker()
    names = {path.name for path in checker.doc_files(REPO_ROOT)}
    assert {"index.md", "batching.md", "scaling.md", "topology.md"} <= names


def test_docs_checker_flags_a_dead_link(tmp_path):
    checker = _load_checker()
    docs = tmp_path / "docs"
    docs.mkdir()
    (docs / "a.md").write_text(
        "[ok](b.md) [anchored](b.md#sec) [ext](https://example.com) "
        "[self](#here) [broken](missing.md)"
    )
    (docs / "b.md").write_text("hello")
    assert checker.dead_links(tmp_path) == ["docs/a.md: missing.md"]


def test_docs_checker_flags_a_missing_module(tmp_path, capsys):
    checker = _load_checker()
    docs = tmp_path / "docs"
    docs.mkdir()
    (docs / "a.md").write_text(
        "Run `PYTHONPATH=src python -m repro.cli dac -v` or\n"
        "`python3 -m repro.bench.cli -e S1`, not `python -m\n"
        "repro.bench.retired_tool --out x.json` nor `python -m repro.gone`."
    )
    skill = tmp_path / ".claude" / "skills" / "verify"
    skill.mkdir(parents=True)
    (skill / "SKILL.md").write_text("`python -m repro.sim.nowhere`")
    assert checker.missing_modules(tmp_path) == [
        "docs/a.md: repro.bench.retired_tool",
        "docs/a.md: repro.gone",
        ".claude/skills/verify/SKILL.md: repro.sim.nowhere",
    ]
    assert checker.main([str(tmp_path)]) == 1
    assert "missing module: docs/a.md: repro.gone" in capsys.readouterr().out


def test_docs_checker_flags_undefined_cli_flags(tmp_path, capsys):
    checker = _load_checker()
    docs = tmp_path / "docs"
    docs.mkdir()
    (docs / "a.md").write_text(
        "```bash\n"
        "# --pool fresh / --gone-comment opt out\n"
        "python -m repro.cli sweep --n 9 --workers 2 --gone-inline\n"
        "# --gone-unattached: no command follows this comment\n"
        "\n"
        "python -m repro.bench.cli --list --batch 4\n"
        "```\n"
        "Prose: `sweep --pool fresh` / `--gone-prose`, then\n"
        "`python -m repro.cli dac --n 9 -v` and `dbac --strategy extreme`.\n"
        "Not a command: `--anything` -- alone, nor `sweeper --x`.\n"
    )
    skill = tmp_path / ".claude" / "skills" / "verify"
    skill.mkdir(parents=True)
    (skill / "SKILL.md").write_text(
        "`python -m repro.cli spec --out f.json --gone-skill`\n"
        "`python -m repro.cli nosuch --n 1`\n"
    )
    assert checker.unknown_cli_flags(tmp_path) == [
        "docs/a.md:2: sweep --gone-comment",
        "docs/a.md:3: sweep --gone-inline",
        "docs/a.md:8: sweep --gone-prose",
        ".claude/skills/verify/SKILL.md:1: spec --gone-skill",
        ".claude/skills/verify/SKILL.md:2: nosuch --n",
    ]
    assert checker.main([str(tmp_path)]) == 1
    assert "unknown cli flag: docs/a.md:3: sweep --gone-inline" in capsys.readouterr().out


def test_docs_use_only_defined_cli_flags():
    checker = _load_checker()
    assert checker.unknown_cli_flags(REPO_ROOT) == []


def test_docs_name_only_existing_modules():
    checker = _load_checker()
    assert checker.missing_modules(REPO_ROOT) == []


@pytest.mark.parametrize("module_name", DOCTEST_MODULES)
def test_docstring_examples_execute(module_name):
    module = __import__(module_name, fromlist=["_"])
    result = doctest.testmod(module, verbose=False)
    assert result.attempted > 0, f"{module_name} lost its doctest examples"
    assert result.failed == 0


def test_quickstart_commands_reference_real_entry_points():
    # index.md's quickstart names modules and scripts; keep it honest.
    index = (REPO_ROOT / "docs" / "index.md").read_text()
    for entry in ("repro.cli", "repro.bench.cli", "examples/"):
        assert entry in index
    for script in ("quickstart.py", "batched_sweep.py", "batched_dbac_grid.py"):
        assert script in index
        assert (REPO_ROOT / "examples" / script).exists(), script


def test_checker_cli_exits_zero_on_this_repo(capsys):
    checker = _load_checker()
    assert checker.main([str(REPO_ROOT)]) == 0
    out = capsys.readouterr().out
    assert "OK" in out
