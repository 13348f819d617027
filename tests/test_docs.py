"""Docs hygiene inside tier-1: dead links and doctest-checked examples.

CI runs the same two checks as standalone steps
(``tools/check_docs.py`` and ``tools/run_doctests.py``); running them here
too means an ordinary ``pytest`` catches a dead link or a drifted
docstring example without any CI round-trip.
"""

import doctest
import importlib.util
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


def _load_tool(name):
    spec = importlib.util.spec_from_file_location(name, REPO_ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# The one list of doctest-checked modules, shared with CI's
# ``tools/run_doctests.py`` (its no-argument default).
DOCTEST_MODULES = _load_tool("run_doctests").DOCTEST_MODULES


def _load_checker():
    return _load_tool("check_docs")


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


def test_src_cites_no_missing_doc():
    assert _load_checker().dead_citations(REPO_ROOT) == []


def test_docs_checker_flags_a_dead_citation_in_src(tmp_path, capsys):
    checker = _load_checker()
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "here.md").write_text("hello")
    (tmp_path / "ROADMAP.md").write_text("hello")
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "a.py").write_text(
        '"""See ROADMAP.md and docs/here.md.\n\n'
        "A note in DESIGN.md, and docs/gone.md#section.\n\n"
        '``python -m repro.bench.cli --markdown results.md`` writes a file."""\n'
    )
    assert checker.dead_citations(tmp_path) == [
        "src/repro/a.py:3: DESIGN.md",
        "src/repro/a.py:3: docs/gone.md",
    ]
    assert checker.main([str(tmp_path)]) == 1
    assert "dead citation: src/repro/a.py:3: DESIGN.md" in capsys.readouterr().out


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


def test_docs_checker_flags_unresolved_names(tmp_path, capsys):
    checker = _load_checker()
    docs = tmp_path / "docs"
    docs.mkdir()
    (docs / "a.md").write_text(
        "`repro.sim.batch.run_lanes` and ``repro.workloads.LaneFamily`` resolve,\n"
        "as does `python -m repro.cli`; `repro.sim.batch.run_bogus_batch` does\n"
        "not, nor a wrapped `x =\nrepro.no_such_module`.\n"
        "```python\nrepro.sim.batch.run_lanes(family, seeds)  # fenced, resolves\n```\n"
        "`repro.__main__` is found without being imported; `repro_arena_*` is no name.\n"
    )
    skill = tmp_path / ".claude" / "skills" / "verify"
    skill.mkdir(parents=True)
    (skill / "SKILL.md").write_text("`repro.sim.nowhere.thing`")
    assert checker.unresolved_names(tmp_path) == [
        "docs/a.md:2: repro.sim.batch.run_bogus_batch",
        "docs/a.md:4: repro.no_such_module",
        ".claude/skills/verify/SKILL.md:1: repro.sim.nowhere.thing",
    ]
    assert checker.main([str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "unresolved name: docs/a.md:2: repro.sim.batch.run_bogus_batch" in out


def test_docs_checker_flags_stale_names_in_fenced_blocks(tmp_path):
    checker = _load_checker()
    docs = tmp_path / "docs"
    docs.mkdir()
    (docs / "a.md").write_text(
        "Prose: repro.gone.name outside a span or fence is not checked.\n"
        "```python\n"
        "trial = repro.scenario.family_trial(\"dac\")\n"
        "fn, base = repro.scenario.resolve_trial(spec)  # deleted\n"
        "```\n"
        "```\n"
        "PYTHONPATH=src python -m repro.cli sweep  # modules resolve too\n"
        "python -c \"import repro; repro.sim.batch.kernel_gone\"\n"
        "```\n"
    )
    assert checker.unresolved_names(tmp_path) == [
        "docs/a.md:4: repro.scenario.resolve_trial",
        "docs/a.md:8: repro.sim.batch.kernel_gone",
    ]


def test_docs_checker_flags_stale_imports_in_fences_and_spans(tmp_path, capsys):
    checker = _load_checker()
    docs = tmp_path / "docs"
    docs.mkdir()
    (docs / "a.md").write_text(
        "```python\n"
        "from repro.sim.batch import run_lanes, run_dac_batch as old  # one stale\n"
        "from repro.workloads import (\n    LaneFamily,\n    build_gone,\n)\n"
        "from repro.sim.batch import *\n"
        "```\n"
        "`python -c \"from repro.gone import x; from repro.scenario import family_trial\"`\n"
        "putting back `from repro.sim.batch import ...` is a placeholder\n"
    )
    assert checker.unresolved_imports(tmp_path) == [
        "docs/a.md:2: repro.sim.batch.run_dac_batch",
        "docs/a.md:3: repro.workloads.build_gone",
        "docs/a.md:9: repro.gone.x",
    ]
    assert checker.main([str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "unresolved import: docs/a.md:2: repro.sim.batch.run_dac_batch" in out


def test_docs_import_only_resolvable_repro_names():
    checker = _load_checker()
    assert checker.unresolved_imports(REPO_ROOT) == []


def test_docs_name_only_resolvable_repro_names():
    checker = _load_checker()
    assert checker.unresolved_names(REPO_ROOT) == []


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
