#!/usr/bin/env python3
"""Docs hygiene checker: dead markdown links under docs/ (and the repo
root), exit non-zero on any miss.

Checks every ``[text](target)`` link in ``docs/*.md`` and the top-level
``*.md`` files:

- external targets (``http://``, ``https://``, ``mailto:``) are left
  alone (CI must not depend on the network);
- pure-anchor targets (``#section``) are left alone;
- everything else is treated as a path relative to the linking file's
  directory (any ``#fragment`` stripped) and must exist.

Also verifies rule-id parity between the ``repro.lint`` registry and
``docs/static-analysis.md`` in both directions: every registered rule
must have a ``### `rule-id` `` section on the docs page, and every
such section must name a registered rule -- so the rule set and its
documentation cannot drift apart.

Finally, every ``python -m repro.<module>`` command in ``docs/*.md``
and ``.claude/skills/verify/SKILL.md`` must name a module that
``importlib.util.find_spec`` finds under ``src/`` -- so a deleted or
renamed entry point cannot linger in a recipe. In the same files,
every ``--flag`` aimed at a ``python -m repro.cli <subcommand>`` must
be defined by that subcommand's argparse parser -- so a deleted flag
cannot linger either. A flag is aimed at a subcommand when it follows
the command on its line, sits in the ``#`` comment lines directly
above the command in a fenced block, or shares a line with an inline
``<subcommand> --...`` code span.

Used two ways: CI runs it as a standalone step, and
``tests/test_docs.py`` runs it inside tier-1 so a dead link fails the
ordinary test suite too.

Usage::

    python tools/check_docs.py [repo_root]
"""

from __future__ import annotations

import argparse
import importlib.util
import re
import sys
from pathlib import Path

# [text](target) with no nested parens in the target; images (![..])
# resolve the same way, so the optional leading ! needs no special case.
_LINK = re.compile(r"\[[^\]]*\]\(([^()\s]+)\)")

_EXTERNAL = ("http://", "https://", "mailto:")


def doc_files(root: Path) -> list[Path]:
    """The markdown set under check: docs/*.md plus top-level *.md."""
    files = sorted((root / "docs").glob("*.md")) if (root / "docs").is_dir() else []
    files += sorted(root.glob("*.md"))
    return files


def dead_links(root: Path) -> list[str]:
    """All dead relative links, as ``file: target`` strings."""
    problems: list[str] = []
    for path in doc_files(root):
        text = path.read_text()
        for match in _LINK.finditer(text):
            target = match.group(1)
            if target.startswith(_EXTERNAL) or target.startswith("#"):
                continue
            relative = target.split("#", 1)[0]
            if not relative:
                continue
            resolved = (path.parent / relative).resolve()
            if not resolved.exists():
                problems.append(f"{path.relative_to(root)}: {target}")
    return problems


# ### `rule-id` section headings on the static-analysis page.
_RULE_HEADING = re.compile(r"^### `([a-z][a-z0-9-]*)`\s*$", re.MULTILINE)


def lint_rule_parity(root: Path) -> list[str]:
    """Registry vs docs/static-analysis.md rule-id drift, both ways."""
    page = root / "docs" / "static-analysis.md"
    if not page.is_file():
        return [f"missing docs page: {page.relative_to(root)}"]
    sys.path.insert(0, str(root / "src"))
    try:
        from repro.lint.registry import known_ids
    finally:
        sys.path.pop(0)
    registered = known_ids()
    documented = set(_RULE_HEADING.findall(page.read_text()))
    problems = [
        f"rule {rule_id!r} is registered but has no section in {page.name}"
        for rule_id in sorted(registered - documented)
    ]
    problems += [
        f"{page.name} documents {rule_id!r}, which is not a registered rule"
        for rule_id in sorted(documented - registered)
    ]
    return problems


# `python -m repro.x.y` / `python3 -m repro.x.y`, possibly wrapped
# across a line break.
_MODULE_COMMAND = re.compile(r"\bpython3?\s+-m\s+(repro(?:\.[A-Za-z_]\w*)*)")


def command_files(root: Path) -> list[Path]:
    """The recipes whose ``python -m`` commands must resolve."""
    files = sorted((root / "docs").glob("*.md")) if (root / "docs").is_dir() else []
    skill = root / ".claude" / "skills" / "verify" / "SKILL.md"
    return files + ([skill] if skill.is_file() else [])


def _module_exists(name: str) -> bool:
    try:
        return importlib.util.find_spec(name) is not None
    except ImportError:  # a missing parent package
        return False


def missing_modules(root: Path) -> list[str]:
    """``python -m`` targets that do not resolve, as ``file: module``."""
    problems: list[str] = []
    sys.path.insert(0, str(root / "src"))
    try:
        for path in command_files(root):
            names = dict.fromkeys(_MODULE_COMMAND.findall(path.read_text()))
            problems += [
                f"{path.relative_to(root)}: {name}"
                for name in names
                if not _module_exists(name)
            ]
    finally:
        sys.path.pop(0)
    return problems


_CLI_COMMAND = re.compile(r"\bpython3?\s+-m\s+repro\.cli\s+([a-z][\w-]*)")
_OTHER_COMMAND = re.compile(r"\bpython3?\s+-m\s+(?!repro\.cli\s)\S+")
_CODE_SPAN_COMMAND = re.compile(r"`([a-z][\w-]*) --")
_FLAG = re.compile(r"(?<![\w-])--[a-z][a-z0-9-]*")
_FENCE = re.compile(r"^\s*```")


def cli_flags(root: Path) -> dict[str, set[str]]:
    """``{subcommand: option strings}`` from ``repro.cli.build_parser``."""
    sys.path.insert(0, str(root / "src"))
    try:
        from repro.cli import build_parser
    finally:
        sys.path.pop(0)
    flags: dict[str, set[str]] = {}
    for action in build_parser()._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, parser in action.choices.items():
                flags[name] = {
                    option
                    for sub_action in parser._actions
                    for option in sub_action.option_strings
                }
    return flags


def _aimed_flags(line: str, subcommands: set[str]) -> list[tuple[str, str]]:
    """``(subcommand, flag)`` pairs aimed at a repro.cli subcommand on one line.

    The line is cut at every ``python -m`` command and every inline
    code span opening with ``<subcommand> --``; the flags of a piece
    count against the subcommand that opens it (none for another
    module's command, nor for text before the first cut).
    """
    cuts = {m.start(): None for m in _OTHER_COMMAND.finditer(line)}
    cuts.update((m.start(), m.group(1)) for m in _CLI_COMMAND.finditer(line))
    cuts.update(
        (m.start(), m.group(1))
        for m in _CODE_SPAN_COMMAND.finditer(line)
        if m.group(1) in subcommands
    )
    starts = sorted(cuts) + [len(line)]
    return [
        (cuts[start], flag)
        for start, stop in zip(starts, starts[1:])
        if cuts[start] is not None
        for flag in _FLAG.findall(line, start, stop)
    ]


def unknown_cli_flags(root: Path) -> list[str]:
    """``--flags`` that no repro.cli subcommand parser defines, as
    ``file:line: subcommand --flag`` strings."""
    flags = cli_flags(root)
    problems: list[str] = []
    for path in command_files(root):
        fenced = False
        comments: list[tuple[int, str]] = []
        for number, line in enumerate(path.read_text().splitlines(), 1):
            if _FENCE.match(line):
                fenced, comments = not fenced, []
                continue
            if fenced and line.lstrip().startswith("#"):
                comments.append((number, line))
                continue
            aimed = [(number, pair) for pair in _aimed_flags(line, set(flags))]
            command = _CLI_COMMAND.search(line) if fenced else None
            if command:
                aimed += [
                    (at, (command.group(1), flag))
                    for at, comment in comments
                    for flag in _FLAG.findall(comment)
                ]
            comments = []
            for at, (name, flag) in sorted(aimed):
                if flag not in flags.get(name, ()):
                    problems.append(f"{path.relative_to(root)}:{at}: {name} {flag}")
    return problems


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    root = Path(argv[0]).resolve() if argv else Path(__file__).resolve().parent.parent
    files = doc_files(root)
    problems = dead_links(root)
    for problem in problems:
        print(f"dead link: {problem}")
    parity = lint_rule_parity(root)
    for problem in parity:
        print(f"rule parity: {problem}")
    problems += parity
    modules = missing_modules(root)
    for problem in modules:
        print(f"missing module: {problem}")
    problems += modules
    cli = unknown_cli_flags(root)
    for problem in cli:
        print(f"unknown cli flag: {problem}")
    problems += cli
    print(f"checked {len(files)} markdown files: "
          f"{'FAIL' if problems else 'OK'} ({len(problems)} problems)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
