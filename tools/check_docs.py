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

Every fully-qualified ``repro.…`` name inside an inline code span or a
fenced block of those same files must resolve: the longest importable
module prefix is imported and the rest is looked up with ``getattr``
-- so a deleted function, class or module cannot linger in prose or
in a recipe either.

Last, every name a ``from repro.… import …`` statement in those files
imports must resolve the same way, wherever the statement sits: an
inline span, a ``python -c`` string or a fenced block -- so a recipe
cannot import a deleted name.

The code cites docs too: every ``docs/<name>.md``, and every bare
root-level name in capitals (``ROADMAP.md``), named anywhere in a
``src/`` Python file must exist -- so a note cannot point at a deleted
or never-written document. A lowercase bare name such as an output file
(``--markdown results.md``) is not a citation.

Used two ways: CI runs it as a standalone step, and
``tests/test_docs.py`` runs it inside tier-1 so a dead link fails the
ordinary test suite too.

Usage::

    python tools/check_docs.py [repo_root]
"""

from __future__ import annotations

import argparse
import importlib
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


# A doc cited from src/: docs/<name>.md, or a root-level name in capitals.
_CITATION = re.compile(r"(?<![\w./-])(docs/[\w-]+\.md|[A-Z][A-Z0-9_]*\.md)(?![\w-])")


def dead_citations(root: Path) -> list[str]:
    """Docs cited in ``src/`` that do not exist, as ``file:line: name`` strings."""
    problems: list[str] = []
    for path in sorted((root / "src").rglob("*.py")):
        for number, line in enumerate(path.read_text().splitlines(), 1):
            problems += [
                f"{path.relative_to(root)}:{number}: {name}"
                for name in _CITATION.findall(line)
                if not (root / name).is_file()
            ]
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


# A code span opens and closes with backtick runs of one length, inside
# one paragraph.
_CODE_SPAN = re.compile(r"(?<!`)(`+)(?!`)((?:(?!\n\s*\n).)+?)(?<!`)\1(?!`)", re.DOTALL)
_QUALIFIED = re.compile(r"(?<![\w.])repro(?:\.[A-Za-z_]\w*)+")


def _resolves(name: str) -> bool:
    """Whether ``name`` is an importable module, or an attribute chain
    under the longest importable module prefix of it."""
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        module = ".".join(parts[:cut])
        if module.endswith("__main__"):  # importing it would run the program
            return cut == len(parts) and _module_exists(module)
        if not _module_exists(module):
            continue
        target = importlib.import_module(module)
        for attr in parts[cut:]:
            if not hasattr(target, attr):
                return False
            target = getattr(target, attr)
        return True
    return False


def unresolved_names(root: Path) -> list[str]:
    """``repro.…`` names in inline spans or fenced blocks that do not
    resolve, as ``file:line: name`` strings. Inline spans may wrap
    across lines; fenced blocks are not inline spans."""
    problems: list[str] = []
    sys.path.insert(0, str(root / "src"))
    try:
        for path in command_files(root):
            lines, code, fenced = [], [], False
            for line in path.read_text().splitlines():
                marker = bool(_FENCE.match(line))
                fenced ^= marker
                lines.append("" if fenced or marker else line)
                code.append(line if fenced and not marker else "")
            prose, block = "\n".join(lines), "\n".join(code)
            found = [
                (prose.count("\n", 0, span.start(2) + name.start()) + 1, name.group())
                for span in _CODE_SPAN.finditer(prose)
                for name in _QUALIFIED.finditer(span.group(2))
            ]
            found += [
                (block.count("\n", 0, name.start()) + 1, name.group())
                for name in _QUALIFIED.finditer(block)
            ]
            problems += [
                f"{path.relative_to(root)}:{number}: {name}"
                for number, name in sorted(found)
                if not _resolves(name)
            ]
    finally:
        sys.path.pop(0)
    return problems


# `from repro.x import a, b as c` or a parenthesized list, up to the end
# of the statement (a newline, `;`, a quote or a backtick).
_FROM_IMPORT = re.compile(
    r"\bfrom\s+(repro(?:\.[A-Za-z_]\w*)*)\s+import\s+(\([^)]*\)|[^;\n\"'`]*)"
)


def unresolved_imports(root: Path) -> list[str]:
    """Names imported ``from repro.…`` that do not resolve, as
    ``file:line: module.name`` strings, in spans and fenced blocks alike."""
    problems: list[str] = []
    sys.path.insert(0, str(root / "src"))
    try:
        for path in command_files(root):
            text = path.read_text()
            for match in _FROM_IMPORT.finditer(text):
                number = text.count("\n", 0, match.start()) + 1
                for item in match.group(2).strip("()").split(","):
                    name = item.split("#")[0].split()[:1]
                    # `*` and placeholders such as `...` name nothing to resolve.
                    if name and name[0].isidentifier() and not _resolves(
                        f"{match.group(1)}.{name[0]}"
                    ):
                        problems.append(
                            f"{path.relative_to(root)}:{number}: {match.group(1)}.{name[0]}"
                        )
    finally:
        sys.path.pop(0)
    return problems


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    root = Path(argv[0]).resolve() if argv else Path(__file__).resolve().parent.parent
    files = doc_files(root)
    problems = dead_links(root)
    for problem in problems:
        print(f"dead link: {problem}")
    citations = dead_citations(root)
    for problem in citations:
        print(f"dead citation: {problem}")
    problems += citations
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
    names = unresolved_names(root)
    for problem in names:
        print(f"unresolved name: {problem}")
    problems += names
    imports = unresolved_imports(root)
    for problem in imports:
        print(f"unresolved import: {problem}")
    problems += imports
    print(f"checked {len(files)} markdown files: "
          f"{'FAIL' if problems else 'OK'} ({len(problems)} problems)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
