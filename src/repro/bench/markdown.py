"""Markdown rendering of experiment results.

``python -m repro.bench.cli --full --markdown results.md`` regenerates
a machine-written record of one run: every experiment's table
as GitHub-flavored markdown, with pass/fail badges and the notes as
footnotes. Useful for CI artifacts and for diffing runs across
versions.
"""

from __future__ import annotations

from repro.bench.tables import TableResult


def table_to_markdown(result: TableResult) -> str:
    """One experiment as a markdown section."""
    status = "PASS" if result.passed else "**FAIL**"
    lines = [
        f"## {result.experiment_id} — {result.title}",
        "",
        f"Status: {status}",
        "",
        "| " + " | ".join(result.headers) + " |",
        "|" + "|".join("---" for _ in result.headers) + "|",
    ]
    for row in result.rows:
        lines.append("| " + " | ".join(_escape(cell) for cell in row) + " |")
    if result.notes:
        lines.append("")
        for note in result.notes:
            lines.append(f"> {note}")
    lines.append("")
    return "\n".join(lines)


def report_to_markdown(results: list[TableResult], title: str = "Experiment results") -> str:
    """A full multi-experiment markdown report with a summary table."""
    lines = [
        f"# {title}",
        "",
        "| experiment | title | status |",
        "|---|---|---|",
    ]
    for result in results:
        badge = "PASS" if result.passed else "**FAIL**"
        lines.append(f"| {result.experiment_id} | {_escape(result.title)} | {badge} |")
    lines.append("")
    for result in results:
        lines.append(table_to_markdown(result))
    return "\n".join(lines)


def _escape(cell: str) -> str:
    return cell.replace("|", "\\|")
