"""Fixed-width table rendering for experiment results.

The paper has no numeric tables (its results are theorems); the
harness prints, for every claim, a table pairing "paper says" with the
measured quantity, so each row shows both side by side.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class TableResult:
    """One experiment's rendered outcome."""

    experiment_id: str
    title: str
    headers: list[str]
    rows: list[list[str]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    passed: bool = True

    def add_row(self, *cells: object) -> None:
        """Append one row; cells are stringified."""
        row = [_format_cell(cell) for cell in cells]
        if len(row) != len(self.headers):
            raise ValueError(
                f"row has {len(row)} cells, table has {len(self.headers)} columns"
            )
        self.rows.append(row)

    def add_note(self, note: str) -> None:
        """Append a free-text footnote."""
        self.notes.append(note)

    def fail(self, reason: str) -> None:
        """Mark the experiment as not reproducing the claim."""
        self.passed = False
        self.notes.append(f"FAILED: {reason}")

    def render(self) -> str:
        """The full fixed-width rendering."""
        return render_table(self)


def _format_cell(cell: object) -> str:
    if isinstance(cell, bool):
        return "yes" if cell else "no"
    if isinstance(cell, float):
        return f"{cell:.4g}"
    return str(cell)


def render_table(result: TableResult) -> str:
    """Render one :class:`TableResult` as a fixed-width text block."""
    widths = [len(h) for h in result.headers]
    for row in result.rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def line(cells: list[str]) -> str:
        return "  ".join(cell.ljust(width) for cell, width in zip(cells, widths)).rstrip()

    status = "PASS" if result.passed else "FAIL"
    out = [
        f"== {result.experiment_id}: {result.title} [{status}] ==",
        line(result.headers),
        line(["-" * w for w in widths]),
    ]
    out.extend(line(row) for row in result.rows)
    for note in result.notes:
        out.append(f"  note: {note}")
    return "\n".join(out)
