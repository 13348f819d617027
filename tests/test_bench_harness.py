"""Tests for the benchmark harness itself (tables, registry)."""

import pytest

from repro.bench.registry import EXPERIMENTS, run_experiment
from repro.bench.tables import TableResult, render_table


class TestTableResult:
    def test_row_width_checked(self):
        table = TableResult("T", "title", ["a", "b"])
        table.add_row(1, 2)
        with pytest.raises(ValueError, match="columns"):
            table.add_row(1, 2, 3)

    def test_cell_formatting(self):
        table = TableResult("T", "title", ["a", "b", "c"])
        table.add_row(True, 0.123456, "text")
        assert table.rows[0] == ["yes", "0.1235", "text"]

    def test_fail_flips_status_and_records_reason(self):
        table = TableResult("T", "title", ["a"])
        assert table.passed
        table.fail("broke")
        assert not table.passed
        assert any("broke" in note for note in table.notes)

    def test_render_layout(self):
        table = TableResult("T1", "demo", ["col", "value"])
        table.add_row("x", 1)
        table.add_note("a note")
        text = render_table(table)
        lines = text.splitlines()
        assert lines[0].startswith("== T1: demo [PASS]")
        assert "col" in lines[1] and "value" in lines[1]
        assert set(lines[2].replace(" ", "")) == {"-"}
        assert "a note" in text

    def test_render_fail_status(self):
        table = TableResult("T1", "demo", ["col"])
        table.fail("nope")
        assert "[FAIL]" in render_table(table)


class TestRegistry:
    def test_all_experiments_registered(self):
        expected = {
            "F1", "E1", "E2", "E3", "E4", "E5",
            "I1", "I2", "I4",
            "X1", "X2", "X3", "X4", "X5", "X6", "X7", "X8",
            "S1", "S2", "S3", "S4",
        }
        assert set(EXPERIMENTS) == expected

    def test_case_insensitive_lookup(self):
        result = run_experiment("f1")
        assert result.experiment_id == "F1"
        assert result.passed

    def test_unknown_id(self):
        with pytest.raises(KeyError, match="unknown experiment"):
            run_experiment("Q7")

    @pytest.mark.parametrize("experiment_id", sorted(EXPERIMENTS))
    def test_experiment_passes_on_quick_grid(self, experiment_id):
        # The paper's claims, each checked by its experiment's verdict.
        result = run_experiment(experiment_id, quick=True)
        assert result.passed, "\n".join(result.notes)

    def test_every_experiment_declares_headers(self):
        # Registry hygiene: ids match the functions' own table ids for
        # the quick smoke-testable ones.
        result = run_experiment("F1", quick=True)
        assert result.headers
        assert result.rows
