"""Tests for the benchmark's own logic (not for the program it measures).

Run with ``PYTHONPATH=src python -m pytest perfbench -q`` from the
repository root.
"""

from __future__ import annotations

import json
import os
from collections import Counter

import pytest

from perfbench import grid, layers
from perfbench.sweeps import SweepWorkload, digest, failed_trials
from perfbench.tracing import Tracer, self_times

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def ops(seed: int, count: int) -> list[grid.Op]:
    stream = grid.op_stream(seed)
    return [next(stream) for _ in range(count)]


class TestOpList:
    def test_same_seed_same_ops(self):
        assert ops(7, 3 * grid.BLOCK) == ops(7, 3 * grid.BLOCK)

    def test_other_seed_other_seeds_same_shares(self):
        first, second = ops(7, 2 * grid.BLOCK), ops(8, 2 * grid.BLOCK)
        assert [op.seeds for op in first] != [op.seeds for op in second]
        for block in range(2):
            part = slice(block * grid.BLOCK, (block + 1) * grid.BLOCK)
            shares = dict(grid.MIX)
            assert Counter(op.kind for op in first[part]) == shares
            assert Counter(op.kind for op in second[part]) == shares

    def test_other_seed_same_op_shapes_per_block(self):
        def shapes(seed, block):
            return Counter((op.kind, len(op.seeds), op.scenario, op.spelling)
                           for op in grid.op_block(seed, block))

        for block in range(3):
            assert shapes(7, block) == shapes(8, block)

    def test_resubmissions_use_primed_seeds_fresh_ones_never_repeat(self):
        seen = set()
        for op in ops(3, 4 * grid.BLOCK):
            assert 1 <= len(op.seeds) <= grid.MAX_SEEDS
            if op.kind in ("hit", "respelled"):
                assert set(op.seeds) <= set(grid.primed_seeds(3, op.scenario))
                assert (op.spelling == 0) == (op.kind == "hit")
            else:
                assert op.spelling == 0
                assert not seen & set(op.seeds)
                seen |= set(op.seeds)


class TestSelfTime:
    def fake_clock(self, ticks):
        values = iter(ticks)
        return lambda: next(values)

    def test_nested_spans(self):
        # outer 0..100 holds a 10..40 and b 50..90; b holds c 60..70.
        tracer = Tracer(clock=self.fake_clock([0, 10, 40, 50, 60, 70, 90, 100]))
        with tracer.span("outer"):
            with tracer.span("a"):
                pass
            with tracer.span("b"):
                with tracer.span("c"):
                    pass
        assert tracer.stats == {
            "outer": [1, 100, 100 - 30 - 40],
            "a": [1, 30, 30],
            "b": [1, 40, 40 - 10],
            "c": [1, 10, 10],
        }
        by_name = {span[2]: span[0] for span in tracer.spans}
        offline = self_times(tracer.spans)
        assert offline[by_name["outer"]] == 30
        assert offline[by_name["b"]] == 30

    def test_wrapped_calls_and_reentry(self):
        tracer = Tracer(clock=self.fake_clock(range(0, 1000, 5)))

        def leaf():
            return 1

        traced_leaf = tracer.wrap(leaf, "leaf")

        def recursive(depth):
            return traced_leaf() + (traced(depth - 1) if depth else 0)

        traced = tracer.wrap(recursive, "node")
        assert traced(2) == 3
        # Re-entry into an open "node" span opens no second span.
        assert tracer.calls("node") == 1
        assert tracer.calls("leaf") == 3
        calls, total, own = tracer.stats["node"]
        assert own == total - tracer.total_ns("leaf")

    def test_merge_adds_worker_aggregates(self):
        tracer = Tracer(clock=self.fake_clock([0, 4]))
        with tracer.span("x"):
            pass
        tracer.merge({"stats": {"x": [2, 10, 6]}, "counters": {"n": 3}})
        assert tracer.stats["x"] == [3, 14, 10]
        assert tracer.counters == {"n": 3}


class TestDigestGate:
    cells = [grid.Cell(0, "a", (1, 2)), grid.Cell(1, "b", (3,))]
    results = [{"rounds": 4, "spread": 0.0, "correct": True, "terminated": True}] * 3

    def test_identical_results_pass(self):
        copy = [dict(result) for result in self.results]
        assert digest(self.cells, copy) == digest(self.cells, self.results)
        assert failed_trials(copy, self.results) == 0

    def test_one_perturbed_result_fires(self):
        perturbed = [dict(result) for result in self.results]
        perturbed[1]["spread"] = 1e-12
        assert digest(self.cells, perturbed) != digest(self.cells, self.results)
        assert failed_trials(perturbed, self.results) == 1

    def test_verdict_failure_fires_even_if_reference_agrees(self):
        wrong = [dict(result, correct=False) for result in self.results]
        assert failed_trials(wrong, wrong) == 3


class TestMapping:
    def test_benchmark_json_lists_every_layer_metric(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
            benchmark = json.load(handle)
        assert benchmark["per_layer"] == layers.declared()
        names = {workload["name"] for workload in benchmark["workloads"]}
        e2e = {metric["name"] for metric in benchmark["end_to_end"]}
        for metric in layers.load_mapping()["metrics"]:
            assert set(metric["workloads"]) <= names
            assert set(metric["moves"]) <= e2e

    def test_values_cover_every_declared_metric(self):
        ctx = layers.Context(workload="sweep-serial", window_s=1.0)
        values = layers.values(Tracer(), ctx)
        assert set(values) == {metric["name"] for metric in layers.declared()}


def test_every_spelling_hits_one_cache_entry():
    pytest.importorskip("repro")
    from repro.scenario import resolve
    from repro.service.cache import scenario_key

    for spellings in grid.SERVICE_SCENARIOS:
        texts = [s if isinstance(s, str) else json.dumps(s) for s in spellings]
        assert len({scenario_key(resolve(text)) for text in texts}) == 1


def test_serial_and_batched_digests_match_direct_runs():
    pytest.importorskip("repro")
    cells = tuple((grid.SWEEP_CELLS[i][0], 2) for i in (0, 3, -1))
    digests = set()
    for mode in ("serial", "batched"):
        bench = SweepWorkload(mode, seed=5, cells=cells)
        bench.setup()
        results = [r for index in range(len(cells)) for r in bench.run_cell(index)]
        reference = bench.reference()
        bench.close()
        assert failed_trials(results, reference) == 0
        digests.add(digest(bench.cells, results))
    assert len(digests) == 1
