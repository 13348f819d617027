"""Tests for the picklable Byzantine and mobile-omission family trials.

The ``dbac`` and ``byz`` (mobile-omission) families' trials come from
:func:`repro.scenario.family_trial` like every other family's:
picklable by reference, batched through their ``batch_fn``, so
Byzantine and mobile-omission sweeps parallelize under ``workers=N`` /
``--batch`` exactly like the DAC grids.
"""

import pickle

import pytest

from repro.bench.sweep import Sweep
from repro.scenario import SpecError, family_trial

byz_trial = family_trial("byz")
dbac_trial = family_trial("dbac")


class TestByzTrial:
    def test_mobile_modes_run_fault_free_dac(self):
        for mode in ("none", "rotate", "block_min"):
            summary = byz_trial(n=6, mode=mode, max_rounds=500, seed=1)
            assert set(summary) == {"rounds", "spread", "terminated", "correct"}
            assert summary["terminated"]
            # (1, n-2) still satisfies DAC's floor(n/2) needs at n=6.
            assert summary["correct"]

    def test_unknown_mode_rejected(self):
        with pytest.raises(SpecError, match=r"adversary\.mode: 'sideways' is not one of"):
            byz_trial(n=6, mode="sideways")

    def test_unknown_and_missing_parameters_rejected(self):
        # The mobile family is fault-free by construction: it takes no f.
        with pytest.raises(SpecError, match="no section of 'byz' declares") as err:
            byz_trial(n=6, f=1)
        assert err.value.field == "algorithm.f"
        with pytest.raises(SpecError) as err:
            byz_trial(n=6, adversary="mobile-none")
        assert err.value.field == "algorithm.adversary"
        with pytest.raises(SpecError, match="required parameter") as err:
            byz_trial(mode="none")
        assert err.value.field == "algorithm.n"

    def test_unknown_strategy_rejected(self):
        with pytest.raises(SpecError, match=r"faults\.strategy: 'benevolent' is not one of"):
            dbac_trial(n=6, strategy="benevolent")

    def test_trials_pickle_by_reference(self):
        for trial in (byz_trial, dbac_trial):
            assert pickle.loads(pickle.dumps(trial)) is trial
            assert pickle.loads(pickle.dumps(trial.batch_fn)) == trial.batch_fn
            assert len(pickle.dumps(trial.batch_fn)) < 200


class TestBatchedEquivalence:
    def test_batch_fn_returns_per_seed_results_in_order(self):
        seeds = [3, 1, 8]
        batched = byz_trial.batch_fn(seeds=seeds, n=6, mode="rotate", max_rounds=300)
        serial = [byz_trial(n=6, mode="rotate", max_rounds=300, seed=s) for s in seeds]
        assert batched == serial

    def test_dbac_batch_fn_matches_serial(self):
        seeds = [0, 5]
        batched = dbac_trial.batch_fn(seeds=seeds, n=6, f=1, max_rounds=3000)
        serial = [dbac_trial(n=6, f=1, max_rounds=3000, seed=s) for s in seeds]
        assert batched == serial

    @pytest.mark.parametrize("trial", [byz_trial, dbac_trial], ids=["byz", "dbac"])
    def test_sweep_batch_is_a_pure_speed_knob(self, trial):
        grid = {"n": [6]}
        plain = Sweep(grid=grid, repeats=3)
        plain.run(trial, workers=1, batch=1)
        grouped = Sweep(grid=grid, repeats=3)
        grouped.run(trial, workers=1, batch=3)
        assert grouped.records == plain.records

    def test_sweep_workers_fan_out(self):
        grid = {"n": [6], "mode": ["rotate"]}
        serial = Sweep(grid=grid, repeats=4)
        serial.run(byz_trial, workers=1)
        fanned = Sweep(grid=grid, repeats=4)
        fanned.run(byz_trial, workers=2, batch=2)
        assert fanned.records == serial.records
