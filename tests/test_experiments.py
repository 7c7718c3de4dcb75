"""Experiment drivers: scaling rows, recalibration splits, and determinism."""

import numpy as np
import pytest

from calbounds import SyntheticModel, recalib_holdout_bound, recalib_reuse_bound
from calbounds.experiments import (
    run_recalibration,
    run_synthetic_experiment,
    scored_synthetic_dataset,
)


class TestScoredSyntheticDataset:
    def test_deterministic_and_scored(self):
        model = SyntheticModel(0.5, -1.5)
        a = scored_synthetic_dataset(model, 500, 3, 1)
        b = scored_synthetic_dataset(model, 500, 3, 1)
        assert np.array_equal(a.scores, b.scores)
        assert np.all((a.scores >= 0) & (a.scores <= 1))

    def test_paths_give_independent_draws(self):
        model = SyntheticModel(0.5, -1.5)
        a = scored_synthetic_dataset(model, 500, 3, 1)
        b = scored_synthetic_dataset(model, 500, 3, 2)
        assert not np.array_equal(a.scores, b.scores)


class TestRunSyntheticExperiment:
    def test_row_shape_and_content(self):
        res = run_synthetic_experiment(
            0.5, -1.5, [200, 400], reps=3, b_rule="cube_root", seed=5, n_mc=20_000
        )
        assert len(res.rows) == 6
        for row in res.rows:
            assert row["tce_gap"] == pytest.approx(abs(row["tce"] - row["ece"]))
            assert row["bound"] > 0
        assert res.lipschitz > 1.0

    def test_calibrated_model_tce_column_near_zero(self):
        res = run_synthetic_experiment(
            0.0, -2.0, [200, 400], reps=2, b_rule="cube_root", seed=6, n_mc=50_000
        )
        assert all(row["tce"] < 0.005 for row in res.rows)

    def test_fixed_rule(self):
        res = run_synthetic_experiment(
            0.5, -1.5, [300], reps=2, b_rule="fixed:9", seed=7, n_mc=10_000
        )
        assert all(row["B"] == 9 for row in res.rows)

    def test_deterministic(self):
        kwargs = dict(n_grid=[200, 400], reps=2, b_rule="cube_root", seed=11, n_mc=10_000)
        a = run_synthetic_experiment(0.5, -1.5, **kwargs)
        b = run_synthetic_experiment(0.5, -1.5, **kwargs)
        assert a.rows == b.rows and a.slope == b.slope


class TestRunRecalibration:
    def _pool(self, n=8100, seed=3):
        return scored_synthetic_dataset(SyntheticModel(0.5, -1.5), n, seed, 7)

    def test_holdout_reports_matching_bound(self):
        res = run_recalibration(
            self._pool(), "holdout", B=15, eval_split=0.49, seed=3, n_re=100
        )
        assert res.n_fit == 100
        assert res.bound == recalib_holdout_bound(15, 100)
        assert res.bound.value == pytest.approx(0.8475523180496052, abs=1e-12)

    def test_reuse_uses_whole_remainder(self):
        pool = self._pool()
        res = run_recalibration(pool, "reuse", B=15, eval_split=0.49, seed=3)
        assert res.n_fit == len(pool) - res.n_test
        # Zero-MI reuse bound at the realized fit size.
        assert res.bound == recalib_reuse_bound(0.0, 0.0, 15, res.n_fit)

    def test_recalibration_improves_on_raw(self):
        improved = 0
        for seed in range(10):
            res = run_recalibration(
                self._pool(6000, seed), "reuse", B=12, eval_split=0.5, seed=seed
            )
            improved += res.tce_recalibrated < res.ece_raw
        assert improved >= 8

    def test_split_disjointness_and_sizes(self):
        pool = self._pool(1000)
        res = run_recalibration(pool, "holdout", B=5, eval_split=0.4, seed=9, n_re=50)
        assert res.n_test == 400
        assert res.n_fit == 50

    def test_infeasible_splits(self):
        pool = self._pool(200)
        with pytest.raises(ValueError, match="test rows"):
            run_recalibration(pool, "reuse", B=60, eval_split=0.5, seed=1)
        with pytest.raises(ValueError, match="exceeds"):
            run_recalibration(pool, "holdout", B=5, eval_split=0.5, seed=1, n_re=150)
        with pytest.raises(ValueError, match="n_re"):
            run_recalibration(pool, "holdout", B=20, eval_split=0.5, seed=1, n_re=30)

    def test_other_variants_inputs_rejected(self):
        pool = self._pool(1000)
        with pytest.raises(ValueError, match="^n_re applies only to the holdout variant$"):
            run_recalibration(pool, "reuse", B=5, eval_split=0.4, seed=9, n_re=50)
        for given in ({"i_delta1": 0.0}, {"i_delta2": 0.3}):
            with pytest.raises(ValueError, match="^i_delta1 and i_delta2 apply only to the reuse"):
                run_recalibration(pool, "holdout", B=5, eval_split=0.4, seed=9, n_re=50, **given)

    def test_reuse_bound_takes_given_mask_information(self):
        res = run_recalibration(
            self._pool(1000), "reuse", B=5, eval_split=0.4, seed=9, i_delta1=0.1, i_delta2=0.2
        )
        assert res.bound == recalib_reuse_bound(0.1, 0.2, 5, res.n_fit)
