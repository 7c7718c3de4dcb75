"""Experiment drivers: scaling rows, recalibration splits, and determinism."""

import warnings

import numpy as np
import pytest

from calbounds import (
    ScoredDataset,
    SyntheticModel,
    cube_root_bins,
    recalib_holdout_bound,
    recalib_reuse_bound,
)
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
        assert res.n_grid == (200, 400)
        assert res.bins == (cube_root_bins(200), cube_root_bins(400))
        assert res.ece.shape == (2, 3) and not res.ece.flags.writeable
        assert np.all((res.ece >= 0) & (res.ece <= 1))
        assert len(res.bounds) == 2 and all(bound > 0 for bound in res.bounds)
        assert res.lipschitz > 1.0

    def test_repeated_grid_size_has_no_slope(self):
        # Two equal sizes give one log n: no line to fit, so no polyfit warning either.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = run_synthetic_experiment(
                0.5, -1.5, [8, 8], reps=2, b_rule="cube_root", seed=5, n_mc=2000
            )
        assert res.ece.shape == (2, 2) and np.isnan(res.slope)

    def test_calibrated_model_tce_column_near_zero(self):
        res = run_synthetic_experiment(
            0.0, -2.0, [200, 400], reps=2, b_rule="cube_root", seed=6, n_mc=50_000
        )
        assert res.tce.value < 0.005

    def test_fixed_rule(self):
        res = run_synthetic_experiment(
            0.5, -1.5, [300], reps=2, b_rule="fixed:9", seed=7, n_mc=10_000
        )
        assert res.bins == (9,)

    def test_deterministic(self):
        kwargs = dict(n_grid=[200, 400], reps=2, b_rule="cube_root", seed=11, n_mc=10_000)
        a = run_synthetic_experiment(0.5, -1.5, **kwargs)
        b = run_synthetic_experiment(0.5, -1.5, **kwargs)
        assert np.array_equal(a.ece, b.ece) and a.bounds == b.bounds and a.slope == b.slope


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

    def test_test_set_binned_once(self, assign_calls):
        run_recalibration(self._pool(1000), "holdout", B=5, eval_split=0.4, seed=9, n_re=50)
        (fit_scheme, n_fit), (test_scheme, n_test) = assign_calls
        assert (n_fit, n_test) == (50, 400) and test_scheme is fit_scheme

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


POOL = ScoredDataset(np.linspace(0.0, 1.0, 100), np.tile([0, 1], 50))


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"variant": "both"}, "unknown variant: both"),
        ({"eval_split": 1.0}, "eval_split must lie in (0, 1)"),
        ({"eval_split": 0.0}, "eval_split must lie in (0, 1)"),
        ({"n_re": None}, "holdout variant requires n_re"),
        ({"variant": "reuse", "n_re": None, "eval_split": 0.9},
         "only 10 fit rows; need at least 20"),
    ],
    ids=["unknown variant", "eval_split 1", "eval_split 0", "holdout without n_re",
         "reuse below 2B"],
)
def test_boundary_errors(kwargs, message):
    args = {"pool": POOL, "variant": "holdout", "B": 10, "eval_split": 0.2, "seed": 0,
            "n_re": 40, **kwargs}
    with pytest.raises(ValueError) as e:
        run_recalibration(**args)
    assert str(e.value) == message
