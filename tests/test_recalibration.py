"""Histogram recalibration: fit identity, application, and test-set behavior."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from calbounds import (
    BinningScheme,
    Recalibrator,
    ScoredDataset,
    SyntheticModel,
    apply_recalibrator,
    ece,
    fit_recalibrator,
    recalibrated_tce,
)
from calbounds.experiments import scored_synthetic_dataset


def fit_set_ece(recal, d_fit):
    """ECE of the fit set scored through the recalibrator, on its own scheme."""
    recal_scores = apply_recalibrator(recal, d_fit.scores)
    # Route by original scores: the recalibrated prediction per bin is mu_i.
    return recalibrated_tce(recal, d_fit), recal_scores


class TestFitRecalibrator:
    def test_hand_example(self):
        d = ScoredDataset([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1])
        r = fit_recalibrator(d, B=2)
        assert tuple(r.scheme.edges) == (0.0, 0.2, 1.0)
        assert tuple(r.mu) == (0.0, 1.0)

    def test_fit_set_ece_is_zero(self):
        rng = np.random.default_rng(3)
        d = ScoredDataset(rng.uniform(size=100), rng.integers(0, 2, size=100))
        r = fit_recalibrator(d, B=8)
        assert recalibrated_tce(r, d) < 1e-12

    def test_too_few_samples(self):
        d = ScoredDataset([0.1, 0.5, 0.9], [0, 1, 1])
        with pytest.raises(ValueError, match="too few samples"):
            fit_recalibrator(d, B=2)

    def test_all_tied_scores_collapse_with_warning(self):
        d = ScoredDataset([0.5] * 8, [0, 1, 0, 1, 0, 1, 0, 1])
        with pytest.warns(UserWarning, match="collapsed"):
            r = fit_recalibrator(d, B=3)
        assert r.scheme.B == 1
        assert r.mu[0] == pytest.approx(0.5)

    @given(
        st.integers(min_value=1, max_value=10),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_fit_identity_property(self, B, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2 * B, 2 * B + 200))
        d = ScoredDataset(rng.uniform(size=n), rng.integers(0, 2, size=n))
        r = fit_recalibrator(d, B=B)
        assert recalibrated_tce(r, d) < 1e-12


class TestApplyRecalibrator:
    def test_bin_lookup(self):
        d = ScoredDataset([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1])
        r = fit_recalibrator(d, B=2)
        out = apply_recalibrator(r, [0.15, 0.85])
        assert out[0] == 0.0 and out[1] == 1.0

    def test_output_length(self):
        d = ScoredDataset(np.linspace(0.05, 0.95, 20), [0, 1] * 10)
        r = fit_recalibrator(d, B=4)
        scores = np.random.default_rng(8).uniform(size=57)
        assert apply_recalibrator(r, scores).shape == (57,)

    def test_outputs_take_at_most_b_values(self):
        rng = np.random.default_rng(11)
        d = ScoredDataset(rng.uniform(size=60), rng.integers(0, 2, size=60))
        r = fit_recalibrator(d, B=5)
        out = apply_recalibrator(r, rng.uniform(size=500))
        distinct = set(np.unique(out))
        assert len(distinct) <= r.scheme.B
        assert distinct <= set(np.unique(r.mu))


class TestRecalibratedTce:
    def test_fit_equals_test_gives_zero(self):
        rng = np.random.default_rng(13)
        d = ScoredDataset(rng.uniform(size=80), rng.integers(0, 2, size=80))
        r = fit_recalibrator(d, B=6)
        assert recalibrated_tce(r, d) < 1e-12

    def test_degenerate_single_bin(self):
        fit = ScoredDataset([0.2, 0.4, 0.6, 0.8], [0, 1, 1, 1])
        r = fit_recalibrator(fit, B=1)
        test = ScoredDataset([0.3, 0.7], [0, 0])
        expected = abs(np.mean(test.labels) - np.mean(fit.labels))
        assert recalibrated_tce(r, test) == pytest.approx(expected, abs=1e-15)

    def test_reduces_miscalibration_on_synthetic_family(self):
        # Held-out halves, averaged over 20 seeds: recalibrated error is
        # smaller than the raw ECE on the same evaluation half.
        model = SyntheticModel(0.5, -1.5)
        raw_vals, recal_vals = [], []
        for seed in range(20):
            d = scored_synthetic_dataset(model, 4000, seed, 2)
            fit = d.subset(np.arange(2000))
            test = d.subset(np.arange(2000, 4000))
            r = fit_recalibrator(fit, B=12)
            raw_vals.append(ece(test, r.scheme).value)
            recal_vals.append(recalibrated_tce(r, test))
        assert np.mean(recal_vals) < np.mean(raw_vals)

    def test_monotone_mu_on_monotone_family(self):
        # The synthetic calibration map is increasing, so fitted mu vectors
        # should be sorted for nearly every seed at n = 10^4.
        model = SyntheticModel(0.5, -1.5)
        violations = 0
        for seed in range(20):
            d = scored_synthetic_dataset(model, 10_000, seed, 3)
            r = fit_recalibrator(d, B=10)
            if np.any(np.diff(r.mu) < 0):
                violations += 1
        assert violations <= 2


class TestSerialization:
    def test_json_round_trip(self):
        rng = np.random.default_rng(17)
        d = ScoredDataset(rng.uniform(size=50), rng.integers(0, 2, size=50))
        r = fit_recalibrator(d, B=4, reused_training=True)
        back = Recalibrator.from_json(r.to_json())
        assert np.array_equal(back.scheme.edges, r.scheme.edges)
        assert np.array_equal(back.mu, r.mu)
        assert back.fit_size == r.fit_size
        assert back.reused_training is True
        assert back.scheme.collapsed is False

    def test_json_round_trip_keeps_collapsed(self):
        d = ScoredDataset([0.5] * 6 + [0.9, 0.9], [0, 1, 0, 1, 1, 0, 1, 1])
        with pytest.warns(UserWarning, match="collapsed"):
            r = fit_recalibrator(d, B=4)
        assert r.scheme.collapsed
        back = Recalibrator.from_json(r.to_json())
        assert back.scheme.collapsed is True
        assert np.array_equal(back.scheme.edges, r.scheme.edges)

    def test_json_without_collapsed_field_loads(self):
        text = json.dumps({"edges": [0.0, 0.5, 1.0], "mu": [0.2, 0.7], "fit_size": 8,
                           "reused_training": False})
        r = Recalibrator.from_json(text)
        assert r.scheme.collapsed is False
        assert np.array_equal(r.mu, [0.2, 0.7])

    def test_nan_interior_edge_rejected(self):
        text = '{"edges": [0.0, NaN, 1.0], "mu": [0.1, 0.9], "fit_size": 4, "reused_training": false}'
        with pytest.raises(ValueError, match="strictly increasing"):
            Recalibrator.from_json(text)

    @pytest.mark.parametrize("fit_size", [-5, 0, 3, 4.0, "8", True, None])
    def test_bad_fit_size_rejected(self, fit_size):
        scheme = BinningScheme([0.0, 0.5, 1.0], "umb")
        with pytest.raises(ValueError, match=r"fit_size must be an integer of at least 2B = 4"):
            Recalibrator(scheme, [0.2, 0.7], fit_size, False)
        text = json.dumps({"edges": [0.0, 0.5, 1.0], "mu": [0.2, 0.7], "fit_size": fit_size,
                           "reused_training": False})
        with pytest.raises(ValueError, match=r"fit_size must be an integer of at least 2B = 4"):
            Recalibrator.from_json(text)

    @pytest.mark.parametrize("reused", ["no", 0, 1, None])
    def test_non_bool_reused_training_rejected(self, reused):
        scheme = BinningScheme([0.0, 0.5, 1.0], "umb")
        with pytest.raises(ValueError, match="reused_training must be a bool"):
            Recalibrator(scheme, [0.2, 0.7], 4, reused)
        text = json.dumps({"edges": [0.0, 0.5, 1.0], "mu": [0.2, 0.7], "fit_size": 4,
                           "reused_training": reused})
        with pytest.raises(ValueError, match="reused_training must be a bool"):
            Recalibrator.from_json(text)

    def test_numpy_fit_size_and_flag_stored_as_python_types(self):
        r = Recalibrator(BinningScheme([0.0, 0.5, 1.0], "umb"), [0.2, 0.7], np.int64(4), np.bool_(True))
        assert type(r.fit_size) is int and r.reused_training is True
        assert Recalibrator.from_json(r.to_json()).fit_size == 4

    def test_mu_range_validated(self):
        d = ScoredDataset([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1])
        r = fit_recalibrator(d, B=2)
        with pytest.raises(ValueError):
            Recalibrator(r.scheme, np.array([0.5, 1.5]), 4, False)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_mu_rejected(self, bad):
        text = json.dumps({"edges": [0.0, 0.5, 1.0], "mu": [bad, 0.3], "fit_size": 4,
                           "reused_training": False})
        with pytest.raises(ValueError, match=r"label means must lie in \[0, 1\]"):
            Recalibrator.from_json(text)
