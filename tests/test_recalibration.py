"""Histogram recalibration: fit identity, application, and test-set behavior."""

import tracemalloc

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

    @pytest.mark.parametrize("B", [15, 2000], ids=["table", "search"])
    def test_peak_memory_is_output_plus_one_index(self, B):
        rng = np.random.default_rng(12)
        d = ScoredDataset(rng.uniform(size=4 * B), rng.integers(0, 2, size=4 * B))
        r = fit_recalibrator(d, B=B)
        assert (r.scheme._cells == 0) == (B == 2000)
        scores = rng.uniform(size=100_000)
        apply_recalibrator(r, scores)  # a first call builds the scheme's cell table
        tracemalloc.start()
        try:
            out = apply_recalibrator(r, scores)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        index_bytes = scores.size * np.dtype(np.intp).itemsize
        assert peak <= out.nbytes + index_bytes + 2**18  # slack: one block's temporaries


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
    """Field checks of a directly constructed recalibrator."""

    def test_nan_interior_edge_rejected(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            Recalibrator(BinningScheme([0.0, np.nan, 1.0], "umb"), [0.1, 0.9])

    def test_mu_range_validated(self):
        d = ScoredDataset([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1])
        r = fit_recalibrator(d, B=2)
        with pytest.raises(ValueError):
            Recalibrator(r.scheme, np.array([0.5, 1.5]))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_mu_rejected(self, bad):
        scheme = BinningScheme([0.0, 0.5, 1.0], "umb")
        with pytest.raises(ValueError, match=r"label means must lie in \[0, 1\]"):
            Recalibrator(scheme, [bad, 0.3])


def test_boundary_errors():
    with pytest.raises(ValueError) as e:
        Recalibrator(BinningScheme(np.linspace(0.0, 1.0, 5), "umb"), np.full(3, 0.5))
    assert str(e.value) == "mu must hold exactly one value per bin"
