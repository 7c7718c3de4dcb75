"""Calibration-error estimators, gap statistics, and bin-count selection."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from calbounds import (
    ScoredDataset,
    SyntheticModel,
    bin_stats,
    binned_tce,
    cube_root_bins,
    ece,
    ece_gap,
    ece_reformulated,
    fit_recalibrator,
    optimal_bins,
    recalibrated_tce,
    total_bias_bound,
    umb_scheme,
    uwb_scheme,
)
from calbounds.binning import _MAX_CELLS
from calbounds.experiments import scored_synthetic_dataset


def random_dataset(rng, n=None):
    n = n or int(rng.integers(1, 200))
    return ScoredDataset(rng.uniform(size=n), rng.integers(0, 2, size=n))


class TestEce:
    def test_hand_arithmetic(self):
        d = ScoredDataset([0.3, 0.3, 0.3], [0, 0, 1])
        assert ece(d, uwb_scheme(1)).value == pytest.approx(abs(0.3 - 1 / 3), abs=1e-15)

    def test_perfect_agreement(self):
        d = ScoredDataset([0.0, 1.0], [0, 1])
        assert ece(d, uwb_scheme(2)).value == 0.0

    def test_bounded(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            d = random_dataset(rng)
            B = int(rng.integers(1, 30))
            v = ece(d, uwb_scheme(B)).value
            assert 0.0 <= v <= 1.0


def bin_stats_error(masses, predicted, observed):
    """The ECE formula over ``BinStats`` fields that ``ece`` and ``recalibrated_tce`` once used."""
    nonempty = masses > 0
    value = float(np.sum(masses[nonempty] * np.abs(predicted[nonempty] - observed[nonempty])))
    return min(value, 1.0)


@st.composite
def datasets_and_bins(draw):
    """A dataset of n >= 2B rows, B up to 20, its scores drawn from 1 to n levels: few levels
    tie scores and leave bins empty between nonempty ones."""
    B = draw(st.integers(min_value=1, max_value=20))
    n = draw(st.integers(min_value=2 * B, max_value=2 * B + 40))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    levels = rng.uniform(size=draw(st.integers(min_value=1, max_value=n)))
    return ScoredDataset(rng.choice(levels, size=n), rng.integers(0, 2, size=n)), B


class TestEceFromSums:
    """``ece`` and ``recalibrated_tce`` reduce per-bin sums exactly as the ``BinStats`` formula."""

    @given(datasets_and_bins(), datasets_and_bins(), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_equal_to_bin_stats_formula(self, data, fit_data, uniform_width):
        (d, B), (d_fit, B_fit) = data, fit_data
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "tied scores collapsed UMB", UserWarning)
            scheme = uwb_scheme(B) if uniform_width else umb_scheme(d.scores, B)
            r = fit_recalibrator(d_fit, B_fit)
        stats = bin_stats(scheme, d)
        assert ece(d, scheme).value == bin_stats_error(
            stats.masses, stats.mean_scores, stats.mean_labels
        )
        stats = bin_stats(r.scheme, d)
        assert recalibrated_tce(r, d) == bin_stats_error(stats.masses, r.mu, stats.mean_labels)


class TestEceReformulated:
    def test_same_hand_arithmetic(self):
        d = ScoredDataset([0.3, 0.3, 0.3], [0, 0, 1])
        assert ece_reformulated(d, uwb_scheme(1)).value == pytest.approx(1 / 30, abs=1e-15)

    def test_agrees_with_ece_on_random_pairs(self):
        # Includes uniform-width schemes with empty bins.
        rng = np.random.default_rng(23)
        for _ in range(1000):
            d = random_dataset(rng)
            B = int(rng.integers(1, 50))
            s = uwb_scheme(B)
            assert abs(ece(d, s).value - ece_reformulated(d, s).value) < 1e-12

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
                st.integers(min_value=0, max_value=1),
            ),
            min_size=1,
            max_size=100,
        ),
        st.integers(min_value=1, max_value=40),
    )
    @settings(max_examples=80, deadline=None)
    def test_equivalence_property(self, pairs, B):
        d = ScoredDataset([p[0] for p in pairs], [p[1] for p in pairs])
        s = uwb_scheme(B)
        assert abs(ece(d, s).value - ece_reformulated(d, s).value) < 1e-12

    def test_peak_memory_two_arrays_of_n(self):
        # The residuals and the bin indices: 2 * 8 bytes a score (15.26 MiB at
        # n = 1e6), plus half a MiB for the table index's block temporaries.
        n = 1_000_000
        rng = np.random.default_rng(29)
        d = ScoredDataset(rng.uniform(size=n), rng.integers(0, 2, size=n))
        tracemalloc.start()
        try:
            ece_reformulated(d, uwb_scheme(200))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 8 * n + 2**19

    def test_peak_memory_two_arrays_of_n_largest_table(self):
        # The same bound with uniform-mass edges close enough to need the
        # largest table the cap allows (~256 KiB), built inside the call.
        n = 1_000_000
        rng = np.random.default_rng(29)
        d = ScoredDataset(rng.uniform(size=n), rng.integers(0, 2, size=n))
        scheme = umb_scheme(d.scores, 8000)
        assert scheme._cells == _MAX_CELLS
        tracemalloc.start()
        try:
            ece_reformulated(d, scheme)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert "_table" in vars(scheme)
        assert peak <= 2 * 8 * n + 2**19


class TestBinnedTce:
    def test_calibrated_model_near_zero(self):
        m = SyntheticModel(0.0, -2.0)
        est = binned_tce(m, uwb_scheme(10), n_mc=50_000, seed=31)
        assert est.value < 3 * est.std_error

    def test_single_bin_matches_direct_mc(self):
        # Independent oracle: with one bin the statistic reduces to
        # |E[Y - f(X)]|, estimated here by a separate plain MC loop.
        m = SyntheticModel(0.5, -1.5)
        est = binned_tce(m, uwb_scheme(1), n_mc=200_000, seed=37)

        rng = np.random.default_rng(99)
        y = rng.integers(0, 2, size=200_000)
        x = rng.normal(np.where(y == 1, -1.0, 1.0), 1.0)
        z = 1.0 / (1.0 + np.exp(-(0.5 - 1.5 * x)))
        direct = abs(np.mean(y - z))
        se_direct = np.std(y - z, ddof=1) / np.sqrt(y.size)
        assert abs(est.value - direct) < 3 * (est.std_error + se_direct)

    @pytest.mark.parametrize("B", [1, 5, 35])
    def test_single_draw_has_zero_std_error(self, B):
        m = SyntheticModel(0.5, -1.5)
        for seed in range(20):
            est = binned_tce(m, uwb_scheme(B), n_mc=1, seed=seed)
            assert est.std_error == 0.0

    def test_deterministic(self):
        m = SyntheticModel(0.5, -1.5)
        a = binned_tce(m, uwb_scheme(5), n_mc=10_000, seed=7)
        b = binned_tce(m, uwb_scheme(5), n_mc=10_000, seed=7)
        assert a.value == b.value


class TestEceGap:
    def test_identical_inputs_give_zero(self):
        d = ScoredDataset([0.2, 0.8, 0.5], [0, 1, 1])
        assert ece_gap(d, d, uwb_scheme(3)).value == 0.0

    def test_triangle_inequality(self):
        rng = np.random.default_rng(61)
        for _ in range(30):
            a, b = random_dataset(rng), random_dataset(rng)
            s = uwb_scheme(int(rng.integers(1, 20)))
            gap = ece_gap(a, b, s)
            assert gap.value <= ece(a, s).value + ece(b, s).value + 1e-15

    def test_gap_shrinks_with_n(self):
        # Disjoint halves of one synthetic sample, averaged over 20 seeds.
        model = SyntheticModel(0.5, -1.5)
        means = []
        for n in (1000, 10_000):
            gaps = []
            for seed in range(20):
                d = scored_synthetic_dataset(model, 2 * n, seed, 5)
                half1 = d.subset(np.arange(n))
                half2 = d.subset(np.arange(n, 2 * n))
                gaps.append(ece_gap(half1, half2, uwb_scheme(cube_root_bins(n))).value)
            means.append(np.mean(gaps))
        assert means[1] < means[0]


class TestOptimalBins:
    def test_closed_form_value(self):
        assert optimal_bins(4000, 1.0, "uwb") == 35

    def test_umb_scan_is_argmin(self):
        n, L = 4000, 1.0
        B = optimal_bins(n, L, "umb")
        values = [total_bias_bound(b, n, L, "umb").value for b in range(1, n // 2 + 1)]
        assert values[B - 1] == min(values)

    def test_uwb_matches_scan_within_one_bin(self):
        for n in (100, 1000, 10_000, 100_000):
            for L in (0.0, 1.0, 5.0):
                closed = optimal_bins(n, L, "uwb")
                values = [total_bias_bound(b, n, L, "uwb").value for b in range(1, n // 2 + 1)]
                scan = int(np.argmin(values)) + 1
                assert abs(closed - scan) <= 1

    def test_cube_root_rule(self):
        assert cube_root_bins(4000) == 15
        assert cube_root_bins(20_000) == 27
        assert cube_root_bins(1000) == 10
        assert cube_root_bins(2000) == 12

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            optimal_bins(7, 1.0, "uwb")

    @given(st.integers(min_value=8, max_value=3000), st.floats(min_value=0.0, max_value=10.0))
    @settings(max_examples=60, deadline=None)
    def test_umb_equals_first_argmin_of_scalar_loop(self, n, L):
        # Reference: the scalar bound evaluated bin count by bin count.
        values = [total_bias_bound(b, n, L, "umb").value for b in range(1, n // 2 + 1)]
        assert optimal_bins(n, L, "umb") == values.index(min(values)) + 1

    @pytest.mark.parametrize("L", [float("nan"), float("inf")])
    @pytest.mark.parametrize("variant", ["uwb", "umb"])
    def test_non_finite_lipschitz_rejected(self, L, variant):
        with pytest.raises(ValueError, match="L must be finite"):
            optimal_bins(100, L, variant)


@pytest.mark.parametrize(
    "args, message",
    [
        ((100, -0.5, "uwb"), "L must be nonnegative"),
        ((100, 1.0, "quantile"), "unknown variant: quantile"),
    ],
    ids=["L below 0", "unknown variant"],
)
def test_optimal_bins_boundary_errors(args, message):
    with pytest.raises(ValueError) as e:
        optimal_bins(*args)
    assert str(e.value) == message
