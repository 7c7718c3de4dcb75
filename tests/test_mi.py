"""Mutual-information estimators and the supersample mask experiment."""

import math
import warnings

import numpy as np
import pytest

from calbounds import (
    CmiExperimentConfig,
    Supersample,
    TrainerConfig,
    ksg_mixed_mi,
    plugin_mi,
    run_cmi_experiment,
    sample_synthetic,
)
from calbounds.mi import _cell_statistics, _make_fit_fn
from calbounds.rng import stream

LN2 = math.log(2.0)


def constant_fitter(level=0.7):
    """Trainer stub that ignores the data and predicts a constant."""

    def fit(x, y):
        return lambda xs: np.full(np.shape(xs), level)

    return fit


def identity_fitter():
    """Trainer stub whose predictions are the raw inputs (already scores)."""

    def fit(x, y):
        return lambda xs: np.asarray(xs, dtype=float)

    return fit


class TestKsgMixedMi:
    def test_independent_inputs_near_zero(self):
        rng = np.random.default_rng(2)
        values = rng.uniform(size=2000)
        labels = rng.integers(0, 2, size=2000)
        est = ksg_mixed_mi(values, labels, k=3)
        assert abs(est.value) < 0.05

    def test_deterministic_binary_relation_near_ln2(self):
        rng = np.random.default_rng(3)
        labels = np.repeat([0, 1], 1000)
        values = labels + rng.normal(0, 1e-6, size=2000)
        est = ksg_mixed_mi(values, labels, k=3)
        assert abs(est.value - LN2) < 0.05

    def test_agrees_with_plugin_oracle(self):
        rng = np.random.default_rng(5)
        v = rng.normal(size=2000)
        labels = (v + rng.normal(0, 1.0, size=2000) > 0).astype(int)
        knn = ksg_mixed_mi(v, labels, k=3)
        plug = plugin_mi(v, labels, bins=8)
        assert abs(knn.value - plug.value) < 0.08

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(7)
        v = rng.uniform(0.1, 2.0, size=2000)
        labels = (v + rng.normal(0, 0.5, size=2000) > 1.0).astype(int)
        direct = ksg_mixed_mi(v, labels, k=3)
        cubed = ksg_mixed_mi(v**3, labels, k=3)
        assert abs(direct.value - cubed.value) < 0.03

    def test_single_label_is_zero_with_warning(self):
        with pytest.warns(UserWarning):
            est = ksg_mixed_mi(np.linspace(0, 1, 50), np.zeros(50, dtype=int), k=3)
        assert est.value == 0.0

    def test_all_singleton_labels_zero_with_warning(self):
        with pytest.warns(UserWarning):
            est = ksg_mixed_mi(np.linspace(0, 1, 10), np.arange(10), k=3)
        assert est.value == 0.0

    def test_insufficient_pairs(self):
        with pytest.raises(ValueError, match="insufficient pairs"):
            ksg_mixed_mi([0.1, 0.2, 0.3], [0, 1, 0], k=3)

    def test_non_finite_values_rejected(self):
        rng = np.random.default_rng(0)
        values, labels = rng.uniform(size=200), rng.integers(0, 4, size=200)
        values[:20] = np.nan
        with pytest.raises(ValueError, match="values must be finite"):
            ksg_mixed_mi(values, labels, k=3)

    def test_clamped_copy(self):
        rng = np.random.default_rng(11)
        est = ksg_mixed_mi(rng.uniform(size=500), rng.integers(0, 2, size=500), k=3)
        assert est.clamped == max(est.value, 0.0)

    def test_tied_values_deterministic(self):
        values = np.repeat(np.linspace(0, 1, 20), 5)
        labels = np.tile([0, 1], 50)
        a = ksg_mixed_mi(values, labels, k=3)
        b = ksg_mixed_mi(values, labels, k=3)
        assert a.value == b.value

    def test_vector_values_max_norm(self):
        # Two-dimensional statistics: the informative coordinate dominates.
        rng = np.random.default_rng(31)
        labels = rng.integers(0, 2, size=1000)
        informative = labels + rng.normal(0, 0.2, size=1000)
        noise = rng.normal(0, 0.2, size=1000)
        vec = np.column_stack([informative, noise])
        est = ksg_mixed_mi(vec, labels, k=3)
        assert est.value > 0.3

    def test_matches_reference_knn_implementation(self):
        # scikit-learn ships the same mixed-type estimator; where it is
        # installed, the two should agree to estimator-noise precision.
        sklearn_fs = pytest.importorskip("sklearn.feature_selection")
        rng = np.random.default_rng(0)
        cases = []
        cases.append((rng.uniform(size=2000), rng.integers(0, 2, size=2000)))
        u = rng.integers(0, 2, size=2000)
        cases.append((rng.normal(1.2 * u, 1.0), u))
        for v, u in cases:
            mine = ksg_mixed_mi(v, u, k=3).value
            ref = sklearn_fs.mutual_info_classif(
                v.reshape(-1, 1), u, n_neighbors=3, discrete_features=False,
                random_state=0,
            )[0]
            # The reference clamps at 0, so compare after clamping.
            assert abs(max(mine, 0.0) - ref) < 0.01


class TestPluginMi:
    def test_independent_near_zero(self):
        rng = np.random.default_rng(13)
        est = plugin_mi(rng.uniform(size=2000), rng.integers(0, 2, size=2000), bins=8)
        assert abs(est.value) < 0.05

    def test_deterministic_relation_near_ln2(self):
        rng = np.random.default_rng(17)
        labels = np.repeat([0, 1], 1000)
        values = labels + rng.normal(0, 1e-6, size=2000)
        est = plugin_mi(values, labels, bins=8)
        assert abs(est.value - LN2) < 0.03

    def test_single_label_zero(self):
        with pytest.warns(UserWarning):
            est = plugin_mi(np.linspace(0, 1, 40), np.ones(40, dtype=int), bins=4)
        assert est.value == 0.0

    def test_non_finite_values_rejected(self):
        values = np.linspace(0, 1, 40)
        values[[3, 17]] = [np.nan, np.inf]
        with pytest.raises(ValueError, match="values must be finite"):
            plugin_mi(values, np.tile([0, 1], 20), bins=4)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            plugin_mi(np.linspace(0, 1, 40), np.tile([0, 1], 20), bins=1)
        with pytest.raises(ValueError):
            plugin_mi(np.linspace(0, 1, 7), np.array([0, 1, 0, 1, 0, 1, 0]), bins=2)

    def test_estimator_agreement_across_mixed_distributions(self):
        # Twenty seeded mixed-type distributions; the kNN estimate tracks
        # the histogram plug-in within the stated budget.
        for seed in range(20):
            rng = np.random.default_rng(100 + seed)
            shift = rng.uniform(0.0, 1.5)
            labels = rng.integers(0, 2, size=2000)
            values = rng.normal(loc=shift * labels, scale=1.0)
            knn = ksg_mixed_mi(values, labels, k=3)
            plug = plugin_mi(values, labels, bins=8)
            assert abs(knn.value - plug.value) < 0.08


def hand_supersample():
    """4-row supersample whose halves are hand-computable with B = 2."""
    # mask 0 selects column 0 (training): scores (0.1, 0.4, 0.6, 0.9),
    # labels (0, 0, 1, 1); test half: scores (0.2, 0.3, 0.7, 0.8),
    # labels (0, 1, 1, 0).
    values = np.array([[0.1, 0.2], [0.4, 0.3], [0.6, 0.7], [0.9, 0.8]])
    labels = np.array([[0, 0], [0, 1], [1, 1], [1, 0]])
    mask = np.zeros(4, dtype=int)
    return Supersample(values, labels, mask, seed=0)


def random_supersample(rng, n, seed=0):
    """Scored supersample of n rows with uniform scores, labels and mask."""
    return Supersample(
        rng.uniform(size=(n, 2)), rng.integers(0, 2, size=(n, 2)),
        rng.integers(0, 2, size=n), seed=seed,
    )


def synthetic_supersample(n, seed):
    """Raw supersample of 2n synthetic draws with a uniform mask."""
    x, y = sample_synthetic(2 * n, 0, rng=stream(seed, 0))
    mask = stream(seed, 1).integers(0, 2, size=n)
    return Supersample(x.reshape(n, 2), y.reshape(n, 2), mask, seed=seed)


class TestEcmiStatistic:
    """The cell's ECE gap: |ECE on the complement half - ECE on the training half|."""

    def test_hand_example_umb(self):
        # UMB edges from the training half: u_1 = f_(2) = 0.4.
        # Train: bins {0.1,0.4 | y 0,0} and {0.6,0.9 | y 1,1} -> ECE = 0.25.
        # Test: bins {0.2,0.3 | y 0,1} and {0.7,0.8 | y 1,0} -> ECE = 0.25.
        gap, _, _ = _cell_statistics(hand_supersample(), identity_fitter(), "umb", B=2)
        assert gap == pytest.approx(0.0, abs=1e-15)

    def test_symmetry_under_mask_flip_with_stub(self):
        # A data-independent trainer makes the statistic symmetric in the
        # mask and its complement.
        s = random_supersample(np.random.default_rng(19), 20, seed=4)
        flipped = Supersample(s.values, s.labels, 1 - s.mask, seed=s.seed)
        fit = constant_fitter()
        assert _cell_statistics(s, fit, "uwb", B=4)[0] == pytest.approx(
            _cell_statistics(flipped, fit, "uwb", B=4)[0], abs=1e-15
        )

    def test_bounded_by_two(self):
        rng = np.random.default_rng(23)
        for seed in range(10):
            s = random_supersample(rng, 30, seed=seed)
            gap, _, _ = _cell_statistics(s, constant_fitter(0.4), "uwb", B=5)
            assert 0.0 <= gap <= 2.0

    def test_shrinks_with_n(self):
        cfg = TrainerConfig(learning_rate=0.5, epochs=150, seed=0)
        means = []
        for n in (100, 1000):
            gaps = []
            for seed in range(20):
                sup = synthetic_supersample(n, seed)
                gaps.append(_cell_statistics(sup, _make_fit_fn(cfg), "uwb", B=4)[0])
            means.append(np.mean(gaps))
        assert means[1] < means[0]

    def test_deterministic(self):
        sup = synthetic_supersample(200, seed=9)
        fit = _make_fit_fn(TrainerConfig(learning_rate=0.5, epochs=100, seed=5))
        assert _cell_statistics(sup, fit, "umb", B=4) == _cell_statistics(sup, fit, "umb", B=4)


class TestDeltaStatistics:
    """The cell's delta1/delta2: per-bin label-sum and count differences over n."""

    def test_hand_example(self):
        # Same 4-row supersample, UMB B=2 from the training half.
        # delta1 bins: |(0+1) - (0+0)|/4 + |(1+0) - (1+1)|/4 = 0.5.
        # delta2 bins: counts match (2 vs 2 in each bin) -> 0.
        _, d1, d2 = _cell_statistics(hand_supersample(), identity_fitter(), "umb", B=2)
        assert d1 == pytest.approx(0.5, abs=1e-15)
        assert d2 == pytest.approx(0.0, abs=1e-15)

    def test_identical_halves_give_zero(self):
        values = np.column_stack([np.linspace(0.1, 0.9, 8)] * 2)
        labels = np.column_stack([np.tile([0, 1], 4)] * 2)
        s = Supersample(values, labels, np.zeros(8, dtype=int), seed=0)
        gap, d1, d2 = _cell_statistics(s, identity_fitter(), "umb", B=2)
        assert gap == 0.0 and d1 == 0.0 and d2 == 0.0

    def test_delta2_bounded_by_two(self):
        rng = np.random.default_rng(29)
        for seed in range(10):
            s = random_supersample(rng, 24, seed=seed)
            _, _, d2 = _cell_statistics(s, identity_fitter(), "umb", B=3)
            assert d2 <= 2.0


class TestRunCmiExperiment:
    def test_constant_predictor_mi_near_zero(self):
        cfg = CmiExperimentConfig(
            n=50, B=3, trainer=TrainerConfig(seed=0), seed=12,
            n_supersamples=3, n_masks=8,
        )
        result = run_cmi_experiment(cfg, fit_fn=constant_fitter())
        assert abs(result.ecmi_est.value) < 0.05
        assert abs(result.i_delta1.value) < 0.05
        assert abs(result.i_delta2.value) < 0.05

    def test_deterministic(self):
        cfg = CmiExperimentConfig(
            n=40, B=3, trainer=TrainerConfig(epochs=60, seed=1), seed=21,
            n_supersamples=2, n_masks=6,
        )
        a = run_cmi_experiment(cfg)
        b = run_cmi_experiment(cfg)
        assert a.mean_gap == b.mean_gap
        assert a.ecmi_est.value == b.ecmi_est.value
        assert a.cells == b.cells

    def test_finite_estimates_at_default_protocol(self):
        cfg = CmiExperimentConfig(
            n=500, B=7, trainer=TrainerConfig(epochs=80, seed=3), seed=33,
        )
        result = run_cmi_experiment(cfg)
        assert math.isfinite(result.mean_gap)
        assert math.isfinite(result.ecmi_est.value)
        assert 0.0 <= result.mean_gap <= 2.0
        assert len(result.cells) == 5 * 10 * 3

    def test_exhaustive_mode_plugin_oracle(self):
        cfg = CmiExperimentConfig(
            n=5, B=2, trainer=TrainerConfig(epochs=40, seed=2), seed=8,
            n_supersamples=2, n_masks=2, exhaustive=True,
        )
        result = run_cmi_experiment(cfg)
        assert result.ecmi_est.method == "plugin"
        assert result.ecmi_est.n_pairs == 2 * 2**5
        assert math.isfinite(result.ecmi_est.value)

    def test_repeated_masks_share_a_label(self):
        # Only 2^3 = 8 masks exist, so 10 draws repeat one: equal masks must
        # share a label, or every label is a singleton and the estimate a silent 0.
        cfg = CmiExperimentConfig(
            n=3, B=1, trainer=TrainerConfig(seed=0), seed=4, n_supersamples=2, n_masks=10,
        )
        with warnings.catch_warnings():
            warnings.filterwarnings("error", message="all labels are singletons")
            result = run_cmi_experiment(cfg, fit_fn=identity_fitter())
        assert math.isfinite(result.ecmi_est.value)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CmiExperimentConfig(n=0, B=2, trainer=TrainerConfig(), seed=0)
        with pytest.raises(ValueError):
            CmiExperimentConfig(n=10, B=2, trainer=TrainerConfig(), seed=0, n_masks=1)
        with pytest.raises(ValueError):
            CmiExperimentConfig(n=20, B=2, trainer=TrainerConfig(), seed=0, exhaustive=True)
