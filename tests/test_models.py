"""Synthetic family, calibration oracle, Monte-Carlo TCE, and the trainer."""

import numpy as np
import pytest

from calbounds import (
    CalibrationOracle,
    SyntheticModel,
    TrainerConfig,
    calibration_slope,
    canonical_calibration,
    estimate_lipschitz,
    logistic_predict,
    mc_tce,
    sample_synthetic,
    train_logistic,
)


class TestSampleSynthetic:
    def test_label_frequency(self):
        _, y = sample_synthetic(100_000, seed=11)
        assert abs(np.mean(y) - 0.5) < 0.01

    def test_conditional_means(self):
        x, y = sample_synthetic(100_000, seed=12)
        assert abs(np.mean(x[y == 1]) - (-1.0)) < 0.02
        assert abs(np.mean(x[y == 0]) - 1.0) < 0.02

    def test_deterministic(self):
        x1, y1 = sample_synthetic(1000, seed=3)
        x2, y2 = sample_synthetic(1000, seed=3)
        assert np.array_equal(x1, x2) and np.array_equal(y1, y2)


class TestLogisticPredict:
    def test_symmetry_point(self):
        assert logistic_predict(SyntheticModel(0.0, -2.0), 0.0) == pytest.approx(0.5)

    def test_direct_evaluation(self):
        # 1 / (1 + e^2) at beta = (0, -2), x = 1
        assert logistic_predict(SyntheticModel(0.0, -2.0), 1.0) == pytest.approx(
            0.11920292202211755, abs=1e-12
        )

    def test_less_calibrated_parameters(self):
        # 1 / (1 + e^-0.5) at beta = (0.5, -1.5), x = 0
        assert logistic_predict(SyntheticModel(0.5, -1.5), 0.0) == pytest.approx(
            0.6224593312018546, abs=1e-12
        )

    def test_monotone_with_beta1_sign(self):
        x = np.linspace(-4, 4, 101)
        down = logistic_predict(SyntheticModel(0.3, -2.0), x)
        assert np.all(np.diff(down) < 0)
        up = logistic_predict(SyntheticModel(0.3, 2.0), x)
        assert np.all(np.diff(up) > 0)

    def test_beta1_zero_rejected(self):
        with pytest.raises(ValueError):
            SyntheticModel(0.0, 0.0)


class TestCanonicalCalibration:
    def test_identity_for_true_model(self):
        o = CalibrationOracle(SyntheticModel(0.0, -2.0))
        z = np.linspace(1e-6, 1 - 1e-6, 1001)
        assert np.max(np.abs(canonical_calibration(o, z) - z)) < 1e-12

    def test_identity_point(self):
        o = CalibrationOracle(SyntheticModel(0.0, -2.0))
        assert canonical_calibration(o, 0.3) == pytest.approx(0.3, abs=1e-12)

    @pytest.mark.parametrize("z", [0.0, 1.0])
    def test_boundary_domain_error(self, z):
        o = CalibrationOracle(SyntheticModel(0.5, -1.5))
        with pytest.raises(ValueError):
            canonical_calibration(o, z)

    def test_range(self):
        o = CalibrationOracle(SyntheticModel(0.7, -1.2))
        z = np.linspace(1e-4, 1 - 1e-4, 501)
        p = canonical_calibration(o, z)
        assert np.all(p >= 0.0) and np.all(p <= 1.0)

    def test_matches_empirical_conditional_mean(self):
        # The closed form should agree with the simulated label frequency
        # conditioned on the model score, up to cell width and noise.
        model = SyntheticModel(0.5, -1.5)
        o = CalibrationOracle(model)
        x, y = sample_synthetic(400_000, seed=5)
        z = logistic_predict(model, x)
        edges = np.linspace(0.02, 0.98, 17)
        for lo, hi in zip(edges[:-1], edges[1:]):
            cell = (z > lo) & (z <= hi)
            if cell.sum() > 2000:
                empirical = np.mean(y[cell])
                closed = canonical_calibration(o, (lo + hi) / 2)
                assert abs(empirical - closed) < 0.02


class TestCalibrationSlope:
    def test_matches_central_differences(self):
        rng = np.random.default_rng(21)
        h = 1e-6
        zs = np.linspace(0.01, 0.99, 100)
        for _ in range(10):
            beta0 = rng.uniform(-2.0, 2.0)
            beta1 = rng.uniform(0.5, 3.0) * rng.choice([-1.0, 1.0])
            o = CalibrationOracle(SyntheticModel(beta0, beta1))
            analytic = calibration_slope(o, zs)
            numeric = (canonical_calibration(o, zs + h) - canonical_calibration(o, zs - h)) / (2 * h)
            rel = np.abs(analytic - numeric) / np.maximum(np.abs(analytic), 1e-9)
            assert np.max(rel) < 1e-5


class TestEstimateLipschitz:
    def test_identity_slope_is_one(self):
        o = CalibrationOracle(SyntheticModel(0.0, -2.0))
        assert estimate_lipschitz(o, 100) == pytest.approx(1.0, abs=1e-9)

    def test_steeper_map_exceeds_one(self):
        o = CalibrationOracle(SyntheticModel(0.0, -1.0))
        assert estimate_lipschitz(o, 500) > 1.0

    def test_grid_too_small(self):
        o = CalibrationOracle(SyntheticModel(0.0, -1.0))
        with pytest.raises(ValueError):
            estimate_lipschitz(o, 2)


class TestMcTce:
    def test_calibrated_model_is_zero(self):
        o = CalibrationOracle(SyntheticModel(0.0, -2.0))
        est = mc_tce(o, 10_000, seed=5)
        assert est.value < 0.005

    def test_miscalibrated_model_stable_across_seeds(self):
        o = CalibrationOracle(SyntheticModel(0.5, -1.5))
        estimates = [mc_tce(o, 200_000, seed=s) for s in (1, 2, 3)]
        values = [e.value for e in estimates]
        assert min(values) > 0.0
        spread = max(values) - min(values)
        budget = 3 * max(e.std_error for e in estimates) * 2
        assert spread < budget

    def test_single_draw(self):
        o = CalibrationOracle(SyntheticModel(0.5, -1.5))
        est = mc_tce(o, 1, seed=9)
        assert est.n_samples == 1 and est.std_error == 0.0 and est.value >= 0.0

    def test_deterministic(self):
        o = CalibrationOracle(SyntheticModel(0.5, -1.5))
        assert mc_tce(o, 5000, seed=4).value == mc_tce(o, 5000, seed=4).value

    def test_error_shrinks_with_samples(self):
        # Root-n decay of the Monte-Carlo error for the calibrated model.
        o = CalibrationOracle(SyntheticModel(0.0, -2.0))
        small = mc_tce(o, 1000, seed=8)
        large = mc_tce(o, 100_000, seed=8)
        assert large.std_error < small.std_error


class TestTrainLogistic:
    def test_loss_decreases_monotonically(self):
        x = np.array([-1.0, 1.0])
        y = np.array([1, 0])
        losses = []
        for epochs in (1, 5, 20, 80):
            m = train_logistic((x, y), TrainerConfig(learning_rate=0.2, epochs=epochs, seed=0))
            p = logistic_predict(m, x)
            losses.append(-np.mean(y * np.log(p) + (1 - y) * np.log(1 - p)))
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_deterministic(self):
        x, y = sample_synthetic(200, seed=2)
        cfg = TrainerConfig(learning_rate=0.3, epochs=50, seed=13)
        m1 = train_logistic((x, y), cfg)
        m2 = train_logistic((x, y), cfg)
        assert (m1.beta0, m1.beta1) == (m2.beta0, m2.beta1)

    def test_recovers_generating_slope(self):
        # Data generated by the true posterior beta = (0, -2); the fitted
        # slope should land near -2 for each of five seeds.
        for seed in range(5):
            x, y = sample_synthetic(10_000, seed=100 + seed)
            m = train_logistic((x, y), TrainerConfig(learning_rate=0.5, epochs=400, seed=seed))
            assert abs(m.beta1 - (-2.0)) < 0.2

    def test_empty_training_set(self):
        with pytest.raises(ValueError, match="empty"):
            train_logistic([], TrainerConfig())

    @pytest.mark.parametrize("bad", ["x", "y"])
    def test_non_finite_input_rejected(self, bad):
        data = {"x": np.array([0.5, -0.5]), "y": np.array([1.0, 0.0])}
        data[bad][0] = np.nan
        with pytest.raises(ValueError, match="x and y must be finite"):
            train_logistic((data["x"], data["y"]), TrainerConfig(epochs=3))

    def test_divergence_reports_epoch(self):
        # One prediction saturates wrong whichever way the init points, so
        # the first update overflows the slope at this step size.
        x = np.array([1e200, -1e200])
        y = np.array([1, 1])
        with pytest.raises(ValueError, match="epoch"):
            train_logistic((x, y), TrainerConfig(learning_rate=1e109, epochs=3, seed=0))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainerConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            TrainerConfig(epochs=0)
