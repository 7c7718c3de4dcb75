"""Synthetic family, calibration map, Monte-Carlo TCE, and the trainer."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import expit

import calbounds.models as models_mod
from calbounds import (
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
from calbounds.rng import stream


class TestSampleSynthetic:
    def test_label_frequency(self):
        _, y = sample_synthetic(100_000, stream(11))
        assert abs(np.mean(y) - 0.5) < 0.01

    def test_conditional_means(self):
        x, y = sample_synthetic(100_000, stream(12))
        assert abs(np.mean(x[y == 1]) - (-1.0)) < 0.02
        assert abs(np.mean(x[y == 0]) - 1.0) < 0.02

    def test_deterministic(self):
        x1, y1 = sample_synthetic(1000, stream(3))
        x2, y2 = sample_synthetic(1000, stream(3))
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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["beta0", "beta1"])
    def test_non_finite_parameter_rejected(self, name, bad):
        params = {"beta0": 0.5, "beta1": -1.5, name: bad}
        with pytest.raises(ValueError, match=f"^{name} must be finite: {bad}$"):
            SyntheticModel(**params)


class TestCanonicalCalibration:
    def test_identity_for_true_model(self):
        m = SyntheticModel(0.0, -2.0)
        z = np.linspace(1e-6, 1 - 1e-6, 1001)
        assert np.max(np.abs(canonical_calibration(m, z) - z)) < 1e-12

    def test_identity_point(self):
        m = SyntheticModel(0.0, -2.0)
        assert canonical_calibration(m, 0.3) == pytest.approx(0.3, abs=1e-12)

    @pytest.mark.parametrize("z", [0.0, 1.0])
    def test_boundary_domain_error(self, z):
        m = SyntheticModel(0.5, -1.5)
        with pytest.raises(ValueError):
            canonical_calibration(m, z)

    def test_range(self):
        m = SyntheticModel(0.7, -1.2)
        z = np.linspace(1e-4, 1 - 1e-4, 501)
        p = canonical_calibration(m, z)
        assert np.all(p >= 0.0) and np.all(p <= 1.0)

    def test_matches_empirical_conditional_mean(self):
        # The closed form should agree with the simulated label frequency
        # conditioned on the model score, up to cell width and noise.
        model = SyntheticModel(0.5, -1.5)
        x, y = sample_synthetic(400_000, stream(5))
        z = logistic_predict(model, x)
        edges = np.linspace(0.02, 0.98, 17)
        for lo, hi in zip(edges[:-1], edges[1:]):
            cell = (z > lo) & (z <= hi)
            if cell.sum() > 2000:
                empirical = np.mean(y[cell])
                closed = canonical_calibration(model, (lo + hi) / 2)
                assert abs(empirical - closed) < 0.02


class TestCalibrationSlope:
    def test_matches_central_differences(self):
        rng = np.random.default_rng(21)
        h = 1e-6
        zs = np.linspace(0.01, 0.99, 100)
        for _ in range(10):
            beta0 = rng.uniform(-2.0, 2.0)
            beta1 = rng.uniform(0.5, 3.0) * rng.choice([-1.0, 1.0])
            m = SyntheticModel(beta0, beta1)
            analytic = calibration_slope(m, zs)
            numeric = (canonical_calibration(m, zs + h) - canonical_calibration(m, zs - h)) / (2 * h)
            rel = np.abs(analytic - numeric) / np.maximum(np.abs(analytic), 1e-9)
            assert np.max(rel) < 1e-5


class TestEstimateLipschitz:
    def test_identity_slope_is_one(self):
        m = SyntheticModel(0.0, -2.0)
        assert estimate_lipschitz(m) == pytest.approx(1.0, abs=1e-9)

    def test_steeper_map_exceeds_one(self):
        m = SyntheticModel(0.0, -1.0)
        assert estimate_lipschitz(m) > 1.0

    def test_grid_maximum_is_not_a_bound(self):
        # |beta1| <= 2: the grid misses the true maximum slope, slightly.
        m = SyntheticModel(0.5, -1.5)
        zs = np.linspace(1e-6, 1 - 1e-6, 2_000_001)
        assert estimate_lipschitz(m) < np.max(np.abs(calibration_slope(m, zs)))
        # |beta1| > 2: pi_1 is not Lipschitz, yet a finite number comes back.
        m = SyntheticModel(1.0, -3.0)
        assert estimate_lipschitz(m) == pytest.approx(27.7, abs=0.05)
        assert abs(calibration_slope(m, 1 - 1e-15)) > 1e5


def quad_tce(beta0, beta1):
    """E|sigmoid(beta0 + beta1 X) - sigmoid(-2X)| by quadrature, split where the two cross."""

    def integrand(x):
        density = (math.exp(-0.5 * (x + 1) ** 2) + math.exp(-0.5 * (x - 1) ** 2)) / (
            2 * math.sqrt(2 * math.pi)
        )
        return abs(expit(beta0 + beta1 * x) - expit(-2 * x)) * density

    crossing = -beta0 / (beta1 + 2)
    return quad(integrand, -np.inf, crossing)[0] + quad(integrand, crossing, np.inf)[0]


class TestMcTce:
    @given(seed=st.integers(0, 2**32 - 1), n_mc=st.integers(1, 5000))
    @settings(max_examples=30, deadline=None)
    def test_calibrated_model_is_zero(self, seed, n_mc):
        # f is the true posterior, so every draw contributes exactly 0.
        est = mc_tce(SyntheticModel(0.0, -2.0), n_mc, seed=seed)
        assert est.value == 0.0 and est.std_error == 0.0

    @pytest.mark.parametrize(
        "beta0, beta1, expected",
        [(0.0, -20.0, 0.141883), (0.5, -50.0, 0.151959), (0.5, 1000.0, 0.841009)],
    )
    def test_steep_models_match_quadrature(self, beta0, beta1, expected):
        # Steep models saturate f(x) to 0 or 1 over most of the draws.
        truth = quad_tce(beta0, beta1)
        assert truth == pytest.approx(expected, abs=5e-7)
        est = mc_tce(SyntheticModel(beta0, beta1), 10**6, seed=1)
        assert abs(est.value - truth) < 4 * est.std_error

    def test_miscalibrated_model_stable_across_seeds(self):
        m = SyntheticModel(0.5, -1.5)
        estimates = [mc_tce(m, 200_000, seed=s) for s in (1, 2, 3)]
        values = [e.value for e in estimates]
        assert min(values) > 0.0
        spread = max(values) - min(values)
        budget = 3 * max(e.std_error for e in estimates) * 2
        assert spread < budget

    def test_single_draw(self):
        m = SyntheticModel(0.5, -1.5)
        est = mc_tce(m, 1, seed=9)
        assert est.std_error == 0.0 and est.value >= 0.0

    def test_deterministic(self):
        m = SyntheticModel(0.5, -1.5)
        assert mc_tce(m, 5000, seed=4).value == mc_tce(m, 5000, seed=4).value

    def test_error_shrinks_with_samples(self):
        # Root-n decay of the Monte-Carlo error for a miscalibrated model.
        m = SyntheticModel(0.5, -1.5)
        small = mc_tce(m, 1000, seed=8)
        large = mc_tce(m, 100_000, seed=8)
        assert large.std_error < small.std_error


class TestTrainLogistic:
    def test_loss_decreases_monotonically(self):
        x = np.array([-1.0, 1.0])
        y = np.array([1, 0])
        losses = []
        for epochs in (1, 5, 20, 80):
            m = train_logistic((x, y), TrainerConfig(learning_rate=0.2, epochs=epochs))
            p = logistic_predict(m, x)
            losses.append(-np.mean(y * np.log(p) + (1 - y) * np.log(1 - p)))
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_deterministic(self):
        x, y = sample_synthetic(200, stream(2))
        cfg = TrainerConfig(learning_rate=0.3, epochs=50)
        m1 = train_logistic((x, y), cfg, seed=13)
        m2 = train_logistic((x, y), cfg, seed=13)
        assert (m1.beta0, m1.beta1) == (m2.beta0, m2.beta1)

    def test_recovers_generating_slope(self):
        # Data generated by the true posterior beta = (0, -2); the fitted
        # slope should land near -2 for each of five seeds.
        for seed in range(5):
            x, y = sample_synthetic(10_000, stream(100 + seed))
            m = train_logistic((x, y), TrainerConfig(learning_rate=0.5, epochs=400), seed=seed)
            assert abs(m.beta1 - (-2.0)) < 0.2

    def test_empty_training_set(self):
        with pytest.raises(ValueError, match="empty"):
            train_logistic((np.array([]), np.array([])), TrainerConfig())

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
        with warnings.catch_warnings(), pytest.raises(ValueError, match="epoch"):
            warnings.simplefilter("error")  # no numpy warning ahead of the package's message
            train_logistic((x, y), TrainerConfig(learning_rate=1e109, epochs=3))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainerConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            TrainerConfig(epochs=0)

    @pytest.mark.parametrize("lr", [np.nan, np.inf, -np.inf, -0.5])
    def test_non_finite_learning_rate_rejected(self, lr):
        with pytest.raises(ValueError, match="learning_rate must be positive and finite"):
            TrainerConfig(learning_rate=lr)

    @pytest.mark.parametrize("epochs", [2.5, 3.0, True, "3"])
    def test_non_integer_epochs_rejected(self, epochs):
        with pytest.raises(ValueError, match="epochs must be an integer"):
            TrainerConfig(epochs=epochs)

    def test_numpy_integer_epochs_accepted(self):
        assert TrainerConfig(epochs=np.int64(3)).epochs == 3


def reference_descent(x, y, cfg, seed):
    """The trainer as a lone 1-d loop over one training set, started from ``seed``."""
    beta = np.random.Generator(
        np.random.Philox(np.random.SeedSequence(seed))
    ).normal(0.0, 0.01, size=2)
    for _ in range(cfg.epochs):
        resid = expit(beta[0] + beta[1] * x) - y
        beta = beta - cfg.learning_rate * np.array([np.mean(resid), np.mean(resid * x)])
    return beta[0], beta[1]


def masked_stack(n_masks, n, seed):
    """Training halves of ``n_masks`` random masks over one n x 2 supersample."""
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(n, 2))
    labels = rng.integers(0, 2, size=(n, 2))
    masks = rng.integers(0, 2, size=(n_masks, n))
    rows = np.arange(n)
    return values[rows, masks], labels[rows, masks]


class TestBatchedDescent:
    """``_descend`` trains each row of a stack as ``train_logistic`` trains it alone."""

    @given(
        n_masks=st.integers(1, 6),
        n=st.integers(1, 40),
        epochs=st.integers(1, 30),
        lr=st.sampled_from([0.05, 0.5, 2.0]),
        block=st.integers(1, 300),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_rows_equal_lone_training(self, n_masks, n, epochs, lr, block, seed):
        x, y = masked_stack(n_masks, n, seed)
        seeds = [seed + m for m in range(n_masks)]
        inits = np.array([models_mod._init_beta(s) for s in seeds])
        cfg = TrainerConfig(learning_rate=lr, epochs=epochs)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(models_mod, "_BLOCK", block)  # n_masks * n > block splits the stack
            batched = models_mod._descend(inits, x, y, cfg)
        assert batched.shape == (n_masks, 2)
        for m, (b0, b1) in enumerate(batched):
            lone = train_logistic((x[m], y[m]), cfg, seed=seeds[m])
            assert (b0, b1) == (lone.beta0, lone.beta1)
            assert (lone.beta0, lone.beta1) == reference_descent(x[m], y[m], cfg, seeds[m])

    def test_block_split_at_the_element_cap(self):
        n = models_mod._BLOCK // 2 + 1  # one row per block
        x, y = masked_stack(3, n, seed=4)
        cfg = TrainerConfig(epochs=3)
        inits = np.array([models_mod._init_beta(s) for s in range(3)])
        batched = models_mod._descend(inits, x, y, cfg)
        for m in range(3):
            lone = reference_descent(x[m], y[m], cfg, m)
            assert tuple(batched[m]) == lone

    def test_divergent_row_reports_epoch_and_row(self):
        # Only row 2 holds the wrong-saturating pair of test_divergence_reports_epoch;
        # the moderate rows stay finite at this step size for three epochs.
        x = np.tile([-0.5, 0.5], (4, 1))
        x[2] = (1e200, -1e200)
        y = np.ones_like(x)
        inits = np.array([models_mod._init_beta(s) for s in range(4)])
        cfg = TrainerConfig(learning_rate=1e109, epochs=3)
        for block in (models_mod._BLOCK, 2):  # one batch, then one row per block
            with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings(), pytest.raises(
                ValueError, match=r"^non-finite loss at epoch 1 in row 2$"
            ):
                warnings.simplefilter("error")  # no numpy warning ahead of the package's message
                mp.setattr(models_mod, "_BLOCK", block)
                models_mod._descend(inits, x, y, cfg, where=lambda row: f" in row {row}")
        rest = [0, 1, 3]
        assert np.isfinite(models_mod._descend(inits[rest], x[rest], y[rest], cfg)).all()

    def test_zero_slope_kept(self):
        # With x = 0 the slope's gradient vanishes, so a zero slope stays exactly 0.
        x, y = np.zeros((1, 6)), np.array([[0, 1, 1, 0, 1, 1]])
        beta = models_mod._descend(np.zeros((1, 2)), x, y, TrainerConfig(epochs=5))
        assert beta[0, 1] == 0.0 and beta[0, 0] != 0.0


@pytest.mark.parametrize(
    "train, message",
    [
        ((np.zeros(3), np.zeros(4)), "x and y must have equal length"),
        ((np.zeros((2, 3)), np.zeros(6)), "x and y must have equal length"),
    ],
    ids=["lengths", "shapes"],
)
def test_boundary_errors(train, message):
    with pytest.raises(ValueError) as e:
        train_logistic(train, TrainerConfig())
    assert str(e.value) == message
