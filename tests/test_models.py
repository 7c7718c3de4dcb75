"""Synthetic family, calibration map, exact and Monte-Carlo TCE, and the trainer."""

import hashlib
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import expit, logit, ndtr

import calbounds.models as models_mod
from calbounds import (
    SyntheticModel,
    TrainerConfig,
    calibration_slope,
    canonical_calibration,
    estimate_lipschitz,
    exact_tce,
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

    @pytest.mark.parametrize("n", [1, 1000, 100_000])
    @pytest.mark.parametrize("seed", range(5))
    def test_draws_equal_normal_with_label_means(self, n, seed):
        # The draws of rng.normal(loc=+-1, scale=1.0), bit for bit.
        x, y = sample_synthetic(n, stream(seed))
        rng = stream(seed)
        want_y = rng.integers(0, 2, size=n)
        want_x = rng.normal(loc=np.where(want_y == 1, -1.0, 1.0), scale=1.0)
        assert x.tobytes() == want_x.tobytes()
        assert y.tobytes() == want_y.tobytes()


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

    def test_overflowing_product_saturates_without_warning(self):
        # beta1 * x overflows to -inf and +inf, whose expit is exactly 0 and 1.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            z = logistic_predict(SyntheticModel(0.0, 1e308), [-2.0, 2.0])
        assert z.tolist() == [0.0, 1.0]

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

    @pytest.mark.parametrize("beta1", [1e-320, -1e-320, 5e-324])
    def test_underflowing_slope_names_beta1(self, beta1):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^beta1 = .* is too small for the Lipschitz"):
                estimate_lipschitz(SyntheticModel(0.5, beta1))


def quad_tce(beta0, beta1):
    """E|sigmoid(beta0 + beta1 X) - sigmoid(-2X)| by scipy's adaptive quadrature.

    Over [-40, 40], split at -1, 0, 1, where the two cross and at f's midpoint:
    an infinite range can miss the mass of a crossing far out in the tail.
    """

    def integrand(x):
        density = (math.exp(-0.5 * (x + 1) ** 2) + math.exp(-0.5 * (x - 1) ** 2)) / (
            2 * math.sqrt(2 * math.pi)
        )
        return abs(expit(beta0 + beta1 * x) - expit(-2 * x)) * density

    cuts = [-1.0, 0.0, 1.0, -beta0 / beta1] + ([-beta0 / (beta1 + 2)] if beta1 != -2 else [])
    edges = sorted({-40.0, 40.0, *(min(max(c, -40.0), 40.0) for c in cuts)})
    return sum(quad(integrand, lo, hi, epsabs=1e-13, limit=200)[0] for lo, hi in zip(edges, edges[1:]))


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


# (beta, TCE) by quadrature; beta1 = 1e300 makes f the step 1{x > 0}, whose TCE is Phi(1).
TCE_TABLE = [
    ((0.5, -1.5), 0.0744433),
    ((0.0, -20.0), 0.1418834),
    ((0.5, -50.0), 0.1519590),
    ((0.5, 1000.0), 0.8410093),
    ((0.5, 1e300), 0.8413447),
    ((1.0, -3.0), 0.0845689),
    ((4.0, -2.0), 0.3805010),
]


# The bits of each TCE_TABLE value and error, as (value.hex(), error.hex()).
TCE_BITS = {
    (0.5, -1.5): ("0x1.30eb6afd1cbaap-4", "0x1.4468000000000p-47"),
    (0.0, -20.0): ("0x1.2293c4de4355fp-3", "0x1.a842000000000p-44"),
    (0.5, -50.0): ("0x1.373648a036791p-3", "0x1.1530842000000p-47"),
    (0.5, 1000.0): ("0x1.ae98c4785337bp-1", "0x1.3b4c0e034200cp-47"),
    (0.5, 1e300): ("0x1.aec4bd120d372p-1", "0x1.c680000000003p-45"),
    (1.0, -3.0): ("0x1.5a64df65a4ea2p-4", "0x1.4b50000002b00p-47"),
    (4.0, -2.0): ("0x1.85a20c70791b2p-2", "0x1.4200000000dc0p-49"),
}

# numpy picks its float64 exp kernel by CPU feature, and the quadrature's error bits follow
# it, through the density and models._expit: the pins are keyed by a fingerprint of exp
# (see exp_fingerprint). The kernel without AVX-512 is glibc's exp, so there _expit has
# scipy's bits; the AVX-512 one moves it by up to 4 ulp (TestStandIns).
TCE_BITS_BY_EXP = {
    "75bcc0a0cd4d": {  # numpy's AVX-512 kernel
        **TCE_BITS,
        (0.5, -1.5): ("0x1.30eb6afd1cbaap-4", "0x1.4498000000000p-47"),
        (0.0, -20.0): ("0x1.2293c4de4355fp-3", "0x1.a844000000000p-44"),
        (0.5, -50.0): ("0x1.373648a036791p-3", "0x1.152003c000000p-47"),
    },
    "e7549d8a592b": {  # numpy's kernel without AVX-512, as under NO_AVX512
        **TCE_BITS,
        (0.5, 1000.0): ("0x1.ae98c4785337bp-1", "0x1.3acc0e034200cp-47"),
        (4.0, -2.0): ("0x1.85a20c70791b2p-2", "0x1.4400000000dc0p-49"),
    },
}
NO_AVX512 = "X86_V4 AVX512_ICL AVX512_SPR"  # NPY_DISABLE_CPU_FEATURES for the second kernel


def exp_fingerprint() -> str:
    """The first 12 hex digits of the sha256 of numpy's float64 exp over a fixed grid."""
    return hashlib.sha256(np.exp(np.linspace(-40.0, 40.0, 100001)).tobytes()).hexdigest()[:12]


def run_without_avx512(*node_ids: str) -> subprocess.CompletedProcess:
    """pytest on ``node_ids`` in an interpreter whose numpy dispatches exp to the second kernel."""
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *node_ids],
        env=dict(os.environ, NPY_DISABLE_CPU_FEATURES=NO_AVX512),
        capture_output=True, text=True, timeout=300)


class TestExactTce:
    @pytest.mark.parametrize("beta, expected", TCE_TABLE, ids=[str(b) for b, _ in TCE_TABLE])
    def test_table(self, beta, expected):
        est = exact_tce(SyntheticModel(*beta))
        assert est.value == pytest.approx(expected, abs=1e-6)
        assert 0.0 <= est.error <= 1e-12
        assert exact_tce(SyntheticModel(*beta)) == est  # seed-free, so the same bits each call

    @pytest.mark.parametrize("beta", TCE_BITS, ids=str)
    def test_bits(self, beta):
        # The synthetic digests pin only (0.5, -1.5); a change to the quadrature shows here.
        fingerprint = exp_fingerprint()
        assert fingerprint in TCE_BITS_BY_EXP, f"no pinned bits for numpy exp {fingerprint}"
        est = exact_tce(SyntheticModel(*beta))
        assert (est.value.hex(), est.error.hex()) == TCE_BITS_BY_EXP[fingerprint][beta]

    def test_bits_without_avx512(self):
        proc = run_without_avx512(f"{__file__}::TestExactTce::test_bits")
        assert proc.returncode == 0, proc.stdout[-2000:]
        assert f"{len(TCE_BITS)} passed" in proc.stdout

    def test_step_model_is_phi_of_one(self):
        est = exact_tce(SyntheticModel(0.5, 1e300))
        assert abs(est.value - ndtr(1.0)) <= est.error

    def test_calibrated_model_is_exactly_zero(self):
        assert exact_tce(SyntheticModel(0, -2)) == models_mod.QuadEstimate(0.0, 0.0)

    @pytest.mark.parametrize("beta", [(0.5, -1.5), (1.0, -1.0), (-0.5, -2.5), (0.0, -20.0)])
    def test_monte_carlo_mean_within_4_se(self, beta):
        m = SyntheticModel(*beta)
        mc = mc_tce(m, 10**6, seed=25)
        assert abs(mc.value - exact_tce(m).value) < 4 * mc.std_error

    @given(beta0=st.floats(-3, 3), beta1=st.floats(-10, 10).filter(lambda b: abs(b) > 1e-3))
    @settings(max_examples=40, deadline=None)
    def test_matches_scipy_quad(self, beta0, beta1):
        assert exact_tce(SyntheticModel(beta0, beta1)).value == pytest.approx(
            quad_tce(beta0, beta1), abs=1e-10
        )

    @given(
        beta0=st.floats(-1e308, 1e308, allow_subnormal=True),
        beta1=st.floats(-1e308, 1e308).filter(lambda b: b != 0.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_any_finite_model(self, beta0, beta1):
        # Overflow of -beta0/beta1 or beta1*x is taken as inf, with no warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = exact_tce(SyntheticModel(beta0, beta1))
        assert 0.0 <= est.value <= 1.0 and 0.0 <= est.error <= 1e-12

    def test_steep_model_off_centre_converges(self):
        # f's midpoint lies at x = -0.453, where one float step of x moves f by about
        # 1e-13: no narrow panel meets its share there, so the summed error decides.
        est = exact_tce(SyntheticModel(7631.006560452792, 16846.27220307029))
        assert est.error <= 1e-12
        assert est.value == pytest.approx(0.8173343488, abs=1e-9)


def ulp_gap(a, b) -> np.ndarray:
    """Per element, the number of float64 steps from a to b; 0 where both are NaN."""
    a, b = np.broadcast_arrays(*(np.atleast_1d(np.asarray(v, dtype=np.float64)) for v in (a, b)))
    ia, ib = (v.view(np.int64) for v in (a, b))
    ia, ib = (np.where(i < 0, np.iinfo(np.int64).min - i, i) for i in (ia, ib))  # ordered like the floats
    return np.where(np.isnan(a) & np.isnan(b), 0, np.abs(ia - ib))


# The most float64 steps by which the stand-ins may differ from scipy, per numpy exp kernel
# (measured: expit over 10^7 draws on (-37.5, -35.5), where 1 + exp(-x) passes 2**53, and
# logit over 3 * 10^6 uniform draws). numpy dispatches log with exp.
STAND_IN_ULPS = {
    "75bcc0a0cd4d": {"expit": 4, "logit": 1, "logit_mid": 2},  # AVX-512
    "e7549d8a592b": {"expit": 0, "logit": 0, "logit_mid": 0},  # glibc's exp and log
}
EDGES = [0.0, -0.0, 1.0, 0.3, 0.65, 0.5, 709.78, -709.78, 710.0, -710.0, 745.2, -745.2, 1e308,
         -1e308, 5e-324, math.inf, -math.inf]


def stand_in_ulps() -> dict:
    fingerprint = exp_fingerprint()
    assert fingerprint in STAND_IN_ULPS, f"no stated ulp gaps for numpy exp {fingerprint}"
    return STAND_IN_ULPS[fingerprint]


class TestStandIns:
    """models._expit and models._logit against scipy, which the package no longer imports."""

    @given(x=st.lists(st.floats(allow_nan=False), min_size=1, max_size=50) | st.just(EDGES))
    @settings(max_examples=300, deadline=None)
    def test_expit_within_stated_ulps(self, x):
        x = np.array(x)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = models_mod._expit(x)
            out = x.copy()
            in_place = models_mod._expit(out, out=out)
        assert in_place is out and out.tobytes() == got.tobytes()
        assert ulp_gap(got, expit(x)).max() <= stand_in_ulps()["expit"]

    @given(z=st.lists(st.floats(0.0, 1.0) | st.floats(), min_size=1, max_size=50) | st.just(EDGES))
    @settings(max_examples=300, deadline=None)
    def test_logit_within_stated_ulps(self, z):
        z = np.array(z)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            gap = ulp_gap(models_mod._logit(z), logit(z))
        mid = (z >= 0.3) & (z <= 0.65)  # scipy's log1p form
        ulps = stand_in_ulps()
        assert gap[~mid].max(initial=0) <= ulps["logit"]
        assert gap[mid].max(initial=0) <= ulps["logit_mid"]

    @pytest.mark.parametrize("v", EDGES + [math.nan, 0.7, -36.75])
    def test_scalars_keep_scipy_types(self, v):
        # A Python float and a 0-d array each give a numpy scalar, as scipy's ufuncs do.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for fn, ref, ulps in ((models_mod._expit, expit, "expit"),
                                  (models_mod._logit, logit, "logit_mid")):
                for arg in (v, np.array(v)):
                    got = fn(arg)
                    assert type(got) is np.float64
                    assert ulp_gap(got, ref(arg))[0] <= stand_in_ulps()[ulps]

    def test_bit_equal_without_avx512(self):
        # There numpy's exp and log are glibc's, which scipy calls: STAND_IN_ULPS holds 0s.
        proc = run_without_avx512(f"{__file__}::TestStandIns::test_expit_within_stated_ulps",
                                  f"{__file__}::TestStandIns::test_logit_within_stated_ulps")
        assert proc.returncode == 0, proc.stdout[-2000:]
        assert "2 passed" in proc.stdout


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
        resid = models_mod._expit(beta[0] + beta[1] * x) - y
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


def stacked_descent(beta, x, y, cfg, block):
    """The batched descent before its buffers: fresh temporaries, mean and np.stack each epoch."""
    out = np.empty_like(beta)
    step = max(1, block // x.shape[1])
    for lo in range(0, len(beta), step):
        b, xb, yb = beta[lo:lo + step], x[lo:lo + step], y[lo:lo + step]
        for _ in range(cfg.epochs):
            resid = models_mod._expit(b[:, :1] + b[:, 1:] * xb) - yb
            grad = np.stack([resid.mean(axis=1), (resid * xb).mean(axis=1)], axis=1)
            b = b - cfg.learning_rate * grad
        out[lo:lo + step] = b
    return out


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

    @given(
        rows=st.integers(1, 40),
        n=st.integers(1, 300),
        epochs=st.integers(1, 20),
        lr=st.sampled_from([0.05, 0.5, 2.0]),
        block=st.integers(1, 2000),
        int_labels=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_buffers_equal_stacked_loop(self, rows, n, epochs, lr, block, int_labels, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(rows, n))
        y = rng.integers(0, 2, size=(rows, n))
        y = y if int_labels else y.astype(np.float64)
        beta = rng.normal(0.0, 0.01, size=(rows, 2))
        cfg = TrainerConfig(learning_rate=lr, epochs=epochs)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(models_mod, "_BLOCK", block)
            got = models_mod._descend(beta, x, y, cfg)
        assert got.tobytes() == stacked_descent(beta, x, y, cfg, block).tobytes()

    def test_block_split_at_the_element_cap(self):
        n = models_mod._BLOCK // 2 + 1  # one row per block
        x, y = masked_stack(3, n, seed=4)
        cfg = TrainerConfig(epochs=3)
        inits = np.array([models_mod._init_beta(s) for s in range(3)])
        batched = models_mod._descend(inits, x, y, cfg)
        for m in range(3):
            lone = reference_descent(x[m], y[m], cfg, m)
            assert tuple(batched[m]) == lone

    @pytest.mark.parametrize("n", [255, 256, 500, 2000, 8191, 8192, 9000])
    def test_rows_around_the_buffer_rule(self, n):
        # 256 <= n < 8192 descends under a row-length buffer (500 is not a multiple of 16);
        # the others under numpy's own.
        x, y = masked_stack(3, n, seed=n)
        cfg = TrainerConfig(epochs=3)
        inits = np.array([models_mod._init_beta(s) for s in range(3)])
        before = np.getbufsize()
        batched = models_mod._descend(inits, x, y, cfg)
        assert np.getbufsize() == before
        assert batched.tobytes() == stacked_descent(inits, x, y, cfg, models_mod._BLOCK).tobytes()
        for m in range(3):
            lone = train_logistic((x[m], y[m]), cfg, seed=m)
            assert tuple(batched[m]) == (lone.beta0, lone.beta1) == reference_descent(x[m], y[m], cfg, m)

    def test_divergent_row_reports_epoch_and_row(self):
        # Only row 2 holds the wrong-saturating pair of test_divergence_reports_epoch;
        # the moderate rows stay finite at this step size for three epochs.
        before = np.getbufsize()
        for n in (2, 256):  # numpy's own buffer, then a row-length one
            x = np.tile([-0.5, 0.5], (4, n // 2))
            x[2] = np.tile([1e200, -1e200], n // 2)
            y = np.ones_like(x)
            inits = np.array([models_mod._init_beta(s) for s in range(4)])
            cfg = TrainerConfig(learning_rate=1e109, epochs=3)
            # One batch, two rows per block (row 2 opens the second), one row per block.
            for block in (models_mod._BLOCK, 2 * n, n):
                with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings(), pytest.raises(
                    ValueError, match=r"^non-finite loss at epoch 1 in row 2$"
                ):
                    warnings.simplefilter("error")  # no numpy warning ahead of the package's message
                    mp.setattr(models_mod, "_BLOCK", block)
                    models_mod._descend(inits, x, y, cfg, where=lambda row: f" in row {row}")
                assert np.getbufsize() == before
            rest = [0, 1, 3]
            assert np.isfinite(models_mod._descend(inits[rest], x[rest], y[rest], cfg)).all()

    @pytest.mark.parametrize("n", [2, 256])
    @pytest.mark.parametrize("epochs", [1, 3])
    def test_divergence_named_by_the_first_block_and_earliest_epoch(self, n, epochs):
        # Row 2 diverges at epoch 1 (the last epoch when epochs = 1) and row 3 starts
        # non-finite, so its epoch is 0. Blocks run in order, so one row per block names
        # row 2; a block holding both rows names row 3 at the earlier epoch.
        x = np.tile([-0.5, 0.5], (4, n // 2))
        x[2] = np.tile([1e200, -1e200], n // 2)
        y = np.ones_like(x)
        inits = np.array([models_mod._init_beta(s) for s in range(4)])
        inits[3, 1] = np.inf
        cfg = TrainerConfig(learning_rate=1e109, epochs=epochs)
        for block, named in ((models_mod._BLOCK, "epoch 0 in row 3"), (2 * n, "epoch 0 in row 3"),
                             (n, "epoch 1 in row 2")):
            with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings(), pytest.raises(
                ValueError, match=rf"^non-finite loss at {named}$"
            ):
                warnings.simplefilter("error")
                mp.setattr(models_mod, "_BLOCK", block)
                models_mod._descend(inits, x, y, cfg, where=lambda row: f" in row {row}")

    @pytest.mark.parametrize("size", [8192, 4096, 1 << 16])
    def test_caller_buffer_size_comes_back(self, size):
        # On return and on the non-finite raise, whether or not the rule set its own size.
        x, y = masked_stack(2, 500, seed=5)
        inits = np.array([models_mod._init_beta(s) for s in range(2)])
        caller = np.setbufsize(size)
        try:
            models_mod._descend(inits, x, y, TrainerConfig(epochs=2))
            assert np.getbufsize() == size
            x[1] = 1e200
            with pytest.raises(ValueError, match="^non-finite loss at epoch 1$"):
                models_mod._descend(inits, x, y, TrainerConfig(learning_rate=1e109, epochs=3))
            assert np.getbufsize() == size
        finally:
            np.setbufsize(caller)

    def test_zero_slope_kept(self):
        # With x = 0 the slope's gradient vanishes, so a zero slope stays exactly +0.0,
        # as b - g leaves it.
        x, y = np.zeros((1, 6)), np.array([[0, 1, 1, 0, 1, 1]])
        beta = models_mod._descend(np.zeros((1, 2)), x, y, TrainerConfig(epochs=5))
        assert beta[0, 1] == 0.0 and not np.signbit(beta[0, 1]) and beta[0, 0] != 0.0


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
