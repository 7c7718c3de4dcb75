"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines on stdout. Tolerances are fixed here, not tuned at runtime.
"""

import math

import numpy as np

from calbounds import (
    CmiExperimentConfig,
    ScoredDataset,
    SyntheticModel,
    TrainerConfig,
    canonical_calibration,
    cube_root_bins,
    ece,
    ece_reformulated,
    exact_binned_tce,
    exact_tce,
    fit_recalibrator,
    gen_ece_bound,
    optimal_bins,
    recalib_holdout_bound,
    recalib_reuse_bound,
    recalibrated_tce,
    run_cmi_experiment,
    total_bias_bound,
    umb_scheme,
    uwb_scheme,
)
from calbounds.binning import assign
from calbounds.experiments import run_synthetic_experiment, scored_synthetic_dataset

LN2 = math.log(2.0)


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[ACCEPTANCE {num:02d}] {name}: {status}  {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_01_table_bound_reproduction():
    """Closed-form recalibration bounds reproduce the reported table values."""
    checks = [
        ("holdout B=15 n_re=100", recalib_holdout_bound(15, 100).value, 0.8475, 0.0005),
        ("holdout B=27 n_re=100", recalib_holdout_bound(27, 100).value, 1.4558, 0.0010),
        ("reuse B=15 n=4000", recalib_reuse_bound(0.0, 0.0, 15, 4000).value, 0.1442, 0.0005),
        ("reuse B=27 n=20000", recalib_reuse_bound(0.0, 0.0, 27, 20_000).value, 0.08652, 0.0003),
    ]
    detail = "; ".join(f"{name}: {value:.6f}" for name, value, _, _ in checks)
    ok = all(abs(value - target) <= tol for _, value, target, tol in checks)
    _report(1, "table-bound-reproduction", ok, detail)


def test_criterion_02_scaling_law_slope():
    """Log-log slope of the mean TCE gap vs n at the optimal bin count.

    The total-bias bound (1+L)/B + sqrt(2B ln2/n) is an upper bound that
    decays as n^{-1/3} at the optimal B; it limits how slowly the gap may
    decay, not how fast. Stated band: [-0.45, -0.20], target -1/3.

    (a) The calibrated member beta=(0, -2) has TCE ~ 0, so its gap is the
        folded sampling noise of the ECE, of order sqrt(B/n) ~ n^{-1/3}:
        the statistical term is tight and its slope must lie in the band.
    (b) The miscalibrated member beta=(0.5, -1.5) has a negligible binning
        bias at these B, so its gap is the sampling error of the ECE around
        a nonzero TCE and shrinks at the CLT rate n^{-1/2}. Its mean gap
        must stay under the bound at every n and must decay no more slowly
        than the band's upper edge.
    (c) For both members the bound itself decays at slope -1/3.
    """
    grid = [1000, 3162, 10_000, 31_623, 100_000]
    fits = {}
    for beta in ((0.0, -2.0), (0.5, -1.5)):
        result = run_synthetic_experiment(
            *beta, grid, reps=20, b_rule="optimal", seed=20_240
        )
        mean_gaps = np.abs(result.tce.value - result.ece).mean(axis=1)
        bound_slope = np.polyfit(np.log(result.n_grid), np.log(result.bounds), 1)[0]
        worst_ratio = max(mean_gaps / result.bounds)
        fits[beta] = (result.slope, bound_slope, worst_ratio)

    cal_slope, cal_bound_slope, _ = fits[(0.0, -2.0)]
    mis_slope, mis_bound_slope, mis_ratio = fits[(0.5, -1.5)]
    ok_a = -0.45 <= cal_slope <= -0.20
    ok_b = mis_ratio <= 1.0 and mis_slope <= -0.20
    ok_c = all(abs(b + 1 / 3) <= 0.02 for b in (cal_bound_slope, mis_bound_slope))
    _report(
        2,
        "scaling-law-slope",
        ok_a and ok_b and ok_c,
        f"(a) calibrated (0,-2) gap slope {cal_slope:.3f} in [-0.45, -0.20]; "
        f"(b) miscalibrated (0.5,-1.5) gap slope {mis_slope:.3f} <= -0.20, "
        f"max mean gap / bound {mis_ratio:.3f} <= 1; "
        f"(c) bound slopes {cal_bound_slope:.3f}, {mis_bound_slope:.3f} "
        f"= -1/3 +/- 0.02",
    )


def test_criterion_03_definitional_equivalence():
    """Both ECE forms agree to 1e-12 on 1000 random (dataset, scheme) pairs."""
    rng = np.random.default_rng(33)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 200))
        d = ScoredDataset(rng.uniform(size=n), rng.integers(0, 2, size=n))
        B = int(rng.integers(1, 50))  # small n with large B exercises empty bins
        s = uwb_scheme(B)
        worst = max(worst, abs(ece(d, s).value - ece_reformulated(d, s).value))
    _report(3, "definitional-equivalence", worst < 1e-12, f"max |diff| = {worst:.2e}")


def test_criterion_04_umb_mass_property():
    """Uniform-mass bin counts follow the order-statistic formula exactly."""
    rng = np.random.default_rng(44)
    ok = True
    for _ in range(200):
        n = int(rng.integers(8, 400))
        B = int(rng.integers(1, n // 2 + 1))
        scores = rng.permutation(np.linspace(1e-3, 1 - 1e-3, n))  # distinct
        s = umb_scheme(scores, B)
        counts = np.bincount(assign(s, scores) - 1, minlength=s.B)
        expected = np.array([(n * b) // B - (n * (b - 1)) // B for b in range(1, B + 1)])
        ok = ok and np.array_equal(counts, expected)
    _report(4, "umb-mass-property", ok)


def test_criterion_05_overestimation_inequality():
    """Mean ECE across fresh test sets is at least the exact binned TCE - 3 sigma."""
    model = SyntheticModel(0.5, -1.5)
    scheme = uwb_scheme(cube_root_bins(500))
    eces = [
        ece(scored_synthetic_dataset(model, 500, 555, 0, rep), scheme).value
        for rep in range(200)
    ]
    mean_ece = float(np.mean(eces))
    sigma = float(np.std(eces, ddof=1) / np.sqrt(len(eces)))  # the oracle is exact
    oracle = exact_binned_tce(model, scheme)
    ok = mean_ece >= oracle.value - 3 * sigma
    _report(
        5,
        "overestimation-inequality",
        ok,
        f"mean ECE {mean_ece:.5f} vs binned TCE {oracle.value:.5f} - 3*{sigma:.5f}",
    )


def test_criterion_06_optimal_bins_consistency():
    """Closed-form bin count matches the integer-scan argmin within one bin."""
    worst = 0
    for n in (100, 1000, 10_000, 100_000):
        for L in (0.0, 1.0, 5.0):
            closed = optimal_bins(n, L, "uwb")
            values = [total_bias_bound(b, n, L, "uwb").value for b in range(1, n // 2 + 1)]
            scan = int(np.argmin(values)) + 1
            worst = max(worst, abs(closed - scan))
    _report(6, "optimal-bins-consistency", worst <= 1, f"max |closed - scan| = {worst}")


def test_criterion_07_mi_estimator_sanity():
    """kNN MI: zero under independence, ln 2 on a binary relation, plug-in agreement."""
    from calbounds import ksg_mixed_mi, plugin_mi

    rng = np.random.default_rng(77)
    indep = ksg_mixed_mi(rng.uniform(size=2000), rng.integers(0, 2, size=2000), k=3)
    labels = np.repeat([0, 1], 1000)
    binary = ksg_mixed_mi(labels + rng.normal(0, 1e-6, size=2000), labels, k=3)
    max_disagree = 0.0
    for seed in range(20):
        r = np.random.default_rng(700 + seed)
        lab = r.integers(0, 2, size=2000)
        vals = r.normal(loc=r.uniform(0.0, 1.5) * lab, scale=1.0)
        diff = abs(ksg_mixed_mi(vals, lab, k=3).value - plugin_mi(vals, lab, bins=8).value)
        max_disagree = max(max_disagree, diff)
    ok = (
        abs(indep.value) < 0.05
        and abs(binary.value - LN2) < 0.05
        and max_disagree < 0.08
    )
    _report(
        7,
        "mi-estimator-sanity",
        ok,
        f"indep {indep.value:.4f}; binary {binary.value:.4f} (ln2 {LN2:.4f}); "
        f"max knn-plugin diff {max_disagree:.4f}",
    )


def test_criterion_08_cmi_bound_validity():
    """Mean train/test ECE gap over the 50-cell grid stays below its bound."""
    cfg = CmiExperimentConfig(
        n=2000,
        B=cube_root_bins(2000),
        trainer=TrainerConfig(learning_rate=0.5, epochs=300),
        seed=4242,
        n_supersamples=5,
        n_masks=10,
    )
    assert cfg.B == 12
    result = run_cmi_experiment(cfg)  # sampled masks: eCMI is its ceiling, n ln 2
    bound = gen_ece_bound(result.ecmi_est.clamped, cfg.B, cfg.n).value
    ok = result.mean_gap <= bound
    _report(
        8,
        "cmi-bound-validity",
        ok,
        f"mean gap {result.mean_gap:.5f} <= bound {bound:.5f} "
        f"(eCMI {result.ecmi_est.method} {result.ecmi_est.value:.5f})",
    )


def test_criterion_09_recalibrator_identity():
    """Fit-set ECE of every fitted recalibrator is zero to 1e-12."""
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(200):
        B = int(rng.integers(1, 12))
        n = int(rng.integers(2 * B, 2 * B + 300))
        d = ScoredDataset(rng.uniform(size=n), rng.integers(0, 2, size=n))
        r = fit_recalibrator(d, B=B)
        worst = max(worst, recalibrated_tce(r, d))
    _report(9, "recalibrator-identity", worst < 1e-12, f"max fit-set ECE = {worst:.2e}")


def test_criterion_10_calibrated_model_zero():
    """The true-posterior model has identity calibration and zero TCE."""
    model = SyntheticModel(0.0, -2.0)
    z = np.linspace(1e-6, 1 - 1e-6, 10_001)
    pointwise = float(np.max(np.abs(canonical_calibration(model, z) - z)))
    tce = exact_tce(model)
    ok = pointwise < 1e-12 and tce.value == 0.0 and tce.error == 0.0
    _report(
        10,
        "calibrated-model-zero",
        ok,
        f"max |pi(z) - z| = {pointwise:.2e}; exact TCE = {tce.value:.2e} (error {tce.error:.2e})",
    )
