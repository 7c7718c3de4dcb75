"""Calibration-error estimators, gap statistics, and bin-count selection."""

import contextlib
import math
import signal
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from calbounds import (
    BinningScheme,
    QuadEstimate,
    ScoredDataset,
    SyntheticModel,
    bin_stats,
    cube_root_bins,
    ece,
    ece_gap,
    ece_reformulated,
    exact_binned_tce,
    exact_tce,
    fit_recalibrator,
    logistic_predict,
    optimal_bins,
    recalibrated_tce,
    sample_synthetic,
    total_bias_bound,
    umb_scheme,
    uwb_scheme,
)
from calbounds.binning import _BLOCK, _MAX_CELLS
from calbounds.bounds import _total_bias
from calbounds.experiments import scored_synthetic_dataset
from calbounds.metrics import _binned_error, _binned_errors, _floor_cbrt
from calbounds.rng import stream


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


class TestRowWiseErrors:
    """``_binned_errors`` equals ``_binned_error`` row by row, bit for bit."""

    @given(R=st.integers(1, 30), B=st.integers(1, 20), decimals=st.integers(1, 3),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_equals_binned_error_per_row(self, R, B, decimals, seed):
        # Per (half, row): every bin filled, some bins empty, or all empty. Mean scores are
        # rounded, so that bins tie on their prediction, and labels are 0/1 sums as counted.
        rng = np.random.default_rng(seed)
        shape = (2, R, B)
        empty = rng.uniform(size=shape) < rng.choice([0.0, 0.0, 0.3, 1.0], size=(2, R, 1))
        counts = np.where(empty, 0, rng.integers(1, 60, shape))
        label_sums = rng.binomial(counts, rng.uniform(size=shape)).astype(np.float64)
        score_sums = np.round(rng.uniform(size=shape), decimals) * counts
        predicted = score_sums / np.maximum(counts, 1)
        expected = [[_binned_error(counts[h, r], predicted[h, r], label_sums[h, r])
                     for r in range(R)] for h in range(2)]
        assert _binned_errors(counts, predicted, label_sums).tobytes() == np.array(expected).tobytes()


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

    def test_equals_one_bincount_of_residuals(self):
        # The residuals are added a block at a time, and keep the bits of one
        # np.bincount over all n > _BLOCK rows: under a table, under uniform-mass
        # edges, and under packed edges that leave no table.
        n = 3 * _BLOCK + 5
        rng = np.random.default_rng(31)
        d = ScoredDataset(rng.uniform(size=n), rng.integers(0, 2, size=n))
        packed = BinningScheme([0.0, 0.5, 0.5 + 1e-9, 1.0], "umb")
        assert packed._cells == 0
        for s in (uwb_scheme(15), umb_scheme(d.scores, 200), packed):
            idx = np.maximum(np.searchsorted(s.edges, d.scores, "left"), 1) - 1
            sums = np.bincount(idx, weights=d.labels - d.scores, minlength=s.B)
            want = min(float(np.sum(np.abs(sums)) / n), 1.0)
            assert ece_reformulated(d, s).value.hex() == want.hex()

    def test_peak_memory_two_arrays_of_n(self):
        # One block's bin index and residuals, and table temporaries: under a MiB
        # at n = 1e6. Residuals of all n rows held 7.63 MiB more.
        n = 1_000_000
        rng = np.random.default_rng(29)
        d = ScoredDataset(rng.uniform(size=n), rng.integers(0, 2, size=n))
        tracemalloc.start()
        try:
            ece_reformulated(d, uwb_scheme(200))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2**20

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
        assert peak <= 2**20


def mc_binned_tce(m, s, n_mc, seed):
    """Monte-Carlo reference for the binned TCE: sum_i |mean of (y - z) 1{z in bin i}|,
    with the sum of the per-bin standard errors of those means."""
    x, y = sample_synthetic(n_mc, stream(seed))
    z = logistic_predict(m, x)
    resid = y - z
    idx = np.maximum(np.searchsorted(s.edges, z, "left"), 1) - 1
    sums, sq_sums = (np.bincount(idx, weights=w, minlength=s.B) for w in (resid, resid * resid))
    variances = sq_sums / n_mc - (sums / n_mc) ** 2
    se = np.sum(np.sqrt(np.maximum(variances, 0.0) / n_mc))
    return float(np.sum(np.abs(sums)) / n_mc), float(se)


def drawn_umb_scheme(m, B, seed=0):
    """A uniform-mass scheme on 10^4 scores drawn from the synthetic model."""
    return umb_scheme(logistic_predict(m, sample_synthetic(10**4, stream(seed))[0]), B)


def edge_scheme(points):
    """A scheme whose interior edges are the distinct points in (0, 1)."""
    return BinningScheme(np.unique([0.0, *points, 1.0]), "umb")


betas = st.tuples(st.floats(-10, 10), st.floats(-100, 100).filter(lambda b: abs(b) > 1e-3))
interior = st.lists(st.floats(0, 1, exclude_min=True, exclude_max=True), max_size=30)

# (beta, B, binned TCE) by quadrature; at (4, -2) f - sigmoid(-2x) keeps one sign, so it is the TCE.
BINNED_TCE_TABLE = [
    ((0.5, -1.5), 15, 0.0743485),
    ((1.0, -3.0), 15, 0.0845227),
    ((4.0, -2.0), 5, 0.3805010),
    ((4.0, -2.0), 15, 0.3805010),
    ((4.0, -2.0), 100, 0.3805010),
]


class TestBinnedTce:
    @pytest.mark.parametrize("beta, B, expected", BINNED_TCE_TABLE)
    def test_table(self, beta, B, expected):
        est = exact_binned_tce(SyntheticModel(*beta), uwb_scheme(B))
        assert est.value == pytest.approx(expected, abs=1e-7)
        assert 0.0 <= est.error <= 1e-12

    def test_calibrated_model_near_zero(self):
        # f is the true posterior, so every panel, and so every bin, is exactly 0.
        m = SyntheticModel(0.0, -2.0)
        for s in (uwb_scheme(1), uwb_scheme(10), uwb_scheme(200), drawn_umb_scheme(m, 20)):
            assert exact_binned_tce(m, s) == QuadEstimate(0.0, 0.0)

    def test_single_bin_matches_direct_mc(self):
        # Independent oracle: with one bin the statistic reduces to
        # |E[Y - f(X)]|, estimated here by a separate plain MC loop.
        m = SyntheticModel(0.5, -1.5)
        est = exact_binned_tce(m, uwb_scheme(1))

        rng = np.random.default_rng(99)
        y = rng.integers(0, 2, size=10**6)
        x = rng.normal(np.where(y == 1, -1.0, 1.0), 1.0)
        z = 1.0 / (1.0 + np.exp(-(0.5 - 1.5 * x)))
        direct = abs(np.mean(y - z))
        se_direct = np.std(y - z, ddof=1) / np.sqrt(y.size)
        assert abs(est.value - direct) < 4 * se_direct

    @pytest.mark.parametrize(
        "beta, B, method",
        [((0.5, -1.5), 15, "uwb"), ((1.0, -3.0), 15, "uwb"), ((-0.5, -2.5), 7, "uwb"),
         ((0.5, -1.5), 12, "umb")],
    )
    def test_monte_carlo_reference_within_4_se(self, beta, B, method):
        m = SyntheticModel(*beta)
        s = uwb_scheme(B) if method == "uwb" else drawn_umb_scheme(m, B, seed=1)
        value, se = mc_binned_tce(m, s, 10**6, seed=26)
        assert abs(value - exact_binned_tce(m, s).value) < 4 * se

    def test_deterministic(self):
        # Seed-free, so the same bits each call.
        m, s = SyntheticModel(0.5, -1.5), uwb_scheme(5)
        assert exact_binned_tce(m, s) == exact_binned_tce(m, s)

    @given(
        beta0=st.floats(-1e308, 1e308, allow_subnormal=True),
        beta1=st.floats(-1e308, 1e308).filter(lambda b: b != 0.0),
        points=interior,
    )
    @settings(max_examples=100, deadline=None)
    def test_any_finite_model(self, beta0, beta1, points):
        # Overflow of a bin end or of the sign's argument is taken as inf, with no warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = exact_binned_tce(SyntheticModel(beta0, beta1), edge_scheme(points))
        assert 0.0 <= est.value <= 1.0 and 0.0 <= est.error <= 1e-12

    @given(beta=betas, points=interior)
    @settings(max_examples=60, deadline=None)
    def test_at_most_the_tce(self, beta, points):
        m = SyntheticModel(*beta)
        binned, tce = exact_binned_tce(m, edge_scheme(points)), exact_tce(m)
        # The errors bound the quadrature's, not the float rounding of its sums (~1e-17).
        assert binned.value <= tce.value + binned.error + tce.error + 1e-15

    @given(beta=betas, points=interior, extra=interior)
    @settings(max_examples=60, deadline=None)
    def test_more_edges_never_lower_it(self, beta, points, extra):
        m = SyntheticModel(*beta)
        coarse = exact_binned_tce(m, edge_scheme(points))
        fine = exact_binned_tce(m, edge_scheme(points + extra))
        assert fine.value >= coarse.value - (coarse.error + fine.error) - 1e-15

    @pytest.mark.parametrize(
        "beta", [(4.0, -2.0), (-0.7, -2.0), (-130.0, 1.0), (-100.0, -4.0)],
        ids=["beta1 -2", "beta1 -2 low", "crossing 43.3", "crossing -50"],
    )
    @pytest.mark.parametrize("B", [1, 7, 60])
    def test_equals_tce_without_a_sign_change(self, beta, B):
        m = SyntheticModel(*beta)
        binned, tce = exact_binned_tce(m, uwb_scheme(B)), exact_tce(m)
        assert abs(binned.value - tce.value) <= binned.error + tce.error + 1e-15


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


@contextlib.contextmanager
def _time_limit(seconds):
    """Raise TimeoutError in a call still running after ``seconds``, so a loop that never
    ends fails its example instead of hanging the run."""
    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _float_guess_cbrt(v, steps=10_000):
    """The float-guess root the integer one replaced, walked to the floor one integer per
    step; None where it would take more than ``steps`` steps."""
    b = int(v ** (1.0 / 3.0))
    while (b + 1) ** 3 <= v and steps:
        b, steps = b + 1, steps - 1
    while b > 0 and b**3 > v and steps:
        b, steps = b - 1, steps - 1
    return b if steps else None


def _float_guess_uwb(n, L):
    """The closed-form uniform-width rule as computed before, or None where it did not return."""
    b = _float_guess_cbrt(2.0 * n * (1.0 + L) ** 2 / math.log(2.0))
    return None if b is None else int(min(max(b, 1), n // 2))


def _full_umb_scan(n, L):
    """The uniform-mass rule as a scan of every B in [1, n//2]."""
    return int(np.argmin(_total_bias(np.arange(1, n // 2 + 1), n, L, "umb"))) + 1


# Properties under a time limit are not shrunk: each shrink step that hangs costs the limit.
_NO_SHRINK = (Phase.explicit, Phase.reuse, Phase.generate)
_CUBES_AND_NEIGHBOURS = st.integers(2, 10**4).flatmap(
    lambda k: st.sampled_from([k**3 - 1, k**3, k**3 + 1]))


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

    @given(st.one_of(st.integers(0, 10**400), st.integers(0, 10**30), _CUBES_AND_NEIGHBOURS))
    @example(10**60)  # the float guess's walk from here never ended
    @settings(max_examples=300, deadline=None, phases=_NO_SHRINK)
    def test_floor_cbrt_is_exact(self, v):
        with _time_limit(2):
            b = _floor_cbrt(v)
        assert b**3 <= v < (b + 1) ** 3

    @given(st.one_of(st.integers(1, 10**12), _CUBES_AND_NEIGHBOURS))
    @settings(max_examples=300, deadline=None)
    def test_cube_root_rule_equals_float_guess(self, n):
        assert cube_root_bins(n) == max(1, _float_guess_cbrt(n))

    def test_cube_root_rule_at_huge_n(self):
        with _time_limit(2):
            assert cube_root_bins(10**90) == 10**30
            assert cube_root_bins(10**402) == 10**134
            assert cube_root_bins(10**402 - 1) == 10**134 - 1
            b = cube_root_bins(10**400)
        assert b**3 <= 10**400 < (b + 1) ** 3

    @given(st.one_of(st.integers(8, 10**12), _CUBES_AND_NEIGHBOURS.filter(lambda n: n >= 8)),
           st.one_of(st.floats(0.0, 1e30), st.floats(0.0, 10.0)))
    @example(1000, 1e100)
    @settings(max_examples=300, deadline=None, phases=_NO_SHRINK)
    def test_uwb_equals_float_guess_where_it_returned(self, n, L):
        with _time_limit(2):
            b = optimal_bins(n, L, "uwb")
        before = _float_guess_uwb(n, L)
        if before is not None:
            assert b == before
        v = 2.0 * n * (1.0 + L) ** 2 / math.log(2.0)  # the exact floor root, clamped to n//2
        assert (b**3 <= v < (b + 1) ** 3) if b < n // 2 else b**3 <= v

    @pytest.mark.parametrize("L", [1e100, 1e200, 1.7e308])
    def test_uwb_clamps_a_steep_bound(self, L):
        # v = 2 n (1+L)^2 / ln 2 is past (n//2)^3, or (1+L)^2 past the float range.
        with _time_limit(2):
            assert optimal_bins(1000, L, "uwb") == 500

    @given(st.one_of(st.integers(8, 3000), st.integers(8, 200_000)),
           st.one_of(st.floats(0.0, 1e6), st.sampled_from([0.0, 1.5222634, 1e3, 1e30, 1e300])))
    @settings(max_examples=150, deadline=None)
    def test_umb_bounded_scan_equals_full_scan(self, n, L):
        assert optimal_bins(n, L, "umb") == _full_umb_scan(n, L)

    def test_umb_scan_overflow_is_silent(self):
        # (2+L) times the statistical term overflows to inf, a valid "worse": the argmin is
        # the full scan's, and no RuntimeWarning (an error under this suite's filter) escapes.
        with np.errstate(over="ignore"):
            full = _full_umb_scan(200, 1.7e308)
        assert optimal_bins(200, 1.7e308, "umb") == full == 6

    def test_umb_scan_memory_is_bounded(self):
        # The full scan held about 10 float arrays of n/2 = 5e6 entries (200 MB traced).
        tracemalloc.start()
        try:
            optimal_bins(10**7, 1.0, "umb")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

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
