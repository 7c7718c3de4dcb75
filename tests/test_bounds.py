"""Closed-form bound values, preconditions, and monotonicity."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from calbounds import (
    binning_bias_bound,
    gen_ece_bound,
    gen_tce_bound,
    high_prob_bound,
    metric_entropy_bound,
    metric_entropy_bound_parametric,
    optimal_bins,
    recalib_holdout_bound,
    recalib_reuse_bound,
    stat_bias_bound,
    total_bias_bound,
)

LN2 = math.log(2.0)


class TestStatBiasBound:
    def test_uwb_value(self):
        assert stat_bias_bound(15, 4000, "uwb").value == pytest.approx(
            0.07210134433004416, abs=1e-12
        )

    def test_umb_value(self):
        assert stat_bias_bound(15, 100, "umb").value == pytest.approx(
            0.8475523180496052, abs=1e-12
        )

    def test_vanishes_with_huge_n(self):
        assert stat_bias_bound(1, 10**8, "uwb").value < 2e-4

    def test_umb_needs_n_above_b(self):
        with pytest.raises(ValueError):
            stat_bias_bound(10, 10, "umb")


class TestBinningBiasBound:
    def test_uwb_values(self):
        assert binning_bias_bound(10, 100, 1.0, "uwb").value == pytest.approx(0.2)
        assert binning_bias_bound(100, 100, 0.0, "uwb").value == pytest.approx(0.01)

    def test_umb_value(self):
        assert binning_bias_bound(15, 4000, 1.0, "umb").value == pytest.approx(
            0.2928636265942294, abs=1e-12
        )


class TestTotalBiasBound:
    def test_additive_structure_uwb(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            B = int(rng.integers(1, 50))
            n = int(rng.integers(B + 1, 10_000))
            L = float(rng.uniform(0, 5))
            total = total_bias_bound(B, n, L, "uwb").value
            parts = binning_bias_bound(B, n, L, "uwb").value + stat_bias_bound(B, n, "uwb").value
            assert total == pytest.approx(parts, rel=1e-12)

    def test_value_at_derived_optimum(self):
        assert total_bias_bound(35, 4000, 1.0, "uwb").value == pytest.approx(
            0.1672794798430246, abs=1e-12
        )

    def test_optimal_b_minimizes_scan(self):
        # The floored closed form may land one bin off the integer argmin;
        # either the values agree to 1e-9 or the argmins differ by <= 1.
        n, L = 4000, 1.0
        B_star = optimal_bins(n, L, "uwb")
        best = total_bias_bound(B_star, n, L, "uwb").value
        values = [total_bias_bound(b, n, L, "uwb").value for b in range(1, n // 2 + 1)]
        scan_argmin = int(np.argmin(values)) + 1
        assert best <= min(values) + 1e-9 or abs(B_star - scan_argmin) <= 1


class TestHighProbBound:
    def test_value(self):
        assert high_prob_bound(15, 4000, 0.05).value == pytest.approx(
            0.0818319619157245, abs=1e-12
        )

    @pytest.mark.parametrize("delta", [0.0, 1.0, -0.2, 1.5])
    def test_delta_domain(self, delta):
        with pytest.raises(ValueError):
            high_prob_bound(15, 4000, delta)

    def test_smaller_delta_larger_bound(self):
        assert high_prob_bound(15, 4000, 0.05).value > high_prob_bound(15, 4000, 0.5).value


class TestGenEceBound:
    def test_zero_mi_values(self):
        assert gen_ece_bound(0.0, 15, 4000).value == pytest.approx(
            0.1442026886600883, abs=1e-12
        )
        assert gen_ece_bound(0.0, 27, 20_000).value == pytest.approx(
            0.08652161319605298, abs=1e-12
        )

    def test_monotonicity(self):
        assert gen_ece_bound(1.0, 15, 4000).value > gen_ece_bound(0.0, 15, 4000).value
        assert gen_ece_bound(0.0, 16, 4000).value > gen_ece_bound(0.0, 15, 4000).value
        assert gen_ece_bound(0.0, 15, 8000).value < gen_ece_bound(0.0, 15, 4000).value

    def test_negative_mi_rejected(self):
        with pytest.raises(ValueError):
            gen_ece_bound(-0.1, 15, 4000)


class TestGenTceBound:
    def test_uwb_value(self):
        assert gen_tce_bound(0.0, None, 15, 4000, 1.0, "uwb").value == pytest.approx(
            0.27753602199342164, abs=1e-12
        )

    def test_umb_adds_fcmi_term(self):
        base = gen_tce_bound(0.0, None, 15, 4000, 1.0, "uwb").value
        umb = gen_tce_bound(0.0, 0.0, 15, 4000, 1.0, "umb").value
        extra = 2.0 * math.sqrt(2.0 * 15 * LN2 / 4000)
        assert umb == pytest.approx(base + extra, rel=1e-12)

    def test_monotone_in_lipschitz(self):
        lo = gen_tce_bound(0.0, None, 15, 4000, 0.0, "uwb").value
        hi = gen_tce_bound(0.0, None, 15, 4000, 1.0, "uwb").value
        assert lo < hi

    def test_umb_requires_fcmi(self):
        with pytest.raises(ValueError):
            gen_tce_bound(0.0, None, 15, 4000, 1.0, "umb")

    def test_uwb_rejects_fcmi(self):
        with pytest.raises(ValueError, match="fcmi applies only to the uniform-mass variant"):
            gen_tce_bound(0.1, 5.0, 10, 1000, 1.0, "uwb")


class TestMetricEntropyBound:
    def test_zero_entropy_reduction(self):
        B, n = 10, 4000
        value = metric_entropy_bound(B, n, 0.0, 1.0 / B, 0.0).value
        assert value == pytest.approx(3.0 / B + math.sqrt(8.0 * B * LN2 / n), rel=1e-12)

    def test_parametric_value(self):
        # Direct evaluation of (3+2L)/B + sqrt(8 d B ln(2 L0 B^2) / n).
        assert metric_entropy_bound_parametric(15, 4000, 1.0, 2, 1.0).value == pytest.approx(
            0.9387710716399753, abs=1e-12
        )

    def test_general_matches_parametric_at_matching_entropy(self):
        # Supplying logN = d * ln(L0 * B / delta) at delta = 1/B makes the
        # entropy term of the general form differ from the parametric one
        # only in where the ln 2 sits; compare through the explicit formula.
        B, n, L, d, L0 = 15, 4000, 1.0, 2, 1.0
        delta = 1.0 / B
        logN = d * math.log(L0 * B / delta)
        general = metric_entropy_bound(B, n, L, delta, logN).value
        explicit = (1 + L) / B + (2 + L) * delta + math.sqrt(8 * B * (LN2 + logN) / n)
        assert general == pytest.approx(explicit, rel=1e-12)

    def test_delta_domain(self):
        with pytest.raises(ValueError):
            metric_entropy_bound(10, 4000, 1.0, 0.2, 0.0)  # delta > 1/B

    def test_parametric_log_positivity(self):
        with pytest.raises(ValueError):
            metric_entropy_bound_parametric(1, 4000, 1.0, 2, 0.4)  # 2*L0*B^2 < 1


class TestRecalibReuseBound:
    def test_table_values_at_zero_mi(self):
        assert recalib_reuse_bound(0.0, 0.0, 15, 4000).value == pytest.approx(
            0.1442026886600883, abs=1e-12
        )
        assert recalib_reuse_bound(0.0, 0.0, 27, 20_000).value == pytest.approx(
            0.08652161319605298, abs=1e-12
        )

    def test_equal_mi_doubles_single_term(self):
        single = math.sqrt(2.0 * (0.3 + 12 * LN2) / 2000)
        assert recalib_reuse_bound(0.3, 0.3, 12, 2000).value == pytest.approx(2 * single)

    def test_negative_mi_rejected(self):
        with pytest.raises(ValueError):
            recalib_reuse_bound(-0.1, 0.0, 15, 4000)


class TestRecalibHoldoutBound:
    def test_table_values(self):
        assert recalib_holdout_bound(15, 100).value == pytest.approx(
            0.8475523180496052, abs=1e-12
        )
        assert recalib_holdout_bound(27, 100).value == pytest.approx(
            1.4557839931215582, abs=1e-12
        )

    def test_domain_edge(self):
        assert recalib_holdout_bound(15, 30).value > 0
        with pytest.raises(ValueError):
            recalib_holdout_bound(15, 15)


class TestReportInvariants:
    @given(
        st.integers(min_value=1, max_value=100),
        st.integers(min_value=1, max_value=10**6),
        st.floats(min_value=0.0, max_value=10.0),
        st.sampled_from(["uwb", "umb"]),
    )
    @settings(max_examples=100, deadline=None)
    def test_nonnegative_and_finite(self, B, n, L, variant):
        if variant == "umb" and n <= B:
            return
        for report in (
            stat_bias_bound(B, n, variant),
            binning_bias_bound(B, n, L, variant),
            total_bias_bound(B, n, L, variant),
        ):
            assert math.isfinite(report.value)
            assert report.value >= 0.0
            assert report.vacuous == (report.value > 1.0)

    def test_inputs_recorded_verbatim(self):
        report = recalib_holdout_bound(15, 100)
        assert report.inputs == {"B": 15, "n_re": 100}
        again = recalib_holdout_bound(report.inputs["B"], report.inputs["n_re"])
        assert again.value == report.value

    def test_vacuous_flagged(self):
        assert recalib_holdout_bound(27, 100).vacuous
        assert not recalib_holdout_bound(15, 4000).vacuous
