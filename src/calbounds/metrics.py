"""Binned calibration-error estimators, the ECE gap, and bin-count selection.

The expected calibration error of a dataset under a scheme is the
mass-weighted sum of per-bin |mean score - mean label| deviations; empty
bins carry zero mass and contribute nothing. An algebraically equivalent
single-pass form (per-bin |sum of (label - score)| over n) is provided as a
cross-check, along with oracle-assisted binned true-calibration-error
estimates for the synthetic family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .binning import UMB, UWB, BinningScheme, _check_count, _dataset_sums, bin_sums
from .bounds import _total_bias
from .models import McEstimate, SyntheticModel, logistic_predict, sample_synthetic
from .rng import stream

__all__ = [
    "EceValue",
    "GapStatistic",
    "ece",
    "ece_reformulated",
    "binned_tce",
    "ece_gap",
    "optimal_bins",
    "cube_root_bins",
]


@dataclass(frozen=True)
class EceValue:
    """An expected-calibration-error value in [0, 1]."""

    value: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.value <= 1.0):
            raise ValueError(f"ECE must lie in [0, 1], got {self.value}")

    def __float__(self) -> float:
        return self.value


@dataclass(frozen=True)
class GapStatistic:
    """|test ECE - train ECE|, with the two ECEs as ``components`` in that order."""

    value: float
    components: tuple[float, float]

    def __post_init__(self) -> None:
        expected = abs(self.components[0] - self.components[1])
        if not math.isclose(self.value, expected, rel_tol=0.0, abs_tol=0.0):
            raise ValueError("gap value must equal |component1 - component2| exactly")


def _binned_error(counts, predicted, label_sums) -> float:
    """The one ECE formula: count/n * |predicted - label_sum/count| summed over nonempty
    bins (one masked 1-d ``np.sum``, in bin order), capped at 1 (roundoff); n = sum(counts)."""
    nonempty = counts > 0
    c = counts[nonempty]
    value = float(np.sum(c / c.sum() * np.abs(predicted[nonempty] - label_sums[nonempty] / c)))
    return min(value, 1.0)


def ece(d, s: BinningScheme) -> EceValue:
    """Mass-weighted per-bin calibration error of a dataset under a scheme."""
    counts, score_sums, label_sums = _dataset_sums(s, d)
    return EceValue(_binned_error(counts, score_sums / np.maximum(counts, 1), label_sums))


def ece_reformulated(d, s: BinningScheme) -> EceValue:
    """Single-pass form: sum over bins of |sum of (label - score) in the bin| / n.

    Algebraically identical to ``ece``; computed without forming per-bin
    means so the two paths cross-check each other.
    """
    _, residual_sums = bin_sums(s, d.scores, d.labels - d.scores)
    value = float(np.sum(np.abs(residual_sums)) / len(d))
    return EceValue(min(value, 1.0))


def binned_tce(m: SyntheticModel, s: BinningScheme, n_mc: int, seed: int) -> McEstimate:
    """Monte-Carlo estimate of the binned model's true calibration error.

    Estimates sum_i |E[(Y - f(X)) * 1{f(X) in I_i}]| on the synthetic
    distribution. The attached standard error is the sum of the per-bin
    standard errors of the means: a conservative budget for a sum of
    absolute values of means.
    """
    _check_count(n_mc=n_mc)
    x, y = sample_synthetic(n_mc, stream(seed))
    z = logistic_predict(m, x)
    resid = y - z
    _, sums, sq_sums = bin_sums(s, z, resid, resid * resid)
    value = float(np.sum(np.abs(sums)) / n_mc)
    # Per-bin variance of (y - z) * indicator around its mean sums/n (exactly 0 at n_mc = 1).
    variances = sq_sums / n_mc - (sums / n_mc) ** 2
    se = float(np.sum(np.sqrt(np.maximum(variances, 0.0) / n_mc)))
    return McEstimate(value, se)


def ece_gap(d_train, d_test, s: BinningScheme) -> GapStatistic:
    """|ECE on the test dataset - ECE on the training dataset| under one scheme.

    When the scheme is uniform-mass, its edges should have been built from
    the training dataset; the scheme is then part of the trained model and
    both ECEs share it.
    """
    e_test = ece(d_test, s).value
    e_train = ece(d_train, s).value
    return GapStatistic(abs(e_test - e_train), (e_test, e_train))


def _floor_cbrt(v: float) -> int:
    """floor(v ** (1/3)) robust to the float cube root landing one ulp low."""
    if v < 0:
        raise ValueError("v must be nonnegative")
    b = int(v ** (1.0 / 3.0))
    while (b + 1) ** 3 <= v:
        b += 1
    while b > 0 and b**3 > v:
        b -= 1
    return b


def cube_root_bins(n: int) -> int:
    """The floor(n^(1/3)) bin-count rule used in the experiments."""
    _check_count(n=n)
    return max(1, _floor_cbrt(n))


def optimal_bins(n: int, L: float, variant: str) -> int:
    """Bin count minimizing the total-bias upper bound for the given variant.

    Uniform-width: the stationary point of (1+L)/B + sqrt(2 B ln2 / n),
    which is floor((2 n (1+L)^2 / ln 2)^(1/3)). Uniform-mass: the bound has
    no clean stationary point, so the first integer argmin over B in
    [1, n//2] is taken over the whole range at once. Both results are
    clamped to [1, n//2].
    """
    _check_count(least=8, n=n)
    if L < 0:
        raise ValueError("L must be nonnegative")
    if not math.isfinite(L):
        raise ValueError("L must be finite")
    b_max = n // 2
    if variant == UWB:
        b = _floor_cbrt(2.0 * n * (1.0 + L) ** 2 / math.log(2.0))
        return int(min(max(b, 1), b_max))
    if variant == UMB:
        return int(np.argmin(_total_bias(np.arange(1, b_max + 1), n, L, UMB))) + 1
    raise ValueError(f"unknown variant: {variant}")
