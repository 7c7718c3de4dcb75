"""Binned calibration-error estimators, the ECE gap, and bin-count selection.

The expected calibration error of a dataset under a scheme is the
mass-weighted sum of per-bin |mean score - mean label| deviations; empty
bins carry zero mass and contribute nothing. An algebraically equivalent
single-pass form (per-bin |sum of (label - score)| over n) is provided as a
cross-check; it bins the scores itself, on every call, rather than reading
the dataset's kept per-bin sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import binning
from .binning import UMB, UWB, BinningScheme, _check_count, _dataset_sums
from .bounds import _LN2, _total_bias

__all__ = [
    "EceValue",
    "GapStatistic",
    "ece",
    "ece_reformulated",
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

    components: tuple[float, float]

    @property
    def value(self) -> float:
        return abs(self.components[0] - self.components[1])


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
    means so the two paths cross-check each other. The residuals are taken
    and added per block of `binning._blocks`, in row order as one
    ``np.bincount`` adds them, so no n-long temporary is built.
    """
    residual_sums = np.zeros(s.B)
    for lo, z, j in binning._blocks(s, d.scores):
        np.add.at(residual_sums, j, d.labels[lo:lo + j.size] - z)
    value = float(np.sum(np.abs(residual_sums)) / len(d))
    return EceValue(min(value, 1.0))


def ece_gap(d_train, d_test, s: BinningScheme) -> GapStatistic:
    """|ECE on the test dataset - ECE on the training dataset| under one scheme.

    When the scheme is uniform-mass, its edges should have been built from
    the training dataset; the scheme is then part of the trained model and
    both ECEs share it.
    """
    e_test = ece(d_test, s).value
    e_train = ece(d_train, s).value
    return GapStatistic((e_test, e_train))


def _floor_cbrt(v: int) -> int:
    """floor(v ** (1/3)) of an int v >= 0, exactly: Newton steps on ints from 2^ceil(bits/3)."""
    b = 1 << -(-v.bit_length() // 3)
    while b**3 > v:
        b = (2 * b + v // (b * b)) // 3
    return b


def cube_root_bins(n: int) -> int:
    """The floor(n^(1/3)) bin-count rule used in the experiments."""
    (n,) = _check_count(n=n)
    return _floor_cbrt(n)


def optimal_bins(n: int, L: float, variant: str) -> int:
    """Bin count minimizing the total-bias upper bound for the given variant.

    Uniform-width: the stationary point of (1+L)/B + sqrt(2 B ln2 / n),
    which is floor(v^(1/3)) for v = 2 n (1+L)^2 / ln 2, taken in floats (an
    overflow counts as v = inf), then rooted exactly as floor(int(v)^(1/3)).
    Uniform-mass: the bound has no clean stationary point, so the first
    integer argmin is taken by a scan. Its statistical term alone,
    (2+L) sqrt(2 B ln2 / (n - B)), exceeds the bound at B0 = floor(n^(1/3))
    once B > n (bound(B0) / (2+L))^2 / (2 ln 2), so no B past that (with a
    0.1% margin for rounding) is the argmin, and only [1, min(that, n//2)]
    is scanned. Both results are clamped to [1, n//2].
    """
    (n,) = _check_count(least=8, n=n)
    if L < 0:
        raise ValueError("L must be nonnegative")
    if not math.isfinite(L):
        raise ValueError("L must be finite")
    b_max = n // 2
    if variant == UWB:
        try:
            v = 2.0 * n * (1.0 + L) ** 2 / math.log(2.0)
        except OverflowError:
            return b_max
        return b_max if v >= b_max**3 else _floor_cbrt(int(v))
    if variant == UMB:
        with np.errstate(over="ignore"):  # an overflow to inf is a valid "worse" in the scan
            f0 = _total_bias(_floor_cbrt(n), n, L, UMB)
            b_hi = n * (f0 / (2.0 + L)) ** 2 / (2.0 * _LN2) * 1.001 + 1
            b = np.arange(1, int(min(b_max, b_hi)) + 1)
            return int(np.argmin(_total_bias(b, n, L, UMB))) + 1
    raise ValueError(f"unknown variant: {variant}")
