"""Closed-form bias and generalization bounds, returned as auditable reports.

All logarithms are natural; "log 2" in every formula is ln 2. A report
stores its inputs verbatim so any value can be recomputed, and is flagged
vacuous when it exceeds 1 (the calibration error itself never can).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .binning import UMB, UWB, _check_count

__all__ = [
    "BOUNDS",
    "BoundReport",
    "stat_bias_bound",
    "binning_bias_bound",
    "total_bias_bound",
    "high_prob_bound",
    "gen_ece_bound",
    "gen_tce_bound",
    "metric_entropy_bound",
    "metric_entropy_bound_parametric",
    "recalib_reuse_bound",
    "recalib_holdout_bound",
]

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class BoundReport:
    """A named bound value together with every input it was computed from."""

    name: str
    value: float
    inputs: dict
    variant: str = "n/a"
    vacuous: bool = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", float(self.value))
        if not math.isfinite(self.value) or self.value < 0.0:
            raise ValueError(f"bound value must be finite and nonnegative: {self.value}")
        object.__setattr__(self, "vacuous", self.value > 1.0)


# Checks are comparisons that NaN fails (`not v >= 0`, never `v < 0`), so NaN is named here.
def _nonnegative(**values: float) -> None:
    for name, v in values.items():
        if not v >= 0:
            raise ValueError(f"{name} must be nonnegative: {v}")


def _counts(**counts) -> tuple[int, ...]:
    """``_check_count``, and within the float range: every formula takes its counts as floats."""
    checked = _check_count(**counts)
    past = [name for name, v in zip(counts, checked) if v > sys.float_info.max]  # compared exactly
    if past:
        raise ValueError(f"{' and '.join(past)} must lie within the float range (at most 1.8e308)")
    return checked


def _check_bn(B: int, n: int, variant: str) -> tuple[int, int]:
    B, n = _counts(B=B, n=n)
    if variant not in (UWB, UMB):
        raise ValueError(f"unknown variant: {variant}")
    if variant == UMB and not n > B:
        raise ValueError("uniform-mass bounds require n > B")
    return B, n


def _umb_stat_term(B, n):
    return np.sqrt(2.0 * B * _LN2 / (n - B)) + 2.0 * B / (n - B)


def _total_bias(B, n: int, L: float, variant: str):
    """The total-bias formula, unchecked; B may be an integer array of bin counts."""
    if variant == UWB:
        return (1.0 + L) / B + np.sqrt(2.0 * B * _LN2 / n)
    return (1.0 + L) / B + (2.0 + L) * _umb_stat_term(B, n)


def stat_bias_bound(B: int, n: int, variant: str) -> BoundReport:
    """Finite-sample estimation error of the binned estimator.

    Uniform-width: sqrt(2 B ln2 / n). Uniform-mass:
    sqrt(2 B ln2 / (n - B)) + 2B / (n - B).
    """
    B, n = _check_bn(B, n, variant)
    if variant == UWB:
        value = math.sqrt(2.0 * B * _LN2 / n)
    else:
        value = _umb_stat_term(B, n)
    return BoundReport("stat_bias", value, {"B": B, "n": n}, variant)


def binning_bias_bound(B: int, n: int, L: float, variant: str) -> BoundReport:
    """Error from replacing the model with its per-bin conditional mean.

    Uniform-width: (1+L)/B, independent of n. Uniform-mass:
    (1+L) * (1/B + sqrt(2 B ln2 / (n - B)) + 2B / (n - B)).
    """
    B, n = _check_bn(B, n, variant)
    _nonnegative(L=L)
    if variant == UWB:
        value = (1.0 + L) / B
    else:
        value = (1.0 + L) * (1.0 / B + _umb_stat_term(B, n))
    return BoundReport("binning_bias", value, {"B": B, "n": n, "L": L}, variant)


def total_bias_bound(B: int, n: int, L: float, variant: str) -> BoundReport:
    """Total |true - estimated| calibration-error bound (binning + statistical).

    Uniform-width: (1+L)/B + sqrt(2 B ln2 / n). Uniform-mass:
    (1+L)/B + (2+L) * (sqrt(2 B ln2 / (n - B)) + 2B / (n - B)).
    """
    B, n = _check_bn(B, n, variant)
    _nonnegative(L=L)
    value = _total_bias(B, n, L, variant)
    return BoundReport("total_bias", value, {"B": B, "n": n, "L": L}, variant)


def high_prob_bound(B: int, n: int, delta: float) -> BoundReport:
    """Statistical-bias bound holding with probability 1 - delta (uniform-width).

    sqrt(2 (B ln2 + ln(1/delta)) / n), with ln(1/delta) taken as -ln(delta):
    1/delta overflows to inf for a subnormal delta.
    """
    B, n = _counts(B=B, n=n)
    if not (0.0 < delta < 1.0):
        raise ValueError("delta must lie in (0, 1)")
    value = math.sqrt(2.0 * (B * _LN2 - math.log(delta)) / n)
    return BoundReport("high_prob", value, {"B": B, "n": n, "delta": delta}, UWB)


def gen_ece_bound(ecmi: float, B: int, n: int) -> BoundReport:
    """Expected train/test calibration-error gap: sqrt(8 (eCMI + B ln2) / n)."""
    _nonnegative(ecmi=ecmi)
    B, n = _counts(B=B, n=n)
    value = math.sqrt(8.0 * (ecmi + B * _LN2) / n)
    return BoundReport("gen_ece", value, {"eCMI": ecmi, "B": B, "n": n})


def gen_tce_bound(
    ecmi: float, fcmi: float | None, B: int, n: int, L: float, variant: str
) -> BoundReport:
    """Training-data total-bias bound for the true calibration error.

    Uniform-width, given no fCMI: (1+L)/B + sqrt(8 (eCMI + B ln2) / n).
    Uniform-mass adds (1+L) * sqrt(2 (fCMI + B ln2) / n) and requires fCMI
    (a tighter statistic-level MI may be substituted in that slot).
    """
    _nonnegative(ecmi=ecmi)
    B, n = _counts(B=B, n=n)
    _nonnegative(L=L)
    if variant not in (UWB, UMB):
        raise ValueError(f"unknown variant: {variant}")
    value = (1.0 + L) / B + math.sqrt(8.0 * (ecmi + B * _LN2) / n)
    inputs = {"eCMI": ecmi, "B": B, "n": n, "L": L}
    if variant == UMB:
        if fcmi is None:
            raise ValueError("the uniform-mass variant requires fcmi")
        _nonnegative(fcmi=fcmi)
        value += (1.0 + L) * math.sqrt(2.0 * (fcmi + B * _LN2) / n)
        inputs["fCMI"] = fcmi
    elif fcmi is not None:
        raise ValueError("fcmi applies only to the uniform-mass variant")
    return BoundReport("gen_tce", value, inputs, variant)


def metric_entropy_bound(B: int, n: int, L: float, delta: float, logN: float) -> BoundReport:
    """Function-class bound from a delta-cover (uniform-width).

    (1+L)/B + (2+L)*delta + sqrt(8 B (ln2 + logN) / n), where the caller
    supplies logN = log of the covering number of the class at radius
    delta / B in the sup norm. Requires 0 < delta <= 1/B.
    """
    B, n = _counts(B=B, n=n)
    _nonnegative(L=L)
    if not (0.0 < delta <= 1.0 / B):
        raise ValueError("delta must lie in (0, 1/B]")
    _nonnegative(logN=logN)
    value = (1.0 + L) / B + (2.0 + L) * delta + math.sqrt(8.0 * B * (_LN2 + logN) / n)
    return BoundReport(
        "metric_entropy",
        value,
        {"B": B, "n": n, "L": L, "delta": delta, "logN": logN},
        UWB,
    )


def metric_entropy_bound_parametric(
    B: int, n: int, L: float, d: int, L0: float
) -> BoundReport:
    """Parametric-class form of the metric-entropy bound at delta = 1/B.

    (3+2L)/B + sqrt(8 d B ln(2 L0 B^2) / n) for a d-dimensional,
    L0-Lipschitz class; requires 2 L0 B^2 > 1 so the log is positive.
    """
    B, n, d = _counts(B=B, n=n, d=d)
    _nonnegative(L=L)
    if not L0 > 0:
        raise ValueError(f"L0 must be positive: {L0}")
    if 2.0 * L0 * B * B <= 1.0:
        raise ValueError("need 2 * L0 * B^2 > 1 for a positive log")
    value = (3.0 + 2.0 * L) / B + math.sqrt(
        8.0 * d * B * math.log(2.0 * L0 * B * B) / n
    )
    return BoundReport(
        "metric_entropy_parametric",
        value,
        {"B": B, "n": n, "L": L, "d": d, "L0": L0},
        UWB,
    )


def recalib_reuse_bound(i_delta1: float, i_delta2: float, B: int, n: int) -> BoundReport:
    """Recalibration bound when the training data is reused for the fit.

    sqrt(2 (I1 + B ln2) / n) + sqrt(2 (I2 + B ln2) / n), where I1 and I2
    are the mask-information contents of the two per-bin difference
    statistics. Passing the model-level fCMI to both slots recovers the
    looser 2 * sqrt(2 (fCMI + B ln2) / n) form.
    """
    _nonnegative(i_delta1=i_delta1, i_delta2=i_delta2)
    B, n = _counts(B=B, n=n)
    value = math.sqrt(2.0 * (i_delta1 + B * _LN2) / n) + math.sqrt(
        2.0 * (i_delta2 + B * _LN2) / n
    )
    return BoundReport(
        "recalib_reuse", value, {"I_Delta1": i_delta1, "I_Delta2": i_delta2, "B": B, "n": n}, UMB
    )


def recalib_holdout_bound(B: int, n_re: int) -> BoundReport:
    """Recalibration bound for an independent held-out fit set.

    sqrt(2 B ln2 / (n_re - B)) + 2B / (n_re - B); requires n_re > B.
    """
    B, n_re = _counts(B=B, n_re=n_re)
    if not n_re > B:
        raise ValueError("n_re must exceed B")
    return BoundReport("recalib_holdout", _umb_stat_term(B, n_re), {"B": B, "n_re": n_re}, UMB)


# Command-line name -> bound. Each function's signature and docstring are the
# bound's only declaration; ``calbounds bounds`` derives its flags from them.
BOUNDS = {
    "stat-bias": stat_bias_bound,
    "binning-bias": binning_bias_bound,
    "total-bias": total_bias_bound,
    "high-prob": high_prob_bound,
    "gen-ece": gen_ece_bound,
    "gen-tce": gen_tce_bound,
    "metric-entropy": metric_entropy_bound,
    "metric-entropy-parametric": metric_entropy_bound_parametric,
    "recalib-reuse": recalib_reuse_bound,
    "recalib-holdout": recalib_holdout_bound,
}
