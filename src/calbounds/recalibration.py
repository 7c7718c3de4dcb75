"""Histogram recalibration: per-bin label means replace the raw scores.

A recalibrator is a uniform-mass scheme fit on a recalibration set plus the
per-bin empirical label means. Applying it to its own fit set gives an ECE
of exactly zero by construction; its residual miscalibration on fresh data
is what the held-out and training-reuse bounds control.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import binning
from .binning import BinningScheme, _check_count, _dataset_sums, bin_stats, umb_scheme
from .metrics import EceValue, _binned_error

__all__ = ["Recalibrator", "fit_recalibrator", "apply_recalibrator", "recalibrated_tce"]


@dataclass(frozen=True, eq=False)
class Recalibrator:
    """Uniform-mass scheme plus per-bin label means, fit on one dataset; compared by identity."""

    scheme: BinningScheme
    mu: np.ndarray

    def __post_init__(self) -> None:
        mu = np.array(self.mu, dtype=np.float64)
        if mu.shape != (self.scheme.B,):
            raise ValueError("mu must hold exactly one value per bin")
        if not np.all((mu >= 0.0) & (mu <= 1.0)):  # NaN fails too
            raise ValueError("per-bin label means must lie in [0, 1]")
        mu.setflags(write=False)
        object.__setattr__(self, "mu", mu)


def fit_recalibrator(d_fit, B: int) -> Recalibrator:
    """Build a histogram recalibrator from a fit set.

    Uniform-mass edges come from the fit scores (tied scores may collapse
    bins, down to a single bin, with a warning); the per-bin values are the
    fit set's empirical label means. Every bin of a scheme built from the fit
    scores holds at least one of them, so every mean is defined. Requires
    at least 2B fit samples.
    """
    (B,) = _check_count(B=B)
    if len(d_fit) < 2 * B:
        raise ValueError(f"too few samples: need at least {2 * B}, have {len(d_fit)}")
    scheme = umb_scheme(d_fit.scores, B)
    mu = bin_stats(scheme, d_fit).mean_labels
    return Recalibrator(scheme, mu)


def apply_recalibrator(r: Recalibrator, scores) -> np.ndarray:
    """Map each score to its bin's stored label mean.

    The whole input is range-checked first; the output is then filled one block
    of `binning._blocks` at a time, so beside it only one block's bin index is alive.
    """
    arr = np.asarray(scores, dtype=np.float64)
    if arr.size and not (arr.min() >= 0.0 and arr.max() <= 1.0):  # NaN fails too
        raise ValueError("scores must lie in [0, 1]")
    out = np.empty(arr.size)
    for lo, _, j in binning._blocks(r.scheme, arr.reshape(-1)):
        np.take(r.mu, j, out=out[lo:lo + j.size])
    return out.reshape(arr.shape)[()]


def recalibrated_tce(r: Recalibrator, d_test) -> float:
    """ECE of the recalibrated function on a test set, under the fit scheme.

    Test samples are routed to bins by their original scores; each bin's
    prediction is the stored label mean, so ``_binned_error`` takes the
    test set's per-bin counts and label sums with ``r.mu`` as the predicted
    values: sum_i (count_i / n) * |mu_i - mean test label in bin i|. With a
    test set independent of the fit set this estimates the recalibrated
    function's true calibration error (the caller guarantees disjointness).
    """
    counts, _, label_sums = _dataset_sums(r.scheme, d_test)
    return EceValue(_binned_error(counts, r.mu, label_sums)).value  # range check via EceValue
