"""Histogram recalibration: per-bin label means replace the raw scores.

A recalibrator is a uniform-mass scheme fit on a recalibration set plus the
per-bin empirical label means. Applying it to its own fit set gives an ECE
of exactly zero by construction; its residual miscalibration on fresh data
is what the held-out and training-reuse bounds control.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .binning import UMB, BinningScheme, assign, bin_stats, umb_scheme
from .metrics import EceValue, _binned_error

__all__ = ["Recalibrator", "fit_recalibrator", "apply_recalibrator", "recalibrated_tce"]


@dataclass(frozen=True)
class Recalibrator:
    """Uniform-mass scheme plus per-bin label means, fit on one dataset."""

    scheme: BinningScheme
    mu: np.ndarray
    fit_size: int
    reused_training: bool

    def __post_init__(self) -> None:
        mu = np.array(self.mu, dtype=np.float64)
        if mu.shape != (self.scheme.B,):
            raise ValueError("mu must hold exactly one value per bin")
        if not np.all((mu >= 0.0) & (mu <= 1.0)):  # NaN fails too
            raise ValueError("per-bin label means must lie in [0, 1]")
        n, B = self.fit_size, self.scheme.B
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 2 * B:
            raise ValueError(f"fit_size must be an integer of at least 2B = {2 * B}, got {n!r}")
        if not isinstance(self.reused_training, (bool, np.bool_)):
            raise ValueError("reused_training must be a bool")
        mu.setflags(write=False)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "fit_size", int(n))
        object.__setattr__(self, "reused_training", bool(self.reused_training))

    def to_json(self) -> str:
        return json.dumps(
            {
                "edges": self.scheme.edges.tolist(),
                "mu": self.mu.tolist(),
                "fit_size": self.fit_size,
                "reused_training": self.reused_training,
                "collapsed": self.scheme.collapsed,
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "Recalibrator":
        obj = json.loads(text)
        scheme = BinningScheme(obj["edges"], UMB, collapsed=obj.get("collapsed", False))
        return cls(scheme, np.asarray(obj["mu"]), obj["fit_size"], obj["reused_training"])


def fit_recalibrator(d_fit, B: int, reused_training: bool = False) -> Recalibrator:
    """Build a histogram recalibrator from a fit set.

    Uniform-mass edges come from the fit scores (tied scores may collapse
    bins, down to a single bin, with a warning); the per-bin values are the
    fit set's empirical label means. Every bin of a scheme built from the fit
    scores holds at least one of them, so every mean is defined. Requires
    at least 2B fit samples.
    """
    if len(d_fit) < 2 * B:
        raise ValueError(f"too few samples: need at least {2 * B}, have {len(d_fit)}")
    scheme = umb_scheme(d_fit.scores, B)
    mu = bin_stats(scheme, d_fit).mean_labels
    return Recalibrator(scheme, mu, fit_size=len(d_fit), reused_training=reused_training)


def apply_recalibrator(r: Recalibrator, scores) -> np.ndarray:
    """Map each score to its bin's stored label mean."""
    return r.mu[assign(r.scheme, scores) - 1]


def recalibrated_tce(r: Recalibrator, d_test) -> float:
    """ECE of the recalibrated function on a test set, under the fit scheme.

    Test samples are routed to bins by their original scores; each bin's
    prediction is the stored label mean, so the value is
    sum_i (count_i / n) * |mu_i - mean test label in bin i|. With a test
    set independent of the fit set this estimates the recalibrated
    function's true calibration error (the caller guarantees disjointness).
    """
    stats = bin_stats(r.scheme, d_test)
    value = _binned_error(stats.masses, r.mu, stats.mean_labels)
    return EceValue(value, r.scheme, n_e=len(d_test)).value  # range check via EceValue
