"""Synthetic logistic family, its closed-form calibration map, and a trainer.

The data distribution is a balanced two-class Gaussian mixture: Y is a fair
coin, X | Y=1 ~ Normal(-1, 1) and X | Y=0 ~ Normal(+1, 1), for which the
true posterior P(Y=1 | X=x) = 1/(1+exp(2x)). Predictors are the logistic
family f(x) = sigmoid(beta0 + beta1*x); for any member the conditional
label mean given the prediction has a closed form. Each member is one-to-one
in x, so that mean at f(x) is the true posterior at x, and the true
calibration error E|f(X) - sigmoid(-2X)| is a plain Monte-Carlo mean.

The trainer is one full-batch gradient-descent kernel over a stack of
training sets: ``train_logistic`` runs it on one, and the supersample
experiment on every mask of a supersample at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit, logit

from .binning import _check_count
from .rng import stream

__all__ = [
    "SyntheticModel",
    "TrainerConfig",
    "McEstimate",
    "sample_synthetic",
    "logistic_predict",
    "canonical_calibration",
    "calibration_slope",
    "mc_tce",
    "estimate_lipschitz",
    "train_logistic",
]

_BLOCK = 1 << 16  # x elements per block of the batched descent: bounds its temporaries
LIPSCHITZ_GRID = 1000  # points of the estimate_lipschitz grid
_LIPSCHITZ_EPS = 1e-4  # the grid spans [eps, 1 - eps]


@dataclass(frozen=True)
class SyntheticModel:
    """Logistic predictor parameters (beta0, beta1): finite, and beta1 nonzero."""

    beta0: float
    beta1: float

    def __post_init__(self) -> None:
        for name in ("beta0", "beta1"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite: {getattr(self, name)}")
        if self.beta1 == 0.0:
            raise ValueError("beta1 must be nonzero")


@dataclass(frozen=True)
class TrainerConfig:
    """Full-batch gradient-descent settings."""

    learning_rate: float = 0.5
    epochs: int = 300

    def __post_init__(self) -> None:
        if not 0.0 < self.learning_rate < np.inf:
            raise ValueError("learning_rate must be positive and finite")
        _check_count(epochs=self.epochs)


@dataclass(frozen=True)
class McEstimate:
    """A Monte-Carlo point estimate with its attached standard error."""

    value: float
    std_error: float


def sample_synthetic(n: int, rng: np.random.Generator):
    """Draw n (x, y) pairs from the balanced Gaussian-mixture distribution."""
    _check_count(n=n)
    y = rng.integers(0, 2, size=n)
    x = rng.normal(loc=np.where(y == 1, -1.0, 1.0), scale=1.0)
    return x, y


def logistic_predict(m: SyntheticModel, x):
    """sigmoid(beta0 + beta1 * x); no clamping is applied."""
    return expit(m.beta0 + m.beta1 * np.asarray(x, dtype=np.float64))


def canonical_calibration(m: SyntheticModel, z1):
    """Conditional label mean given the model outputs z1, in closed form.

    pi_1(z) = sigmoid(2 * (beta0 - logit(z)) / beta1), defined on the open
    interval (0, 1); z at 0 or 1 hits the logit singularity and is a domain
    error. For beta = (0, -2) the model equals the true posterior and
    pi_1 is the identity.
    """
    z = np.asarray(z1, dtype=np.float64)
    if np.any(z <= 0.0) or np.any(z >= 1.0):
        raise ValueError("scores must lie strictly inside (0, 1)")
    # logit(z) = beta0 + beta1 * x  =>  x = (logit(z) - beta0) / beta1,
    # and the true posterior is sigmoid(-2x).
    out = expit(2.0 * (m.beta0 - logit(z)) / m.beta1)
    if out.ndim == 0:
        return float(out)
    return out


def calibration_slope(m: SyntheticModel, z1):
    """Analytic derivative of the canonical calibration map at z1."""
    z = np.asarray(z1, dtype=np.float64)
    p = canonical_calibration(m, z)
    out = -2.0 * p * (1.0 - p) / (m.beta1 * z * (1.0 - z))
    if out.ndim == 0:
        return float(out)
    return out


def mc_tce(m: SyntheticModel, n_mc: int, seed: int) -> McEstimate:
    """Monte-Carlo estimate of the model's true calibration error.

    Draws x from the synthetic distribution and averages |f(x) - sigmoid(-2x)|:
    f is one-to-one, so pi_1(f(x)) is the true posterior at x, even where
    f(x) saturates to 0 or 1. The standard error of the mean is attached
    (zero when n_mc == 1). The calibrated member beta = (0, -2) gives
    exactly 0.
    """
    _check_count(n_mc=n_mc)
    x, _ = sample_synthetic(n_mc, stream(seed))
    t = np.abs(logistic_predict(m, x) - expit(-2.0 * x))
    value = float(np.mean(t))
    se = float(np.std(t, ddof=1) / np.sqrt(n_mc)) if n_mc > 1 else 0.0
    return McEstimate(value, se)


def estimate_lipschitz(m: SyntheticModel) -> float:
    """Max |d pi_1 / dz| over ``LIPSCHITZ_GRID`` uniform points on [1e-4, 1 - 1e-4].

    A grid maximum, not a bound. For |beta1| <= 2 it slightly undershoots
    the true Lipschitz constant (1.5222634 against 1.5222647 at
    beta = (0.5, -1.5)). For |beta1| > 2, pi_1 is not Lipschitz at all: the
    slope grows without limit towards the endpoints (it passes 1.3e5 near
    z = 1 at (1, -3), where this returns 27.7). Bias bounds built on it
    carry both errors; see ROADMAP item 2.
    """
    zs = np.linspace(_LIPSCHITZ_EPS, 1.0 - _LIPSCHITZ_EPS, LIPSCHITZ_GRID)
    return float(np.max(np.abs(calibration_slope(m, zs))))


def _init_beta(seed: int) -> np.ndarray:
    """The trainer's starting (beta0, beta1), drawn from ``seed``."""
    return stream(seed).normal(0.0, 0.01, size=2)


def _descend(beta, x, y, cfg: TrainerConfig, where=lambda row: "") -> np.ndarray:
    """Full-batch gradient descent from each row of ``beta`` (M, 2) on the rows of x, y (M, n).

    Returns the trained (M, 2) parameters. Every row runs the ufunc sequence
    of a lone 1-d descent, so it equals training that row alone bit for bit.
    Rows go in blocks of at most ``_BLOCK`` elements (one row at least),
    which bounds the temporaries. A row whose parameters go non-finite
    raises with its epoch and ``where(row)``.
    """
    out = np.empty_like(beta)
    step = max(1, _BLOCK // x.shape[1])
    for lo in range(0, len(beta), step):
        b, xb, yb = beta[lo:lo + step], x[lo:lo + step], y[lo:lo + step]
        # A diverging row overflows silently: the check below names its epoch and row.
        with np.errstate(over="ignore", invalid="ignore"):
            for epoch in range(cfg.epochs + 1):
                # With finite x and y, the loss goes non-finite exactly when beta does.
                if not np.isfinite(b).all():
                    row = lo + np.flatnonzero(~np.isfinite(b).all(axis=1))[0]
                    raise ValueError(f"non-finite loss at epoch {epoch}{where(row)}")
                if epoch == cfg.epochs:
                    break
                resid = expit(b[:, :1] + b[:, 1:] * xb) - yb
                grad = np.stack([resid.mean(axis=1), (resid * xb).mean(axis=1)], axis=1)
                b = b - cfg.learning_rate * grad
        out[lo:lo + step] = b
    return out


def train_logistic(train, cfg: TrainerConfig, seed: int = 0) -> SyntheticModel:
    """Fit (beta0, beta1) by full-batch gradient descent on the logistic log-loss.

    ``train`` is an (x, y) pair of equal-shape arrays. Initialization is
    drawn from ``seed``, so the result is deterministic given
    (train, cfg, seed). Non-finite x or y are rejected; if the loss goes
    non-finite, the error reports the epoch, and a trained beta1 of exactly
    0 fails ``SyntheticModel``'s check.
    """
    x, y = (np.asarray(a, dtype=np.float64) for a in train)
    if x.size == 0:
        raise ValueError("empty training set")
    if x.shape != y.shape:
        raise ValueError("x and y must have equal length")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("x and y must be finite")
    b0, b1 = _descend(_init_beta(seed)[None], x.reshape(1, -1), y.reshape(1, -1), cfg)[0]
    return SyntheticModel(float(b0), float(b1))
