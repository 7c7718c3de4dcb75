"""Synthetic logistic family, its closed-form calibration oracle, and a trainer.

The data distribution is a balanced two-class Gaussian mixture: Y is a fair
coin, X | Y=1 ~ Normal(-1, 1) and X | Y=0 ~ Normal(+1, 1), for which the
true posterior P(Y=1 | X=x) = 1/(1+exp(2x)). Predictors are the logistic
family f(x) = sigmoid(beta0 + beta1*x); for any member the conditional
label mean given the prediction has a closed form, which makes the true
calibration error of the model estimable by plain Monte Carlo.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit, logit

from .rng import stream

__all__ = [
    "SyntheticModel",
    "CalibrationOracle",
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

# Guard for Monte-Carlo loops only: keeps saturated predictions inside the
# open interval where the calibration oracle is defined.
_OPEN_LO = 1e-15
_OPEN_HI = 1.0 - 2.0 ** -53


@dataclass(frozen=True)
class SyntheticModel:
    """Logistic predictor parameters (beta0, beta1); beta1 must be nonzero."""

    beta0: float
    beta1: float

    def __post_init__(self) -> None:
        if self.beta1 == 0.0:
            raise ValueError("beta1 must be nonzero")


@dataclass(frozen=True)
class CalibrationOracle:
    """Closed-form conditional label mean for a synthetic logistic model."""

    model: SyntheticModel


@dataclass(frozen=True)
class TrainerConfig:
    """Full-batch gradient-descent settings; ``seed`` is the algorithm randomness."""

    learning_rate: float = 0.5
    epochs: int = 300
    seed: int = 0

    def __post_init__(self) -> None:
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")


@dataclass(frozen=True)
class McEstimate:
    """A Monte-Carlo point estimate with its attached standard error."""

    value: float
    std_error: float
    n_samples: int


def sample_synthetic(n: int, seed: int, rng: np.random.Generator | None = None):
    """Draw n (x, y) pairs from the balanced Gaussian-mixture distribution."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if rng is None:
        rng = stream(seed)
    y = rng.integers(0, 2, size=n)
    x = rng.normal(loc=np.where(y == 1, -1.0, 1.0), scale=1.0)
    return x, y


def logistic_predict(m: SyntheticModel, x):
    """sigmoid(beta0 + beta1 * x); no clamping is applied."""
    return expit(m.beta0 + m.beta1 * np.asarray(x, dtype=np.float64))


def _check_open_unit(z: np.ndarray) -> None:
    if np.any(z <= 0.0) or np.any(z >= 1.0):
        raise ValueError("scores must lie strictly inside (0, 1)")


def canonical_calibration(o: CalibrationOracle, z1):
    """Conditional label mean given the model outputs z1, in closed form.

    pi_1(z) = sigmoid(2 * (beta0 - logit(z)) / beta1), defined on the open
    interval (0, 1); z at 0 or 1 hits the logit singularity and is a domain
    error. For beta = (0, -2) the model equals the true posterior and
    pi_1 is the identity.
    """
    z = np.asarray(z1, dtype=np.float64)
    _check_open_unit(z)
    m = o.model
    # logit(z) = beta0 + beta1 * x  =>  x = (logit(z) - beta0) / beta1,
    # and the true posterior is sigmoid(-2x).
    out = expit(2.0 * (m.beta0 - logit(z)) / m.beta1)
    if out.ndim == 0:
        return float(out)
    return out


def calibration_slope(o: CalibrationOracle, z1):
    """Analytic derivative of the canonical calibration map at z1."""
    z = np.asarray(z1, dtype=np.float64)
    _check_open_unit(z)
    m = o.model
    p = expit(2.0 * (m.beta0 - logit(z)) / m.beta1)
    out = -2.0 * p * (1.0 - p) / (m.beta1 * z * (1.0 - z))
    if out.ndim == 0:
        return float(out)
    return out


def mc_tce(o: CalibrationOracle, n_mc: int, seed: int) -> McEstimate:
    """Monte-Carlo estimate of the model's true calibration error.

    Draws (x, y) from the synthetic distribution, evaluates |z - pi_1(z)|
    at z = f(x), and averages. The standard error of the mean is attached
    (zero when n_mc == 1).
    """
    if n_mc < 1:
        raise ValueError("n_mc must be at least 1")
    rng = stream(seed)
    x, _ = sample_synthetic(n_mc, seed, rng=rng)
    z = np.clip(logistic_predict(o.model, x), _OPEN_LO, _OPEN_HI)
    t = np.abs(z - canonical_calibration(o, z))
    value = float(np.mean(t))
    se = float(np.std(t, ddof=1) / np.sqrt(n_mc)) if n_mc > 1 else 0.0
    return McEstimate(value, se, n_mc)


def estimate_lipschitz(o: CalibrationOracle, grid: int, eps: float = 1e-4) -> float:
    """Max |d pi_1 / dz| over a uniform grid on (eps, 1 - eps).

    The derivative can blow up only at the open endpoints, so the grid is
    clipped away from them; moderate overestimates are safe where this
    constant is consumed (bias bounds).
    """
    if grid < 3:
        raise ValueError("grid must have at least 3 points")
    zs = np.linspace(eps, 1.0 - eps, grid)
    return float(np.max(np.abs(calibration_slope(o, zs))))


def train_logistic(train, cfg: TrainerConfig) -> SyntheticModel:
    """Fit (beta0, beta1) by full-batch gradient descent on the logistic log-loss.

    ``train`` is an (x, y) pair of arrays or a sequence of (x, y) tuples.
    Initialization is drawn from the config seed, so the result is
    deterministic given (train, cfg). Non-finite x or y are rejected; if the
    loss goes non-finite, the error reports the epoch.
    """
    if isinstance(train, tuple) and len(train) == 2:
        x = np.asarray(train[0], dtype=np.float64)
        y = np.asarray(train[1], dtype=np.float64)
    else:
        pairs = list(train)
        if not pairs:
            raise ValueError("empty training set")
        x = np.asarray([p[0] for p in pairs], dtype=np.float64)
        y = np.asarray([p[1] for p in pairs], dtype=np.float64)
    if x.size == 0:
        raise ValueError("empty training set")
    if x.shape != y.shape:
        raise ValueError("x and y must have equal length")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("x and y must be finite")

    rng = stream(cfg.seed)
    beta = rng.normal(0.0, 0.01, size=2)
    for epoch in range(cfg.epochs):
        # With finite x and y, the loss goes non-finite exactly when beta does.
        if not np.all(np.isfinite(beta)):
            raise ValueError(f"non-finite loss at epoch {epoch}")
        resid = expit(beta[0] + beta[1] * x) - y
        beta = beta - cfg.learning_rate * np.array(
            [np.mean(resid), np.mean(resid * x)]
        )
    if not np.all(np.isfinite(beta)):
        raise ValueError(f"non-finite parameters after epoch {cfg.epochs - 1}")
    if beta[1] == 0.0:
        beta[1] = np.finfo(np.float64).tiny  # keep the model valid; slope ~ 0
    return SyntheticModel(float(beta[0]), float(beta[1]))
