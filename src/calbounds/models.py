"""Synthetic logistic family, its closed-form calibration map, and a trainer.

The data distribution is a balanced two-class Gaussian mixture: Y is a fair
coin, X | Y=1 ~ Normal(-1, 1) and X | Y=0 ~ Normal(+1, 1), for which the
true posterior P(Y=1 | X=x) = 1/(1+exp(2x)). Predictors are the logistic
family f(x) = sigmoid(beta0 + beta1*x); for any member the conditional
label mean given the prediction has a closed form. Each member is one-to-one
in x, so that mean at f(x) is the true posterior at x, and the true
calibration error E|f(X) - sigmoid(-2X)| is a one-dimensional integral:
``exact_tce`` evaluates it by deterministic quadrature, with an error
estimate, and ``mc_tce`` by a seeded Monte-Carlo mean. The binned TCE
``exact_binned_tce`` sums the same quadrature's panels bin by bin.

The trainer is one full-batch gradient-descent kernel over a stack of
training sets: ``train_logistic`` runs it on one, and the supersample
experiment on every mask of a supersample at once.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .binning import BinningScheme, _check_count, _unique
from .rng import stream

__all__ = [
    "SyntheticModel",
    "TrainerConfig",
    "McEstimate",
    "QuadEstimate",
    "sample_synthetic",
    "logistic_predict",
    "canonical_calibration",
    "calibration_slope",
    "mc_tce",
    "exact_tce",
    "exact_binned_tce",
    "estimate_lipschitz",
    "train_logistic",
]

_BLOCK = 1 << 16  # x elements per block of the batched descent: bounds its temporaries
LIPSCHITZ_GRID = 1000  # points of the estimate_lipschitz grid
_LIPSCHITZ_EPS = 1e-4  # the grid spans [eps, 1 - eps]
_TCE_SPAN = 40.0  # exact_tce integrates over [-span, span]; the density is 0.0 beyond 39.6
_TCE_TOL = 1e-13  # exact_tce's target for the summed error estimate
_TCE_MAX_ROUNDS = 60  # bisections of a panel; 80 / 2**60 is below the float spacing at 1
_SHIFT = np.array([1.0, -1.0])  # the class means' shift of the draws, by label


def _expit(x, out=None):
    """1 / (1 + exp(-x)), scipy.special.expit's formula, computed in ``out`` if given.

    exp(-x) overflows to inf below x = -709.78, where the result is 0.0. With glibc's
    exp kernel in numpy the bits are scipy's; with numpy's AVX-512 kernel they are
    within 4 ulp of them, the most where 1 + exp(-x) passes 2**53.
    """
    with np.errstate(over="ignore"):
        t = np.exp(np.negative(x, out=out), out=out)
        return np.divide(1.0, np.add(t, 1.0, out=out), out=out)


def _logit(z):
    """log(z / (1 - z)), as scipy.special.logit computes it: on [0.3, 0.65], where the
    quotient is near 1, as log1p(s) - log1p(-s) with s = 2z - 1. 0 and 1 give -inf and
    inf, and z outside [0, 1] NaN. The bits follow numpy's log kernels as ``_expit``'s
    follow its exp: scipy's with glibc's, and within 2 ulp of them with AVX-512's."""
    z = np.asarray(z, dtype=np.float64)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        s = 2.0 * (z - 0.5)
        out = np.where((z >= 0.3) & (z <= 0.65), np.log1p(s) - np.log1p(-s), np.log(z / (1.0 - z)))
    return out[()]


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
        (epochs,) = _check_count(epochs=self.epochs)
        object.__setattr__(self, "epochs", epochs)


@dataclass(frozen=True)
class McEstimate:
    """A Monte-Carlo point estimate with its attached standard error."""

    value: float
    std_error: float


@dataclass(frozen=True)
class QuadEstimate:
    """A deterministic quadrature value with an estimate of its absolute error."""

    value: float
    error: float


def sample_synthetic(n: int, rng: np.random.Generator):
    """Draw n (x, y) pairs from the balanced Gaussian-mixture distribution."""
    (n,) = _check_count(n=n)
    y = rng.integers(0, 2, size=n)
    x = rng.standard_normal(n)  # the draws of rng.normal(loc, 1.0): loc + 1.0 * z is z + loc
    x += _SHIFT.take(y)
    return x, y


def logistic_predict(m: SyntheticModel, x):
    """sigmoid(beta0 + beta1 * x); no clamping is applied."""
    with np.errstate(over="ignore"):  # a steep model's product may overflow: expit takes inf
        return _expit(m.beta0 + m.beta1 * np.asarray(x, dtype=np.float64))


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
    # and the true posterior is sigmoid(-2x), which takes an overflow to inf.
    with np.errstate(over="ignore"):
        out = _expit(2.0 * (m.beta0 - _logit(z)) / m.beta1)
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

    ``exact_tce`` gives the same integral by quadrature; this seeded mean
    stays as its independent cross-check. Draws x from the synthetic
    distribution and averages |f(x) - sigmoid(-2x)|: f is one-to-one, so
    pi_1(f(x)) is the true posterior at x, even where f(x) saturates to 0
    or 1. The standard error of the mean is attached (zero when
    n_mc == 1). The calibrated member beta = (0, -2) gives exactly 0.
    """
    (n_mc,) = _check_count(n_mc=n_mc)
    x, _ = sample_synthetic(n_mc, stream(seed))
    t = np.abs(logistic_predict(m, x) - _expit(-2.0 * x))
    value = float(np.mean(t))
    se = float(np.std(t, ddof=1) / np.sqrt(n_mc)) if n_mc > 1 else 0.0
    return McEstimate(value, se)


@functools.cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """20-point Gauss-Legendre nodes and weights on [-1, 1], made on first use. Only a
    run that integrates pays for them: ``numpy.polynomial`` (~0.5 MB of RSS) and the
    eigensolver behind ``leggauss``, which starts LAPACK (~1 MB)."""
    from numpy.polynomial.legendre import leggauss

    return leggauss(20)


def _panel_integrals(m: SyntheticModel, lo, hi) -> np.ndarray:
    """Gauss-Legendre values of the TCE integrand's integral over each panel [lo, hi]."""
    nodes, weights = _gauss_legendre()
    half = (hi - lo) / 2.0
    x = ((lo + hi) / 2.0)[:, None] + half[:, None] * nodes
    density = (np.exp(-0.5 * (x + 1.0) ** 2) + np.exp(-0.5 * (x - 1.0) ** 2)) / np.sqrt(8.0 * np.pi)
    return half * (np.abs(logistic_predict(m, x) - _expit(-2.0 * x)) * density @ weights)


def _tce_panels(m: SyntheticModel, cuts=()):
    """Yield each round's accepted panels of the TCE quadrature as (midpoint, value, error).

    The integral runs over [-40, 40], beyond which the mixture density is 0.0
    in float64. Panels break at -1, 0, 1, f's midpoint -beta0/beta1, the
    crossing -beta0/(beta1 + 2) where |f - sigmoid(-2x)| has its kink, and
    ``cuts``, and each gets 20-point Gauss-Legendre. While the summed
    |halves - whole| exceeds 1e-13, every panel whose own exceeds its width's
    share of 1e-13 is bisected; the others are accepted, with that difference
    as their error. A per-panel rule alone would never stop on a steep f whose
    midpoint is away from 0: there one float step of x moves f by more than a
    narrow panel's share, though by little in total.
    """
    b0, b1 = np.float64(m.beta0), np.float64(m.beta1)
    # A steep model's -beta0/beta1 may overflow: the clip takes inf.
    with np.errstate(over="ignore"):
        breaks = [-_TCE_SPAN, -1.0, 0.0, 1.0, _TCE_SPAN, -b0 / b1, *cuts]
        if b1 != -2.0:  # at beta1 = -2, f - sigmoid(-2x) keeps one sign
            breaks.append(-b0 / (b1 + 2.0))
    edges = _unique(np.clip(breaks, -_TCE_SPAN, _TCE_SPAN))
    lo, hi = edges[:-1], edges[1:]
    whole = _panel_integrals(m, lo, hi)
    error = 0.0
    for rounds in range(1, _TCE_MAX_ROUNDS + 1):
        mid = (lo + hi) / 2.0
        left, right = _panel_integrals(m, lo, mid), _panel_integrals(m, mid, hi)
        halves = left + right
        diff = np.abs(halves - whole)
        if error + diff.sum() <= _TCE_TOL or rounds == _TCE_MAX_ROUNDS:
            yield mid, halves, diff
            return
        split = diff > _TCE_TOL * (hi - lo) / (2.0 * _TCE_SPAN)
        yield mid[~split], halves[~split], diff[~split]
        error += diff[~split].sum()
        lo, hi = np.concatenate([lo[split], mid[split]]), np.concatenate([mid[split], hi[split]])
        whole = np.concatenate([left[split], right[split]])


def exact_tce(m: SyntheticModel) -> QuadEstimate:
    """The model's true calibration error E|f(X) - sigmoid(-2X)|, by the seed-free
    quadrature of ``_tce_panels``; the error is its panels' summed error, <= ~1e-13."""
    value = error = 0.0
    for _, values, errors in _tce_panels(m):
        value += values.sum()
        error += errors.sum()
    return QuadEstimate(float(value), float(error))


def exact_binned_tce(m: SyntheticModel, s: BinningScheme) -> QuadEstimate:
    """The binned TCE sum_i |E[(Y - f(X)) 1{f(X) in bin i}]|, for any edges, by quadrature.

    f is monotone, so bin i is the x-interval between (logit u - beta0)/beta1 at
    its edges. The panels break there and at the crossing, so over each one
    f - sigmoid(-2x) has the sign of beta0 + (beta1 + 2) x, and a bin's signed
    mass is the signed sum of its panels. The error is that of all panels.
    """
    sums, error = np.zeros(s.B), 0.0
    with np.errstate(over="ignore"):  # a steep or flat model's ends and signs may be inf
        cuts = np.sort(np.clip((_logit(s.edges[1:-1]) - m.beta0) / m.beta1, -_TCE_SPAN, _TCE_SPAN))
        for mid, values, errors in _tce_panels(m, cuts):
            signed = values * np.sign(m.beta0 + (m.beta1 + 2.0) * mid)
            sums += np.bincount(np.searchsorted(cuts, mid), weights=signed, minlength=s.B)
            error += errors.sum()
    return QuadEstimate(float(np.abs(sums).sum()), float(error))


def estimate_lipschitz(m: SyntheticModel) -> float:
    """Max |d pi_1 / dz| over ``LIPSCHITZ_GRID`` uniform points on [1e-4, 1 - 1e-4].

    A grid maximum, not a bound. For |beta1| <= 2 it slightly undershoots
    the true Lipschitz constant (1.5222634 against 1.5222647 at
    beta = (0.5, -1.5)). For |beta1| > 2, pi_1 is not Lipschitz at all: the
    slope grows without limit towards the endpoints (it passes 1.3e5 near
    z = 1 at (1, -3), where this returns 27.7). Bias bounds built on it
    carry both errors; see ROADMAP item 2, whose Lipschitz half is open.
    A beta1 so small that beta1 * z * (1 - z) underflows to 0 divides by 0, and
    raises ``ValueError`` naming beta1.
    """
    zs = np.linspace(_LIPSCHITZ_EPS, 1.0 - _LIPSCHITZ_EPS, LIPSCHITZ_GRID)
    with np.errstate(divide="ignore", invalid="ignore"):  # a zero divisor is named below
        slope = np.max(np.abs(calibration_slope(m, zs)))
    if not np.isfinite(slope):
        raise ValueError(f"beta1 = {m.beta1!r} is too small for the Lipschitz estimate: "
                         "beta1 * z * (1 - z) underflows to 0")
    return float(slope)


def _init_beta(seed: int) -> np.ndarray:
    """The trainer's starting (beta0, beta1), drawn from ``seed``."""
    return stream(seed).normal(0.0, 0.01, size=2)


@functools.cache
def _unsplit_rows() -> bool:
    """Whether numpy adds a contiguous row in one pass under a buffer shorter than the row.

    numpy 2.4's iterator does, whatever the buffer size. One that cut the row at the
    buffer would sum its pieces apart and change the descent's bits, so ``_descend``
    keeps the caller's buffer there. The probe's terms range over 10^-8 to 10^8 at
    random, so that cutting its rows into 16-element pieces changes their sums.
    """
    rng = np.random.default_rng(0)
    rows = rng.standard_normal((64, 48)) * 10.0 ** rng.integers(-8, 9, (64, 48))
    whole = np.add.reduce(rows, axis=1)
    caller = np.setbufsize(16)
    try:
        return np.array_equal(np.add.reduce(rows, axis=1), whole)
    finally:
        np.setbufsize(caller)


def _descend(beta, x, y, cfg: TrainerConfig, where=lambda row: "") -> np.ndarray:
    """Full-batch gradient descent from each row of ``beta`` (M, 2) on the rows of x, y (M, n).

    Returns the trained (M, 2) parameters. Every row equals training that row
    alone bit for bit: rounding is odd-symmetric, so exp((-b0) + (-b1) * x) is
    expit's exp(-(b0 + b1 * x)) without its negation pass, and 0/1 labels, cast
    to float64 once per block, subtract as integers would. The loop carries -b:
    adding the gradient gives -(b - g) exactly, and 0.0 - (-b) at the end gives b
    back, a zero as the +0.0 of b - g (a start at -0.0 excepted). Both gradient sums come from one
    row-wise ``np.add.reduce`` over the stacked residual and its product with x.
    Rows go in blocks of at most ``_BLOCK`` elements (one row at least), which
    bounds the temporaries. The first block where a row goes non-finite raises,
    naming the earliest such epoch and ``where`` of its first such row.

    numpy sends a (rows, 1) column broadcast over rows shorter than its ufunc
    buffer through that buffer, which at (10, 2000) takes 2.5 times as long as
    a scalar operand. For 256 <= n < ``np.getbufsize()`` the descent runs with
    the buffer set to n rounded down to a multiple of 16 (numpy 1.x takes no
    other size), which halves that cost; the caller's size comes back on return
    or raise. Below 256 the default buffer, which groups short rows into longer
    inner loops, is faster. Elementwise bits never depend on the buffer, and
    the row sums' do not where ``_unsplit_rows`` holds; elsewhere the buffer is
    left alone.
    """
    neg = -np.array(beta, dtype=np.float64)  # -b: each block descends in place here
    n = x.shape[1]
    step = max(1, _BLOCK // n)
    terms = np.empty((2, min(step, len(beta)), n))  # the residual and its product with x
    grad = np.empty((terms.shape[1], 2))
    caller = np.getbufsize()
    if 256 <= n < caller and _unsplit_rows():
        np.setbufsize(n - n % 16)  # set outside errstate: numpy 2 restores both on its exit
    try:
        for lo in range(0, len(beta), step):
            b, xb, yb = neg[lo:lo + step], x[lo:lo + step], y[lo:lo + step].astype(np.float64)
            t, g = terms[:, :len(b)], grad[:len(b)]
            r, p = t
            # A diverging row overflows silently: the check below names its epoch and row.
            with np.errstate(over="ignore", invalid="ignore"):
                for epoch in range(cfg.epochs + 1):
                    # With finite x and y, the loss goes non-finite exactly when beta does.
                    if not np.isfinite(b).all():
                        row = lo + np.flatnonzero(~np.isfinite(b).all(axis=1))[0]
                        raise ValueError(f"non-finite loss at epoch {epoch}{where(row)}")
                    if epoch == cfg.epochs:
                        break
                    # expit(b0 + b1 * x) - y, and a mean as add.reduce / n: mean's own steps.
                    np.multiply(b[:, 1:], xb, out=r)
                    np.add(b[:, :1], r, out=r)
                    np.exp(r, out=r)
                    np.add(r, 1.0, out=r)
                    np.divide(1.0, r, out=r)
                    np.subtract(r, yb, out=r)
                    np.multiply(r, xb, out=p)
                    np.add.reduce(t, axis=2, out=g.T)
                    g /= n
                    g *= cfg.learning_rate
                    b += g
    finally:
        np.setbufsize(caller)
    return np.subtract(0.0, neg, out=neg)


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
