"""Desk-scale experiments: scaling law and recalibration comparison.

The scaling-law experiment returns its (n, rep) test-set ECEs as one array
plus fitted summaries; the command-line layer only parses flags, calls an
experiment, and writes files.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .binning import UWB, _check_count, uwb_scheme
from .bounds import BoundReport, recalib_holdout_bound, recalib_reuse_bound, total_bias_bound
from .data import ScoredDataset
from .metrics import cube_root_bins, ece, optimal_bins
from .models import (
    QuadEstimate,
    SyntheticModel,
    estimate_lipschitz,
    exact_tce,
    logistic_predict,
    sample_synthetic,
)
from .recalibration import fit_recalibrator, recalibrated_tce
from .rng import stream

__all__ = [
    "SyntheticExperimentResult",
    "RecalibrationResult",
    "run_synthetic_experiment",
    "run_recalibration",
    "scored_synthetic_dataset",
]


def scored_synthetic_dataset(model: SyntheticModel, n: int, seed: int, *path: int) -> ScoredDataset:
    """Draw n synthetic points and score them with the model."""
    x, y = sample_synthetic(n, stream(seed, *path))
    return ScoredDataset(logistic_predict(model, x), y)


def _bin_rule(rule: str):
    """``(n, L) -> B`` for the rule ``optimal``, ``cube_root`` or ``fixed:K`` (K >= 1)."""
    if rule == "optimal":
        return lambda n, L: optimal_bins(n, L, UWB)
    if rule == "cube_root":
        return lambda n, L: cube_root_bins(n)
    kind, _, k = str(rule).partition(":")
    if kind == "fixed" and k.strip().isdecimal() and int(k) >= 1:
        return lambda n, L: int(k)
    raise ValueError(f"unknown bin rule {rule!r}: expected optimal, cube_root or fixed:K with K >= 1")


@dataclass(frozen=True, eq=False)
class SyntheticExperimentResult:
    """Per-n bin counts and bounds, the read-only (n, rep) ``ece`` array, and
    the fitted log-log slope of the mean gap |tce - ece|."""

    n_grid: tuple
    bins: tuple
    bounds: tuple
    ece: np.ndarray
    slope: float
    tce: QuadEstimate
    lipschitz: float


def run_synthetic_experiment(
    beta0: float,
    beta1: float,
    n_grid,
    reps: int,
    b_rule: str,
    seed: int,
) -> SyntheticExperimentResult:
    """Measure the gap between the exact TCE and the test-set ECE.

    For each grid size n and repetition, a fresh test set is drawn and
    scored, and the uniform-width ECE is computed at the rule-selected bin
    count; each n also gets the matching total-bias bound. The log-log slope
    of the mean gap to the TCE (``exact_tce``, by quadrature) against n is
    fitted by least squares; with fewer than two distinct sizes it is NaN.
    ``b_rule`` is ``optimal``, ``cube_root`` or ``fixed:K``; a bad rule
    fails before any draw.
    """
    (reps,) = _check_count(reps=reps)
    (seed,) = _check_count(least=0, seed=seed)
    n_grid = tuple(n_grid)
    if not n_grid:
        raise ValueError("n_grid must hold at least one size")
    n_grid = _check_count(least=8, **{f"n_grid[{i}]": n for i, n in enumerate(n_grid)})
    bins_for = _bin_rule(b_rule)
    model = SyntheticModel(beta0, beta1)
    L = estimate_lipschitz(model)
    tce = exact_tce(model)

    bins = tuple(bins_for(n, L) for n in n_grid)
    bounds = tuple(total_bias_bound(B, n, L, UWB).value for n, B in zip(n_grid, bins))
    eces = np.empty((len(n_grid), reps))
    for i, (n, B) in enumerate(zip(n_grid, bins)):
        scheme = uwb_scheme(B)
        for rep in range(reps):
            eces[i, rep] = ece(scored_synthetic_dataset(model, n, seed, 1, i, rep), scheme).value
    eces.setflags(write=False)

    slope = float("nan")
    if len(set(n_grid)) >= 2:
        slope = np.polyfit(np.log(n_grid), np.log(np.abs(tce.value - eces).mean(axis=1)), 1)[0]
    return SyntheticExperimentResult(n_grid, bins, bounds, eces, float(slope), tce, L)


@dataclass(frozen=True)
class RecalibrationResult:
    """Recalibrated/raw test ECE and the matching closed-form bound."""

    n_fit: int
    n_test: int
    ece_raw: float
    tce_recalibrated: float
    bound: BoundReport


def run_recalibration(
    pool: ScoredDataset,
    variant: str,
    B: int,
    eval_split: float,
    seed: int,
    n_re: int | None = None,
    i_delta1: float | None = None,
    i_delta2: float | None = None,
) -> RecalibrationResult:
    """Split a scored pool, fit a histogram recalibrator, and report its bound.

    The pool is permuted with the seed; the last ``eval_split`` fraction is
    the test set. The held-out variant fits on ``n_re`` samples drawn from
    the remainder; the reuse variant fits on the entire remainder, standing
    in for the training set, and its bound takes the caller's (possibly
    estimated) mask-information values for the two difference statistics,
    0 where not given. Each variant rejects the other's inputs.
    """
    if variant not in ("holdout", "reuse"):
        raise ValueError(f"unknown variant: {variant}")
    (B,) = _check_count(B=B)
    if not (0.0 < eval_split < 1.0):
        raise ValueError("eval_split must lie in (0, 1)")
    n_total = len(pool)
    n_test = int(round(eval_split * n_total))
    n_rest = n_total - n_test
    if n_test < 2 * B:
        raise ValueError(f"eval_split {eval_split} leaves {n_test} test rows; need 2 * B = {2 * B}")
    perm = stream(seed, 0).permutation(n_total)
    test = pool.subset(perm[n_rest:])
    rest_idx = perm[:n_rest]

    if variant == "holdout":
        if i_delta1 is not None or i_delta2 is not None:
            raise ValueError("i_delta1 and i_delta2 apply only to the reuse variant")
        if n_re is None:
            raise ValueError("holdout variant requires n_re")
        (n_re,) = _check_count(n_re=n_re)
        if n_re > n_rest:
            raise ValueError(f"n_re={n_re} exceeds the {n_rest} non-test rows")
        if n_re < 2 * B:
            raise ValueError(f"n_re={n_re} is below the 2B={2 * B} fit minimum")
        pick = stream(seed, 1).permutation(n_rest)[:n_re]
        fit_set = pool.subset(rest_idx[pick])
        bound = recalib_holdout_bound(B, n_re)
    else:
        if n_re is not None:
            raise ValueError("n_re applies only to the holdout variant")
        if n_rest < 2 * B:
            raise ValueError(f"only {n_rest} fit rows; need at least {2 * B}")
        fit_set = pool.subset(rest_idx)
        bound = recalib_reuse_bound(i_delta1 or 0.0, i_delta2 or 0.0, B, len(fit_set))

    recal = fit_recalibrator(fit_set, B)
    raw = ece(test, recal.scheme).value
    recal_tce = recalibrated_tce(recal, test)
    return RecalibrationResult(
        n_fit=len(fit_set),
        n_test=len(test),
        ece_raw=raw,
        tce_recalibrated=recal_tce,
        bound=bound,
    )
