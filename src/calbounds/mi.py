"""Mutual-information estimation and the supersample train/test experiment.

Two estimators of I(continuous statistic; discrete label): a mixed-type
k-nearest-neighbor estimator (digamma combination over same-label neighbor
radii) and a histogram plug-in over equal-mass value bins, which
cross-checks it at desk scale. On top of them, the supersample pipeline
trains a model on the masked half of an n x 2 data matrix, measures
calibration-error differences between the halves, and estimates how much
information those statistics carry about the mask.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.special import digamma, expit

from .binning import UMB, UWB, bin_sums, umb_scheme, uwb_scheme
from .data import ScoredDataset
from .metrics import ece_gap
from .models import TrainerConfig, _descend, _init_beta, sample_synthetic
from .rng import child_seed, stream

__all__ = [
    "MiEstimate",
    "CmiExperimentConfig",
    "CmiExperimentResult",
    "ksg_mixed_mi",
    "plugin_mi",
    "run_cmi_experiment",
]


@dataclass(frozen=True)
class MiEstimate:
    """A mutual-information estimate in nats.

    ``value`` is the raw estimator output and may be slightly negative from
    noise; ``clamped`` is the nonnegative copy that bound formulas consume.
    """

    value: float
    method: str
    k: int

    @property
    def clamped(self) -> float:
        return max(self.value, 0.0)


def _as_points(values) -> np.ndarray:
    pts = np.asarray(values, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2:
        raise ValueError("values must be scalars or fixed-length vectors")
    if not np.all(np.isfinite(pts)):
        raise ValueError("values must be finite")
    return pts


def _label_codes(labels) -> np.ndarray:
    # Labels may be arbitrary hashables (e.g. mask patterns as bytes).
    table: dict = {}
    codes = np.empty(len(labels), dtype=np.int64)
    for i, lab in enumerate(labels):
        key = lab.item() if isinstance(lab, np.generic) else lab
        codes[i] = table.setdefault(key, len(table))
    return codes


def ksg_mixed_mi(values, labels, k: int = 3) -> MiEstimate:
    """Mixed continuous-discrete k-nearest-neighbor MI estimate.

    For each point, the radius is the distance (max-norm) to its k-th
    nearest same-label neighbor, with distance ties broken toward the
    smaller point index; the count of all-label neighbors within that
    radius feeds the digamma combination. Points whose label appears only
    once are dropped (their radius is undefined); if every label is unique,
    or only one distinct label exists, the estimate is 0 with a warning.
    """
    pts = _as_points(values)
    codes = _label_codes(labels)
    n = pts.shape[0]
    if codes.shape[0] != n:
        raise ValueError("values and labels must have equal length")
    if k < 1:
        raise ValueError("k must be at least 1")
    if n < k + 2:
        raise ValueError(f"insufficient pairs: need at least {k + 2}, have {n}")
    n_labels = int(codes.max()) + 1 if n else 0
    if n_labels < 2:
        warnings.warn("fewer than 2 distinct labels; mutual information is 0")
        return MiEstimate(0.0, "knn", k)

    counts = np.bincount(codes, minlength=n_labels)
    keep = counts[codes] > 1
    if not np.any(keep):
        warnings.warn("all labels are singletons; mutual information estimated as 0")
        return MiEstimate(0.0, "knn", k)
    pts = pts[keep]
    codes = codes[keep]
    m = pts.shape[0]

    # Pairwise max-norm distances; n stays at desk scale so O(n^2) is fine.
    dist = np.max(np.abs(pts[:, None, :] - pts[None, :, :]), axis=2)

    psi_k = np.empty(m)
    psi_nx = np.empty(m)
    psi_m = np.empty(m)
    class_sizes = np.bincount(codes)
    idx_all = np.arange(m)
    for i in range(m):
        same = idx_all[(codes == codes[i]) & (idx_all != i)]
        k_i = min(k, same.size)
        order = same[np.lexsort((same, dist[i, same]))]
        kth = order[k_i - 1]
        radius = dist[i, kth]
        d_row = dist[i]
        within = (d_row < radius) | ((d_row == radius) & (idx_all <= kth))
        within[i] = False
        m_i = int(np.count_nonzero(within))
        psi_k[i] = digamma(k_i)
        psi_nx[i] = digamma(class_sizes[codes[i]])
        psi_m[i] = digamma(max(m_i, 1))
    value = float(digamma(m) + np.mean(psi_k) - np.mean(psi_nx) - np.mean(psi_m))
    return MiEstimate(value, "knn", k)


def plugin_mi(values, labels, bins: int) -> MiEstimate:
    """Histogram plug-in MI over equal-mass value bins.

    Values are ranked and cut into ``bins`` near-equal cells; tied values
    share the rank of the first of them, so a tie never straddles a cell
    boundary. The estimate is sum p(v,u) * log(p(v,u) / (p(v) p(u))) over the
    joint cell/label table. Requires at least 4 * bins pairs.
    """
    vals = np.asarray(values, dtype=np.float64)
    if vals.ndim != 1:
        raise ValueError("plug-in estimator takes scalar values")
    if not np.all(np.isfinite(vals)):
        raise ValueError("values must be finite")
    codes = _label_codes(labels)
    n = vals.size
    if codes.shape[0] != n:
        raise ValueError("values and labels must have equal length")
    if bins < 2:
        raise ValueError("bins must be at least 2")
    if n < 4 * bins:
        raise ValueError(f"insufficient pairs: need at least {4 * bins}, have {n}")
    n_labels = int(codes.max()) + 1
    if n_labels < 2:
        warnings.warn("fewer than 2 distinct labels; mutual information is 0")
        return MiEstimate(0.0, "plugin", 0)
    ranks = np.searchsorted(np.sort(vals), vals, "left")
    vbin = ranks * bins // n
    joint = np.bincount(vbin * n_labels + codes, minlength=bins * n_labels).reshape(
        bins, n_labels
    )
    p = joint / n
    pv = p.sum(axis=1, keepdims=True)
    pu = p.sum(axis=0, keepdims=True)
    nz = p > 0
    value = float(np.sum(p[nz] * np.log(p[nz] / (pv @ pu)[nz])))
    return MiEstimate(value, "plugin", 0)


def _cell_statistics(d_tr: ScoredDataset, d_te: ScoredDataset, method: str, B: int):
    """(ece gap, delta1, delta2) of one cell's training and complement halves.

    Uniform-mass edges come from the training half. delta1 and delta2 sum
    over those bins the |complement - training| label sums and counts, over n.
    """
    umb = umb_scheme(d_tr.scores, B)
    gap = ece_gap(d_tr, d_te, umb if method == UMB else uwb_scheme(B)).value
    (c_tr, y_tr), (c_te, y_te) = (bin_sums(umb, d.scores, d.labels) for d in (d_tr, d_te))
    n = len(d_tr)
    return gap, float(np.sum(np.abs((y_te - y_tr) / n))), float(np.sum(np.abs((c_te - c_tr) / n)))


@dataclass(frozen=True)
class CmiExperimentConfig:
    """Settings for the supersample mask-information experiment.

    Defaults mirror the desk-scale protocol: 5 supersample draws, 10 mask
    draws each, k = 3 neighbors. ``exhaustive`` switches to enumerating all
    2^n masks (n <= 12) with the histogram plug-in estimator over at most
    8 value bins, so no estimate exceeds ln 8.
    """

    n: int
    B: int
    trainer: TrainerConfig
    seed: int
    n_supersamples: int = 5
    n_masks: int = 10
    k: int = 3
    method: str = UMB
    exhaustive: bool = False

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be positive")
        if self.B < 1:
            raise ValueError("B must be at least 1")
        if self.n_supersamples < 1:
            raise ValueError("need at least one supersample draw")
        if self.n_masks < 2:
            raise ValueError("need at least two mask draws per supersample")
        if not self.exhaustive and self.k < 1:
            raise ValueError("k must be at least 1")
        if not self.exhaustive and self.n_masks < self.k + 2:
            raise ValueError(
                f"the kNN estimator needs n_masks >= k + 2 = {self.k + 2} draws"
            )
        if self.method not in (UWB, UMB):
            raise ValueError(f"unknown scheme method: {self.method}")
        if self.exhaustive and self.n > 12:
            raise ValueError("exhaustive mask enumeration is limited to n <= 12")
        if self.exhaustive and self.n < 3:
            raise ValueError("exhaustive mode needs n >= 3 for the plug-in estimator")


@dataclass(frozen=True)
class CmiExperimentResult:
    """Mask-information estimates, the mean gap, and the per-cell statistics."""

    ecmi_est: MiEstimate
    i_delta1: MiEstimate
    i_delta2: MiEstimate
    mean_gap: float
    cells: list = field(default_factory=list)


def run_cmi_experiment(cfg: CmiExperimentConfig) -> CmiExperimentResult:
    """Run the supersample grid and estimate mask information per statistic.

    For each supersample draw, the configured number of masks is sampled
    (or all 2^n masks enumerated in exhaustive mode); each (supersample,
    mask) cell trains a logistic model on the selected half and records the
    calibration-gap and per-bin difference statistics. The models of one
    supersample train together, in one batched gradient descent over its
    masks; each equals the model trained on its cell alone. Both halves of
    every cell are then scored in one pass. Mask information is estimated
    per supersample between statistic values and mask bit patterns, then
    averaged; ``mean_gap`` averages the gap over every cell. Deterministic
    given the config: every cell seeds its own substream.
    """
    gaps_all: list[float] = []
    estimates: list[list[MiEstimate]] = []  # per supersample: gap, delta1, delta2
    cells: list[dict] = []
    n_masks_used = 2**cfg.n if cfg.exhaustive else cfg.n_masks

    for s_idx in range(cfg.n_supersamples):
        x, y = sample_synthetic(2 * cfg.n, stream(cfg.seed, s_idx, 0))
        values = x.reshape(cfg.n, 2)
        labels = y.reshape(cfg.n, 2)

        if cfg.exhaustive:
            patterns = np.arange(n_masks_used, dtype=np.int64)
            masks = (
                (patterns[:, None] >> np.arange(cfg.n)[None, :]) & 1
            ).astype(np.int64)
        else:
            rng_masks = stream(cfg.seed, s_idx, 1)
            masks = rng_masks.integers(0, 2, size=(n_masks_used, cfg.n))

        rows = np.arange(cfg.n)
        halves = [(values[rows, cols], labels[rows, cols]) for cols in (masks, 1 - masks)]
        inits = [_init_beta(child_seed(cfg.seed, s_idx, m, 2)) for m in range(n_masks_used)]
        beta = _descend(
            np.array(inits), *halves[0], cfg.trainer,
            where=lambda m: f" (supersample {s_idx}, mask {m})",
        )
        (s_tr, y_tr), (s_te, y_te) = (
            (expit(beta[:, :1] + beta[:, 1:] * x), y) for x, y in halves
        )
        cell_stats = [
            _cell_statistics(
                ScoredDataset(s_tr[m], y_tr[m]), ScoredDataset(s_te[m], y_te[m]), cfg.method, cfg.B
            )
            for m in range(n_masks_used)
        ]
        cells += [
            {"supersample_idx": s_idx, "mask_idx": m_idx, "statistic_name": name, "value": value}
            for m_idx, cell in enumerate(cell_stats)
            for name, value in zip(("ecmi_gap", "delta1", "delta2"), cell)
        ]
        stats = np.array(cell_stats)
        pattern_labels = [mask.tobytes() for mask in masks]  # equal masks share a label
        gaps_all.extend(stats[:, 0].tolist())

        if cfg.exhaustive:
            bins = max(2, min(8, n_masks_used // 4))
            estimates.append([plugin_mi(stats[:, j], pattern_labels, bins=bins) for j in range(3)])
        else:
            estimates.append([ksg_mixed_mi(stats[:, j], pattern_labels, k=cfg.k) for j in range(3)])

    ecmi_est, i_delta1, i_delta2 = (
        MiEstimate(float(np.mean([e.value for e in per_stat])), per_stat[0].method, per_stat[0].k)
        for per_stat in zip(*estimates)
    )
    return CmiExperimentResult(
        ecmi_est, i_delta1, i_delta2, mean_gap=float(np.mean(gaps_all)), cells=cells
    )
