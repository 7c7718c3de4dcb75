"""Mutual-information estimation and the supersample train/test experiment.

Two estimators of I(continuous statistic; discrete label): a mixed-type
k-nearest-neighbor estimator (digamma combination over same-label neighbor
radii) and a histogram plug-in over equal-mass value bins, which
cross-checks it at desk scale. The supersample pipeline uses neither: it
trains a model on the masked half of an n x 2 data matrix, measures
calibration-error differences between the halves, and counts how much
information those statistics carry about the mask, or gives its ceiling.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .binning import UMB, UWB, _check_count, _sums, _unique, umb_scheme, uwb_scheme
from .metrics import _binned_error, _binned_errors
from .models import TrainerConfig, _descend, _expit, _init_beta, sample_synthetic
from .rng import child_seed, stream

__all__ = [
    "STATISTICS",
    "MiEstimate",
    "CmiExperimentConfig",
    "CmiExperimentResult",
    "ksg_mixed_mi",
    "plugin_mi",
    "run_cmi_experiment",
]

_ROWS = 1 << 8  # points per block of the same-label search: bounds its temporaries
_SWEEP = 1 << 5  # the all-label search builds at most _SWEEP * m distances per block
_GROUP = 1 << 15  # training scores (masks x n) per batched descent, unless one supersample has more

STATISTICS = ("ecmi_gap", "delta1", "delta2")  # a CMI cell's statistics, in order

# cephes psi: digamma(n) for n <= 10 is 1 + 1/2 + ... + 1/(n-1), summed left to right, less
# Euler's constant; above 10, log s - 0.5/s - z * A(z) with z = 1/s^2, A's highest power first.
_PSI_SMALL = np.array(list(itertools.accumulate((1.0 / i for i in range(1, 10)), initial=0.0)))
_PSI_SMALL -= 0.57721566490153286061
_PSI_A = (8.33333333333333333333e-2, -2.10927960927960927961e-2, 7.57575757575757575758e-3,
          -4.16666666666666666667e-3, 3.96825396825396825397e-3, -8.33333333333333333333e-3,
          8.33333333333333333333e-2)


@dataclass(frozen=True)
class MiEstimate:
    """Mutual information in nats and its ``method``: an estimator's (``"knn"`` with its
    ``k``, or ``"plugin"``), an entropy ``"count"`` over every mask, or a certified
    ``"ceiling"``. ``value`` may be slightly negative from noise or rounding;
    ``clamped`` is the nonnegative copy that bound formulas consume.
    """

    value: float
    method: str
    k: int

    @property
    def clamped(self) -> float:
        return max(self.value, 0.0)


def _digamma(n):
    """digamma at positive integers ``n``, with the bits of scipy.special.digamma: cephes psi,
    with the log from ``math.log`` (glibc's, not numpy's dispatched kernel).

    psi is evaluated once per integer from min(n) to max(n), then looked up: the estimator's
    counts of m points span fewer than m integers, so this costs no more than a sort would.
    """
    n = np.asarray(n)
    lo = int(n.min())
    u = np.arange(lo, int(n.max()) + 1)
    s = u.astype(np.float64)
    z = 1.0 / (s * s)
    series = np.fromiter(map(math.log, s.tolist()), np.float64, s.size) - 0.5 / s
    series -= z * functools.reduce(lambda acc, c: acc * z + c, _PSI_A)
    psi = np.where(u <= 10, _PSI_SMALL[np.minimum(u, 10) - 1], series)
    return psi[n - lo][()]


def _as_points(values) -> np.ndarray:
    pts = np.asarray(values, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2:
        raise ValueError("values must be scalars or fixed-length vectors")
    if not np.all(np.isfinite(pts)):
        raise ValueError("values must be finite")
    with np.errstate(over="ignore"):  # no points, no span: the caller reports too few pairs
        span = pts.max(axis=0) - pts.min(axis=0) if len(pts) else 0.0
    if not np.all(np.isfinite(span)):
        raise ValueError("max-norm distances overflow: some coordinate's max - min is not finite")
    return pts


def _label_codes(labels) -> np.ndarray:
    """Integer codes 0, 1, ... of 1-d bool or integer ``labels`` in order of first appearance.
    An empty list, which numpy makes a float array, has no codes."""
    labels = np.asarray(labels)
    if labels.ndim != 1 or (labels.size and labels.dtype.kind not in "biu"):
        raise ValueError("labels must be a 1-d array of bools or integers")
    _, first, inverse = _unique(labels, indices=True)
    rank = np.empty(first.size, dtype=np.int64)
    rank[np.argsort(first)] = np.arange(first.size)
    return rank[inverse]


def _max_norm(rows, cols, out, diff) -> None:
    """Set ``out[i, j] = max_c |rows[c][i] - cols[c][..., j]|`` for a (d, r) array and d
    column arrays of shape (w,) or (r, w), one coordinate at a time; ``diff`` holds
    one coordinate's differences.

    Max and abs of finite values are exact: any coordinate order gives the same bits.
    """
    cols = iter(cols)
    np.abs(np.subtract(rows[0, :, None], next(cols), out=out), out=out)
    for a, b in zip(rows[1:], cols):
        np.abs(np.subtract(a[:, None], b, out=diff), out=diff)
        np.maximum(out, diff, out=out)


def _leading(before, m: int) -> np.ndarray:
    """Per point, the number of leading positions q in 0..m-1 where ``before`` holds,
    by one vectorized bisection: ``before`` takes an array of one position per point,
    and for each point must hold, then fail, as q grows."""
    pos = np.zeros(m, dtype=np.intp)
    step = 1 << m.bit_length()
    while step := step >> 1:
        cand = pos + step
        pos = np.where((cand <= m) & before(np.minimum(cand, m) - 1), cand, pos)
    return pos


def ksg_mixed_mi(values, labels, k: int = 3) -> MiEstimate:
    """Mixed continuous-discrete k-nearest-neighbor MI estimate.

    For each point, the radius is the distance (max-norm) to its k-th
    nearest same-label neighbor, with distance ties broken toward the
    smaller point index; the count of all-label neighbors within that
    radius feeds the digamma combination. Points whose label appears only
    once are dropped (their radius is undefined); if every label is unique,
    or only one distinct label exists, the estimate is 0 with a warning.

    The search runs in two phases over the m kept points. The same-label
    phase takes each label's points in blocks of at most ``_ROWS`` and builds
    their max-norm distances to that label's points only: O(_ROWS * largest
    class) temporaries. The radius is the k-th smallest of them, found by a
    partition; the k-th neighbor is the t-th same-label point at exactly that
    radius in index order, where t is k minus the same-label points strictly
    inside it. The all-label phase sorts the points once along the coordinate
    of largest span. A point's window is the run of sorted points whose
    difference from it in that coordinate is at most its radius, found by a
    bisection on that same floating-point test; it holds every point the
    count can accept, since a max-norm distance is at least each coordinate's
    difference. Blocks of points with near-equal window widths build each
    point's distances over its own window only, at most ``_SWEEP * m`` per
    block, and count there: points inside the radius, and points at it up to
    the k-th neighbor's index.
    """
    pts = _as_points(values)
    codes = _label_codes(labels)
    n = pts.shape[0]
    if codes.shape[0] != n:
        raise ValueError("values and labels must have equal length")
    (k,) = _check_count(k=k)
    if n < k + 2:
        raise ValueError(f"insufficient pairs: need at least {k + 2}, have {n}")
    n_labels = int(codes.max()) + 1
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

    coords = np.ascontiguousarray(pts.T)  # (d, m): one contiguous row per coordinate
    class_sizes = np.bincount(codes)
    k_c = np.minimum(k, class_sizes - 1)  # neighbors sought per label
    radius = np.empty(m)
    kth = np.empty(m, dtype=np.int64)  # index of each point's k-th same-label neighbor
    budget = _SWEEP * m  # distances per block of the all-label phase
    largest = int(class_sizes.max())
    # One block's distances and one coordinate's (or the partition), reused by every block.
    bufs = np.empty((2, max(min(_ROWS, largest) * largest, budget)))
    for label in np.flatnonzero(class_sizes):
        members = np.flatnonzero(codes == label)  # ascending: ties go to the smaller index
        own = coords[:, members]
        for lo in range(0, members.size, _ROWS):
            rows = np.arange(lo, min(lo + _ROWS, members.size))
            dist, part = bufs[:, :rows.size * members.size].reshape(2, rows.size, -1)
            _max_norm(own[:, rows], own, dist, part)
            dist[np.arange(rows.size), rows] = np.nan  # partitions last and compares false: not a neighbor
            np.copyto(part, dist)
            part.partition(k_c[label] - 1, axis=1)
            r = part[:, k_c[label] - 1, None]
            t = k_c[label] - np.count_nonzero(dist < r, axis=1)  # the k-th is the t-th tie, t >= 1
            tie_row, tie_col = np.nonzero(dist == r)  # row-major: each row's ties in index order
            first_tie = np.searchsorted(tie_row, np.arange(rows.size))
            kth[members[rows]] = members[tie_col[first_tie + t - 1]]
            radius[members[rows]] = r[:, 0]

    axis = np.argmax(coords.max(axis=1) - coords.min(axis=1))  # widest span, narrowest windows
    order = np.argsort(coords[axis], kind="stable")
    x, r_s, kth_s = coords[axis, order], radius[order], kth[order]
    # Rounding is monotone, so along ascending x each test flips once.
    start = _leading(lambda q: np.subtract(x, x[q]) > r_s, m)
    width = _leading(lambda q: np.subtract(x[q], x) <= r_s, m) - start
    # Row q of a window view holds sorted points q, q + 1, ...; past the last point, NaN
    # distances that no test accepts.
    w_max = int(width.max())
    padded = np.full((coords.shape[0], m + w_max - 1), np.nan)
    padded[:, :m] = coords[:, order]
    windows = sliding_window_view(padded, w_max, axis=1)
    by_width = np.argsort(width, kind="stable")  # blocks of near-equal widths: little padding
    sorted_width = width[by_width]
    m_i = np.empty(m, dtype=np.int64)  # points of any label within each point's radius
    lo = 0
    while lo < m:
        # Widths ascend: the widest of the next budget // (narrowest) points bounds the block's.
        hi = min(m, lo + budget // sorted_width[min(m, lo + budget // sorted_width[lo]) - 1])
        p, w = by_width[lo:hi], int(sorted_width[hi - 1])
        s, r = start[p], r_s[p, None]
        dist, diff = bufs[:, :p.size * w].reshape(2, p.size, w)
        _max_norm(padded[:, p], (v[s, :w] for v in windows), dist, diff)
        dist[np.arange(p.size), p - s] = np.nan  # self: not a neighbor
        # Inside the radius, or at it up to the k-th neighbor's index: all points at or inside
        # it, less those at it past that index.
        tie_row, tie_col = np.nonzero(dist == r)
        late = order[s[tie_row] + tie_col] > kth_s[p[tie_row]]
        late_ties = np.bincount(tie_row[late], minlength=p.size)
        m_i[order[p]] = np.count_nonzero(dist <= r, axis=1) - late_ties
        lo = hi
    psi_k, psi_nx, psi_m = (np.mean(_digamma(a)) for a in (k_c[codes], class_sizes[codes], m_i))
    value = float(_digamma(m) + psi_k - psi_nx - psi_m)
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
    (bins,) = _check_count(least=2, bins=bins)
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


def _cell_statistics(s_tr, y_tr, s_te, y_te, B: int, uwb=None):
    """(ece gap, delta1, delta2) of one cell's n-row score and label arrays, per half.

    Uniform-mass edges come from the training scores, and ``binning._sums``
    reduces each half once per scheme, unchecked: the scores are the program's
    own expit outputs in [0, 1] and the labels its own 0/1 draws. Both ECEs of
    the gap take the UWB scheme ``uwb`` if given, else those edges. delta1 and
    delta2 sum over the uniform-mass bins the |complement - training| label
    sums and counts, over n.
    """
    umb = umb_scheme(s_tr, B)
    halves = ((s_tr, y_tr), (s_te, y_te))
    (c_tr, _, l_tr), (c_te, _, l_te) = umb_sums = [_sums(umb, s, y) for s, y in halves]
    sums = umb_sums if uwb is None else [_sums(uwb, s, y) for s, y in halves]
    e_tr, e_te = (_binned_error(c, t / np.maximum(c, 1), l) for c, t, l in sums)
    n, gap = s_tr.size, abs(e_te - e_tr)
    # The sums are of integers, so exact: equal totals give equal floats after one division.
    return gap, float(np.abs(l_te - l_tr).sum() / n), float(np.abs(c_te - c_tr).sum() / n)


def _group_statistics(s, y, B: int, uwb=None) -> np.ndarray:
    """``_cell_statistics`` of R cells at once: (R, 3) from the (2, R, n) scores and labels
    of the training halves, then the complements.

    One row-wise sort gives each row's uniform-mass interior edges e_1..e_{B-1}. A row
    with 0 < e_1 < ... < e_{B-1} < its top training score keeps all B bins, and its
    0-based bin index sum_k (s > e_k) is `_blocks`' searchsorted. One ``np.bincount``
    over row * B + index per sum gives all counts, label sums and score sums, these
    added in score order: the bits of `_sums`' ``np.add.at``. The deltas are exact
    integer sums; the ECEs of both halves come from ``_binned_errors``, row-wise where
    every bin holds a score. Any other row, tied or collapsing, takes
    ``_cell_statistics``, warning included.
    """
    R, n = s.shape[1:]
    ordered = np.sort(s[0], axis=1)
    interior = ordered[:, (np.arange(1, B) * n) // B - 1]
    exact = (np.diff(np.column_stack([np.zeros(R), interior, ordered[:, -1]])) > 0).all(axis=1)
    cell = np.arange(2 * R).repeat(n).reshape(s.shape) * B  # each score's half * R + row, times B

    def binned(upper):  # (counts, label sums, score sums), each (half, row, bin)
        j = sum((s > e[:, None] for e in upper.T), cell)
        return [np.bincount(j.ravel(), w, 2 * R * B).reshape(2, R, B)
                for w in (None, y.ravel(), s.ravel())]

    (c_tr, c_te), (l_tr, l_te), _ = umb = binned(interior)
    sums = umb if uwb is None else binned(np.broadcast_to(uwb.edges[1:-1], interior.shape))
    c, l, t = (a[:, exact] for a in sums)
    e_tr, e_te = _binned_errors(c, t / np.maximum(c, 1), l)
    stats = np.empty((R, len(STATISTICS)))
    stats[exact, 0] = np.abs(e_te - e_tr)
    stats[:, 1] = np.abs(l_te - l_tr).sum(axis=1) / n
    stats[:, 2] = np.abs(c_te - c_tr).sum(axis=1) / n
    for r in np.flatnonzero(~exact):
        stats[r] = _cell_statistics(s[0, r], y[0, r], s[1, r], y[1, r], B, uwb)
    return stats


@dataclass(frozen=True)
class CmiExperimentConfig:
    """Settings for the supersample mask-information experiment.

    Defaults mirror the desk-scale protocol: 5 supersample draws, 10 mask
    draws each. ``exhaustive`` switches to enumerating all 2^n masks
    (n <= 12), whose entropies are counted exactly; ``n_masks`` then goes
    unread. Each cell bins its n training scores by uniform mass: n >= 2B.
    """

    n: int
    B: int
    trainer: TrainerConfig
    seed: int
    n_supersamples: int = 5
    n_masks: int = 10
    method: str = UMB
    exhaustive: bool = False

    def __post_init__(self) -> None:
        counts = {"n": self.n, "B": self.B, "n_supersamples": self.n_supersamples}
        if not self.exhaustive:
            counts.update(n_masks=self.n_masks)
        for name, v in zip(counts, _check_count(**counts)):
            object.__setattr__(self, name, v)
        if self.n < 2 * self.B:
            raise ValueError(f"need n >= 2B training rows per cell, got n={self.n}, B={self.B}")
        if 2 * self.n * 8 > np.iinfo(np.intp).max:  # 2n 8-byte draws: numpy's size limit
            raise ValueError(f"n={self.n} is too large: a supersample's 2n draws "
                             "would not fit in one numpy array")
        if self.method not in (UWB, UMB):
            raise ValueError(f"unknown scheme method: {self.method}")
        if self.exhaustive and self.n > 12:
            raise ValueError("exhaustive mask enumeration is limited to n <= 12")


@dataclass(frozen=True, eq=False)
class CmiExperimentResult:
    """Mask information per statistic and the mean gap, all computed from ``stats``.

    ``stats`` is the read-only (supersample, mask, statistic) array of every
    cell; its last axis follows ``STATISTICS``. Each information is a count
    or a ceiling, as ``run_cmi_experiment`` states.
    """

    ecmi_est: MiEstimate
    i_delta1: MiEstimate
    i_delta2: MiEstimate
    mean_gap: float
    stats: np.ndarray


def _sum_c_log_c(column: np.ndarray) -> float:
    """sum(c ln c) over the counts c of the distinct values of ``column``."""
    _, _, inverse = _unique(column, indices=True)
    return math.fsum(c * math.log(c) for c in np.bincount(inverse).tolist())


def run_cmi_experiment(cfg: CmiExperimentConfig) -> CmiExperimentResult:
    """Run the supersample grid and find the mask information of each statistic.

    For each supersample draw, the configured number of masks is sampled
    (or all 2^n masks enumerated in exhaustive mode); each (supersample,
    mask) cell trains a logistic model on the selected half and records the
    calibration-gap and per-bin difference statistics. The models of a group
    of consecutive supersamples train together, in one batched gradient
    descent over their masks; each equals the model trained on its cell
    alone. A group holds at most ``_GROUP`` training scores, or one
    supersample that alone holds more, so a group of several fits one block
    of the descent: a diverging group names its earliest epoch, then its
    first such (supersample, mask). Both halves of the group's cells are
    scored with one expit, and ``_group_statistics`` takes them in one
    batched pass. ``mean_gap`` averages the gap over every cell.
    Deterministic given the config: every cell seeds its own substream.

    Training is deterministic given the mask, so a statistic's information
    about the mask is its entropy given the supersample. Exhaustive mode
    counts it: per supersample, n ln 2 - sum(c ln c) / 2^n over the counts c
    of the statistic's distinct values (logs from ``math.log``), averaged
    over supersamples. Sampled masks certify no count, so each statistic
    reports its ceiling: H(U) = n ln 2 for the gap, and for delta1 and
    delta2, whose n * delta is an integer in 0..2n, the smaller of that and
    ln(2n + 1) (Steinke & Zakynthinou 2020).
    """
    n_masks = 2**cfg.n if cfg.exhaustive else cfg.n_masks
    uwb = uwb_scheme(cfg.B) if cfg.method == UWB else None
    stats = np.empty((cfg.n_supersamples, n_masks, len(STATISTICS)))
    group = max(1, _GROUP // (n_masks * cfg.n))  # supersamples per descent
    rows = np.arange(cfg.n)

    for lo in range(0, cfg.n_supersamples, group):
        hi = min(lo + group, cfg.n_supersamples)
        xs, ys, inits = [], [], []
        for s_idx in range(lo, hi):
            x, y = sample_synthetic(2 * cfg.n, stream(cfg.seed, s_idx, 0))
            if cfg.exhaustive:
                masks = (np.arange(n_masks)[:, None] >> rows) & 1
            else:
                masks = stream(cfg.seed, s_idx, 1).integers(0, 2, size=(n_masks, cfg.n))
            cols = np.stack([masks, 1 - masks])  # (half, mask, row): training half first
            xs.append(x.reshape(cfg.n, 2)[rows, cols])
            ys.append(y.reshape(cfg.n, 2)[rows, cols])
            inits += [_init_beta(child_seed(cfg.seed, s_idx, m, 2)) for m in range(n_masks)]
        x, y = np.concatenate(xs, axis=1), np.concatenate(ys, axis=1)  # (half, cell, row)
        beta = _descend(
            np.array(inits), x[0], y[0], cfg.trainer,
            where=lambda r: f" (supersample {lo + r // n_masks}, mask {r % n_masks})",
        )
        with np.errstate(over="ignore"):  # a steep model's product may overflow: expit takes inf
            s = _expit(beta[:, :1] + beta[:, 1:] * x, out=x)
        stats[lo:hi] = _group_statistics(s, y, cfg.B, uwb).reshape(hi - lo, n_masks, -1)

    stats.setflags(write=False)
    whole = cfg.n * math.log(2.0)  # H(U): the n fair bits of a mask
    if cfg.exhaustive:  # n ln 2 less a nonnegative mean: never above it
        info = [whole - math.fsum(map(_sum_c_log_c, s)) / s.size for s in stats.transpose(2, 0, 1)]
    else:
        info = [whole] + [min(whole, math.log(2 * cfg.n + 1))] * 2
    method = "count" if cfg.exhaustive else "ceiling"
    ecmi_est, i_delta1, i_delta2 = (MiEstimate(v, method, 0) for v in info)
    mean_gap = float(np.mean(stats[:, :, 0]))
    return CmiExperimentResult(ecmi_est, i_delta1, i_delta2, mean_gap, stats)
