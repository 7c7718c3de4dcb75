"""Uniform-width and uniform-mass binning schemes and per-bin statistics.

Bins are the half-open intervals (u_{i-1}, u_i] over a strictly increasing
edge vector u_0 = 0 < ... < u_B = 1. A score of exactly 0 is assigned to
bin 1 so the bins cover all of [0, 1] and masses always sum to one.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "BinningScheme", "BinStats", "uwb_scheme", "umb_scheme", "assign", "bin_sums", "bin_stats",
]

UWB = "uwb"
UMB = "umb"
_BLOCK = 1 << 14  # scores per block of the arithmetic index: bounds its temporaries


@dataclass(frozen=True)
class BinningScheme:
    """Ordered bin edges over [0, 1] plus the method that produced them.

    ``collapsed`` is set when uniform-mass construction had to merge bins
    because of tied scores (the requested bin count could not be realized).
    ``_uniform_width`` is set when the edges are exactly i/B, whatever the
    method label; ``assign`` then computes indices arithmetically.
    """

    edges: np.ndarray
    method: str
    collapsed: bool = False
    _uniform_width: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        edges = np.array(self.edges, dtype=np.float64)
        if edges.ndim != 1 or edges.size < 2:
            raise ValueError("edges must hold at least two values")
        if edges[0] != 0.0 or edges[-1] != 1.0:
            raise ValueError("edges must start at 0 and end at 1")
        if not np.all(np.diff(edges) > 0):  # a NaN edge fails too
            raise ValueError("edges must be strictly increasing")
        if self.method not in (UWB, UMB):
            raise ValueError(f"unknown binning method: {self.method}")
        edges.setflags(write=False)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "_uniform_width", np.array_equal(edges, _uniform_edges(edges.size - 1)))

    @property
    def B(self) -> int:
        return int(self.edges.size - 1)

    def to_json(self) -> str:
        return json.dumps(
            {"method": self.method, "edges": self.edges.tolist(), "collapsed": self.collapsed}
        )

    @classmethod
    def from_json(cls, text: str) -> "BinningScheme":
        obj = json.loads(text)
        return cls(obj["edges"], obj["method"], collapsed=obj.get("collapsed", False))


def _uniform_edges(B: int) -> np.ndarray:
    """The edges i/B for i = 0..B, each the correctly rounded quotient."""
    return np.arange(B + 1, dtype=np.float64) / B


def uwb_scheme(B: int) -> BinningScheme:
    """Uniform-width scheme with edges exactly i/B for i = 0..B."""
    if B < 1:
        raise ValueError("B must be at least 1")
    return BinningScheme(_uniform_edges(B), UWB)


def umb_scheme(scores, B: int) -> BinningScheme:
    """Uniform-mass scheme with edges at order statistics of the scores.

    Interior edge b is the floor(n_e * b / B)-th order statistic; u_0 = 0
    and u_B = 1. Requires n_e >= 2B. Tied scores can make edges coincide
    or leave the top bin empty; such edges are dropped (with a warning and
    the ``collapsed`` flag), reducing the bin count, so that every bin of
    the returned scheme contains at least one of the construction scores.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if B < 1:
        raise ValueError("B must be at least 1")
    n_e = scores.size
    if n_e < 2 * B:
        raise ValueError(f"need n_e >= 2B samples for UMB, got n_e={n_e}, B={B}")
    if not (scores.min() >= 0.0 and scores.max() <= 1.0):  # NaN fails too
        raise ValueError("scores must lie in [0, 1]")
    sorted_scores = np.sort(scores)
    ranks = (np.arange(1, B) * n_e) // B  # 1-indexed order statistics
    interior = sorted_scores[ranks - 1]
    edges = np.unique(np.concatenate(([0.0], interior, [1.0])))
    # An interior edge equal to the maximum score leaves the top bin empty.
    if edges.size > 2 and edges[-2] >= sorted_scores[-1]:
        edges = np.delete(edges, edges.size - 2)
    collapsed = edges.size - 1 < B
    if collapsed:
        warnings.warn(
            f"tied scores collapsed UMB from {B} to {edges.size - 1} bins",
            stacklevel=2,
        )
    return BinningScheme(edges, UMB, collapsed=collapsed)


def assign(scheme: BinningScheme, score) -> int | np.ndarray:
    """Bin index in [1, B] for a score (or array of scores) in [0, 1].

    Intervals are right-closed; a score of exactly 0 maps to bin 1.
    Uniform-width edges are indexed arithmetically, other edges by binary
    search; both give ``max(searchsorted(edges, score, "left"), 1)``.
    """
    arr = np.asarray(score, dtype=np.float64)
    if arr.size and not (arr.min() >= 0.0 and arr.max() <= 1.0):  # NaN fails too
        raise ValueError("scores must lie in [0, 1]")
    flat = arr.reshape(-1)
    if scheme._uniform_width:
        idx = _uniform_index(scheme.edges, flat)
    else:
        idx = np.searchsorted(scheme.edges, flat, side="left")
        np.maximum(idx, 1, out=idx)  # in place, so peak memory holds one index array
    return int(idx[0]) if arr.ndim == 0 else idx.reshape(arr.shape)


def _uniform_index(edges: np.ndarray, scores: np.ndarray) -> np.ndarray:
    """Bin indices of 1-d scores in [0, 1] under the edges i/B.

    g = floor(s*B) is the 0-based bin or one above it, never below: the edge
    for k/B is the double nearest k/B, so a score above that edge is above
    k/B, and its rounded product is at least k. It is one above for a score
    on an edge, as bins are right-closed, and for one just under an edge
    whose product rounds up to k (the double below 5/6, times 6, is 5.0).
    So the 1-based bin is g + 1 if the score lies above edge g, else g: one
    exact comparison. Blocks keep the temporaries small.
    """
    B = edges.size - 1
    idx = np.empty(scores.size, dtype=np.intp)
    for lo in range(0, scores.size, _BLOCK):
        s, j = scores[lo:lo + _BLOCK], idx[lo:lo + _BLOCK]
        np.multiply(s, B, out=j, casting="unsafe")  # the cast truncates, which is floor for s >= 0
        j += s > edges[j]
        np.maximum(j, 1, out=j)  # a score of 0 stays in bin 1
    return idx


def bin_sums(scheme: BinningScheme, scores, *weights) -> tuple[np.ndarray, ...]:
    """``(counts, *sums)``: per-bin score count (int64) and per-bin sum of each weight array.

    Every binned estimator reduces through here.
    """
    idx = assign(scheme, scores)
    idx -= 1  # in place, as in assign
    counts = np.bincount(idx, minlength=scheme.B).astype(np.int64)
    return (counts, *(np.bincount(idx, weights=w, minlength=scheme.B) for w in weights))


@dataclass(frozen=True)
class BinStats:
    """Per-bin counts, mean scores, mean labels, and masses for one dataset.

    Empty bins carry count 0, mass 0, and NaN means; the NaNs mark the
    means as undefined and are never folded into downstream estimates.
    """

    counts: np.ndarray
    mean_scores: np.ndarray
    mean_labels: np.ndarray
    masses: np.ndarray
    n: int

    @property
    def B(self) -> int:
        return int(self.counts.size)


def bin_stats(scheme: BinningScheme, dataset) -> BinStats:
    """Counts and per-bin score/label means of a dataset under a scheme."""
    if len(dataset) == 0:
        raise ValueError("empty dataset")
    counts, sum_scores, sum_labels = bin_sums(scheme, dataset.scores, dataset.scores, dataset.labels)
    nonempty = counts > 0
    mean_scores = np.divide(sum_scores, counts, out=np.full(scheme.B, np.nan), where=nonempty)
    mean_labels = np.divide(sum_labels, counts, out=np.full(scheme.B, np.nan), where=nonempty)
    masses = counts / len(dataset)
    return BinStats(counts, mean_scores, mean_labels, masses, n=len(dataset))
