"""Uniform-width and uniform-mass binning schemes and per-bin statistics.

Bins are the half-open intervals (u_{i-1}, u_i] over a strictly increasing
edge vector u_0 = 0 < ... < u_B = 1. A score of exactly 0 is assigned to
bin 1 so the bins cover all of [0, 1] and masses always sum to one.
Every per-bin statistic comes from one reduction, `_sums`: per-bin counts,
score sums and sums of 0/1 labels.
"""

from __future__ import annotations

import functools
import importlib
import warnings
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "BinningScheme", "BinStats", "uwb_scheme", "umb_scheme", "assign", "bin_stats",
]

importlib.import_module("numpy.ma")  # np.unique's first call imports it: here, not in a timed call

UWB = "uwb"
UMB = "umb"
_BLOCK = 1 << 14  # scores per block of the table index and of _sums: bounds temporaries
_MAX_CELLS = 1 << 14  # bounds the table at 2 * (2**14 + 1) * 8 bytes, ~256 KiB


@dataclass(frozen=True, eq=False)
class BinningScheme:
    """Ordered bin edges over [0, 1] plus the method that produced them.

    ``collapsed`` is set when uniform-mass construction had to merge bins
    because of tied scores (the requested bin count could not be realized).
    ``_cells`` is G, the smallest power of two with G * min(diff(edges)) > 1,
    or 0 if that exceeds ``_MAX_CELLS``; whatever the method label, a nonzero
    G lets ``assign`` index through the cached ``_table``. Schemes compare
    and hash by identity.
    """

    edges: np.ndarray
    method: str
    collapsed: bool = False
    _cells: int = field(init=False, repr=False)

    def __post_init__(self) -> None:
        edges = np.asarray(self.edges)
        if edges.dtype.kind not in "iuf":  # no strings, bools or None parsed as numbers
            raise ValueError("edges must be numbers")
        edges = edges.astype(np.float64)  # a copy, which the scheme owns
        if edges.ndim != 1 or edges.size < 2:
            raise ValueError("edges must hold at least two values")
        if edges[0] != 0.0 or edges[-1] != 1.0:
            raise ValueError("edges must start at 0 and end at 1")
        gap = np.diff(edges).min()
        if not gap > 0:  # a NaN edge fails too
            raise ValueError("edges must be strictly increasing")
        if self.method not in (UWB, UMB):
            raise ValueError(f"unknown binning method: {self.method}")
        if not isinstance(self.collapsed, (bool, np.bool_)):
            raise ValueError("collapsed must be a bool")
        edges.setflags(write=False)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "collapsed", bool(self.collapsed))
        # G * gap is exact for a power of two G, and rounding is monotone, so a
        # computed gap above 1/G means a true one above it too. gap <= 1 rules out G = 1.
        cells = 2
        while cells * gap <= 1.0 and cells <= _MAX_CELLS:
            cells *= 2
        object.__setattr__(self, "_cells", cells if cells <= _MAX_CELLS else 0)

    @functools.cached_property
    def _table(self) -> tuple[np.ndarray, np.ndarray]:
        """(base, cand) over the cells c = 0..G: the number of edges below c/G,
        and the edge in cell c, or 2.0 (above every score) if none. Edge 0 is
        stored as -1, so that every score in cell 0, 0 included, lands in bin 1."""
        G = self._cells
        base = np.searchsorted(self.edges, np.arange(G + 1) / G, side="left")
        cand = np.full(G + 1, 2.0)
        cand[(self.edges * G).astype(np.intp)] = self.edges
        cand[0] = -1.0
        return base, cand

    @property
    def B(self) -> int:
        return int(self.edges.size - 1)


def _uniform_edges(B: int) -> np.ndarray:
    """The edges i/B for i = 0..B, each the correctly rounded quotient."""
    return np.arange(B + 1, dtype=np.float64) / B


def _check_count(least: int = 1, **counts) -> tuple[int, ...]:
    """The one check of every count a public entry takes: an int or numpy integer,
    not a bool, of at least ``least``; never truncated.

    Returns the counts in order as Python ints, which the entry goes on with: a
    product such as ``2 * B`` taken in a small numpy dtype would wrap.
    """
    for name, v in counts.items():
        if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
            raise ValueError(f"{name} must be an integer, got {v!r}")
        if v < least:
            raise ValueError(f"{name} must be at least {least}")
    return tuple(int(v) for v in counts.values())


def uwb_scheme(B: int) -> BinningScheme:
    """Uniform-width scheme with edges exactly i/B for i = 0..B."""
    (B,) = _check_count(B=B)
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
    if scores.ndim != 1:
        raise ValueError(f"scores must be a 1-d array, got shape {scores.shape}")
    (B,) = _check_count(B=B)
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

    Intervals are right-closed; a score of exactly 0 maps to bin 1. The
    result is ``max(searchsorted(edges, score, "left"), 1)``, read from the
    scheme's cell table given at least G scores (the table is built on the
    first such call), else found by binary search.
    """
    arr = np.asarray(score, dtype=np.float64)
    if arr.size and not (arr.min() >= 0.0 and arr.max() <= 1.0):  # NaN fails too
        raise ValueError("scores must lie in [0, 1]")
    idx = _bin_index(scheme, arr.reshape(-1))
    return int(idx[0]) if arr.ndim == 0 else idx.reshape(arr.shape)


def _bin_index(scheme: BinningScheme, scores: np.ndarray) -> np.ndarray:
    """`assign` of 1-d float64 scores already known to lie in [0, 1]: no range check."""
    if 0 < scheme._cells <= scores.size:
        return _table_index(scheme, scores)
    idx = np.searchsorted(scheme.edges, scores, side="left")
    np.maximum(idx, 1, out=idx)  # in place, so peak memory holds one index array
    return idx


def _table_index(scheme: BinningScheme, scores: np.ndarray) -> np.ndarray:
    """Bin indices of 1-d scores in [0, 1] from the scheme's table.

    Each cell [c/G, (c+1)/G) holds at most one edge, and c = floor(s*G) is
    exact for a power of two G, so the index is base[c], plus one if s lies
    above cand[c]: one exact comparison. Blocks keep the temporaries small.
    Every c lies in [0, G], so ``mode="clip"`` moves no index; it only spares
    ``np.take`` the bounds check that makes fancy indexing slower.
    """
    base, cand = scheme._table
    idx = np.empty(scores.size, dtype=np.intp)
    for lo in range(0, scores.size, _BLOCK):
        s, j = scores[lo:lo + _BLOCK], idx[lo:lo + _BLOCK]
        c = (s * scheme._cells).astype(np.intp)  # exact; the cast truncates, i.e. floors
        np.take(base, c, mode="clip", out=j)
        j += s > np.take(cand, c, mode="clip")
    return idx


def _sums(scheme: BinningScheme, scores: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, ...]:
    """``(counts, score_sums, label_sums)`` per bin: the one per-bin reduction.

    Takes 1-d float64 scores already known to lie in [0, 1] and their 0/1
    integer labels; neither is checked here. One pass per `_BLOCK` scores
    bounds the temporaries whatever n is. Each block's bin index j is taken
    once; its scores are added into zeros by `np.add.at`, which adds in score
    order as `np.bincount` does, so every score sum has the bits of one
    `np.bincount` over all the scores; and one integer ``np.bincount(2*j + y)``
    counts each bin's (label 0, label 1) rows, so counts and label sums are exact.
    """
    B = scheme.B
    pairs, score_sums = np.zeros(2 * B, dtype=np.int64), np.zeros(B)
    for lo in range(0, scores.size, _BLOCK):
        s = scores[lo:lo + _BLOCK]
        j = _bin_index(scheme, s)
        j -= 1  # in place, as in _bin_index
        np.add.at(score_sums, j, s)
        j *= 2
        j += labels[lo:lo + _BLOCK]
        pairs += np.bincount(j, minlength=2 * B)
    pairs = pairs.reshape(B, 2)
    return pairs.sum(axis=1), score_sums, pairs[:, 1].astype(np.float64)


@dataclass(frozen=True, eq=False)
class BinStats:
    """Per-bin counts, mean scores, mean labels, and masses for one dataset.

    Empty bins carry count 0, mass 0, and NaN means; the NaNs mark the
    means as undefined and are never folded into downstream estimates.
    The arrays are read-only copies. Stats compare and hash by identity.
    """

    counts: np.ndarray
    mean_scores: np.ndarray
    mean_labels: np.ndarray
    masses: np.ndarray

    def __post_init__(self) -> None:
        for name in ("counts", "mean_scores", "mean_labels", "masses"):
            arr = np.array(getattr(self, name))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def B(self) -> int:
        return int(self.counts.size)


def _dataset_sums(scheme: BinningScheme, dataset) -> tuple[np.ndarray, ...]:
    """`_sums` of a ``ScoredDataset``, whose scores and labels were checked when it was built.

    Computed on the first call for a (dataset, scheme) pair, made read-only
    and kept on the dataset, keyed weakly by the scheme, so the entry lives
    while both do.
    """
    sums = dataset._sums_by_scheme.get(scheme)
    if sums is None:
        sums = _sums(scheme, dataset.scores, dataset.labels)
        for arr in sums:
            arr.setflags(write=False)  # every later caller shares these arrays
        dataset._sums_by_scheme[scheme] = sums
    return sums


def bin_stats(scheme: BinningScheme, dataset) -> BinStats:
    """Counts and per-bin score/label means of a dataset under a scheme.

    The per-bin sums are computed once per (dataset, scheme) pair; each call
    still returns a new ``BinStats``.
    """
    counts, sum_scores, sum_labels = _dataset_sums(scheme, dataset)
    nonempty = counts > 0
    mean_scores = np.divide(sum_scores, counts, out=np.full(scheme.B, np.nan), where=nonempty)
    mean_labels = np.divide(sum_labels, counts, out=np.full(scheme.B, np.nan), where=nonempty)
    masses = counts / len(dataset)
    return BinStats(counts, mean_scores, mean_labels, masses)
