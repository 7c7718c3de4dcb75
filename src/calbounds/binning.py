"""Uniform-width and uniform-mass binning schemes and per-bin statistics.

Bins are the half-open intervals (u_{i-1}, u_i] over a strictly increasing
edge vector u_0 = 0 < ... < u_B = 1. A score of exactly 0 is assigned to
bin 1 so the bins cover all of [0, 1] and masses always sum to one.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "BinningScheme", "BinStats", "uwb_scheme", "umb_scheme", "assign", "bin_sums", "bin_stats",
]

UWB = "uwb"
UMB = "umb"
_BLOCK = 1 << 14  # scores per block of the table index: bounds its temporaries
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


def _check_count(least: int = 1, **counts) -> None:
    """The one check of every count a public entry takes: an int or numpy integer,
    not a bool, of at least ``least``; never truncated."""
    for name, v in counts.items():
        if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
            raise ValueError(f"{name} must be an integer, got {v!r}")
        if v < least:
            raise ValueError(f"{name} must be at least {least}")


def uwb_scheme(B: int) -> BinningScheme:
    """Uniform-width scheme with edges exactly i/B for i = 0..B."""
    _check_count(B=B)
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
    _check_count(B=B)
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
    flat = arr.reshape(-1)
    if 0 < scheme._cells <= flat.size:
        idx = _table_index(scheme, flat)
    else:
        idx = np.searchsorted(scheme.edges, flat, side="left")
        np.maximum(idx, 1, out=idx)  # in place, so peak memory holds one index array
    return int(idx[0]) if arr.ndim == 0 else idx.reshape(arr.shape)


def _table_index(scheme: BinningScheme, scores: np.ndarray) -> np.ndarray:
    """Bin indices of 1-d scores in [0, 1] from the scheme's table.

    Each cell [c/G, (c+1)/G) holds at most one edge, and c = floor(s*G) is
    exact for a power of two G, so the index is base[c], plus one if s lies
    above cand[c]: one exact comparison. Blocks keep the temporaries small.
    """
    base, cand = scheme._table
    idx = np.empty(scores.size, dtype=np.intp)
    for lo in range(0, scores.size, _BLOCK):
        s, j = scores[lo:lo + _BLOCK], idx[lo:lo + _BLOCK]
        np.multiply(s, scheme._cells, out=j, casting="unsafe")  # exact; the cast truncates, i.e. floors
        np.add(s > cand[j], base[j], out=j)  # this order keeps one gathered block alive at a time
    return idx


def bin_sums(scheme: BinningScheme, scores, *weights) -> tuple[np.ndarray, ...]:
    """``(counts, *sums)``: per-bin score count (int64) and per-bin sum of each weight array.

    Every binned estimator reduces through here.
    """
    idx = assign(scheme, scores)
    idx -= 1  # in place, as in assign
    counts = np.bincount(idx, minlength=scheme.B).astype(np.int64)
    return (counts, *(np.bincount(idx, weights=w, minlength=scheme.B) for w in weights))


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
    """``bin_sums(scheme, scores, scores, labels)`` of a ``ScoredDataset``, read-only.

    Computed on the first call for a (dataset, scheme) pair and kept on the
    dataset, keyed weakly by the scheme, so the entry lives while both do.
    """
    sums = dataset._sums_by_scheme.get(scheme)
    if sums is None:
        sums = bin_sums(scheme, dataset.scores, dataset.scores, dataset.labels)
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
