"""Uniform-width and uniform-mass binning schemes and per-bin statistics.

Bins are the half-open intervals (u_{i-1}, u_i] over a strictly increasing
edge vector u_0 = 0 < ... < u_B = 1. A score of exactly 0 is assigned to
bin 1 so the bins cover all of [0, 1] and masses always sum to one.
One pass, `_blocks`, numbers the bins from 0, a block of scores at a time;
only the public `assign` adds one. Every per-bin statistic comes from one
reduction over it, `_sums`: per-bin counts, score sums and sums of 0/1 labels.
"""

from __future__ import annotations

import functools
import warnings
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "BinningScheme", "BinStats", "uwb_scheme", "umb_scheme", "assign", "bin_stats",
]

UWB = "uwb"
UMB = "umb"
_BLOCK = 1 << 14  # scores per block of _blocks: bounds every reducer's temporaries
_MAX_CELLS = 1 << 14  # bounds the table at 2 * (2**14 + 1) * 8 bytes, ~256 KiB


@dataclass(frozen=True, eq=False)
class BinningScheme:
    """Ordered bin edges over [0, 1] plus the method that produced them.

    ``collapsed`` is set when uniform-mass construction had to merge bins
    because of tied scores (the requested bin count could not be realized).
    ``_cells`` is G, the smallest power of two with G * min(diff(edges)) > 1,
    or 0 if that exceeds ``_MAX_CELLS``; whatever the method label, a nonzero
    G lets `_blocks` index a block of at least G scores through the cached
    ``_table``. Schemes compare and hash by identity.
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
        """(base, cand) over the cells c = 0..G and the upper edges u_1..u_B: the
        number of them below c/G, and the one in cell c, or 2.0 (above every
        score) if none. Cell 0 holds none, as u_1 > 1/G."""
        G, upper = self._cells, self.edges[1:]
        base = np.searchsorted(upper, np.arange(G + 1) / G, side="left")
        cand = np.full(G + 1, 2.0)
        cand[(upper * G).astype(np.intp)] = upper
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


def _unique(values: np.ndarray, indices: bool = False):
    """``np.unique`` of a 1-d array without NaN, byte for byte, and with ``indices``
    also its ``return_index`` and ``return_inverse`` arrays; unlike ``np.unique``,
    whose first call imports ``numpy.ma``, it imports nothing.

    It sorts as ``np.unique`` does, stably only when indices are asked for, and keeps
    the first of each run of equal values. numpy's default sort is not stable, so
    without indices that first of 0.0 and -0.0 need not be the first occurrence
    (x86-64, numpy 2.4: ``np.unique([0., -0., -1., -1.])`` is ``[-1., -0.]``).
    """
    if indices:
        order = np.argsort(values, kind="stable")
        ordered = values[order]
    else:
        ordered = np.sort(values)
    first = np.empty(ordered.size, dtype=bool)
    first[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    if not indices:
        return ordered[first]
    inverse = np.empty(ordered.size, dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    return ordered[first], order[first], inverse


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
    edges = _unique(np.concatenate(([0.0], interior, [1.0])))
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
    result is `_blocks`' 0-based index plus one, written a block at a time.
    """
    arr = np.asarray(score, dtype=np.float64)
    if arr.size and not (arr.min() >= 0.0 and arr.max() <= 1.0):  # NaN fails too
        raise ValueError("scores must lie in [0, 1]")
    idx = np.empty(arr.size, dtype=np.intp)
    for lo, _, j in _blocks(scheme, arr.reshape(-1)):
        np.add(j, 1, out=idx[lo:lo + j.size])
    return int(idx[0]) if arr.ndim == 0 else idx.reshape(arr.shape)


def _blocks(scheme: BinningScheme, scores: np.ndarray) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Yield ``(lo, s, j)`` for each `_BLOCK` of 1-d float64 scores in [0, 1]:
    ``s = scores[lo:lo + _BLOCK]`` and its 0-based bin index
    ``j = searchsorted(edges[1:], s, "left")``, a fresh intp array the caller may
    overwrite. The one pass that numbers bins; it checks no range.

    A block of at least G scores reads j from the scheme's table (built on the
    first such block): each cell [c/G, (c+1)/G) holds at most one upper edge,
    and c = floor(s*G) is exact for a power of two G, so j is base[c], plus one
    if s lies above cand[c]: one exact comparison. Every c lies in [0, G], so
    ``mode="clip"`` moves no index; it only spares ``np.take`` the bounds check
    that makes fancy indexing slower. A shorter block, or a scheme without a
    table, takes binary search.
    """
    G, upper = scheme._cells, scheme.edges[1:]
    for lo in range(0, scores.size, _BLOCK):
        s = scores[lo:lo + _BLOCK]
        if 0 < G <= s.size:
            base, cand = scheme._table
            c = (s * G).astype(np.intp)  # exact; the cast truncates, i.e. floors
            j = np.take(base, c, mode="clip")
            j += s > np.take(cand, c, mode="clip")
        else:
            j = np.searchsorted(upper, s, side="left")
        yield lo, s, j


def _sums(scheme: BinningScheme, scores: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, ...]:
    """``(counts, score_sums, label_sums)`` per bin: the one per-bin reduction.

    Takes 1-d float64 scores already known to lie in [0, 1] and their 0/1
    integer labels; neither is checked here. One pass of `_blocks` bounds the
    temporaries whatever n is. Each block's scores are added into zeros at
    their bin index j by `np.add.at`, which adds in score order as `np.bincount`
    does, so every score sum has the bits of one `np.bincount` over all the
    scores; and one integer ``np.add.at`` of 1 at ``2*j + y`` counts each
    bin's (label 0, label 1) rows, so counts and label sums are exact in any
    order.
    """
    B = scheme.B
    pairs, score_sums = np.zeros(2 * B, dtype=np.int64), np.zeros(B)
    for lo, s, j in _blocks(scheme, scores):
        np.add.at(score_sums, j, s)
        j *= 2
        j += labels[lo:lo + j.size]
        np.add.at(pairs, j, 1)
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
