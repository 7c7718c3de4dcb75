"""Seeded input generation and independent numpy references.

Nothing here imports calbounds: the inputs a run feeds the program, and the
values its outputs are checked against, must not change when the program
does. The references follow the definitions (bins are right-closed
intervals (u_{i-1}, u_i] with a score of 0 in bin 1; uniform-mass interior
edge b is the floor(n*b/B)-th order statistic) but compute them another way:
by sorting once and summing contiguous runs, where the program bins with
``searchsorted`` and ``bincount``.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

LN2 = math.log(2.0)


def rng_for(seed: int, workload: str) -> np.random.Generator:
    """The benchmark's own generator for one (seed, workload) pair."""
    tag = int.from_bytes(hashlib.sha256(workload.encode()).digest()[:4], "little")
    return np.random.default_rng([int(seed), tag])


def calbounds_stream(seed: int, *path: int) -> np.random.Generator:
    """The documented calbounds substream derivation (SeedSequence spawn key into Philox).

    Needed only to reproduce which rows ``recalibrate`` puts in its fit and
    test splits.
    """
    ss = np.random.SeedSequence(int(seed), spawn_key=tuple(int(p) for p in path))
    return np.random.Generator(np.random.Philox(ss))


# ---------------------------------------------------------------- generation


def calibration_map(s):
    """P(y=1 | s): crosses the diagonal at 0, 1/4, 1/2, 3/4 and 1.

    Over- and under-confident ranges alternate, so the ECE depends on where
    the bin edges fall and a binning error changes the checked value.
    """
    return np.clip(s + 0.08 * np.sin(4.0 * np.pi * s), 0.0, 1.0)


def miscalibrated_scores(rng: np.random.Generator, n: int):
    """Scores from Beta(2, 3) with labels drawn at ``calibration_map``."""
    scores = rng.beta(2.0, 3.0, size=n)
    labels = (rng.random(n) < calibration_map(scores)).astype(np.int64)
    return scores, labels


def tied_pool(rng: np.random.Generator, n: int):
    """Scores rounded to 3 decimals with a quarter saturated at exactly 1.

    The ties make uniform-mass bins collapse. Each score is k/1000 for an
    integer k, which is the same double that parsing "0.123" gives.
    """
    k = np.rint(rng.beta(5.0, 2.0, size=n) * 1000.0).astype(np.int64)
    k[rng.random(n) < 0.25] = 1000
    scores = k / 1000.0
    labels = (rng.random(n) < calibration_map(scores)).astype(np.int64)
    return scores, labels


def csv_text(scores, labels) -> str:
    rows = [f"{s!r},{y}" for s, y in zip(scores.tolist(), labels.tolist())]
    return "score,label\n" + "\n".join(rows) + "\n"


def json_text(scores, labels) -> str:
    rows = [f'{{"score": {s!r}, "label": {y}}}' for s, y in zip(scores.tolist(), labels.tolist())]
    return "[" + ", ".join(rows) + "]"


def write_checked(path: Path, text: str) -> str:
    """Write a generated file, read it back and return its sha256.

    The read-back digest must equal the digest of the text generated in
    memory, so a short or altered write is caught before the program sees
    the file.
    """
    data = text.encode()
    path.write_bytes(data)
    digest = hashlib.sha256(data).hexdigest()
    if file_digest(path) != digest:
        raise RuntimeError(f"generated file {path} does not match its content digest")
    return digest


def file_digest(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def output_digest(outputs) -> str:
    """Digest of checked outputs; floats are written with all their digits."""
    return hashlib.sha256(json.dumps(outputs, sort_keys=True).encode()).hexdigest()


# ---------------------------------------------------------------- references


def uwb_edges(B: int) -> np.ndarray:
    edges = np.arange(B + 1, dtype=np.float64) / B
    edges[-1] = 1.0
    return edges


def umb_edges(scores, B: int) -> np.ndarray:
    s = np.sort(np.asarray(scores, dtype=np.float64))
    interior = s[(np.arange(1, B) * s.size) // B - 1]
    edges = np.unique(np.concatenate(([0.0], interior, [1.0])))
    if edges.size > 2 and edges[-2] >= s[-1]:
        edges = np.delete(edges, edges.size - 2)
    return edges


class SortedSample:
    """A (score, label) sample sorted once, so per-bin sums are contiguous runs."""

    def __init__(self, scores, labels) -> None:
        order = np.argsort(scores, kind="stable")
        self.scores = np.asarray(scores, dtype=np.float64)[order]
        self.labels = np.asarray(labels, dtype=np.float64)[order]
        self.n = self.scores.size

    def bins(self, edges):
        """Per-bin (count, score sum, label sum) for right-closed bins over ``edges``."""
        ends = np.searchsorted(self.scores, edges[1:], side="right")
        ends[-1] = self.n
        starts = np.concatenate(([0], ends[:-1]))
        counts = ends - starts
        sum_s = np.array([self.scores[a:b].sum() for a, b in zip(starts, ends)])
        sum_y = np.array([self.labels[a:b].sum() for a, b in zip(starts, ends)])
        return counts, sum_s, sum_y

    def ece(self, edges) -> float:
        _, sum_s, sum_y = self.bins(edges)
        return float(np.sum(np.abs(sum_y - sum_s)) / self.n)


def optimal_umb_bins(n: int, L: float) -> int:
    """Integer argmin over B in [1, n//2] of the uniform-mass total-bias bound."""
    b = np.arange(1, n // 2 + 1, dtype=np.float64)
    stat = np.sqrt(2.0 * b * LN2 / (n - b)) + 2.0 * b / (n - b)
    return int(b[np.argmin((1.0 + L) / b + (2.0 + L) * stat)])


def recalibration(fit: SortedSample, test: SortedSample, B: int):
    """Histogram recalibration fit on ``fit`` and scored on ``test``.

    Returns (edges, per-bin fit label means, ECE of the raw test scores,
    ECE of the recalibrated test scores, mean recalibrated test score).
    """
    edges = umb_edges(fit.scores, B)
    fit_counts, _, fit_y = fit.bins(edges)
    mu = fit_y / fit_counts
    counts, _, sum_y = test.bins(edges)
    nonempty = counts > 0
    tce = float(np.sum(np.abs(counts[nonempty] * mu[nonempty] - sum_y[nonempty])) / test.n)
    mean_mapped = float(np.sum(counts * mu) / test.n)
    return edges, mu, test.ece(edges), tce, mean_mapped


def recalibration_split(n_total: int, seed: int, eval_split: float, n_re: int | None):
    """Row indices (fit, test) that ``recalibrate`` uses for a pool of n_total rows."""
    n_test = int(round(eval_split * n_total))
    n_rest = n_total - n_test
    perm = calbounds_stream(seed, 0).permutation(n_total)
    rest = perm[:n_rest]
    if n_re is not None:
        rest = rest[calbounds_stream(seed, 1).permutation(n_rest)[:n_re]]
    return rest, perm[n_rest:]


def plugin_mi(values, labels, bins: int) -> float:
    """H(V) + H(U) - H(V, U) over stable-rank equal-mass value bins."""
    v = np.asarray(values, dtype=np.float64)
    n = v.size
    _, codes = np.unique(np.asarray(labels), return_inverse=True)
    ranks = np.empty(n, dtype=np.int64)
    ranks[np.argsort(v, kind="stable")] = np.arange(n)
    vbin = ranks * bins // n

    def entropy(keys) -> float:
        _, c = np.unique(keys, return_counts=True)
        p = c / n
        return float(-np.sum(p * np.log(p)))

    return entropy(vbin) + entropy(codes) - entropy(vbin * (codes.max() + 1) + codes)
