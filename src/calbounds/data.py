"""Score/label datasets, file ingestion, supersamples, and run records.

A scored dataset is the substrate of every estimator in the library: an
ordered sequence of (confidence score in [0, 1], binary label) pairs.
Supersamples are the n x 2 data matrices with a uniform bit mask used by
the train/test information-theoretic experiments.
"""

from __future__ import annotations

import json
import math
import warnings
import weakref
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

__all__ = [
    "ScoredDataset",
    "Supersample",
    "RunRecord",
    "load_scores",
    "save_scores",
    "top_label_reduce",
]


class ScoredDataset:
    """Ordered collection of scored samples.

    Scores live in [0, 1] (endpoints included: saturated deep-net outputs
    are accepted), labels in {0, 1}. Order is preserved across save/load
    round trips. Instances are immutable after construction and safe to
    share across concurrent readers. Each keeps its per-bin sums for every
    scheme still alive that it was binned under (see ``binning.bin_stats``);
    two readers racing on a new scheme compute equal sums twice.
    """

    def __init__(self, scores, labels) -> None:
        # Copy before freezing so callers' arrays keep their writability.
        scores = np.array(scores, dtype=np.float64)
        labels = np.asarray(labels)  # checked before the int64 cast truncates 0.9 to 0
        if scores.ndim != 1 or labels.ndim != 1:
            raise ValueError("scores and labels must be one-dimensional")
        if scores.shape != labels.shape:
            raise ValueError("scores and labels must have equal length")
        if scores.size == 0:
            raise ValueError("empty dataset")
        if not np.all(np.isfinite(scores)):
            raise ValueError("scores must be finite")
        if np.any(scores < 0.0) or np.any(scores > 1.0):
            bad = int(np.argmax((scores < 0.0) | (scores > 1.0)))
            raise ValueError(f"score out of range at index {bad}: {scores[bad]}")
        if not np.all((labels == 0) | (labels == 1)):
            bad = int(np.argmax((labels != 0) & (labels != 1)))
            raise ValueError(f"label must be 0 or 1 at index {bad}: {labels[bad]}")
        labels = labels.astype(np.int64)
        scores.setflags(write=False)
        labels.setflags(write=False)
        self.scores = scores
        self.labels = labels
        self._sums_by_scheme = weakref.WeakKeyDictionary()  # scheme -> frozen bin sums

    def __len__(self) -> int:
        return int(self.scores.size)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ScoredDataset):
            return NotImplemented
        return np.array_equal(self.scores, other.scores) and np.array_equal(
            self.labels, other.labels
        )

    def __repr__(self) -> str:
        return f"ScoredDataset(n={len(self)})"

    def subset(self, indices) -> "ScoredDataset":
        idx = np.asarray(indices)
        return ScoredDataset(self.scores[idx], self.labels[idx])


_CSV_ROW = np.dtype([("score", np.float64), ("label", np.int64)])


def _is_header(raw: str) -> bool:
    return [p.strip() for p in raw.strip().split(",")] == ["score", "label"]


def _parse_csv(text: str, path: str) -> tuple[list[float], list[int]]:
    scores: list[float] = []
    labels: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 2:
            raise ValueError(f"{path}: malformed row at line {lineno}: {raw!r}")
        if lineno == 1 and _is_header(raw):
            continue  # optional header
        try:
            score = float(parts[0])
            label = int(parts[1])
        except ValueError:
            raise ValueError(f"{path}: malformed row at line {lineno}: {raw!r}") from None
        if not (0.0 <= score <= 1.0):
            raise ValueError(f"{path}: score out of range at line {lineno}")
        if label not in (0, 1):
            raise ValueError(f"{path}: label out of range at line {lineno}")
        scores.append(score)
        labels.append(label)
    return scores, labels


def _load_csv_fast(text: str) -> ScoredDataset | None:
    """The whole CSV in one numpy pass, or None when `_parse_csv` must decide.

    numpy takes a subset of what `_parse_csv` takes (no ``0_5``, non-ASCII
    digits or whitespace-only lines) and parses it to the same bits. A file
    it rejects or warns on, or whose rows `ScoredDataset` refuses, goes back
    to the line-by-line parser for the exact message and line number.
    """
    lines = text.splitlines()
    skip = 1 if lines and _is_header(lines[0]) else 0
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # e.g. "input contained no data"
            rows = np.loadtxt(
                lines, delimiter=",", comments=None, skiprows=skip, dtype=_CSV_ROW, ndmin=1
            )
        return ScoredDataset(rows["score"], rows["label"])
    except (ValueError, Warning):
        return None


def load_scores(path, format: str | None = None) -> ScoredDataset:
    """Load a scored dataset from a CSV or JSON score file.

    CSV rows are ``score,label`` with an optional ``score,label`` header;
    JSON files hold an array of ``{"score": x, "label": y}`` objects. Row
    order in the file is preserved. Malformed rows are reported with their
    line number; out-of-range scores or labels are rejected.
    """
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"score file not found: {p}")
    if format is None:
        format = "json" if p.suffix.lower() == ".json" else "csv"
    if format not in ("csv", "json"):
        raise ValueError(f"unknown format: {format}")
    text = p.read_text()
    if format == "csv":
        fast = _load_csv_fast(text)
        if fast is not None:
            return fast
        scores, labels = _parse_csv(text, str(p))
    else:
        try:
            records = json.loads(text)
        except json.JSONDecodeError as e:
            raise ValueError(f"{p}: malformed JSON at line {e.lineno}") from None
        if not isinstance(records, list):
            raise ValueError(f"{p}: expected a JSON array of records")
        scores, labels = [], []
        for i, rec in enumerate(records):
            try:
                score, label = rec["score"], rec["label"]
            except (TypeError, KeyError):
                raise ValueError(f"{p}: malformed record at position {i}") from None
            if isinstance(score, bool) or not isinstance(score, (int, float)):
                raise ValueError(f"{p}: malformed record at position {i}")
            try:
                score = float(score)
            except OverflowError:  # a JSON integer beyond the float range
                raise ValueError(f"{p}: malformed record at position {i}") from None
            if isinstance(label, bool) or not isinstance(label, (int, float)):
                raise ValueError(f"{p}: label must be 0 or 1 at position {i}: {label!r}")
            scores.append(score)
            labels.append(label)
    if not scores:
        raise ValueError(f"{p}: empty dataset")
    return ScoredDataset(scores, labels)


def save_scores(d: ScoredDataset, path, format: str | None = None) -> None:
    """Write a dataset back out; round trips scores to full stored precision."""
    p = Path(path)
    if format is None:
        format = "json" if p.suffix.lower() == ".json" else "csv"
    if format == "csv":
        lines = ["score,label"]
        lines += [f"{repr(float(s))},{int(y)}" for s, y in zip(d.scores, d.labels)]
        p.write_text("\n".join(lines) + "\n")
    elif format == "json":
        records = [
            {"score": float(s), "label": int(y)} for s, y in zip(d.scores, d.labels)
        ]
        p.write_text(json.dumps(records))
    else:
        raise ValueError(f"unknown format: {format}")


def top_label_reduce(probabilities, true_labels) -> ScoredDataset:
    """Reduce multiclass probability vectors to a binary scored dataset.

    Each row becomes (max_k p_k, 1 if argmax_k p_k equals the true class
    else 0); argmax ties go to the lowest class index. Vectors must be finite
    and on the probability simplex to within 1e-6, and true classes integral.
    """
    probs = np.asarray(probabilities, dtype=np.float64)
    truth = np.asarray(true_labels, dtype=np.float64)  # an int64 cast would truncate 1.7 to 1
    if probs.size == 0:
        raise ValueError("empty input")
    if probs.ndim != 2:
        raise ValueError("probabilities must be a 2-d array of row vectors")
    if truth.shape != (probs.shape[0],):
        raise ValueError("true_labels length must match the number of rows")
    if not np.all(np.isfinite(probs)):
        bad = int(np.argmax(~np.all(np.isfinite(probs), axis=1)))
        raise ValueError(f"probabilities must be finite at row {bad}")
    if not np.all(truth == np.floor(truth)):  # NaN fails here, +-inf the range check below
        bad = int(np.argmax(truth != np.floor(truth)))
        raise ValueError(f"true class index must be an integer at row {bad}: {truth[bad]}")
    if np.any(probs < -1e-12):
        raise ValueError("probability vectors must be nonnegative")
    sums = probs.sum(axis=1)
    if np.any(np.abs(sums - 1.0) > 1e-6):
        bad = int(np.argmax(np.abs(sums - 1.0) > 1e-6))
        raise ValueError(f"row {bad} is not on the simplex (sum={sums[bad]})")
    if np.any(truth < 0) or np.any(truth >= probs.shape[1]):
        raise ValueError("true class index out of range")
    predicted = np.argmax(probs, axis=1)  # np.argmax takes the lowest index on ties
    scores = np.clip(probs[np.arange(len(probs)), predicted], 0.0, 1.0)
    labels = (predicted == truth).astype(np.int64)
    return ScoredDataset(scores, labels)


@dataclass(frozen=True)
class Supersample:
    """An n x 2 matrix of draws with a uniform bit mask selecting one entry per row.

    ``values`` holds the first field of the raw datum (a covariate for raw
    supersamples, a probability for scored ones) and ``labels`` the binary
    label; both are (n, 2) arrays. ``mask[m]`` picks the training-side
    column of row m; the flipped mask picks the complement, and the two
    selections partition all 2n entries.
    """

    values: np.ndarray
    labels: np.ndarray
    mask: np.ndarray

    def __post_init__(self) -> None:
        values = np.array(self.values, dtype=np.float64)
        labels = np.array(self.labels, dtype=np.int64)
        mask = np.array(self.mask, dtype=np.int64)
        if values.ndim != 2 or values.shape[1] != 2:
            raise ValueError("values must have shape (n, 2)")
        if labels.shape != values.shape:
            raise ValueError("labels must have the same shape as values")
        if mask.shape != (values.shape[0],):
            raise ValueError("mask length must equal the row count")
        if not np.all((mask == 0) | (mask == 1)):
            raise ValueError("mask entries must be bits")
        for arr in (values, labels, mask):
            arr.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "mask", mask)

    @property
    def n(self) -> int:
        return int(self.values.shape[0])

    def split(self, flipped: bool = False) -> tuple[np.ndarray, np.ndarray]:
        """Raw (values, labels) arrays selected by the mask (or its complement)."""
        cols = (1 - self.mask) if flipped else self.mask
        rows = np.arange(self.n)
        return self.values[rows, cols], self.labels[rows, cols]


class RunRecord:
    """Audit record for one experiment run: config, named results, timestamp.

    Every scalar result carries the inputs it was computed from, so each
    number in the record is recomputable.
    """

    def __init__(self, config: dict) -> None:
        self.config = dict(config)
        self.results: list[dict] = []
        self.timestamp = datetime.now(timezone.utc).isoformat()

    def add(self, name: str, value, **inputs) -> None:
        self.results.append(
            {"name": name, "value": value, "inputs": _jsonable(inputs)}
        )

    def to_dict(self) -> dict:
        return {
            "config": _jsonable(self.config),
            "results": _jsonable(self.results),
            "timestamp": self.timestamp,
        }

    def save(self, directory) -> Path:
        out_dir = Path(directory)
        out_dir.mkdir(parents=True, exist_ok=True)
        out = out_dir / "run_record.json"
        out.write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True, allow_nan=False))
        return out


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return None  # strict JSON has no NaN or infinity
    return obj
