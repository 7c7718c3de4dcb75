"""Score/label datasets, file ingestion, supersamples, and run records.

A scored dataset is the substrate of every estimator in the library: an
ordered sequence of (confidence score in [0, 1], binary label) pairs.
Supersamples are the n x 2 data matrices with a uniform bit mask used by
the train/test information-theoretic experiments.
"""

from __future__ import annotations

import json
import math
import re
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
]


class ScoredDataset:
    """Ordered collection of scored samples.

    Scores live in [0, 1] (endpoints included: saturated deep-net outputs
    are accepted), labels in {0, 1}. Order is preserved across save/load
    round trips. Instances are immutable, safe to share across concurrent
    readers, and compare by identity. Each keeps its per-bin sums for every
    scheme still alive that it was binned under (see ``binning._dataset_sums``);
    two readers racing on a new scheme compute equal sums twice.
    """

    def __init__(self, scores, labels) -> None:
        scores = np.asarray(scores)
        if scores.dtype.kind not in "iuf":  # no strings, bools or None parsed as numbers
            raise ValueError("scores must be numbers")
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
            bad = int(np.argmax(~np.isfinite(scores)))
            raise ValueError(f"scores must be finite at index {bad}: {scores[bad]}")
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

    def __repr__(self) -> str:
        return f"ScoredDataset(n={len(self)})"

    def subset(self, indices) -> "ScoredDataset":
        idx = np.asarray(indices)
        return ScoredDataset(self.scores[idx], self.labels[idx])


_CSV_ROW = np.dtype([("score", np.float64), ("label", np.int64)])
_SNIFF = 4096  # characters read from a file's start to decide its format
_PIECE = 1 << 20  # characters of JSON decoded at a time, and bytes of CSV scanned at a time
# Suffixes that numpy's path opener decompresses: such files are read as text.
_COMPRESSED = (".gz", ".bz2", ".xz", ".lzma")
# Line breaks of str.splitlines() that a text-mode file does not break lines at.
_ODD_BREAKS = (b"\x0b", b"\x0c", b"\x1c", b"\x1d", b"\x1e")
_RECORD_BREAK = re.compile(r"\}[ \t\n\r]*,[ \t\n\r]*\{")


def _read_text(p: Path) -> str:
    try:
        return p.read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise ValueError(f"{p}: {e}") from None


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


def _plain_lines(p: Path) -> bool:
    """Whether the file is ASCII and breaks lines only at ``\\n`` and ``\\r``."""
    with p.open("rb") as f:
        while chunk := f.read(_PIECE):
            if not chunk.isascii() or any(b in chunk for b in _ODD_BREAKS):
                return False
    return True


def _load_csv_fast(p: Path, head: str) -> ScoredDataset | None:
    """The CSV parsed by numpy straight from the file, or None when `_parse_csv` must decide.

    Taken for a plain ASCII file (`_plain_lines`), whose lines are then
    `str.splitlines()`'s, and whose first line ends within ``head``. numpy
    takes a subset of what `_parse_csv` takes (no ``0_5`` or whitespace-only
    lines) and parses it to the same bits. A file it rejects or warns on, or
    whose rows `ScoredDataset` refuses, goes to the line-by-line parser for
    the exact message and line number.
    """
    first, newline, _ = head.partition("\n")  # text mode has made every \r a \n
    if p.suffix in _COMPRESSED or not (newline or len(head) < _SNIFF) or not _plain_lines(p):
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # e.g. "input contained no data"
            rows = np.loadtxt(p, delimiter=",", comments=None, skiprows=int(_is_header(first)),
                              dtype=_CSV_ROW, ndmin=1, encoding="utf-8")
        return ScoredDataset(rows["score"], rows["label"])
    except (ValueError, Warning):
        return None


def _decode_whole(text: str, path: str) -> tuple[list, list]:
    """A JSON score file decoded whole, then checked record by record."""
    try:
        records = json.loads(text)
    except json.JSONDecodeError as e:
        raise ValueError(f"{path}: malformed JSON at line {e.lineno}") from None
    if not isinstance(records, list):
        raise ValueError(f"{path}: expected a JSON array of records")
    scores, labels = [], []
    for i, rec in enumerate(records):
        try:
            score, label = rec["score"], rec["label"]
            if isinstance(score, bool) or not isinstance(score, (int, float)):
                raise TypeError
            score = float(score)  # OverflowError: a JSON integer beyond the float range
        except (TypeError, KeyError, OverflowError):
            raise ValueError(f"{path}: malformed record at position {i}") from None
        if isinstance(label, bool) or not isinstance(label, (int, float)):
            raise ValueError(f"{path}: label must be 0 or 1 at position {i}: {label!r}")
        scores.append(score)
        labels.append(label)
    return scores, labels


def _piece_columns(piece: str) -> tuple[np.ndarray, np.ndarray] | None:
    """A piece of records as (float64 scores, 0/1 int64 labels), or None if it is not plain."""
    try:
        records = json.loads("[" + piece + "]")
        scores = [r["score"] for r in records]
        labels = [r["label"] for r in records]
        if not (set(map(type, scores)) <= {int, float} and set(map(type, labels)) <= {int, float}
                and set(labels) <= {0, 1}):
            return None
        return np.array(scores, dtype=np.float64), np.array(labels, dtype=np.int64)
    except (json.JSONDecodeError, RecursionError, TypeError, KeyError, OverflowError):
        return None


def _decode_json(text: str, path: str) -> tuple:
    """Scores and labels of a JSON score file, decoded in record-aligned pieces.

    The outer array's body is cut after a ``}`` that a comma joins to the
    next ``{``, every `_PIECE` characters or so, and each piece is decoded
    as an array of its own. JSON's grammar is deterministic, so when every
    piece decodes, the whole text decodes to their concatenation. A piece
    that does not decode (a cut inside a string or a nested array, or
    malformed JSON), or whose columns are not plain numbers with 0/1 labels,
    sends the whole text through `_decode_whole`, which gives the exact
    message, or the same values.
    """
    lo, hi = 0, len(text)  # the text holds a "[" or "{", so both loops stop at it
    while text[lo] in " \t\n\r":
        lo += 1
    while text[hi - 1] in " \t\n\r":
        hi -= 1
    if text[lo] != "[" or text[hi - 1] != "]":
        return _decode_whole(text, path)
    start, stop = lo + 1, hi - 1
    pieces = []
    while True:
        cut = _RECORD_BREAK.search(text, start + _PIECE, stop) if start + _PIECE < stop else None
        columns = _piece_columns(text[start:cut.start() + 1 if cut else stop])
        if columns is None:
            return _decode_whole(text, path)
        pieces.append(columns)
        if cut is None:
            return tuple(map(np.concatenate, zip(*pieces)))
        start = cut.end() - 1


def load_scores(path) -> ScoredDataset:
    """Load a scored dataset from a UTF-8 CSV or JSON score file.

    The text decides the format, not the file name: JSON when its first
    non-whitespace character is ``[`` or ``{``, CSV otherwise. CSV rows are
    ``score,label`` with an optional ``score,label`` header; JSON files hold an
    array of ``{"score": x, "label": y}`` objects. Row order in the file is
    preserved. Content errors name the path; malformed rows give their line
    number, and out-of-range scores or labels are rejected.
    """
    p = Path(path)
    try:
        with p.open(encoding="utf-8") as f:
            head = f.read(_SNIFF)
    except UnicodeDecodeError:
        head = ""  # the whole-text read below names the byte
    text = None if head.strip() else _read_text(p)  # a blank start: the whole text decides
    is_json = (head if text is None else text).lstrip().startswith(("[", "{"))
    if text is None and not is_json:
        fast = _load_csv_fast(p, head)
        if fast is not None:
            return fast
    if text is None:
        text = _read_text(p)
    scores, labels = _decode_json(text, str(p)) if is_json else _parse_csv(text, str(p))
    try:
        return ScoredDataset(scores, labels)  # range, label and empty-file checks
    except ValueError as e:
        raise ValueError(f"{p}: {e}") from None


def save_scores(d: ScoredDataset, path) -> None:
    """Write a dataset as JSON for a ``.json`` suffix, else CSV; scores round-trip exactly."""
    p = Path(path)
    if p.suffix.lower() == ".json":
        records = [
            {"score": float(s), "label": int(y)} for s, y in zip(d.scores, d.labels)
        ]
        p.write_text(json.dumps(records))
    else:
        lines = ["score,label"]
        lines += [f"{repr(float(s))},{int(y)}" for s, y in zip(d.scores, d.labels)]
        p.write_text("\n".join(lines) + "\n")


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
