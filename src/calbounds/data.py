"""Score/label datasets, file ingestion, supersamples, and run records.

A scored dataset is the substrate of every estimator in the library: an
ordered sequence of (confidence score in [0, 1], binary label) pairs.
Supersamples are the n x 2 train/test data matrices with a uniform bit mask.
"""

from __future__ import annotations

import functools
import json
import math
import re
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
    are accepted), labels in {0, 1}; they are kept as float64 scores and int8
    labels, 9 bytes a row. Order is preserved across save/load round trips.
    Instances are immutable, safe to share across concurrent
    readers, and compare by identity. Each keeps its per-bin sums for every
    scheme still alive that it was binned under (see ``binning._dataset_sums``);
    two readers racing on a new scheme compute equal sums twice.
    """

    def __init__(self, scores, labels) -> None:
        scores = np.asarray(scores)
        if scores.dtype.kind not in "iuf":  # no strings, bools or None parsed as numbers
            raise ValueError("scores must be numbers")
        # Copy before freezing so callers' arrays keep their writability.
        self._freeze(np.array(scores, dtype=np.float64), np.asarray(labels), copy_labels=True)

    @classmethod
    def _adopt(cls, scores: np.ndarray, labels: np.ndarray) -> "ScoredDataset":
        """A dataset that takes over float64 scores and integer labels no one else holds.

        Checked as the constructor checks, without its copy; int8 labels are
        not copied either. For loaders that allocated the arrays themselves.
        """
        d = cls.__new__(cls)
        d._freeze(scores, labels, copy_labels=False)
        return d

    def _freeze(self, scores: np.ndarray, labels: np.ndarray, copy_labels: bool) -> None:
        # labels are checked before the int8 cast truncates 0.9 to 0
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
        labels = labels.astype(np.int8, copy=copy_labels)
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
# Bytes of a plain file, or characters of JSON in another layout, read at a time.
_PIECE = 1 << 18
# Suffixes that numpy's path opener decompresses: such files are read as text.
_COMPRESSED = (".gz", ".bz2", ".xz", ".lzma")
_JSON_SPACE = " \t\n\r"
_BOM = "\ufeff"  # one leading byte-order mark is dropped before the format is decided
_RECORD_BREAK = re.compile(r"\}[ \t\n\r]*,[ \t\n\r]*\{")


def _read_text(p: Path) -> str:
    try:  # not "utf-8-sig", which counts an error's byte position from after the BOM
        return p.read_text(encoding="utf-8").removeprefix(_BOM)
    except UnicodeDecodeError as e:
        raise ValueError(f"{p}: {e}") from None


def _is_header(raw: str) -> bool:
    return [p.strip() for p in raw.strip().split(",")] == ["score", "label"]


def _parse_csv(text: str, path: str) -> tuple[list[float], list[int]]:
    """Rows of a newline-decoded CSV text, read line by line: a row ends at ``\\n`` only."""
    scores: list[float] = []
    labels: list[int] = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
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


@functools.cache
def _strict_int_fields() -> bool:
    """Whether np.loadtxt refuses an integer field written as a float, as `_parse_csv`
    refuses a ``1.0`` label. numpy 2.4 refuses it; numpy 1.x reads it as 1, with a
    DeprecationWarning that the default filters hide."""
    try:
        np.loadtxt(["1.0"], dtype=np.int64)
    except ValueError:
        return True
    return False


def _load_csv_fast(p: Path, head: str) -> ScoredDataset | None:
    """The CSV parsed by numpy straight from the file, or None when `_parse_csv` must decide.

    Taken for a CSV file that `_load_plain` passed on (one that is not ASCII
    ``score,label`` rows ending in ``\\n`` or ``\\r\\n``, or one whose rows
    `ScoredDataset` refuses), when the name has no `_COMPRESSED` suffix, the
    first line ends within ``head`` and something other than whitespace follows
    the optional header there. numpy ends rows where `_parse_csv` does, takes a
    subset of what it takes (no ``0_5``, non-ASCII digits, whitespace-only lines
    or, where `_strict_int_fields` holds, ``1.0`` labels) and parses it to the same
    bits. A file it rejects, or whose rows `ScoredDataset` refuses, goes to the
    line-by-line parser for the exact message and line number. An empty body,
    the one input on which numpy 2.4's loadtxt warns, is left to that parser
    too, so no warning filter is touched: changing one would reset the once-only
    registries and show a warning already shown once a second time.
    """
    first, newline, rest = head.partition("\n")  # text mode has made every \r a \n
    header = _is_header(first)
    if (p.suffix in _COMPRESSED or not (newline or len(head) < _SNIFF)
            or not (rest if header else head).strip() or not _strict_int_fields()):
        return None
    try:
        rows = np.loadtxt(p, delimiter=",", comments=None, skiprows=int(header),
                          dtype=_CSV_ROW, ndmin=1, encoding="utf-8-sig")
        return ScoredDataset(rows["score"], rows["label"])
    except ValueError:
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
        return np.array(scores, dtype=np.float64), np.array(labels, dtype=np.int8)
    except (json.JSONDecodeError, RecursionError, TypeError, KeyError, OverflowError):
        return None


def _stream_json(p: Path) -> tuple[np.ndarray, np.ndarray] | None:
    """Scores and labels of a JSON score file read `_PIECE` characters at a time, or None.

    Taken for a JSON file that `_load_plain` passed on: one that is not
    ASCII, not in json.dumps's own layout or not labelled ``0`` or ``1``, or
    one with a record `ScoredDataset` refuses. The outer array's body is cut
    after a ``}`` that a comma joins to the next ``{``, at the first such
    break at least `_PIECE` characters past the previous cut, and each piece
    is decoded as an array of its own.
    JSON's grammar is deterministic, so when every piece decodes, the whole
    text decodes to their concatenation. Only a piece and the next read are
    held at a time, and each read is searched for breaks once. None, for the
    caller to decode the whole text (which gives the exact message, or the
    same values), when the text is not one outer array, a piece does not
    decode (a cut inside a string or a nested array, or malformed JSON), a
    piece's columns are not plain numbers with 0/1 labels, or a byte is not
    UTF-8.
    """
    pieces = []
    try:
        with p.open(encoding="utf-8-sig") as f:
            buf = ""
            while not buf and (chunk := f.read(_PIECE)):
                buf = chunk.lstrip(_JSON_SPACE)
            if not buf.startswith("["):
                return None
            buf, scan = buf[1:], 0  # no break starts in buf[_PIECE:scan]
            while chunk := f.read(_PIECE):
                buf += chunk
                while cut := _RECORD_BREAK.search(buf, max(scan, _PIECE)):
                    columns = _piece_columns(buf[:cut.start() + 1])
                    if columns is None:
                        return None
                    pieces.append(columns)
                    buf, scan = buf[cut.end() - 1:], 0
                # A break the next read completes starts at the last "}".
                last = buf.rfind("}", max(scan, _PIECE))
                scan = len(buf) if last < 0 else last
    except UnicodeDecodeError:
        return None
    body = buf.rstrip(_JSON_SPACE)
    columns = _piece_columns(body[:-1]) if body.endswith("]") else None
    if columns is None:
        return None
    pieces.append(columns)
    return tuple(map(np.concatenate, zip(*pieces)))


# Plain files (`_load_plain`): ASCII ``score,label`` rows, or json.dumps's records.
_LONG_DOUBLE = np.finfo(np.longdouble)
_PAD = 32  # bytes kept before a read's rows, so that a token's 8-byte loads stay in the buffer
# Bytes after a read's data. The loads that start in the data stay in the buffer, and a
# CSV file's missing last line end fits; no check passes on what lies there.
_TAIL = 16
# Constants of the eight-digit SWAR parse (Lemire, arXiv 2101.11408).
_ZEROS = np.uint64(0x3030303030303030)  # b"00000000" loaded little-endian
_SIXES = np.uint64(0x4646464646464646)
_HIGH_BITS = np.uint64(0x8080808080808080)
_BYTE_PAIRS = np.uint64(0x000000FF000000FF)
_MUL_LOW = np.uint64(100 + (1000000 << 32))
_MUL_HIGH = np.uint64(1 + (10000 << 32))
_KEEP = np.array([(1 << 64) - (1 << 64 - 8 * v) for v in range(9)], np.uint64)  # the v high bytes
_TEN = np.array([10**k for k in range(19)], np.uint64)
_TEN_LD = np.cumprod(np.r_[1, np.full(27, 10)].astype(np.longdouble))  # 10**k exactly, k <= 27
_CSV_OPENING = re.compile(rb"(?:\xef\xbb\xbf)?(?:score,label\r?\n)?")
_JSON_OPENING = re.compile(rb'(?:\xef\xbb\xbf)?[ \t\n\r]*\[\{"score": ')
_CSV_NUMBER = re.compile(rb"[0-9.eE+-]+")  # no \r, which float() strips and text mode ends a row at
_JSON_NUMBER = re.compile(rb"-?(?:0|[1-9][0-9]*)(\.[0-9]+)?([eE][-+]?[0-9]+)?")


def _word(text: bytes) -> np.uint64:
    return np.frombuffer(text, "<u8")[0]


_LABEL_KEY = _word(b', "label')  # the 12 bytes before a record's "}" are ', "label": ' and y
_LABEL_BYTE = np.uint64(0xFF << 48)
_LABEL_TAIL = _word(b'bel": \xff}')
_JOIN = _word(b'}, {"sco')  # a "}" that ends a record before the last is followed by ', {"score": '
_SCORE_KEY = _word(b'score": ')


def _x87_division() -> bool:
    """Whether long doubles are x87's, and divide to its 64-bit significand, as `_decimals` needs."""
    if _LONG_DOUBLE.nmant != 63 or _LONG_DOUBLE.dtype.itemsize != 16:
        return False
    third = np.ones(1, np.longdouble) / 3  # its low 11 bits are 0 under a 53-bit precision control
    return bool(third.view(np.uint64)[0] & 0x7FF)


def _decimals(buf: np.ndarray, loads: np.ndarray, starts: np.ndarray, ends: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray]:
    """float() of the tokens ``buf[starts:ends]``, and a mask of the tokens left to float().

    ``loads[i]`` is ``buf[i:i+8]`` read as a little-endian uint64, and every
    token starts at least `_PAD` bytes into ``buf``. A token is plain when it
    is a digit, or a digit, a dot and 1 to 27 digits, and its digits read as
    an integer W < 10**19. The fraction's 8-digit groups, counted from the
    token's end, are read by SWAR arithmetic on one unaligned load each
    (Lemire, arXiv 2101.11408), and no more groups than the longest fraction
    needs. For a fraction of k digits the value is W / 10**k, one division
    of two long doubles that are both exact (W < 2**64, and 10**k for
    k <= 27 has a 64-bit significand). The quotient is thus rounded once to
    64 bits, and its cast to float64 gives float()'s double unless that
    quotient lies on a midpoint between two doubles, where the second
    rounding can err (Clinger, PLDI 1990). The mask marks those (about 1
    quotient in 2048 for random digits, fewer for repr's shortest ones) and
    the tokens that are not plain; their values are left unset.
    """
    size = ends - starts
    first = buf[starts] - 48  # 0 to 9 for a digit; uint8 wraps every other byte past 9
    plain = (first <= 9) & ((size == 1) | ((size >= 3) & (size <= 29) & (buf[starts + 1] == 46)))
    digits = np.where(plain & (size > 1), size - 2, 0)  # of the fraction
    groups = [0, 0, 0, 0]  # the fraction's 8-digit groups, from its end
    for j in range(-(-int(digits.max(initial=0)) // 8)):
        keep = _KEEP[np.clip(digits - 8 * j, 0, 8)]
        x = (loads[ends - 8 * (j + 1)] & keep) | (_ZEROS & ~keep)  # a '0' for each byte kept out
        plain &= ((x + _SIXES) | (x - _ZEROS)) & _HIGH_BITS == 0  # eight ASCII digits
        x -= _ZEROS
        x = x * 10 + (x >> 8)
        groups[j] = ((x & _BYTE_PAIRS) * _MUL_LOW + ((x >> 16) & _BYTE_PAIRS) * _MUL_HIGH) >> 32
    high = groups[2] + groups[3] * 10**8  # the fraction's digits before its last 16
    plain &= (high < 1000) & ((first == 0) | (digits <= 18))  # W < 10**19
    w = first * _TEN[np.minimum(digits, 18)] + (high * 10**16 + groups[1] * 10**8 + groups[0])
    quotient = w.astype(np.longdouble) / _TEN_LD[digits]
    midpoint = quotient.view(np.uint64)[::2] & 0x7FF == 0x400  # the low 11 of 64 significand bits
    return quotient.astype(np.float64), ~plain | midpoint


def _labels(buf: np.ndarray, at: np.ndarray) -> np.ndarray:
    """The label bytes at ``at`` as int8: 0 and 1 for ``0`` and ``1``, for `ScoredDataset` to check."""
    return (buf[at] - 48).view(np.int8)  # every other byte is neither


def _csv_rows(buf: np.ndarray, loads: np.ndarray, lo: int, hi: int, final: bool):
    """Rows ``score,label`` that end in ``buf[lo:hi]``: (score starts, score ends, labels, end).

    A row ends at ``\\n``, after at most one ``\\r``, and its label is one
    byte; at the end of the file the last row needs no line end. The score
    tokens are left to `_decimals`, and the labels to `ScoredDataset`. None
    for any other row.
    """
    if final and hi > lo and buf[hi - 1] != 10:
        buf[hi] = 10  # in the tail
        hi += 1
    breaks = np.flatnonzero(buf[lo:hi] == 10) + lo
    starts = np.r_[lo, breaks + 1][:-1]
    at = breaks - 1 - (buf[breaks - 1] == 13)  # the label
    ends = at - 1  # the comma
    if not (np.all(ends > starts) and np.all(buf[ends] == 44)):
        return None
    return starts, ends, _labels(buf, at), breaks[-1] + 1 if breaks.size else lo


def _json_rows(buf: np.ndarray, loads: np.ndarray, lo: int, hi: int, final: bool):
    """Records ``{"score": x, "label": y}`` joined by ``, `` that close in ``buf[lo:hi]``.

    ``buf[lo]`` starts the first record's score. The label is one byte, and
    the last record of the file is followed by ``]`` and JSON whitespace
    only. Returns (score starts, score ends, labels, the next record's score
    start), or None for any other text.
    """
    close = np.flatnonzero(buf[lo:hi] == 125) + lo
    if final:
        if not close.size or buf[close[-1] + 1:hi].tobytes().rstrip(b" \t\n\r") != b"]":
            return None
        joined, done = close[:-1], hi
    else:  # the last "}" read may close the array
        close = joined = close[:-1]
        done = close[-1] + 13 if close.size else lo
    starts = np.r_[lo, close + 13][:-1]
    ends = close - 12
    if not (np.all(ends > starts) and np.all(loads[ends] == _LABEL_KEY)
            and np.all(loads[close - 7] | _LABEL_BYTE == _LABEL_TAIL)
            and np.all(loads[joined] == _JOIN) and np.all(loads[joined + 5] == _SCORE_KEY)):
        return None
    return starts, ends, _labels(buf, close - 1), done


def _csv_number(token: bytes) -> float:
    """float() of a token of number characters: what `_parse_csv` reads, when it reads it."""
    if _CSV_NUMBER.fullmatch(token) is None:
        raise ValueError(token)
    return float(token)


def _json_number(token: bytes) -> float:
    """A JSON number as json.loads reads it: an integer becomes an int, so ``-0`` is 0.0."""
    number = _JSON_NUMBER.fullmatch(token)
    if number is None:
        raise ValueError(token)
    return float(token if number[1] or number[2] else int(token))


def _load_plain(p: Path, is_json: bool) -> ScoredDataset | None:
    """The dataset of a plain score file, read in binary `_PIECE` bytes at a time, or None.

    Plain is ASCII: either CSV rows ``score,label`` after an optional
    ``score,label`` header, each ending in ``\\n`` or ``\\r\\n``, or the
    canonical ``json.dumps`` text of ``{"score": x, "label": y}`` records
    (as `save_scores` writes), with ``0`` or ``1`` labels; one leading
    byte-order mark is dropped, and JSON may have whitespace around its
    array. Scores are `_decimals`' values and, for the tokens it leaves,
    float()'s (as json.loads reads them, for JSON): the bits every other
    path gives. None, for the caller's parsers to read the file as before,
    on the first byte outside this grammar, when `ScoredDataset` refuses a
    row, or on a host whose long double is not x87's 64-bit significand.
    """
    if not _x87_division():
        return None
    opening, rows, number = ((_JSON_OPENING, _json_rows, _json_number) if is_json
                             else (_CSV_OPENING, _csv_rows, _csv_number))
    scores, labels = [], []
    with p.open("rb") as f:
        head = f.read(64)
        opened = opening.match(head)
        if opened is None:
            return None
        carry = np.frombuffer(head, np.uint8)[opened.end():]
        buf = np.empty(_PAD + _SNIFF + _PIECE + _TAIL, np.uint8)
        loads = np.ndarray((buf.size - 7,), "<u8", buf, strides=(1,))
        while True:
            hi = _PAD + carry.size
            buf[_PAD:hi] = carry
            got = f.readinto(memoryview(buf)[hi:hi + _PIECE])
            hi += got
            found = rows(buf, loads, _PAD, hi, not got)
            if found is None:
                return None
            starts, ends, chunk_labels, done = found
            values, rest = _decimals(buf, loads, starts, ends)
            for i in np.flatnonzero(rest):
                try:
                    values[i] = number(buf[starts[i]:ends[i]].tobytes())
                except (ValueError, OverflowError):
                    return None
            scores.append(values)
            labels.append(chunk_labels)
            if not got:
                break
            if hi - done > _SNIFF:  # far longer than any plain row
                return None
            carry = buf[done:hi].copy()
    try:
        return ScoredDataset._adopt(np.concatenate(scores), np.concatenate(labels))
    except ValueError:  # an empty file or a refused row: the caller's parsers word the message
        return None


def load_scores(path) -> ScoredDataset:
    """Load a scored dataset from a UTF-8 CSV or JSON score file.

    One leading byte-order mark is dropped. The rest of the text decides the
    format, not the file name: JSON when its first non-whitespace character
    is ``[`` or ``{``, CSV otherwise. CSV rows are ``score,label`` after an
    optional ``score,label`` header, and end at ``\\n``, ``\\r`` or ``\\r\\n``
    only. JSON files hold an array of ``{"score": x, "label": y}`` objects.
    Row order is preserved. Content errors name the path; malformed rows
    give their line number, and out-of-range scores or labels are rejected.

    Plain files are read by `_load_plain` in binary, with no string or
    float() call per row: ASCII ``score,label`` rows ending in ``\\n`` or
    ``\\r\\n`` with 0/1 labels, and JSON in json.dumps's own layout (what
    `save_scores` writes). Their scores are float()'s bits, as on every
    other path. Every other file, a plain file whose rows `ScoredDataset`
    refuses, and every file on a host without an x87 long double, goes
    through the parsers below as before, and so does every error message:
    numpy's CSV reader, then the line-by-line parser; the JSON piece
    decoder, then the whole-text decode.
    """
    p = Path(path)
    try:
        with p.open(encoding="utf-8-sig") as f:
            head = f.read(_SNIFF)
    except UnicodeDecodeError:
        head = ""  # the whole-text read below names the byte
    text = None if head.strip() else _read_text(p)  # a blank start: the whole text decides
    is_json = (head if text is None else text).lstrip().startswith(("[", "{"))
    plain = _load_plain(p, is_json) if text is None else None
    if plain is not None:
        return plain
    if text is None and not is_json:
        fast = _load_csv_fast(p, head)
        if fast is not None:
            return fast
    columns = _stream_json(p) if text is None and is_json else None
    make = ScoredDataset._adopt  # over the piece decoder's own arrays
    if columns is None:
        text = _read_text(p) if text is None else text
        columns = _decode_whole(text, str(p)) if is_json else _parse_csv(text, str(p))
        make = ScoredDataset
    try:
        return make(*columns)  # range, label and empty-file checks
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
