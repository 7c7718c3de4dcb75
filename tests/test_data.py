"""Dataset ingestion, persistence, and supersamples."""

import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from calbounds import (
    RunRecord,
    ScoredDataset,
    Supersample,
    load_scores,
    save_scores,
)
import calbounds.data as data_mod
from calbounds.data import _parse_csv

SRC = Path(__file__).resolve().parent.parent / "src"


class TestScoredDataset:
    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            ScoredDataset([], [])

    def test_endpoints_accepted(self):
        d = ScoredDataset([0.0, 1.0], [0, 1])
        assert tuple(d.scores) == (0.0, 1.0)

    @pytest.mark.parametrize(
        "score, message",
        [(-0.1, "score out of range at index 1"), (1.3, "score out of range at index 1"),
         (float("nan"), "scores must be finite at index 1: nan")],
        ids=["-0.1", "1.3", "nan"],
    )
    def test_score_out_of_range(self, score, message):
        with pytest.raises(ValueError, match=message):
            ScoredDataset([0.5, score], [0, 1])

    def test_bad_label(self):
        with pytest.raises(ValueError, match="label must be 0 or 1 at index 0: 2"):
            ScoredDataset([0.5], [2])

    def test_order_preserved(self):
        d = ScoredDataset([0.9, 0.1, 0.5], [1, 0, 1])
        assert list(d.scores) == [0.9, 0.1, 0.5]

    def test_immutable(self):
        d = ScoredDataset([0.5], [1])
        with pytest.raises(ValueError):
            d.scores[0] = 0.2

    @pytest.mark.parametrize("labels", [[0.9, 1], [1, 0.5], np.array([0.0, 1e-9]), [1, -0.1]])
    def test_fractional_label_rejected(self, labels):
        with pytest.raises(ValueError, match="label must be 0 or 1 at index"):
            ScoredDataset([0.5, 0.6], labels)

    @pytest.mark.parametrize("labels", [[0.0, 1.0], [False, True], np.array([0, 1], np.int8)])
    def test_integral_labels_stored_as_int64(self, labels):
        d = ScoredDataset([0.5, 0.6], labels)
        assert d.labels.dtype == np.int64
        assert tuple(d.labels) == (0, 1)


class TestLoadScores:
    def test_csv_two_rows(self, tmp_path):
        p = tmp_path / "scores.csv"
        p.write_text("0.7,1\n0.2,0\n")
        d = load_scores(p)
        assert len(d) == 2
        assert tuple(d.scores) == (0.7, 0.2)
        assert tuple(d.labels) == (1, 0)

    def test_header_optional(self, tmp_path):
        p = tmp_path / "scores.csv"
        p.write_text("score,label\n0.7,1\n0.2,0\n")
        assert len(load_scores(p)) == 2

    def test_score_out_of_range_reports_line(self, tmp_path):
        p = tmp_path / "scores.csv"
        p.write_text("1.3,0\n")
        with pytest.raises(ValueError, match="score out of range at line 1"):
            load_scores(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "scores.csv"
        p.write_text("")
        with pytest.raises(ValueError, match="empty dataset"):
            load_scores(p)

    def test_malformed_row_reports_line(self, tmp_path):
        p = tmp_path / "scores.csv"
        p.write_text("0.7,1\nnot-a-number,0\n")
        with pytest.raises(ValueError, match="line 2"):
            load_scores(p)

    def test_header_only_file_is_empty_without_warning(self, tmp_path):
        p = tmp_path / "scores.csv"
        p.write_text("score,label\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match="empty dataset"):
                load_scores(p)
        assert caught == []

    def test_fractional_label_reports_line(self, tmp_path):
        p = tmp_path / "scores.csv"
        p.write_text("0.7,1\n0.5,1.0\n")
        with pytest.raises(ValueError, match="malformed row at line 2: '0.5,1.0'"):
            load_scores(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_scores(tmp_path / "nope.csv")

    def test_json(self, tmp_path):
        p = tmp_path / "scores.json"
        p.write_text(json.dumps([{"score": 0.25, "label": 0}, {"score": 0.75, "label": 1}]))
        d = load_scores(p)
        assert tuple(d.scores) == (0.25, 0.75)

    def test_json_bad_label(self, tmp_path):
        p = tmp_path / "scores.json"
        p.write_text(json.dumps([{"score": 0.25, "label": 3}]))
        with pytest.raises(ValueError):
            load_scores(p)

    @pytest.mark.parametrize(
        "label, match",
        [
            (0.9, "label must be 0 or 1 at index 1"),
            (True, "label must be 0 or 1 at position 1"),
            (False, "label must be 0 or 1 at position 1"),
            (None, "label must be 0 or 1 at position 1"),
            ("1", "label must be 0 or 1 at position 1"),
        ],
    )
    def test_json_label_not_truncated(self, tmp_path, label, match):
        p = tmp_path / "scores.json"
        p.write_text(json.dumps([{"score": 0.25, "label": 0}, {"score": 0.75, "label": label}]))
        with pytest.raises(ValueError, match=match):
            load_scores(p)

    @pytest.mark.parametrize("record", [{"score": None, "label": 1}, {"score": "x", "label": 1},
                                        {"label": 1}, [0.5, 1],
                                        {"score": True, "label": 1}, {"score": "0.25", "label": 0},
                                        {"score": 10**400, "label": 1}])
    def test_json_malformed_record_reports_position(self, tmp_path, record):
        p = tmp_path / "scores.json"
        p.write_text(json.dumps([{"score": 0.25, "label": 0}, record]))
        with pytest.raises(ValueError, match="malformed record at position 1"):
            load_scores(p)

    @pytest.mark.parametrize(
        "score, message",
        [("1.5", "score out of range at index 1: 1.5"),
         ("1e400", "scores must be finite at index 1: inf")],
    )
    def test_json_value_error_names_the_file(self, tmp_path, score, message):
        p = tmp_path / "scores.json"
        p.write_text(f'[{{"score": 0.25, "label": 0}}, {{"score": {score}, "label": 1}}]')
        with pytest.raises(ValueError) as e:
            load_scores(p)
        assert str(e.value) == f"{p}: {message}"

    def test_non_utf8_file_names_the_path(self, tmp_path):
        p = tmp_path / "scores.csv"
        p.write_bytes(b"0.5,1\n\xd0\n")
        with pytest.raises(ValueError) as e:
            load_scores(p)
        assert str(e.value).startswith(f"{p}: 'utf-8' codec can't decode byte 0xd0")

    @pytest.mark.parametrize(
        "name, text",
        [
            ("scores.txt", ' [{"score": 0.25, "label": 0}, {"score": 0.75, "label": 1}]'),
            ("scores.csv", '\n[{"score": 0.25, "label": 0}, {"score": 0.75, "label": 1}]'),
            ("scores.json", "score,label\n0.25,0\n0.75,1\n"),
            ("scores", "0.25,0\n0.75,1\n"),
        ],
    )
    def test_format_read_from_the_text(self, tmp_path, name, text):
        p = tmp_path / name
        p.write_text(text)
        d = load_scores(p)
        assert tuple(d.scores) == (0.25, 0.75) and tuple(d.labels) == (0, 1)

    @pytest.mark.parametrize(
        "name, text, message",
        [
            ("scores.txt", '{"score": 0.25, "label": 0}', "expected a JSON array of records"),
            ("scores.json", "", "empty dataset"),
            ("scores.csv", '[{"score": 0.25, "label": 0},\n {"score": 0.75, "label": }]',
             "malformed JSON at line 2"),
        ],
    )
    def test_sniffed_format_errors_name_the_file(self, tmp_path, name, text, message):
        p = tmp_path / name
        p.write_text(text)
        with pytest.raises(ValueError) as e:
            load_scores(p)
        assert str(e.value) == f"{p}: {message}"

    def test_json_integral_float_label_accepted(self, tmp_path):
        p = tmp_path / "scores.json"
        p.write_text(json.dumps([{"score": 0.25, "label": 0.0}, {"score": 0.75, "label": 1}]))
        assert tuple(load_scores(p).labels) == (0, 1)

    @pytest.mark.parametrize("text", ["0.5\x0b,1\n", "0.5,1\n0.25\x0c,0\n", "0.5\x1e,1\n",
                                      "0.5,1\n0.25\x1c,0\n", "0.5,1\n0.25\x1d,0\n"])
    def test_line_breaks_of_splitlines_count_in_csv(self, tmp_path, text):
        # numpy would read "0.5\x0b,1" as one row with a padded score; the file's lines are
        # str.splitlines()'s, so "0.5" alone is a malformed row.
        p = tmp_path / "scores.csv"
        p.write_text(text)
        with pytest.raises(ValueError) as e:
            load_scores(p)
        with pytest.raises(ValueError) as expected:
            _parse_csv(p.read_text(), str(p))
        assert str(e.value) == str(expected.value)

    @pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
    def test_compressed_suffix_read_as_plain_text(self, tmp_path, suffix):
        # numpy's path opener would decompress these names; the text decides, not the name.
        p = tmp_path / f"scores.csv{suffix}"
        p.write_text("score,label\n0.25,0\n0.75,1\n")
        d = load_scores(p)
        assert tuple(d.scores) == (0.25, 0.75) and tuple(d.labels) == (0, 1)

    def test_missing_file_not_found_beside_compressed_sibling(self, tmp_path):
        # numpy's path opener would also try x.csv.gz for x.csv.
        (tmp_path / "x.csv.gz").write_text("0.25,0\n")
        with pytest.raises(FileNotFoundError):
            load_scores(tmp_path / "x.csv")

    @pytest.mark.parametrize(
        "text, scores",
        [("score,label\n0.5,1\u00a0\n0.25,0\n", [0.5, 0.25]),
         ('[{"score": 0.5, "label": 1, "name": "\u00e9"}]', [0.5])],
        ids=["csv", "json"],
    )
    def test_read_as_utf8_under_an_ascii_locale(self, tmp_path, text, scores):
        p = tmp_path / "scores.txt"
        p.write_bytes(text.encode("utf-8"))
        path = os.pathsep.join(x for x in (str(SRC), os.environ.get("PYTHONPATH")) if x)
        env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0", PYTHONPATH=path)
        code = ("import sys; from calbounds import load_scores; "
                "print(load_scores(sys.argv[1]).scores.tolist())")
        proc = subprocess.run([sys.executable, "-c", code, str(p)], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == str(scores)


# Tokens on which a vectorized parser and Python's float()/int() may disagree.
_SCORE_TOKENS = ["nan", "inf", "-0.0", "1e400", "1.5", "-0.1", "0_5", "\u0660.5", " 0.5 ",
                 "0.5\xa0", "0.5\x00", "0x1p-1", "", "score"]
_LABEL_TOKENS = ["0", "1", "+1", "01", "-0", " 1 ", "1.0", "2", "-1", "9223372036854775808",
                 "1_0", "\u0661", "", "label"]
_LINE_TOKENS = ["", "   ", "\t", "score,label", "0.5", "0.5,1,", ",", "0.5,1 # c"]
_LINE_ENDS = ["\n", "\r", "\r\n", "\x0b", "\x0c"]


def _csv_texts():
    unit = st.floats(min_value=0.0, max_value=1.0)
    score = st.one_of(unit.map(repr), unit.map(lambda v: "%.3f" % v), unit.map(lambda v: "%e" % v))
    good = st.builds(lambda s, y: f"{s},{y}", score, st.sampled_from(["0", "1"]))
    tricky = st.builds(lambda s, y: f"{s},{y}", st.one_of(score, st.sampled_from(_SCORE_TOKENS)),
                       st.sampled_from(_LABEL_TOKENS))
    special = st.sampled_from(_LINE_TOKENS)
    line = st.integers(0, 9).flatmap(lambda k: tricky if k == 0 else special if k == 1 else good)
    ended = st.tuples(line, st.sampled_from(_LINE_ENDS)).map("".join)
    header = st.sampled_from(["", "score,label\n", " score , label\r\n"])
    return st.builds(lambda h, body, tail: h + "".join(body) + tail,
                     header, st.lists(ended, max_size=6), st.sampled_from(["", "0.25,0"]))


class TestCsvFastPath:
    """load_scores parses most CSVs with numpy; the result must be the line-by-line parser's."""

    @given(_csv_texts())
    @settings(max_examples=300, deadline=None)
    def test_equals_line_parser(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "d.csv"
            path.write_bytes(text.encode("utf-8"))
            read = path.read_text()
            try:
                scores, labels = _parse_csv(read, str(path))
                if not scores:
                    raise ValueError(f"{path}: empty dataset")
                expected = ScoredDataset(scores, labels)
            except ValueError as e:
                with pytest.raises(ValueError) as got:
                    load_scores(path)
                assert str(got.value) == str(e)
                return
            d = load_scores(path)
        assert d.scores.tobytes() == expected.scores.tobytes()
        assert d.labels.tobytes() == expected.labels.tobytes()
        assert d.labels.dtype == expected.labels.dtype


def _reference_json(text: str, path: str) -> ScoredDataset:
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
            score = float(score)
        except (TypeError, KeyError, OverflowError):
            raise ValueError(f"{path}: malformed record at position {i}") from None
        if isinstance(label, bool) or not isinstance(label, (int, float)):
            raise ValueError(f"{path}: label must be 0 or 1 at position {i}: {label!r}")
        scores.append(score)
        labels.append(label)
    try:
        return ScoredDataset(scores, labels)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None


# JSON value texts, most of them valid, some that a piece's fast check refuses.
_NESTED = ['{"a": 1}', '[{"a": 1}, {"b": 2}]', '"}, {"', '"a}, {\\"b"', '{"x": {"y": []}}']
_ODD_VALUES = ["NaN", "Infinity", "-Infinity", "1e400", str(2**53 + 1), str(10**400), "true",
               "false", "null", '"0.5"', "0.5", "-0.0", "1.0", "0.0", "2", str(2**64)] + _NESTED


def _json_texts():
    unit = st.floats(min_value=0.0, max_value=1.0).map(repr)
    odd = st.sampled_from(_ODD_VALUES)
    score = st.integers(0, 19).flatmap(lambda k: odd if k == 0 else unit)
    bit = st.sampled_from(["0", "1", "1.0"])
    label = st.integers(0, 19).flatmap(lambda k: odd if k == 0 else bit)
    # Extra members: other keys with any value, or a duplicate score or label key.
    extra = st.one_of(st.tuples(st.sampled_from(["note", "meta"]), st.one_of(odd, unit)),
                      st.tuples(st.just("score"), score), st.tuples(st.just("label"), label))
    record = st.builds(
        lambda sc, lb, extras, order: [("score", sc), ("label", lb)][::order] + extras,
        score, label, st.lists(extra, max_size=2), st.sampled_from([1, -1]))
    # (record separator, key-value separator, item separator, opening, closing)
    layout = st.sampled_from([(", ", ": ", ", ", "[", "]"), (",", ":", ",", "[", "]"),
                              (",\n  ", ": ", ",\n    ", "[\n  ", "\n]"),
                              (" ,\t", " : ", " , ", " \n[ ", " ]\n")])

    def render(records, lay):
        sep, colon, item, opening, closing = lay
        body = sep.join("{" + item.join(f"{json.dumps(k)}{colon}{v}" for k, v in rec) + "}"
                        for rec in records)
        return opening + body + closing

    text = st.builds(render, st.lists(record, max_size=8), layout)
    broken = st.tuples(text, st.sampled_from(["drop", "comma", "brace", "space"])).map(
        lambda tb: {"drop": tb[0][:-1], "comma": tb[0].rstrip()[:-1] + ",]",
                    "brace": tb[0].replace("}", "", 1), "space": "\x0c" + tb[0]}[tb[1]])
    return st.one_of(text, text, text, text, broken, st.sampled_from(["[]", " [ ] ", "[\n]", "{}"]))


class TestJsonPieces:
    """load_scores decodes JSON in record-aligned pieces; the result must be the whole text's."""

    @given(_json_texts(), st.integers(1, 64))
    @settings(max_examples=400, deadline=None)
    def test_equals_whole_text_decode(self, text, piece):
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            mp.setattr(data_mod, "_PIECE", piece)
            path = Path(tmp) / "d.json"
            path.write_bytes(text.encode("utf-8"))
            try:
                expected = _reference_json(text, str(path))
            except ValueError as e:
                with pytest.raises(ValueError) as got:
                    load_scores(path)
                assert str(got.value) == str(e)
                return
            d = load_scores(path)
        assert d.scores.tobytes() == expected.scores.tobytes()
        assert d.labels.tobytes() == expected.labels.tobytes()
        assert d.labels.dtype == expected.labels.dtype

    @pytest.mark.parametrize("indent", [None, 2])
    def test_plain_layouts_never_decode_whole(self, tmp_path, monkeypatch, indent):
        records = [{"score": i / 100, "label": i % 2} for i in range(100)]
        p = tmp_path / "d.json"
        p.write_text(json.dumps(records, indent=indent))
        pieces = []
        real = data_mod._piece_columns
        monkeypatch.setattr(data_mod, "_PIECE", 50)
        monkeypatch.setattr(data_mod, "_piece_columns", lambda t: pieces.append(t) or real(t))
        monkeypatch.setattr(data_mod, "_decode_whole", None)  # any call would raise
        d = load_scores(p)
        assert len(pieces) > 10
        assert d.scores.tolist() == [r["score"] for r in records]


class TestIngestMemory:
    @pytest.mark.parametrize("name", ["d.json", "d.csv"])
    def test_peak_memory_of_a_100k_record_file(self, tmp_path, monkeypatch, name):
        # A JSON file is read whole (its bytes and its text), then decoded one piece at a
        # time; a CSV file is parsed by numpy from the file. Neither holds a Python object
        # per row: the peak stays under twice the file, 16 pieces and 3 copies of the arrays.
        piece = 1 << 16
        monkeypatch.setattr(data_mod, "_PIECE", piece, raising=False)
        rng = np.random.default_rng(5)
        n = 100_000
        d = ScoredDataset(rng.random(n), rng.integers(0, 2, n))
        p = tmp_path / name
        save_scores(d, p)
        tracemalloc.start()
        try:
            back = load_scores(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert back.scores.tobytes() == d.scores.tobytes()
        assert peak <= 2 * p.stat().st_size + 16 * piece + 3 * n * 16


class TestRoundTrip:
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
                st.integers(min_value=0, max_value=1),
            ),
            min_size=1,
            max_size=50,
        ),
        st.sampled_from(["csv", "json"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_save_load_identity(self, pairs, format):
        d = ScoredDataset([p[0] for p in pairs], [p[1] for p in pairs])
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / f"d.{format}"
            save_scores(d, path)
            back = load_scores(path)
        assert np.array_equal(back.scores, d.scores)
        assert np.array_equal(back.labels, d.labels)


class TestSupersample:
    def test_split_indexing(self):
        # rows ((a,b),(c,d)), mask (0,1) -> (a,d); flipped -> (b,c)
        s = Supersample(
            values=np.array([[0.1, 0.2], [0.3, 0.4]]),
            labels=np.array([[0, 1], [1, 0]]),
            mask=np.array([0, 1]),
        )
        values, labels = s.split(flipped=False)
        assert tuple(values) == (0.1, 0.4) and tuple(labels) == (0, 0)
        values, labels = s.split(flipped=True)
        assert tuple(values) == (0.2, 0.3) and tuple(labels) == (1, 1)

    @given(st.integers(min_value=1, max_value=30), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_mask_partition_property(self, n, seed):
        rng = np.random.default_rng(seed)
        values = rng.uniform(size=(n, 2))
        labels = rng.integers(0, 2, size=(n, 2))
        s = Supersample(values, labels, rng.integers(0, 2, size=n))
        (a, la), (b, lb) = s.split(flipped=False), s.split(flipped=True)
        combined = sorted(zip(np.concatenate([a, b]).tolist(), np.concatenate([la, lb]).tolist()))
        assert combined == sorted(zip(values.ravel().tolist(), labels.ravel().tolist()))

    def test_mask_length_invariant(self):
        with pytest.raises(ValueError, match="mask"):
            Supersample(np.zeros((3, 2)), np.zeros((3, 2)), np.array([0, 1]))


class TestRunRecord:
    def test_non_finite_floats_saved_as_null(self, tmp_path):
        record = RunRecord({"seed": 0})
        record.add("slope", float("nan"), grid=np.array([1.0, np.inf]), bias=np.float64(-np.inf))
        text = record.save(tmp_path).read_text()
        saved = json.loads(text, parse_constant=lambda token: pytest.fail(f"bare {token}"))
        assert saved["results"] == [
            {"name": "slope", "value": None, "inputs": {"grid": [1.0, None], "bias": None}}
        ]


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: ScoredDataset([[0.5]], [1]), "scores and labels must be one-dimensional"),
        (lambda: ScoredDataset([0.5, 0.6], [1]), "scores and labels must have equal length"),
        (lambda: ScoredDataset(["0.1", "0.2"], [1, 0]), "scores must be numbers"),
        (lambda: ScoredDataset([True, False], [1, 0]), "scores must be numbers"),
        (lambda: ScoredDataset([0.1, None], [1, 0]), "scores must be numbers"),
        (lambda: Supersample(np.zeros((3, 3)), np.zeros((3, 3)), np.zeros(3)),
         "values must have shape (n, 2)"),
        (lambda: Supersample(np.zeros((3, 2)), np.zeros((2, 2)), np.zeros(3)),
         "labels must have the same shape as values"),
        (lambda: Supersample(np.zeros((3, 2)), np.zeros((3, 2)), np.array([0, 2, 1])),
         "mask entries must be bits"),
    ],
    ids=["2-d scores", "unequal lengths", "string scores", "bool scores", "None score",
         "values shape", "labels shape", "non-bit mask"],
)
def test_boundary_errors(make, message):
    with pytest.raises(ValueError) as e:
        make()
    assert str(e.value) == message
