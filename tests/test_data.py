"""Dataset ingestion, persistence, and supersamples."""

import json
import os
import subprocess
from decimal import Decimal, localcontext
from fractions import Fraction
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

    def test_callers_arrays_stay_theirs(self):
        # Even float64 scores and int8 labels, the stored dtypes, are copied.
        scores, labels = np.array([0.25, 0.75]), np.array([0, 1], np.int8)
        d = ScoredDataset(scores, labels)
        scores[0], labels[0] = 1.0, 1  # still writable
        assert d.scores.tolist() == [0.25, 0.75] and d.labels.tolist() == [0, 1]

    @pytest.mark.parametrize("labels", [[0.9, 1], [1, 0.5], np.array([0.0, 1e-9]), [1, -0.1]])
    def test_fractional_label_rejected(self, labels):
        with pytest.raises(ValueError, match="label must be 0 or 1 at index"):
            ScoredDataset([0.5, 0.6], labels)

    @pytest.mark.parametrize("labels", [[0.0, 1.0], [False, True], np.array([0, 1], np.int8)])
    def test_integral_labels_stored_as_int8(self, labels):
        d = ScoredDataset([0.5, 0.6], labels)
        assert d.labels.dtype == np.int8
        assert tuple(d.labels) == (0, 1)
        assert d.scores.nbytes + d.labels.nbytes == 9 * len(d)


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

    def test_numpy_reader_keeps_the_once_only_warnings(self, tmp_path):
        # "0.5 ,1" is not plain, so numpy's reader takes it; a collapse warning from one
        # source line, shown before the load, is not shown again after it.
        p = tmp_path / "scores.csv"
        p.write_text("0.5 ,1\n")
        path = os.pathsep.join(x for x in (str(SRC), os.environ.get("PYTHONPATH")) if x)
        env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
        code = ("import sys; import numpy as np; from calbounds import load_scores, umb_scheme\n"
                "for path in (None, sys.argv[1]):\n"
                "    assert path is None or load_scores(path).scores.tolist() == [0.5]\n"
                "    umb_scheme(np.zeros(8), 4)\n")
        proc = subprocess.run([sys.executable, "-c", code, str(p)], env=dict(env, PYTHONPATH=path),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.count("tied scores collapsed UMB from 4 to 1 bins") == 1, proc.stderr

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

    def test_non_utf8_byte_past_the_head_names_the_path(self, tmp_path):
        # numpy meets the byte, and the whole-text read names it, counted from the file start.
        rows = b"0.5,1\n" * 3000
        p = tmp_path / "scores.csv"
        p.write_bytes(rows + b"0.\xff5,0\n" + rows)
        with pytest.raises(ValueError) as e:
            load_scores(p)
        assert str(e.value) == (f"{p}: 'utf-8' codec can't decode byte 0xff in position 18002: "
                                "invalid start byte")

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
        # A CSV row ends at \n, \r or \r\n only. The other line breaks of str.splitlines()
        # stay inside the row, where they pad a token as any whitespace does.
        p = tmp_path / "scores.csv"
        p.write_text(text)
        rows = text.count("\n")
        d = load_scores(p)
        assert (d.scores.tolist(), d.labels.tolist()) == _parse_csv(text, str(p))
        assert (d.scores.tolist(), d.labels.tolist()) == ([0.5, 0.25][:rows], [1, 0][:rows])

    def test_form_feed_does_not_end_a_row(self, tmp_path):
        p = tmp_path / "scores.csv"
        p.write_text("0.5,1\x0c0.25,0\n")
        with pytest.raises(ValueError) as e:
            load_scores(p)
        assert str(e.value) == f"{p}: malformed row at line 1: '0.5,1\\x0c0.25,0'"

    def test_non_ascii_csv_is_parsed_by_numpy(self, tmp_path, monkeypatch):
        # No-break spaces around labels and a line separator inside a row are whitespace
        # to numpy as to float() and int(); the file never reaches the line-by-line parser.
        text = "score,label\n0.5,\xa01\xa0\n0.25\u2028,0\n\u3000\x1c0.75,\x851\n"
        p = tmp_path / "scores.csv"
        p.write_text(text, encoding="utf-8")
        expected = _parse_csv(text, str(p))
        monkeypatch.setattr(data_mod, "_parse_csv", None)  # any call would raise
        monkeypatch.setattr(data_mod, "_read_text", None)
        d = load_scores(p)
        assert expected == ([0.5, 0.25, 0.75], [1, 0, 1])
        assert (d.scores.tolist(), d.labels.tolist()) == expected

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


# Tokens on which a vectorized parser and Python's float()/int() may disagree: among them
# non-ASCII whitespace, a BOM inside the file, non-ASCII digits and a zero-width space.
_SCORE_TOKENS = ["nan", "inf", "-0.0", "1e400", "1.5", "-0.1", "0_5", "\u0660.5", " 0.5 ",
                 "0.5\xa0", "0.5\x00", "0x1p-1", "", "score", "\x1c0.5", "0.5\x85", "\u20280.5",
                 "\u30000.5\u3000", "\xa00.5", "\ufeff0.5", "0.\uff15", "0.5\u200b"]
_LABEL_TOKENS = ["0", "1", "+1", "01", "-0", " 1 ", "1.0", "2", "-1", "9223372036854775808",
                 "1_0", "\u0661", "", "label", "\xa01", "1\u3000", "\u20281", "\x851", "1\x1c",
                 "\ufeff1", "\uff11"]
_LINE_TOKENS = ["", "   ", "\t", "score,label", "0.5", "0.5,1,", ",", "0.5,1 # c", "\u3000", "\x85",
                "\ufeff0.5,1", "0.5\u2028,1", "\xa0score,label\u2029"]
_LINE_ENDS = ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x85", "\u2028", "\u2029"]


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


def _load_or_message(path: Path):
    try:
        d = load_scores(path)
    except ValueError as e:
        return str(e)
    return d.scores.tobytes(), d.labels.tobytes(), d.labels.dtype


def _plain_stage_changes_nothing(raw: bytes, name: str, piece: int) -> None:
    """load_scores reads the file as it does with the plain stage off: same bytes or message."""
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        path = Path(tmp) / name
        path.write_bytes(raw)
        mp.setattr(data_mod, "_PIECE", piece)
        got = _load_or_message(path)
        mp.setattr(data_mod, "_load_plain", lambda p, is_json: None)
        assert got == _load_or_message(path)


_BELOW_1E_4 = st.floats(min_value=0.0, max_value=1e-4)  # repr uses an exponent there
def _every_byte_flawed(text: str, name: str) -> None:
    """`_plain_stage_changes_nothing` for each byte of a plain text replaced or dropped."""
    for i in range(len(text)):
        for flaw in (";", "x", " ", "1", "\r", ""):
            _plain_stage_changes_nothing((text[:i] + flaw + text[i + 1:]).encode(), name, 1 << 18)


# Tokens near the plain grammar: some plain, some left to float(), some no number at all.
_NEAR_PLAIN = ["0", "1", "0.0", "1.0", "0.5", "1e-05", "5e-324", "7.5e-05", "-0.0", "-0", "0.",
               ".5", "00.5", "01", "+0.5", "1.5", "2", "0.1" + "0" * 30, "0." + "9" * 20,
               "0.123456789012345678901234567", "1.00000000000000000001", "0.5e0", "1E-5", "",
               "0_5", " 0.5", "0.5 ", "nan", "0x1", "\u0660.5", "0.5\x00"]


def _plain_csv_texts():
    """CSV texts of plain rows; a third of them have one flaw that the plain stage must pass on."""
    unit = st.floats(min_value=0.0, max_value=1.0)
    score = st.one_of(unit.map(repr), unit.map(lambda v: "%.3f" % v), _BELOW_1E_4.map(repr),
                      st.sampled_from(["0", "1", "-0", "-0.0", "+0.5", ".5", "0.", "1E-5", "0.5e0"]))
    row = st.builds(lambda s, y, end: f"{s},{y}{end}", score, st.sampled_from("01"),
                    st.sampled_from(["\n", "\r\n"]))
    head = st.sampled_from(["", "score,label\n", "score,label\r\n", "\ufeff", "\ufeffscore,label\r\n"])
    clean = st.builds(lambda h, body, tail: [h, *body, tail], head, st.lists(row, max_size=8),
                      st.sampled_from(["", "0.25,0", "0.25,1\r"]))
    flaw = st.one_of(st.sampled_from(_NEAR_PLAIN).map(lambda s: f"{s},1\n"),
                     st.sampled_from(["2", "1.0", " 1", "", "01", "1,0"]).map(lambda y: f"0.5,{y}\n"),
                     st.sampled_from([";", " ", "\t", ",,"]).map(lambda sep: f"0.5{sep}1\n"),
                     st.sampled_from(["\r", "\n", "\x85", "\r\r\n", " score,label\n", "score,label,\n",
                                      "\ufeff", "1.5,1", "0.25,"]))
    flawed = st.builds(lambda parts, bad, at: parts[:at] + [bad] + parts[at:], clean, flaw,
                       st.integers(0, 10))
    return st.integers(0, 2).flatmap(lambda k: flawed if k == 0 else clean).map("".join)


class TestCsvFastPath:
    """load_scores parses most CSVs with numpy; the result must be the line-by-line parser's."""

    @given(_csv_texts())
    @settings(max_examples=300, deadline=None)
    def test_equals_line_parser(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "d.csv"
            path.write_bytes(text.encode("utf-8"))
            read = path.read_text(encoding="utf-8").removeprefix("\ufeff")
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

    @given(_plain_csv_texts(), st.one_of(st.integers(1, 64), st.just(1 << 18)))
    @settings(max_examples=100, deadline=None)
    def test_plain_stage_equals_the_parsers_without_it(self, text, piece):
        _plain_stage_changes_nothing(text.encode("utf-8"), "d.csv", piece)

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    @pytest.mark.parametrize("header", ["", "score,label"])
    def test_plain_rows_never_reach_the_parsers(self, tmp_path, monkeypatch, newline, header):
        rows = [f"{i / 100!r},{i % 2}" for i in range(100)]
        p = tmp_path / "d.csv"
        p.write_bytes(newline.join([header] * bool(header) + rows).encode())  # no last line end
        chunks = []
        real = data_mod._decimals
        monkeypatch.setattr(data_mod, "_PIECE", 50)
        monkeypatch.setattr(data_mod, "_decimals", lambda *a: chunks.append(a) or real(*a))
        for slow in ("_load_csv_fast", "_parse_csv", "_read_text"):
            monkeypatch.setattr(data_mod, slow, None)  # any call would raise
        d = load_scores(p)
        assert len(chunks) > 10
        assert d.scores.tolist() == [i / 100 for i in range(100)]
        assert d.labels.tolist() == [i % 2 for i in range(100)]

    def test_plain_stage_equals_the_parsers_with_any_byte_flawed(self):
        _every_byte_flawed("score,label\n0.25,1\r\n-0.0,0\n1,1\n", "d.csv")


def _kernel(tokens: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """`data._decimals` on tokens laid out one after another, each followed by a comma."""
    raw = "".join(t + "," for t in tokens).encode()
    buf = np.zeros(data_mod._PAD + len(raw) + data_mod._TAIL, np.uint8)
    buf[data_mod._PAD:data_mod._PAD + len(raw)] = np.frombuffer(raw, np.uint8)
    loads = np.ndarray((buf.size - 7,), "<u8", buf, strides=(1,))
    ends = data_mod._PAD + np.cumsum([len(t) + 1 for t in tokens]) - 1
    return data_mod._decimals(buf, loads, ends - [len(t) for t in tokens], ends)


def _on_double_midpoint(x: Fraction) -> bool:
    """Whether x > 0 rounded to a 64-bit significand (ties to even) lies halfway between doubles."""
    scaled = x * Fraction(2) ** (64 - x.numerator.bit_length() + x.denominator.bit_length())
    while scaled >= 2**64:
        scaled /= 2
    while scaled < 2**63:
        scaled *= 2
    return round(scaled) & 0x7FF == 0x400  # round() of a Fraction ties to even


def _check_kernel(tokens: list[str]) -> np.ndarray:
    """Assert that `_decimals` gives float()'s bits, and leaves exactly the tokens it must.

    A token is left to float() when it is not a digit, or a digit, a dot and
    at most 27 digits, whose digits read below 10**19, or when its value
    rounded to a 64-bit significand lies on a midpoint of two doubles.
    """
    values, rest = _kernel(tokens)
    for token, value, left in zip(tokens, values, rest):
        lead, dot, fraction = token.partition(".")
        plain = (len(lead) == 1 and lead.isdigit() and (fraction.isdigit() or not dot)
                 and fraction.isascii() and len(fraction) <= 27 and int(lead + fraction) < 10**19)
        exact = Fraction(token) if plain else None
        assert left == (not plain or (exact != 0 and _on_double_midpoint(exact))), token
        if not left:
            assert value.tobytes() == np.float64(float(token)).tobytes(), token
    return rest


class TestDecimalKernel:
    """`_decimals` equals float() bit for bit, or leaves the token to float()."""

    @given(st.lists(st.one_of(st.floats(min_value=0.0, max_value=1.0), _BELOW_1E_4), max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_repr_of_doubles_and_their_neighbours(self, values):
        tokens = []
        for v in [*values, 0.0, 1.0]:
            tokens += [repr(float(w)) for w in (np.nextafter(v, -1.0), v, np.nextafter(v, 2.0))]
        _check_kernel(tokens)

    @given(st.lists(st.tuples(st.sampled_from("0123456789/:-+A "), st.integers(1, 30).flatmap(
        lambda n: st.text("0123456789", min_size=n, max_size=n))), min_size=1, max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_up_to_30_fraction_digits(self, parts):
        rest = _check_kernel([f"{lead}.{fraction}" for lead, fraction in parts])
        for (lead, fraction), left in zip(parts, rest):
            if len((lead + fraction).lstrip("0")) > 19:
                assert left

    @given(st.lists(st.floats(min_value=0.0, max_value=1.0, exclude_max=True), min_size=1, max_size=10))
    @settings(max_examples=40, deadline=None)
    def test_midpoints_between_doubles(self, values):
        tokens, evens = [], []
        for a in values:
            b = float(np.nextafter(a, 2.0))
            with localcontext() as ctx:
                ctx.prec = 1200
                middle = (Decimal(a) + Decimal(b)) / 2  # exact: a and b have finite expansions
                exact = format(middle, "f")
                assert Fraction(exact) == (Fraction(a) + Fraction(b)) / 2
                for digits in (17, 18, 19):  # the nearest tokens that the kernel may take
                    ctx.prec = digits
                    tokens.append(format(+middle, "f"))
            tokens.append(exact)
            evens.append((exact, a if np.float64(a).view(np.uint64) % 2 == 0 else b))
        rest = _check_kernel(tokens)
        for exact, even in evens:
            assert rest[tokens.index(exact)]  # past 27 fraction digits
            assert float(exact) == even  # float() rounds the tie to the even double

    def test_a_quotient_on_a_midpoint_is_left_to_float(self):
        token = "0.1498155458754621"  # the repr of a double
        assert _on_double_midpoint(Fraction(token))
        assert _check_kernel([token, "0.5"]).tolist() == [True, False]

    @pytest.mark.parametrize("name", ["d.csv", "d.json"])
    def test_a_53_bit_long_double_never_reaches_the_kernel(self, tmp_path, monkeypatch, name):
        # As on MSVC or macOS arm64 builds, where np.longdouble is a double.
        rng = np.random.default_rng(7)
        p = tmp_path / name
        save_scores(ScoredDataset(rng.random(3000), rng.integers(0, 2, 3000)), p)
        expected = load_scores(p)
        monkeypatch.setattr(data_mod, "_LONG_DOUBLE", np.finfo(np.float64))
        monkeypatch.setattr(data_mod, "_decimals", None)  # any call would raise
        d = load_scores(p)
        assert d.scores.tobytes() == expected.scores.tobytes()
        assert d.labels.tobytes() == expected.labels.tobytes()


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
                              (" ,\t", " : ", " , ", " \n[ ", " ]\n"),
                              (",\r\n  ", ": ", ",\r\n    ", "[\r\n  ", "\r\n] \r\n\t")])

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


def _plain_json_texts():
    """json.dumps's text of score records; a third of them have one flaw."""
    unit = st.floats(min_value=0.0, max_value=1.0)
    score = st.one_of(unit.map(repr), _BELOW_1E_4.map(repr),
                      st.sampled_from(["0", "1", "-0", "-0.0", "0.5E-1", "1e-5", "0.5" + "0" * 25]))
    record = st.builds(lambda s, y: f'{{"score": {s}, "label": {y}}}', score, st.sampled_from("01"))
    records = st.lists(record, max_size=8)
    bad = st.one_of(
        st.builds(lambda s, y: f'{{"score": {s}, "label": {y}}}',
                  st.sampled_from(_NEAR_PLAIN + _ODD_VALUES),
                  st.sampled_from(["0", "1", "1.0", "2", "true", "-0", " 1", '"1"'])),
        st.builds(lambda s, y: f'{{"label": {y}, "score": {s}}}', score, st.sampled_from("01")),
        st.builds(lambda s, y: f'{{"score":{s},"label":{y}}}', score, st.sampled_from("01")),
        st.builds(lambda s: f'{{"score": {s}, "label": 1, "note": "}}, {{"}}', score),
        st.builds(lambda s, key: f'{{"score": {s}, {key}1}}', score,
                  st.sampled_from(['"label"; ', '"label":\t', '"label" :', "'label': ", '"label"::'])))
    opening = st.sampled_from(["[", "\ufeff[", " \n[", "\ufeff\t["])
    closing = st.sampled_from(["]", "]\n", "] \r\n\t"])

    def render(o, recs, c, join=", "):
        return o + join.join(recs) + c

    clean = st.builds(render, opening, records, closing)
    flawed = st.one_of(
        st.builds(lambda o, recs, b, at, c: render(o, recs[:at] + [b] + recs[at:], c),
                  opening, records, bad, st.integers(0, 8), closing),
        st.builds(render, st.sampled_from(["\x0c[", "[ ", "[\n", "\u3000["]), records, closing),
        st.builds(render, opening, records, st.sampled_from(["", ",]", "]]", "] x", " ]", "]\x0c"])),
        st.builds(render, opening, records, closing,
                  st.sampled_from([",", ",  ", " , ", ",\n", ",\t", "; ", ",,"])))
    return st.integers(0, 2).flatmap(lambda k: flawed if k == 0 else clean)


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

    @given(_plain_json_texts(), st.one_of(st.integers(1, 64), st.just(1 << 18)))
    @settings(max_examples=100, deadline=None)
    def test_plain_stage_equals_the_pieces_without_it(self, text, piece):
        _plain_stage_changes_nothing(text.encode("utf-8"), "d.json", piece)

    def test_plain_stage_equals_the_pieces_with_any_byte_flawed(self):
        # -0 is the integer 0 to json.loads, so 0.0, not float("-0")
        _every_byte_flawed('[{"score": 0.25, "label": 1}, {"score": -0, "label": 0}]', "d.json")

    @pytest.mark.parametrize("indent", [None, 2])
    def test_plain_layouts_never_decode_whole(self, tmp_path, monkeypatch, indent):
        # json.dumps's own layout is read by the plain stage, 50 bytes at a time; an
        # indented one by the piece decoder. Neither reads or decodes the whole text.
        records = [{"score": i / 100, "label": i % 2} for i in range(100)]
        p = tmp_path / "d.json"
        chunks = []
        stage = "_decimals" if indent is None else "_piece_columns"
        real = getattr(data_mod, stage)
        monkeypatch.setattr(data_mod, "_PIECE", 50)
        monkeypatch.setattr(data_mod, stage, lambda *a: chunks.append(a) or real(*a))
        monkeypatch.setattr(data_mod, "_decode_whole", None)  # any call would raise
        monkeypatch.setattr(data_mod, "_read_text", None)  # nor is the whole text read
        for newline, tail in [("\n", ""), ("\r\n", ""), ("\n", " \n\t\r\n "), ("\r\n", "\r\n")]:
            text = json.dumps(records, indent=indent) + tail
            p.write_bytes(text.replace("\n", newline).encode())
            chunks.clear()
            d = load_scores(p)
            assert len(chunks) > 10
            assert d.scores.tolist() == [r["score"] for r in records]
            assert d.labels.tolist() == [r["label"] for r in records]

    def test_non_utf8_byte_after_the_first_piece(self, tmp_path, monkeypatch):
        # The streaming reader meets the byte in a later read, whose decoder
        # counts from that read's start; the message counts from the file's.
        text = json.dumps([{"score": i / 1000, "label": i % 2} for i in range(1000)]).encode()
        at = text.index(b'"score"', 20_000) + 2  # past the text reader's first 8 KiB chunk
        p = tmp_path / "d.json"
        p.write_bytes(text[:at] + b"\xff" + text[at:])
        monkeypatch.setattr(data_mod, "_PIECE", 50)
        with pytest.raises(ValueError) as e:
            load_scores(p)
        assert str(e.value) == (f"{p}: 'utf-8' codec can't decode byte 0xff in position {at}: "
                                "invalid start byte")

    @pytest.mark.parametrize("tail", ["", " \n"], ids=["at the end", "before whitespace"])
    def test_missing_closing_bracket(self, tmp_path, monkeypatch, tail):
        text = json.dumps([{"score": i / 100, "label": i % 2} for i in range(100)], indent=1)
        text = text[:-1] + tail
        p = tmp_path / "d.json"
        p.write_text(text)
        monkeypatch.setattr(data_mod, "_PIECE", 50)
        with pytest.raises(ValueError) as e:
            load_scores(p)
        assert str(e.value).startswith(f"{p}: malformed JSON at line ")
        with pytest.raises(ValueError) as want:
            _reference_json(text, str(p))
        assert str(e.value) == str(want.value)


_RECORDS = [{"score": i / 100, "label": i % 2} for i in range(100)]
_CSV_ROWS = "".join(f"{r['score']!r},{r['label']}\n" for r in _RECORDS)


class TestByteOrderMark:
    # Excel's "CSV UTF-8" export writes a leading BOM, and JSON parsers may ignore one.
    @pytest.mark.parametrize("name, text", [
        ("d.csv", _CSV_ROWS),
        ("d.csv", "score,label\n" + _CSV_ROWS),
        ("d.csv", ("score,label\n" + _CSV_ROWS).replace("\n", "\r\n")),
        ("d.json", json.dumps(_RECORDS)),
        ("d.json", json.dumps(_RECORDS, indent=2)),
    ], ids=["csv", "csv with header", "csv crlf", "json", "json indented"])
    def test_leading_bom_loads_as_without_on_the_fast_path(self, tmp_path, monkeypatch,
                                                           name, text):
        plain, bom = tmp_path / name, tmp_path / f"bom_{name}"
        plain.write_text(text, newline="")
        bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        expected = load_scores(plain)
        monkeypatch.setattr(data_mod, "_PIECE", 50)
        for slow in ("_decode_whole", "_read_text", "_parse_csv"):
            monkeypatch.setattr(data_mod, slow, None)  # any call would raise
        d = load_scores(bom)
        assert d.scores.tobytes() == expected.scores.tobytes()
        assert d.labels.tobytes() == expected.labels.tobytes()

    def test_leading_bom_dropped_on_the_line_by_line_path(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_bytes("\ufeffscore,label\n0.2_5,1\n".encode())  # numpy refuses 0.2_5
        assert load_scores(p).scores.tolist() == [0.25]
        p.write_bytes('\ufeff {"score": 0.5}'.encode())
        with pytest.raises(ValueError) as e:
            load_scores(p)
        assert str(e.value) == f"{p}: expected a JSON array of records"

    @pytest.mark.parametrize("raw, message", [
        (b"0.25,1\n\xef\xbb\xbf0.5,0\n", "malformed row at line 2: '\\ufeff0.5,0'"),
        (b"\xef\xbb\xbf\xef\xbb\xbf0.25,1\n", "malformed row at line 1: '\\ufeff0.25,1'"),
        (b"\xef\xbb\xbf0.25,1\n\xff0.5,0\n",
         "'utf-8' codec can't decode byte 0xff in position 10: invalid start byte"),
    ], ids=["second line", "second bom", "utf-8 error counted from the file start"])
    def test_only_one_leading_bom_is_dropped(self, tmp_path, raw, message):
        p = tmp_path / "d.csv"
        p.write_bytes(raw)
        with pytest.raises(ValueError) as e:
            load_scores(p)
        assert str(e.value) == f"{p}: {message}"


class TestIngestMemory:
    @pytest.mark.parametrize("name", ["d.json", "d.csv"])
    def test_peak_memory_of_a_100k_record_file(self, tmp_path, monkeypatch, name):
        # save_scores writes plain files, read in binary one piece at a time. Neither
        # holds the whole text or a Python object per row: the peak stays under 16
        # pieces and 3 copies of the arrays.
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
        assert peak <= 16 * piece + 3 * n * 16


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
