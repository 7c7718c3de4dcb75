"""Dataset ingestion, persistence, multiclass reduction, and supersamples."""

import json
import tempfile
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
    top_label_reduce,
)
from calbounds.data import _parse_csv


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
         (float("nan"), "scores must be finite")],
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

    def test_json_integral_float_label_accepted(self, tmp_path):
        p = tmp_path / "scores.json"
        p.write_text(json.dumps([{"score": 0.25, "label": 0.0}, {"score": 0.75, "label": 1}]))
        assert tuple(load_scores(p).labels) == (0, 1)


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
            save_scores(d, path, format=format)
            back = load_scores(path, format=format)
        assert np.array_equal(back.scores, d.scores)
        assert np.array_equal(back.labels, d.labels)


class TestTopLabelReduce:
    def test_argmax_matches_truth(self):
        d = top_label_reduce([[0.1, 0.9]], [1])
        assert d.scores[0] == 0.9 and d.labels[0] == 1

    def test_argmax_misses_truth(self):
        d = top_label_reduce([[0.6, 0.4]], [1])
        assert d.scores[0] == 0.6 and d.labels[0] == 0

    def test_tie_breaks_to_lowest_index(self):
        # Tied vector: argmax resolves to class 0, which matches the truth.
        d = top_label_reduce([[0.5, 0.5]], [0])
        assert d.scores[0] == 0.5 and d.labels[0] == 1

    def test_not_simplex(self):
        with pytest.raises(ValueError, match="simplex"):
            top_label_reduce([[0.5, 0.4]], [0])

    def test_empty(self):
        with pytest.raises(ValueError, match="empty"):
            top_label_reduce([], [])

    @pytest.mark.parametrize("truth", [[1.7, 0.2], [1, 0.5], [1, np.nan]])
    def test_fractional_class_index_rejected(self, truth):
        # An int64 cast would floor 1.7 to 1 and 0.2 to 0.
        with pytest.raises(ValueError, match="true class index must be an integer at row"):
            top_label_reduce([[0.1, 0.9], [0.6, 0.4]], truth)

    def test_integral_float_class_index_accepted(self):
        d = top_label_reduce([[0.1, 0.9], [0.6, 0.4]], [1.0, 0.0])
        assert d.labels.tolist() == [1, 1]

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_probability_rejected(self, bad):
        # NaN compares false, so a NaN row would pass the simplex check.
        with pytest.raises(ValueError, match="probabilities must be finite at row 1"):
            top_label_reduce([[0.1, 0.9], [bad, 0.4]], [1, 0])

    @given(
        st.integers(min_value=2, max_value=5).flatmap(
            lambda width: st.lists(
                st.tuples(
                    st.lists(
                        st.floats(min_value=0.01, max_value=1.0),
                        min_size=width,
                        max_size=width,
                    ),
                    st.integers(min_value=0, max_value=width - 1),
                ),
                min_size=1,
                max_size=30,
            )
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_output_satisfies_sample_invariants(self, rows):
        probs = []
        truths = []
        for weights, truth in rows:
            w = np.asarray(weights)
            probs.append(w / w.sum())
            truths.append(truth)
        d = top_label_reduce(probs, truths)
        assert np.all(d.scores >= 0) and np.all(d.scores <= 1)
        assert set(np.unique(d.labels)) <= {0, 1}


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
