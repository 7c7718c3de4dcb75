"""Dataset ingestion, persistence, multiclass reduction, and supersamples."""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from calbounds import (
    RunRecord,
    ScoredDataset,
    ScoredSample,
    Supersample,
    load_scores,
    make_supersample,
    save_scores,
    select_by_mask,
    top_label_reduce,
)


class TestScoredSample:
    def test_valid(self):
        s = ScoredSample(0.7, 1)
        assert s.score == 0.7 and s.label == 1

    def test_endpoints_accepted(self):
        ScoredSample(0.0, 0)
        ScoredSample(1.0, 1)

    @pytest.mark.parametrize("score", [-0.1, 1.3, float("nan")])
    def test_score_out_of_range(self, score):
        with pytest.raises(ValueError):
            ScoredSample(score, 0)

    def test_bad_label(self):
        with pytest.raises(ValueError):
            ScoredSample(0.5, 2)


class TestScoredDataset:
    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            ScoredDataset([], [])

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
                                        {"score": True, "label": 1}, {"score": "0.25", "label": 0}])
    def test_json_malformed_record_reports_position(self, tmp_path, record):
        p = tmp_path / "scores.json"
        p.write_text(json.dumps([{"score": 0.25, "label": 0}, record]))
        with pytest.raises(ValueError, match="malformed record at position 1"):
            load_scores(p)

    def test_json_integral_float_label_accepted(self, tmp_path):
        p = tmp_path / "scores.json"
        p.write_text(json.dumps([{"score": 0.25, "label": 0.0}, {"score": 0.75, "label": 1}]))
        assert tuple(load_scores(p).labels) == (0, 1)


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
    def test_deterministic(self):
        d = ScoredDataset(np.linspace(0.05, 0.95, 10), [0, 1] * 5)
        a = make_supersample(d, 3, seed=7)
        b = make_supersample(d, 3, seed=7)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.mask, b.mask)

    def test_partition_from_exact_source(self):
        d = ScoredDataset(np.linspace(0.1, 0.8, 8), [0, 1] * 4)
        s = make_supersample(d, 4, seed=1)
        used = sorted(s.values.ravel().tolist())
        assert used == sorted(d.scores.tolist())

    def test_insufficient_source(self):
        d = ScoredDataset(np.linspace(0.1, 0.6, 6), [0, 1] * 3)
        with pytest.raises(ValueError, match="insufficient source size"):
            make_supersample(d, 4, seed=1)

    def test_select_by_mask_indexing(self):
        # rows ((a,b),(c,d)), mask (0,1) -> (a,d); flipped -> (b,c)
        s = Supersample(
            values=np.array([[0.1, 0.2], [0.3, 0.4]]),
            labels=np.array([[0, 1], [1, 0]]),
            mask=np.array([0, 1]),
            seed=0,
        )
        sel = select_by_mask(s, flipped=False)
        assert tuple(sel.scores) == (0.1, 0.4)
        flipped = select_by_mask(s, flipped=True)
        assert tuple(flipped.scores) == (0.2, 0.3)
        both = sorted(list(sel.scores) + list(flipped.scores))
        assert both == [0.1, 0.2, 0.3, 0.4]

    @given(st.integers(min_value=1, max_value=30), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_mask_partition_property(self, n, seed):
        rng = np.random.default_rng(seed)
        d = ScoredDataset(rng.uniform(size=2 * n), rng.integers(0, 2, size=2 * n))
        s = make_supersample(d, n, seed=seed)
        a = select_by_mask(s, flipped=False)
        b = select_by_mask(s, flipped=True)
        combined = sorted(list(a.scores) + list(b.scores))
        assert combined == sorted(d.scores.tolist())

    def test_generator_source(self):
        def gen(count, rng):
            return rng.uniform(size=count), rng.integers(0, 2, size=count)

        s = make_supersample(gen, 5, seed=3)
        assert s.values.shape == (5, 2)
        t = make_supersample(gen, 5, seed=3)
        assert np.array_equal(s.values, t.values)

    def test_mask_length_invariant(self):
        with pytest.raises(ValueError, match="mask"):
            Supersample(np.zeros((3, 2)), np.zeros((3, 2)), np.array([0, 1]), seed=0)


class TestRunRecord:
    def test_non_finite_floats_saved_as_null(self, tmp_path):
        record = RunRecord({"seed": 0})
        record.add("slope", float("nan"), grid=np.array([1.0, np.inf]), bias=np.float64(-np.inf))
        text = record.save(tmp_path).read_text()
        saved = json.loads(text, parse_constant=lambda token: pytest.fail(f"bare {token}"))
        assert saved["results"] == [
            {"name": "slope", "value": None, "inputs": {"grid": [1.0, None], "bias": None}}
        ]
