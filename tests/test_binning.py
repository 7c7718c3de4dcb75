"""Binning scheme construction, assignment, and per-bin statistics."""

import functools
import gc
import operator
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from calbounds import (
    BinningScheme,
    Recalibrator,
    ScoredDataset,
    assign,
    bin_stats,
    ece,
    ece_gap,
    ece_reformulated,
    umb_scheme,
    uwb_scheme,
)
import calbounds.binning as binning_mod
from calbounds.binning import _BLOCK, _MAX_CELLS, _dataset_sums, _sums, _uniform_edges, _unique


def quiet_umb(scores, B):
    """umb_scheme with its tied-score collapse warning silenced."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return umb_scheme(scores, B)


def tight_pair(floats):
    """Edges 3/8 and 3/8 + 1/cap, the upper one moved up (+) or down (-) by that many floats."""
    upper = 0.375 + 1.0 / _MAX_CELLS
    for _ in range(abs(floats)):
        upper = np.nextafter(upper, 2.0 if floats > 0 else 0.0)
    return [0.375, float(upper)]


def scheme_of(method, B, scores):
    """A scheme of one kind: "uwb" (B bins), "umb" (on the scores), or one with no
    table. Crowded UMB edges sit 2**-29 apart, closer than 1/_MAX_CELLS, as do the
    packed ones (3/8 and 3/8 + 1/cap less a float)."""
    if method == "uwb":
        return uwb_scheme(B)
    if method == "umb":
        return quiet_umb(scores, B)
    if method == "crowded":  # two interior edges at least
        crowd = 0.5 + np.arange(2 * max(B, 3)) * 2.0**-30
        return quiet_umb(np.concatenate([crowd, crowd]), max(B, 3))
    return BinningScheme([0.0, *tight_pair(-1), 1.0], "umb")


class TestUwbScheme:
    def test_single_bin(self):
        s = uwb_scheme(1)
        assert tuple(s.edges) == (0.0, 1.0)

    def test_equal_widths(self):
        s = uwb_scheme(4)
        assert tuple(s.edges) == (0.0, 0.25, 0.5, 0.75, 1.0)

    def test_zero_bins(self):
        with pytest.raises(ValueError):
            uwb_scheme(0)

    @pytest.mark.parametrize("B", [2.5, 4.0, True, "4", None])
    def test_non_integer_bins_rejected(self, B):
        with pytest.raises(ValueError, match="B must be an integer"):
            uwb_scheme(B)

    def test_numpy_integer_bins_accepted(self):
        assert np.array_equal(uwb_scheme(np.int64(4)).edges, uwb_scheme(4).edges)

    @given(st.integers(min_value=1, max_value=500))
    @settings(max_examples=50, deadline=None)
    def test_edges_exactly_i_over_b(self, B):
        s = uwb_scheme(B)
        assert s.B == B
        for i in range(B + 1):
            assert s.edges[i] == i / B


class TestUmbScheme:
    def test_order_statistic_edges(self):
        s = umb_scheme([0.1, 0.2, 0.3, 0.4], B=2)
        assert tuple(s.edges) == (0.0, 0.2, 1.0)
        assert not s.collapsed

    def test_all_tied_collapses_to_one_bin(self):
        with pytest.warns(UserWarning, match="collapsed"):
            s = umb_scheme([0.5, 0.5, 0.5, 0.5], B=2)
        assert s.B == 1
        assert s.collapsed

    def test_requires_2b_samples(self):
        with pytest.raises(ValueError, match="2B"):
            umb_scheme(np.linspace(0.1, 0.9, 10), B=6)

    @pytest.mark.parametrize("B", [2.5, 4.0, True, "4", None])
    def test_non_integer_bins_rejected(self, B):
        with pytest.raises(ValueError, match="B must be an integer"):
            umb_scheme(np.linspace(0.0, 1.0, 1000), B)

    @pytest.mark.parametrize("shape", [(10, 100), (1000, 1), ()])
    def test_non_1d_scores_rejected(self, shape):
        scores = np.linspace(0.0, 1.0, 1000)[:1 if shape == () else None].reshape(shape)
        with pytest.raises(ValueError, match="scores must be a 1-d array"):
            umb_scheme(scores, 4)

    def test_numpy_integer_bins_accepted(self):
        scores = np.linspace(0.0, 1.0, 1000)
        s = umb_scheme(scores, np.int32(4))
        assert np.array_equal(s.edges, umb_scheme(scores, 4).edges)
        assert s.collapsed is False
        with pytest.warns(UserWarning, match="collapsed"):
            assert umb_scheme(np.full(8, 0.5), np.int64(2)).collapsed is True

    def test_nan_score_rejected(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            umb_scheme([0.1, np.nan, 0.3, 0.4], B=2)

    def test_duplicate_interior_edges_merge(self):
        scores = [0.1, 0.5, 0.5, 0.5, 0.5, 0.9]
        with pytest.warns(UserWarning, match="collapsed"):
            s = umb_scheme(scores, B=3)
        assert s.B < 3
        # Every remaining bin holds at least one construction score.
        idx = assign(s, np.asarray(scores)) - 1
        assert set(idx) == set(range(s.B))

    @given(
        st.lists(st.integers(min_value=0, max_value=6), min_size=2, max_size=80),
        st.integers(min_value=1, max_value=40),
        st.sampled_from([1, 2, 3, 6]),
    )
    @settings(max_examples=300, deadline=None)
    def test_every_bin_holds_a_construction_score(self, ticks, B, grid):
        # Heavily tied scores on a coarse grid that includes exact 0s and 1s.
        scores = np.minimum(np.asarray(ticks, dtype=np.float64), grid) / grid
        B = min(B, scores.size // 2)
        s = quiet_umb(scores, B)
        counts = np.bincount(assign(s, scores) - 1, minlength=s.B)
        assert counts.min() >= 1
        assert s.collapsed == (s.B < B)

    def test_umb_mass_counts_formula(self):
        rng = np.random.default_rng(0)
        for trial in range(50):
            n = int(rng.integers(8, 200))
            B = int(rng.integers(1, n // 2 + 1))
            scores = rng.permutation(np.linspace(0.01, 0.99, n))
            s = umb_scheme(scores, B)
            assert not s.collapsed
            idx = assign(s, scores) - 1
            counts = np.bincount(idx, minlength=B)
            expected = np.array(
                [(n * b) // B - (n * (b - 1)) // B for b in range(1, B + 1)]
            )
            assert np.array_equal(counts, expected)
            assert counts.max() - counts.min() <= 1


# Ties, 0.0 and -0.0 in either order, and any other float but NaN.
TIED_FLOATS = st.one_of(st.sampled_from([0.0, -0.0, 0.5, 1.0, -1.0]), st.floats(allow_nan=False))


class TestUnique:
    @given(arrays(np.float64, st.integers(0, 80), elements=TIED_FLOATS))
    @settings(max_examples=300, deadline=None)
    def test_equals_np_unique_byte_for_byte(self, values):
        got, want = _unique(values), np.unique(values)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        got, want = _unique(values, indices=True), np.unique(values, return_index=True,
                                                            return_inverse=True)
        for g, w in zip(got, want, strict=True):
            assert g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes()

    def test_indices_keep_the_first_occurrence(self):
        values, first, inverse = _unique(np.array([-0.0, 0.0, 0.5, 0.0]), indices=True)
        assert values.tobytes() == np.array([-0.0, 0.5]).tobytes()
        assert first.tolist() == [0, 2] and inverse.tolist() == [0, 0, 1, 0]

    def test_one_element(self):
        for v in (-0.0, 0.0, 0.3):
            assert _unique(np.array([v])).tobytes() == np.array([v]).tobytes()


class TestAssign:
    def test_right_closed_boundary(self):
        s = uwb_scheme(4)
        assert assign(s, 0.25) == 1
        assert assign(s, 0.2500001) == 2

    def test_zero_maps_to_first_bin(self):
        s = uwb_scheme(4)
        assert assign(s, 0.0) == 1

    def test_one_maps_to_last_bin(self):
        s = uwb_scheme(4)
        assert assign(s, 1.0) == 4

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            assign(uwb_scheme(2), 1.5)

    @pytest.mark.parametrize("score", [np.nan, [np.nan, 0.5], [0.5, np.nan]])
    def test_nan_rejected(self, score):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            assign(uwb_scheme(5), score)

    def test_empty_input(self):
        assert assign(uwb_scheme(5), []).shape == (0,)

    def test_total_function_on_grid(self):
        rng = np.random.default_rng(3)
        grid = np.linspace(0.0, 1.0, 10_000)
        for _ in range(5):
            interior = np.sort(rng.uniform(0.05, 0.95, size=6))
            s = BinningScheme(np.concatenate(([0.0], interior, [1.0])), "uwb")
            idx = assign(s, grid)
            assert np.all((idx >= 1) & (idx <= s.B))
            # Each grid point sits inside its assigned interval.
            assert np.all(grid <= s.edges[idx])
            positive = grid > 0
            assert np.all(grid[positive] > s.edges[idx[positive] - 1])

    @given(
        st.integers(min_value=1, max_value=400),
        st.sampled_from(["uwb", "umb"]),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_uniform_index_equals_searchsorted(self, B, method, seed):
        # Every edge i/B and its float neighbours on both sides, 0 and 1, then
        # random scores up to a length of more than two blocks, not a multiple
        # of the block size.
        s = uwb_scheme(B) if method == "uwb" else BinningScheme(_uniform_edges(B), "umb")
        edges = s.edges
        special = np.concatenate([edges, np.nextafter(edges, 2.0), np.nextafter(edges, -1.0), [0.0, 1.0]])
        special = special[(special >= 0.0) & (special <= 1.0)]
        rng = np.random.default_rng(seed)
        n = 2 * _BLOCK + 1_000
        scores = rng.permutation(np.concatenate([special, rng.uniform(size=n - special.size)]))
        want = np.maximum(np.searchsorted(edges, scores, "left"), 1)
        assert np.array_equal(assign(s, scores), want)
        assert np.array_equal(assign(s, scores.reshape(2, -1)), want.reshape(2, -1))


    @given(
        st.one_of(
            st.lists(st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
                     max_size=40, unique=True),
            st.tuples(
                st.integers(min_value=1, max_value=14),
                st.sets(st.integers(min_value=1, max_value=2**14), max_size=40),
            ).map(lambda p: [k / 2**p[0] for k in p[1] if k < 2**p[0]]),
        ),
        st.sampled_from([None, -1, 0, 1]),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_table_index_equals_searchsorted(self, interior, tight, seed):
        # Arbitrary interior edges: random, or dyadic k/2**p, which lie exactly
        # on cell boundaries c/G. `tight` adds the edges 3/8 and 3/8 + 1/cap,
        # the latter moved by that many floats, so the smallest gap can sit on
        # either side of 1/cap and both the table and binary search run.
        if tight is not None:
            interior = [*interior, *tight_pair(tight)]
        s = BinningScheme(np.unique(np.concatenate(([0.0], interior, [1.0]))), "umb")
        edges = s.edges
        special = np.concatenate([edges, np.nextafter(edges, 2.0), np.nextafter(edges, -1.0), [0.0, 1.0]])
        special = special[(special >= 0.0) & (special <= 1.0)]
        rng = np.random.default_rng(seed)
        n = 2 * _BLOCK + 1_000
        scores = rng.permutation(np.concatenate([special, rng.uniform(size=n - special.size)]))
        want = np.maximum(np.searchsorted(edges, scores, "left"), 1)
        assert np.array_equal(assign(s, scores), want)
        assert np.array_equal(assign(s, scores.reshape(2, -1)), want.reshape(2, -1))
        # Lengths either side of G (the table only runs from G scores on) and of the block.
        G = s._cells
        for m in {G - 1, G, G + 1, _BLOCK - 1, _BLOCK, _BLOCK + 1}:
            if 0 <= m <= n:
                assert np.array_equal(assign(s, scores[:m]), want[:m])
        for x in special:
            assert assign(s, x) == max(np.searchsorted(edges, x, "left"), 1)

    @given(
        st.integers(min_value=1, max_value=64),
        st.integers(min_value=1, max_value=40),
        st.sampled_from(["uwb", "umb", "crowded", "packed"]),
        st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=200),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_blocks_equal_searchsorted_of_upper_edges(self, block, B, method, extra, seed):
        # With _BLOCK patched to 1..64, blocks of at least G scores read the table
        # (G <= 64 for uniform width at B <= 40) and a shorter tail takes binary
        # search, within one call. Scores sit at 0, -0, 1, every edge and its
        # float neighbours.
        rng = np.random.default_rng(seed)
        grid = _uniform_edges(B)
        scores = np.concatenate([grid, grid, [0.0, 1.0], extra])
        s = scheme_of(method, B, scores)
        near = np.concatenate([s.edges, np.nextafter(s.edges, 2.0), np.nextafter(s.edges, -1.0)])
        scores = rng.permutation(np.concatenate([scores, [-0.0], np.clip(near, 0.0, 1.0)]))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(binning_mod, "_BLOCK", block)
            got = list(binning_mod._blocks(s, scores))
        assert [lo for lo, _, _ in got] == list(range(0, scores.size, block))
        assert ("_table" in vars(s)) == (0 < s._cells <= min(block, scores.size))
        want = np.searchsorted(s.edges[1:], scores, "left")
        for lo, z, j in got:
            assert z.tobytes() == scores[lo:lo + block].tobytes()
            assert j.dtype == np.intp and np.array_equal(j, want[lo:lo + block])

    def test_peak_memory_is_output_plus_a_few_blocks(self):
        # assign writes its output a block at a time: beside it live only a few
        # blocks' index and table temporaries, whether the table or binary search
        # runs. A second index of all 400,000 scores (24 blocks) would not fit.
        scores = np.random.default_rng(4).uniform(size=400_000)
        for s in (uwb_scheme(15), scheme_of("packed", 3, scores)):
            assign(s, scores)  # a first call builds the scheme's cell table
            tracemalloc.start()
            try:
                out = assign(s, scores)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= out.nbytes + 5 * _BLOCK * np.dtype(np.intp).itemsize

    def test_cell_count(self):
        # The smallest power of two G with G * min gap > 1, or 0 past the cap.
        assert uwb_scheme(1)._cells == 2
        assert uwb_scheme(15)._cells == 16
        assert uwb_scheme(16)._cells == 32  # a gap of exactly 1/16 needs G = 32
        for tight, G in [(1, _MAX_CELLS), (0, 0), (-1, 0)]:
            assert BinningScheme([0.0, *tight_pair(tight), 1.0], "umb")._cells == G

    def test_short_input_builds_no_table(self):
        s = uwb_scheme(15)
        assert assign(s, 0.3) == 5
        assert assign(s, np.linspace(0.0, 1.0, s._cells - 1)).shape == (15,)
        assert "_table" not in vars(s)
        assign(s, np.linspace(0.0, 1.0, s._cells))
        assert "_table" in vars(s)
        far = BinningScheme([0.0, 0.5, 0.5 + 1e-9, 1.0], "umb")
        assign(far, np.linspace(0.0, 1.0, 2 * _MAX_CELLS))
        assert far._cells == 0 and "_table" not in vars(far)


def mask_loop_sums(edges, scores, weights):
    """Per-bin counts and sequential weight sums from explicit interval masks."""
    counts, sums = [], [[] for _ in weights]
    for i in range(1, edges.size):
        inside = (edges[i - 1] < scores) & (scores <= edges[i])
        if i == 1:
            inside |= scores == 0.0
        counts.append(int(np.count_nonzero(inside)))
        for j, w in enumerate(weights):
            sums[j].append(functools.reduce(operator.add, w[inside].tolist(), 0.0))
    return counts, sums


class TestBinSums:
    def test_hand_example(self):
        scores = np.array([0.0, 0.25, 0.3, 1.0])
        counts, score_sums, label_sums = _sums(uwb_scheme(4), scores, np.array([1, 0, 1, 1]))
        assert counts.dtype == np.int64
        assert counts.tolist() == [2, 1, 0, 1]
        assert score_sums.tolist() == [0.25, 0.3, 0.0, 1.0]
        assert label_sums.tolist() == [1.0, 1.0, 0.0, 1.0]

    @given(
        st.one_of(st.sampled_from([1, 2, 3, 10, 35, 49]), st.integers(min_value=1, max_value=60)),
        st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=60),
        st.sampled_from(["uwb", "umb"]),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_equals_mask_loop(self, B, extra, method, seed):
        # Every exact edge i/B (twice, so UMB has 2B scores), plus 0, 1 and
        # arbitrary scores. At B = 35, (29/35)*35 rounds above 29.
        grid = np.arange(B + 1, dtype=np.float64) / B
        scores = np.concatenate([grid, grid, [0.0, 1.0], extra])
        s = uwb_scheme(B) if method == "uwb" else quiet_umb(scores, B)
        labels = np.random.default_rng(seed).integers(0, 2, size=scores.size)
        counts, score_sums, label_sums = _sums(s, scores, labels)
        want_counts, (want_scores, want_labels) = mask_loop_sums(
            s.edges, scores, [scores, labels.astype(np.float64)]
        )
        assert counts.tolist() == want_counts
        assert score_sums.tolist() == want_scores
        assert label_sums.tolist() == want_labels

    @given(
        st.one_of(st.integers(min_value=1, max_value=64), st.none()),
        st.integers(min_value=1, max_value=40),
        st.sampled_from(["uwb", "umb", "crowded", "packed"]),
        st.sampled_from([np.int8, np.int64]),
        st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=200),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_blocks_equal_one_bincount(self, block, B, method, label_type, extra, seed):
        # Blocks add through np.add.at, which must keep the bits of one bincount
        # over all scores: with _BLOCK patched to 1..64, and unpatched (None) over
        # more than _BLOCK scores. Scores sit at 0, 1, every edge and its float
        # neighbours. Crowded and packed schemes have no table, so every block
        # takes binary search.
        rng = np.random.default_rng(seed)
        grid = np.arange(B + 1, dtype=np.float64) / B
        scores = np.concatenate([grid, grid, [0.0, 1.0], extra])
        if block is None:
            scores = np.concatenate([scores, rng.uniform(size=int(rng.integers(_BLOCK, 3 * _BLOCK)))])
        s = scheme_of(method, B, scores)
        assert s._cells == 0 or method in ("uwb", "umb")
        near = np.concatenate([s.edges, np.nextafter(s.edges, 2.0), np.nextafter(s.edges, -1.0)])
        scores = rng.permutation(np.concatenate([scores, np.clip(near, 0.0, 1.0)]))
        assert block is not None or scores.size > _BLOCK
        labels = rng.integers(0, 2, size=scores.size).astype(label_type)
        idx = np.maximum(np.searchsorted(s.edges, scores, "left"), 1) - 1
        want = [np.bincount(idx, minlength=s.B).astype(np.int64)]
        want += [np.bincount(idx, weights=w, minlength=s.B) for w in (scores, labels)]
        with pytest.MonkeyPatch.context() as mp:
            if block is not None:
                mp.setattr(binning_mod, "_BLOCK", block)
            got = _sums(s, scores, labels)
            kept = _dataset_sums(s, ScoredDataset(scores, labels))
        for g, k, w in zip(got, kept, want, strict=True):
            assert g.dtype == k.dtype == w.dtype
            assert g.tobytes() == k.tobytes() == w.tobytes()

    def test_peak_memory_is_a_few_blocks(self):
        # One block's index at a time: reducing the whole input at once held
        # 15.3 MB of temporaries at n = 1e6.
        n = 1_000_000
        rng = np.random.default_rng(3)
        scores, labels = rng.uniform(size=n), rng.integers(0, 2, size=n)
        scheme = uwb_scheme(15)
        tracemalloc.start()
        try:
            _sums(scheme, scores, labels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestBinStats:
    def test_single_bin_means(self):
        d = ScoredDataset([0.3, 0.3, 0.3], [0, 0, 1])
        stats = bin_stats(uwb_scheme(1), d)
        assert stats.counts[0] == 3
        assert stats.mean_scores[0] == pytest.approx(0.3)
        assert stats.mean_labels[0] == pytest.approx(1 / 3)
        assert stats.masses[0] == 1.0

    def test_empty_bins_have_zero_mass_and_nan_means(self):
        d = ScoredDataset([0.3, 0.35, 0.4], [1, 0, 1])
        stats = bin_stats(uwb_scheme(4), d)
        assert stats.counts[0] == 0 and stats.counts[2] == 0 and stats.counts[3] == 0
        assert stats.masses[0] == 0.0
        assert np.isnan(stats.mean_scores[0])

    def test_one_sample(self):
        d = ScoredDataset([0.9], [1])
        stats = bin_stats(uwb_scheme(2), d)
        assert stats.counts[1] == 1
        assert stats.mean_scores[1] == 0.9
        assert stats.mean_labels[1] == 1.0

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
                st.integers(min_value=0, max_value=1),
            ),
            min_size=1,
            max_size=200,
        ),
        st.integers(min_value=1, max_value=30),
        st.sampled_from(["uwb", "umb"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_masses_sum_to_one_counts_to_n(self, pairs, B, method):
        d = ScoredDataset([p[0] for p in pairs], [p[1] for p in pairs])
        if method == "uwb":
            scheme = uwb_scheme(B)
        else:  # each score taken twice meets UMB's n_e >= 2B for every B <= n
            scheme = quiet_umb(np.repeat(d.scores, 2), min(B, len(d)))
        stats = bin_stats(scheme, d)
        assert stats.counts.sum() == len(d)
        assert abs(stats.masses.sum() - 1.0) < 1e-12
        again = bin_stats(scheme, d)
        fresh = _sums(scheme, d.scores.copy(), d.labels.copy())
        for kept, computed in zip(_dataset_sums(scheme, d), fresh):
            assert kept.tobytes() == computed.tobytes()
        for name in ("counts", "mean_scores", "mean_labels", "masses"):
            assert getattr(again, name).tobytes() == getattr(stats, name).tobytes()

    def test_arrays_are_read_only(self):
        d = ScoredDataset([0.2, 0.8], [0, 1])
        stats = bin_stats(uwb_scheme(2), d)
        for arr in (stats.counts, stats.mean_scores, stats.mean_labels, stats.masses):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1
        with pytest.raises(ValueError, match="read-only"):
            _dataset_sums(uwb_scheme(2), d)[0][0] = 1


class TestDatasetSums:
    @given(
        st.integers(min_value=_BLOCK + 1, max_value=3 * _BLOCK),
        st.integers(min_value=1, max_value=40),
        st.sampled_from(["uwb", "umb", "crowded", "packed"]),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_fused_pass_equals_bin_sums(self, n, B, method, seed):
        # The dataset's kept sums over its int8 labels have the bits of _sums
        # over int64 labels and of one np.bincount. Crowded and packed schemes
        # have no table, so every block takes binary search.
        rng = np.random.default_rng(seed)
        scores = rng.uniform(size=n)
        s = scheme_of(method, B, scores)
        assert (s._cells == 0) == (method in ("crowded", "packed"))
        near = np.concatenate([s.edges, np.nextafter(s.edges, 2.0), np.nextafter(s.edges, -1.0)])
        scores[rng.integers(0, n, size=near.size)] = np.clip(near, 0.0, 1.0)
        d = ScoredDataset(scores, rng.integers(0, 2, size=n))
        labels = d.labels.astype(np.int64)
        idx = np.maximum(np.searchsorted(s.edges, d.scores, "left"), 1) - 1
        want = [np.bincount(idx, minlength=s.B).astype(np.int64)]
        want += [np.bincount(idx, weights=w, minlength=s.B) for w in (d.scores, labels)]
        for got, one, w in zip(_dataset_sums(s, d), _sums(s, d.scores, labels), want, strict=True):
            assert got.dtype == one.dtype == w.dtype
            assert got.tobytes() == one.tobytes() == w.tobytes()


class TestBinOnce:
    """A dataset is binned once per scheme; the cross-check paths bin every time."""

    def test_each_dataset_scheme_pair_binned_once(self, assign_calls):
        d = ScoredDataset(np.linspace(0.0, 1.0, 50), np.arange(50) % 2)
        d2 = ScoredDataset(np.linspace(0.1, 0.9, 30), np.arange(30) % 3 == 0)
        s = uwb_scheme(5)
        ece(d, s)
        ece_gap(d2, d, s)
        bin_stats(s, d)
        assert [n for _, n in assign_calls] == [50, 30]
        ece_reformulated(d, s)
        assert [n for _, n in assign_calls] == [50, 30, 50]

    def test_entry_dies_with_its_scheme(self):
        d = ScoredDataset([0.2, 0.4, 0.8], [0, 1, 1])
        scheme = uwb_scheme(3)
        ece(d, scheme)
        assert len(d._sums_by_scheme) == 1
        del scheme
        gc.collect()
        assert len(d._sums_by_scheme) == 0


class TestSchemeSerialization:
    """Edge and flag checks of a directly constructed scheme."""

    def test_nan_interior_edge_rejected(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            BinningScheme([0.0, np.nan, 1.0], "umb")

    @pytest.mark.parametrize("edges", [["0", "0.5", "1"], [False, True], [0.0, None, 1.0]])
    def test_non_numeric_edges_rejected(self, edges):
        with pytest.raises(ValueError, match="edges must be numbers"):
            BinningScheme(edges, "umb")

    @pytest.mark.parametrize("collapsed", ["no", 0, 1, None])
    def test_non_bool_collapsed_rejected(self, collapsed):
        with pytest.raises(ValueError, match="collapsed must be a bool"):
            BinningScheme([0.0, 0.5, 1.0], "umb", collapsed=collapsed)

    def test_invalid_edges_rejected(self):
        with pytest.raises(ValueError):
            BinningScheme(np.array([0.0, 0.5, 0.5, 1.0]), "uwb")
        with pytest.raises(ValueError):
            BinningScheme(np.array([0.1, 1.0]), "uwb")


def test_array_holders_compare_and_hash_by_identity():
    s, twin = uwb_scheme(3), uwb_scheme(3)
    d = ScoredDataset([0.2, 0.8], [0, 1])
    assert s == s and s != twin and s != uwb_scheme(4)
    assert len({s, twin}) == 2
    stats = bin_stats(s, d)
    recal = Recalibrator(s, [0.5, 0.5, 0.5])
    assert stats == stats and stats != bin_stats(s, d) and {stats, recal}
    assert recal != Recalibrator(s, [0.5, 0.5, 0.5])
    assert ece(d, s) == ece(d, twin)  # an EceValue holds only its value


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: BinningScheme(np.array([0.0]), "uwb"), "edges must hold at least two values"),
        (lambda: BinningScheme(np.array([0.0, 1.0]), "quantile"), "unknown binning method: quantile"),
    ],
    ids=["single edge", "unknown method"],
)
def test_boundary_errors(make, message):
    with pytest.raises(ValueError) as e:
        make()
    assert str(e.value) == message
