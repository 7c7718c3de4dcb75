"""Mutual-information estimators and the supersample mask experiment."""

import math
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.spatial import cKDTree
from scipy.special import digamma, logit

from calbounds import (
    CmiExperimentConfig,
    ScoredDataset,
    Supersample,
    TrainerConfig,
    assign,
    bin_stats,
    ece_gap,
    ksg_mixed_mi,
    logistic_predict,
    plugin_mi,
    run_cmi_experiment,
    sample_synthetic,
    train_logistic,
    umb_scheme,
    uwb_scheme,
)
import calbounds.mi as mi_mod
from calbounds.mi import STATISTICS, _cell_statistics
from calbounds.rng import child_seed, stream

LN2 = math.log(2.0)


def scored_halves(s, predict=lambda x: x):
    """(training scores, labels, complement scores, labels) of ``s`` scored by ``predict``
    (default: values are scores)."""
    (x_tr, y_tr), (x_te, y_te) = s.split(), s.split(flipped=True)
    return predict(x_tr), y_tr, predict(x_te), y_te


def constant(level=0.7):
    """A predictor that ignores its input."""
    return lambda x: np.full(np.shape(x), level)


def logistic_halves(s, cfg, seed=0):
    """Train with ``cfg`` from ``seed`` on the training half of ``s``; score both halves."""
    model = train_logistic(s.split(), cfg, seed)
    return scored_halves(s, lambda x: np.clip(logistic_predict(model, x), 0.0, 1.0))


def reference_ksg(values, labels, k):
    """``ksg_mixed_mi``'s value, one Python loop over the points of the full m x m distance matrix."""
    pts = mi_mod._as_points(values)
    codes = mi_mod._label_codes(labels)
    keep = np.bincount(codes)[codes] > 1
    pts = pts[keep]
    codes = codes[keep]
    m = pts.shape[0]

    dist = np.max(np.abs(pts[:, None, :] - pts[None, :, :]), axis=2)

    psi_k = np.empty(m)
    psi_nx = np.empty(m)
    psi_m = np.empty(m)
    class_sizes = np.bincount(codes)
    idx_all = np.arange(m)
    for i in range(m):
        same = idx_all[(codes == codes[i]) & (idx_all != i)]
        k_i = min(k, same.size)
        order = same[np.lexsort((same, dist[i, same]))]
        kth = order[k_i - 1]
        radius = dist[i, kth]
        d_row = dist[i]
        within = (d_row < radius) | ((d_row == radius) & (idx_all <= kth))
        within[i] = False
        m_i = int(np.count_nonzero(within))
        psi_k[i] = digamma(k_i)
        psi_nx[i] = digamma(class_sizes[codes[i]])
        psi_m[i] = digamma(max(m_i, 1))
    return float(digamma(m) + np.mean(psi_k) - np.mean(psi_nx) - np.mean(psi_m))


def kdtree_ksg(values, labels, k):
    """The per-label estimator on scipy's k-d tree, for inputs without distance ties."""
    pts = mi_mod._as_points(values)
    codes = mi_mod._label_codes(labels)
    keep = np.bincount(codes)[codes] > 1
    pts = pts[keep]
    codes = codes[keep]
    tree = cKDTree(pts)
    k_i, n_x, m_i = [], [], []
    for label in np.unique(codes):
        own = pts[codes == label]
        k_c = min(k, own.shape[0] - 1)
        radius = cKDTree(own).query(own, k=[k_c + 1], p=np.inf)[0][:, 0]  # the first hit is the point
        k_i.append(np.full(own.shape[0], k_c))
        n_x.append(np.full(own.shape[0], own.shape[0]))
        # Points strictly inside the radius, the point itself included: untied, that is the
        # other points inside it plus the k-th neighbor on its boundary.
        m_i.append(tree.query_ball_point(own, np.nextafter(radius, 0), p=np.inf, return_length=True))
    psi_k, psi_nx, psi_m = (np.mean(digamma(np.concatenate(a))) for a in (k_i, n_x, m_i))
    return float(digamma(pts.shape[0]) + psi_k - psi_nx - psi_m)


class TestKsgMixedMi:
    def test_independent_inputs_near_zero(self):
        rng = np.random.default_rng(2)
        values = rng.uniform(size=2000)
        labels = rng.integers(0, 2, size=2000)
        est = ksg_mixed_mi(values, labels, k=3)
        assert abs(est.value) < 0.05

    def test_deterministic_binary_relation_near_ln2(self):
        rng = np.random.default_rng(3)
        labels = np.repeat([0, 1], 1000)
        values = labels + rng.normal(0, 1e-6, size=2000)
        est = ksg_mixed_mi(values, labels, k=3)
        assert abs(est.value - LN2) < 0.05

    def test_agrees_with_plugin_oracle(self):
        rng = np.random.default_rng(5)
        v = rng.normal(size=2000)
        labels = (v + rng.normal(0, 1.0, size=2000) > 0).astype(int)
        knn = ksg_mixed_mi(v, labels, k=3)
        plug = plugin_mi(v, labels, bins=8)
        assert abs(knn.value - plug.value) < 0.08

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(7)
        v = rng.uniform(0.1, 2.0, size=2000)
        labels = (v + rng.normal(0, 0.5, size=2000) > 1.0).astype(int)
        direct = ksg_mixed_mi(v, labels, k=3)
        cubed = ksg_mixed_mi(v**3, labels, k=3)
        assert abs(direct.value - cubed.value) < 0.03

    def test_single_label_is_zero_with_warning(self):
        with pytest.warns(UserWarning):
            est = ksg_mixed_mi(np.linspace(0, 1, 50), np.zeros(50, dtype=int), k=3)
        assert est.value == 0.0

    def test_all_singleton_labels_zero_with_warning(self):
        with pytest.warns(UserWarning):
            est = ksg_mixed_mi(np.linspace(0, 1, 10), np.arange(10), k=3)
        assert est.value == 0.0

    def test_insufficient_pairs(self):
        with pytest.raises(ValueError, match="insufficient pairs"):
            ksg_mixed_mi([0.1, 0.2, 0.3], [0, 1, 0], k=3)

    def test_non_finite_values_rejected(self):
        rng = np.random.default_rng(0)
        values, labels = rng.uniform(size=200), rng.integers(0, 4, size=200)
        values[:20] = np.nan
        with pytest.raises(ValueError, match="values must be finite"):
            ksg_mixed_mi(values, labels, k=3)

    def test_clamped_copy(self):
        rng = np.random.default_rng(11)
        est = ksg_mixed_mi(rng.uniform(size=500), rng.integers(0, 2, size=500), k=3)
        assert est.clamped == max(est.value, 0.0)

    def test_tied_values_deterministic(self):
        values = np.repeat(np.linspace(0, 1, 20), 5)
        labels = np.tile([0, 1], 50)
        a = ksg_mixed_mi(values, labels, k=3)
        b = ksg_mixed_mi(values, labels, k=3)
        assert a.value == b.value

    def test_vector_values_max_norm(self):
        # Two-dimensional statistics: the informative coordinate dominates.
        rng = np.random.default_rng(31)
        labels = rng.integers(0, 2, size=1000)
        informative = labels + rng.normal(0, 0.2, size=1000)
        noise = rng.normal(0, 0.2, size=1000)
        vec = np.column_stack([informative, noise])
        est = ksg_mixed_mi(vec, labels, k=3)
        assert est.value > 0.3

    def test_matches_reference_knn_implementation(self):
        # scikit-learn ships the same mixed-type estimator; where it is
        # installed, the two should agree to estimator-noise precision.
        sklearn_fs = pytest.importorskip("sklearn.feature_selection")
        rng = np.random.default_rng(0)
        cases = []
        cases.append((rng.uniform(size=2000), rng.integers(0, 2, size=2000)))
        u = rng.integers(0, 2, size=2000)
        cases.append((rng.normal(1.2 * u, 1.0), u))
        for v, u in cases:
            mine = ksg_mixed_mi(v, u, k=3).value
            ref = sklearn_fs.mutual_info_classif(
                v.reshape(-1, 1), u, n_neighbors=3, discrete_features=False,
                random_state=0,
            )[0]
            # The reference clamps at 0, so compare after clamping.
            assert abs(max(mine, 0.0) - ref) < 0.01

    def test_matches_kdtree_reference(self):
        # Continuous values have no distance ties, so the tie rule never applies.
        rng = np.random.default_rng(41)
        for _ in range(30):
            n, dim, k = int(rng.integers(20, 400)), int(rng.integers(1, 4)), int(rng.integers(1, 6))
            labels = rng.integers(0, int(rng.integers(2, 12)), size=n)
            values = rng.normal(0.3 * labels[:, None], 1.0, size=(n, dim))
            assert ksg_mixed_mi(values, labels, k).value == pytest.approx(
                kdtree_ksg(values, labels, k), abs=1e-12
            )


class TestKsgEqualsPerPointReference:
    """The per-label block search returns exactly the per-point loop's float."""

    @given(
        data=st.data(),
        k=st.integers(1, 5),
        dim=st.integers(1, 3),
        sizes=st.lists(st.integers(1, 8), min_size=2, max_size=8),
        decimals=st.sampled_from([0, 1, None]),
    )
    @settings(max_examples=200, deadline=None)
    def test_equals_reference(self, data, k, dim, sizes, decimals):
        assume(sum(sizes) >= k + 2 and max(sizes) >= 2)  # at least one label keeps its points
        n = sum(sizes)
        labels = data.draw(st.permutations(np.repeat(np.arange(len(sizes)), sizes).tolist()))
        point = st.lists(st.floats(-3, 3), min_size=dim, max_size=dim)
        values = np.array(data.draw(st.lists(point, min_size=n, max_size=n)))
        if decimals is not None:  # rounded values tie, down to zero radii
            values = np.round(values, decimals)
        if dim == 1 and data.draw(st.booleans()):
            values = values[:, 0]
        assert ksg_mixed_mi(values, labels, k).value == reference_ksg(values, labels, k)

    def test_label_larger_than_a_block(self):
        n = 2 * mi_mod._ROWS + 100
        labels = (np.arange(n) % 3 == 0).astype(int)
        assert np.count_nonzero(labels == 0) > mi_mod._ROWS  # its search runs in two blocks
        values = np.round(np.random.default_rng(43).normal(size=(n, 2)), 1)
        assert ksg_mixed_mi(values, labels, 3).value == reference_ksg(values, labels, 3)

    @pytest.mark.parametrize("dim", [1, 3])
    def test_label_larger_than_a_block_in_dim(self, dim):
        n = 2 * mi_mod._ROWS + 100
        labels = (np.arange(n) % 3 == 0).astype(int)
        values = np.round(np.random.default_rng(43).normal(size=(n, dim)), 1)
        if dim == 1:
            values = values[:, 0]
        assert ksg_mixed_mi(values, labels, 3).value == reference_ksg(values, labels, 3)

    @given(
        data=st.data(),
        k=st.integers(1, 5),
        dim=st.integers(1, 3),
        sizes=st.lists(st.integers(2, 40), min_size=2, max_size=4),
        decimals=st.sampled_from([0, 1]),
    )
    @settings(max_examples=100, deadline=None)
    def test_partition_tie_break_equals_reference(self, data, k, dim, sizes, decimals):
        # Classes of up to 40 points on a coarse grid: many members sit inside and
        # exactly at a radius, so the k-th neighbor is often a later tie at it.
        n = sum(sizes)
        assume(n >= k + 2)
        labels = data.draw(st.permutations(np.repeat(np.arange(len(sizes)), sizes).tolist()))
        scale = 10**decimals
        grid = st.integers(-3 * scale, 3 * scale)
        values = data.draw(arrays(np.int64, (n, dim), elements=grid)) / scale
        assert ksg_mixed_mi(values, labels, k).value == reference_ksg(values, labels, k)

    @pytest.mark.parametrize("sweep", [1, 3])
    @pytest.mark.parametrize("dim", [1, 3])
    def test_several_all_label_blocks(self, monkeypatch, sweep, dim):
        # A budget of sweep * m distances splits the all-label phase into many blocks.
        n = 500
        labels = np.arange(n) % 3
        values = np.round(np.random.default_rng(53).normal(size=(n, dim)), 1)
        calls = []
        real = mi_mod._max_norm
        monkeypatch.setattr(mi_mod, "_SWEEP", sweep)
        monkeypatch.setattr(mi_mod, "_max_norm", lambda *a: calls.append(a) or real(*a))
        assert ksg_mixed_mi(values, labels, 3).value == reference_ksg(values, labels, 3)
        assert len(calls) - 3 >= 5  # one same-label block per label, then the all-label blocks

    @given(
        data=st.data(),
        k=st.integers(1, 4),
        dim=st.integers(1, 3),
        sizes=st.lists(st.integers(2, 12), min_size=2, max_size=4),
    )
    @settings(max_examples=100, deadline=None)
    def test_extreme_magnitudes_equal_reference(self, data, k, dim, sizes):
        # Coordinates near the largest double, tiny or subnormal, with scales up to
        # 1e630 apart: windows and counts see the same rounded differences.
        n = sum(sizes)
        assume(n >= k + 2)
        labels = data.draw(st.permutations(np.repeat(np.arange(len(sizes)), sizes).tolist()))
        scale = st.sampled_from([1e307, 1e100, 1.0, 1e-100, 1e-300, 1e-310, 5e-324])
        scales = np.array(data.draw(st.lists(scale, min_size=dim, max_size=dim)))
        digits = st.one_of(st.floats(-2.5, 2.5), st.integers(-2, 2).map(float))
        values = data.draw(arrays(np.float64, (n, dim), elements=digits)) * scales
        assert ksg_mixed_mi(values, labels, k).value == reference_ksg(values, labels, k)

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("decimals", [0, 1, None])
    def test_constant_first_coordinate(self, dim, decimals):
        # Sorting along the constant coordinate would make every window all m points.
        rng = np.random.default_rng(59)
        values = rng.normal(size=(300, dim))
        if decimals is not None:
            values = np.round(values, decimals)
        values[:, 0] = 7.0
        labels = rng.integers(0, 4, size=300)
        assert ksg_mixed_mi(values, labels, 3).value == reference_ksg(values, labels, 3)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_all_points_equal(self, k):
        values, labels = np.full((40, 2), -1.5), np.arange(40) % 3
        assert ksg_mixed_mi(values, labels, k).value == reference_ksg(values, labels, k)

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_cross_label_ties_at_the_radius(self, k, dim):
        # Each lattice site holds points of both labels in the order 0, 1, 1, 0: every
        # radius is 0 or a lattice step, with other-label points exactly at it on both
        # sides of the k-th neighbor's index.
        sites = np.stack(np.meshgrid(*[np.arange(6.0)] * dim, indexing="ij"), -1).reshape(-1, dim)
        values = np.repeat(sites, 4, axis=0)
        labels = np.tile([0, 1, 1, 0], len(sites))
        assert ksg_mixed_mi(values, labels, k).value == reference_ksg(values, labels, k)

    def test_peak_memory_two_blocks_of_distances(self):
        # Two float buffers of max(_ROWS * largest class, _SWEEP * m) distances shared by
        # both phases, a same-label block's masks, and in the all-label phase one gathered
        # coordinate and a few masks: under 3 * _ROWS * largest * 8 + 5 * _SWEEP * m * 8
        # bytes, whatever the dimension d.
        m, d = 3000, 8
        rng = np.random.default_rng(47)
        values, labels = rng.normal(size=(m, d)), rng.integers(0, 2, size=m)
        largest = np.bincount(labels).max()
        tracemalloc.start()
        try:
            ksg_mixed_mi(values, labels, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * mi_mod._ROWS * largest * 8 + 5 * mi_mod._SWEEP * m * 8 + 2**20

    @pytest.mark.parametrize("dim", [1, 2])
    def test_rejects_overflowing_distances(self, dim):
        # A max-norm difference of 1e308 and -1e308 overflows to inf, in any coordinate.
        values = np.zeros((6, dim))
        values[:, -1] = [1e308, 1e308, -1e308, -1e308, 0, 0]
        with pytest.raises(ValueError, match="max-norm distances overflow"):
            ksg_mixed_mi(values, [0, 0, 1, 1, 0, 1], 1)

    def test_huge_finite_distances(self):
        # Differences of +-1e307 stay finite; no point may be its own neighbor.
        values = np.array([1e307, 1e307, -1e307, -1e307, 0, 0])
        labels = [0, 0, 1, 1, 0, 1]
        assert ksg_mixed_mi(values, labels, 1).value == reference_ksg(values, labels, 1)


class TestDigamma:
    """``mi._digamma`` has scipy's bits at positive integers, on every numpy build: its
    log is ``math.log``, not numpy's dispatched kernel."""

    def test_bit_equal_to_two_million(self):
        n = np.arange(1, 2_000_001)
        assert mi_mod._digamma(n).tobytes() == digamma(n).tobytes()

    @given(base=st.integers(1, 30) | st.integers(1, 2**62),
           offsets=st.lists(st.integers(0, 40), min_size=1, max_size=60))
    @settings(max_examples=200, deadline=None)
    def test_bit_equal_either_side_of_ten(self, base, offsets):
        # _digamma evaluates every integer between the least and the greatest: a narrow span.
        n = base + np.array(offsets).reshape(-1, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = mi_mod._digamma(n)
        assert got.shape == n.shape and got.tobytes() == digamma(n).tobytes()

    @pytest.mark.parametrize("n", [1, 9, 10, 11, 547, 2**62])
    def test_scalars_keep_scipy_types(self, n):
        for arg in (n, np.int64(n), np.array(n)):
            got = mi_mod._digamma(arg)
            assert type(got) is np.float64 and got == digamma(arg)


class TestLabelCodes:
    @given(
        labels=st.one_of(
            arrays(np.int64, st.integers(0, 60), elements=st.integers(-(2**63), 2**63 - 1)),
            arrays(np.int64, st.integers(0, 60), elements=st.integers(-3, 3)),
            arrays(np.int8, st.integers(0, 60)),
            arrays(np.uint64, st.integers(0, 60), elements=st.integers(2**64 - 4, 2**64 - 1)),
            arrays(np.uint64, st.integers(0, 60)),
            arrays(np.bool_, st.integers(0, 60)),
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_array_codes_equal_hashable_codes(self, labels):
        # Reference: a label's code is the number of distinct labels seen before its first.
        first_seen: dict = {}
        reference = [first_seen.setdefault(lab, len(first_seen)) for lab in labels.tolist()]
        codes = mi_mod._label_codes(labels)
        assert codes.dtype == np.int64
        assert codes.tolist() == reference

    def test_first_appearance_order(self):
        assert mi_mod._label_codes(np.array([5, -1, 5, 9, -1])).tolist() == [0, 1, 0, 2, 1]
        assert mi_mod._label_codes(np.array([True, False, True])).tolist() == [0, 1, 0]
        assert mi_mod._label_codes([7, 3, 7]).tolist() == [0, 1, 0]
        assert mi_mod._label_codes([]).dtype == np.int64 and mi_mod._label_codes([]).size == 0
        with pytest.raises(ValueError, match="^insufficient pairs: need at least 8, have 0$"):
            plugin_mi([], [], bins=2)

    @pytest.mark.parametrize(
        "labels",
        [np.array([0.0, 1.0]), [0.5, 1], ["a", "b"], [b"\x00", b"\x01"], np.zeros((2, 2), int),
         np.int64(1), [(0, 1), (1, 0)]],
        ids=["float array", "float list", "strings", "bytes", "2-d", "scalar", "tuples"],
    )
    def test_other_labels_rejected(self, labels):
        with pytest.raises(ValueError, match="^labels must be a 1-d array of bools or integers$"):
            mi_mod._label_codes(labels)


class TestPluginMi:
    def test_independent_near_zero(self):
        rng = np.random.default_rng(13)
        est = plugin_mi(rng.uniform(size=2000), rng.integers(0, 2, size=2000), bins=8)
        assert abs(est.value) < 0.05

    def test_deterministic_relation_near_ln2(self):
        rng = np.random.default_rng(17)
        labels = np.repeat([0, 1], 1000)
        values = labels + rng.normal(0, 1e-6, size=2000)
        est = plugin_mi(values, labels, bins=8)
        assert abs(est.value - LN2) < 0.03

    def test_single_label_zero(self):
        with pytest.warns(UserWarning):
            est = plugin_mi(np.linspace(0, 1, 40), np.ones(40, dtype=int), bins=4)
        assert est.value == 0.0

    def test_non_finite_values_rejected(self):
        values = np.linspace(0, 1, 40)
        values[[3, 17]] = [np.nan, np.inf]
        with pytest.raises(ValueError, match="values must be finite"):
            plugin_mi(values, np.tile([0, 1], 20), bins=4)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            plugin_mi(np.linspace(0, 1, 40), np.tile([0, 1], 20), bins=1)
        with pytest.raises(ValueError):
            plugin_mi(np.linspace(0, 1, 7), np.array([0, 1, 0, 1, 0, 1, 0]), bins=2)

    def test_tied_values_share_a_bin(self):
        # One value carries no information, whatever the labels.
        assert plugin_mi(np.zeros(16), np.arange(16), bins=4).value == pytest.approx(0, abs=1e-15)

    @given(
        data=st.data(),
        bins=st.integers(2, 6),
        n_values=st.integers(1, 8),
        n_labels=st.integers(2, 5),
    )
    @settings(max_examples=200, deadline=None)
    def test_bounded_by_each_plugin_entropy(self, data, bins, n_values, n_labels):
        n = data.draw(st.integers(4 * bins, 60))
        vals = np.array(data.draw(st.lists(st.integers(0, n_values - 1), min_size=n, max_size=n)))
        labels = data.draw(st.lists(st.integers(0, n_labels - 1), min_size=n, max_size=n))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # a single distinct label gives 0 with a warning
            est = plugin_mi(vals / 7.0, labels, bins=bins).value
        # Equal-mass cells over ranks, where a value's rank is the count of smaller values.
        vbin = (vals[None, :] < vals[:, None]).sum(axis=1) * bins // n

        def entropy(codes):
            p = np.unique(codes, return_counts=True)[1] / n
            return float(-np.sum(p * np.log(p)))

        assert est <= entropy(vbin) + 1e-12
        assert est <= entropy(labels) + 1e-12

    def test_estimator_agreement_across_mixed_distributions(self):
        # Twenty seeded mixed-type distributions; the kNN estimate tracks
        # the histogram plug-in within the stated budget.
        for seed in range(20):
            rng = np.random.default_rng(100 + seed)
            shift = rng.uniform(0.0, 1.5)
            labels = rng.integers(0, 2, size=2000)
            values = rng.normal(loc=shift * labels, scale=1.0)
            knn = ksg_mixed_mi(values, labels, k=3)
            plug = plugin_mi(values, labels, bins=8)
            assert abs(knn.value - plug.value) < 0.08


def hand_supersample():
    """4-row supersample whose halves are hand-computable with B = 2."""
    # mask 0 selects column 0 (training): scores (0.1, 0.4, 0.6, 0.9),
    # labels (0, 0, 1, 1); test half: scores (0.2, 0.3, 0.7, 0.8),
    # labels (0, 1, 1, 0).
    values = np.array([[0.1, 0.2], [0.4, 0.3], [0.6, 0.7], [0.9, 0.8]])
    labels = np.array([[0, 0], [0, 1], [1, 1], [1, 0]])
    mask = np.zeros(4, dtype=int)
    return Supersample(values, labels, mask)


def random_supersample(rng, n):
    """Scored supersample of n rows with uniform scores, labels and mask."""
    return Supersample(
        rng.uniform(size=(n, 2)), rng.integers(0, 2, size=(n, 2)),
        rng.integers(0, 2, size=n),
    )


def synthetic_supersample(n, seed):
    """Raw supersample of 2n synthetic draws with a uniform mask."""
    x, y = sample_synthetic(2 * n, stream(seed, 0))
    mask = stream(seed, 1).integers(0, 2, size=n)
    return Supersample(x.reshape(n, 2), y.reshape(n, 2), mask)


class TestEcmiStatistic:
    """The cell's ECE gap: |ECE on the complement half - ECE on the training half|."""

    def test_hand_example_umb(self):
        # UMB edges from the training half: u_1 = f_(2) = 0.4.
        # Train: bins {0.1,0.4 | y 0,0} and {0.6,0.9 | y 1,1} -> ECE = 0.25.
        # Test: bins {0.2,0.3 | y 0,1} and {0.7,0.8 | y 1,0} -> ECE = 0.25.
        gap, _, _ = _cell_statistics(*scored_halves(hand_supersample()), B=2)
        assert gap == pytest.approx(0.0, abs=1e-15)

    def test_symmetry_under_mask_flip_with_stub(self):
        # A data-independent trainer makes the statistic symmetric in the
        # mask and its complement.
        s = random_supersample(np.random.default_rng(19), 20)
        flipped = Supersample(s.values, s.labels, 1 - s.mask)
        gap, gap_flipped = (
            _cell_statistics(*scored_halves(sup, constant()), B=4, uwb=uwb_scheme(4))[0]
            for sup in (s, flipped)
        )
        assert gap == pytest.approx(gap_flipped, abs=1e-15)

    def test_bounded_by_two(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            s = random_supersample(rng, 30)
            gap, _, _ = _cell_statistics(*scored_halves(s, constant(0.4)), B=5, uwb=uwb_scheme(5))
            assert 0.0 <= gap <= 2.0

    def test_shrinks_with_n(self):
        cfg = TrainerConfig(learning_rate=0.5, epochs=150)
        means = []
        for n in (100, 1000):
            gaps = []
            for seed in range(20):
                sup = synthetic_supersample(n, seed)
                gaps.append(_cell_statistics(*logistic_halves(sup, cfg), B=4, uwb=uwb_scheme(4))[0])
            means.append(np.mean(gaps))
        assert means[1] < means[0]

    def test_deterministic(self):
        sup = synthetic_supersample(200, seed=9)
        cfg = TrainerConfig(learning_rate=0.5, epochs=100)
        assert _cell_statistics(*logistic_halves(sup, cfg, 5), B=4) == _cell_statistics(
            *logistic_halves(sup, cfg, 5), B=4
        )


def reference_cell(s_tr, y_tr, s_te, y_te, B, uwb=None):
    """``_cell_statistics`` from the public API: ``ece_gap`` over two datasets, and the deltas
    from ``bin_stats`` counts and label sums over ``assign`` under the training half's UMB scheme."""
    d_tr, d_te = ScoredDataset(s_tr, y_tr), ScoredDataset(s_te, y_te)
    umb = umb_scheme(d_tr.scores, B)
    gap = ece_gap(d_tr, d_te, umb if uwb is None else uwb).value
    c_tr, c_te = (bin_stats(umb, d).counts for d in (d_tr, d_te))
    l_tr, l_te = (np.bincount(assign(umb, d.scores) - 1, weights=d.labels, minlength=umb.B)
                  for d in (d_tr, d_te))
    n = len(d_tr)
    return gap, float(np.abs(l_te - l_tr).sum() / n), float(np.abs(c_te - c_tr).sum() / n)


@st.composite
def cell_halves(draw):
    """Two n-row halves (n >= 2B, B up to 20) with scores from 1 to 2n levels, and a UWB
    scheme or None; few levels tie scores (collapsing UMB) and leave UWB bins empty."""
    B = draw(st.integers(min_value=1, max_value=20))
    n = draw(st.integers(min_value=2 * B, max_value=2 * B + 30))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    scores = rng.choice(rng.uniform(size=draw(st.integers(min_value=1, max_value=2 * n))), 2 * n)
    labels = rng.integers(0, 2, size=2 * n)
    uwb = uwb_scheme(B) if draw(st.booleans()) else None
    return scores[:n], labels[:n], scores[n:], labels[n:], B, uwb


class TestCellStatisticsReference:
    @given(cell_halves())
    # Tied training scores collapse UMB to one bin; UWB at B = 20 leaves bins empty.
    @example((np.full(24, 0.5), np.arange(24) % 2, np.linspace(0, 1, 24), np.ones(24, int),
              12, None))
    @example((np.linspace(0.3, 0.4, 40), np.arange(40) % 2, np.linspace(0, 1, 40) ** 4,
              (np.arange(40) % 3 == 0).astype(int), 20, uwb_scheme(20)))
    @settings(max_examples=200, deadline=None)
    def test_equals_public_api_reference(self, cell):
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "tied scores collapsed UMB", UserWarning)
            assert _cell_statistics(*cell) == reference_cell(*cell)


class TestDeltaStatistics:
    """The cell's delta1/delta2: per-bin label-sum and count differences over n."""

    def test_hand_example(self):
        # Same 4-row supersample, UMB B=2 from the training half.
        # delta1 bins: |(0+1) - (0+0)|/4 + |(1+0) - (1+1)|/4 = 0.5.
        # delta2 bins: counts match (2 vs 2 in each bin) -> 0.
        _, d1, d2 = _cell_statistics(*scored_halves(hand_supersample()), B=2)
        assert d1 == pytest.approx(0.5, abs=1e-15)
        assert d2 == pytest.approx(0.0, abs=1e-15)

    def test_identical_halves_give_zero(self):
        values = np.column_stack([np.linspace(0.1, 0.9, 8)] * 2)
        labels = np.column_stack([np.tile([0, 1], 4)] * 2)
        s = Supersample(values, labels, np.zeros(8, dtype=int))
        gap, d1, d2 = _cell_statistics(*scored_halves(s), B=2)
        assert gap == 0.0 and d1 == 0.0 and d2 == 0.0

    def test_umb_bins_each_half_once(self, assign_calls):
        _cell_statistics(*scored_halves(random_supersample(np.random.default_rng(3), 24)), B=3)
        assert [n for _, n in assign_calls] == [24, 24]

    @given(cell_halves())
    @settings(max_examples=200, deadline=None)
    def test_deltas_are_integer_sums_over_n(self, cell):
        # n * delta is integral: each delta is the float nearest an integer over n, so
        # cells whose integer sums agree give equal floats.
        s_tr, y_tr, s_te, y_te, B, _ = cell
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "tied scores collapsed UMB", UserWarning)
            _, d1, d2 = _cell_statistics(*cell)
            umb = umb_scheme(s_tr, B)
        size = umb.edges.size
        (c_tr, l_tr), (c_te, l_te) = (
            (np.bincount(idx, minlength=size), np.bincount(idx[y == 1], minlength=size))
            for idx, y in ((assign(umb, s_tr), y_tr), (assign(umb, s_te), y_te))
        )
        n = s_tr.size
        assert d1 == int(np.abs(l_te - l_tr).sum()) / n
        assert d2 == int(np.abs(c_te - c_tr).sum()) / n

    def test_one_float_per_integer_sum_in_a_run(self):
        # Over all 4096 masks, each statistic takes one float per integer sum.
        cfg = CmiExperimentConfig(n=12, B=3, trainer=TrainerConfig(), seed=1, n_supersamples=1,
                                  exhaustive=True)
        stats = run_cmi_experiment(cfg).stats
        for j in (1, 2):
            values = stats[0, :, j]
            assert len(set(values.tolist())) == len(set(np.rint(values * 12).tolist()))

    def test_delta2_bounded_by_two(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            s = random_supersample(rng, 24)
            _, _, d2 = _cell_statistics(*scored_halves(s), B=3)
            assert d2 <= 2.0


class TestRunCmiExperiment:
    def test_constant_predictor_leaks_the_mask_through_labels(self, monkeypatch):
        # A constant score 0.7 collapses UMB to one bin. Each half then holds n
        # scores there (delta2 = 0 for every mask), but the half's label sum,
        # which the mask picks, still moves the ECE gap and delta1.
        cfg = CmiExperimentConfig(
            n=8, B=2, trainer=TrainerConfig(), seed=12, n_supersamples=3, exhaustive=True,
        )

        def constant_models(beta, x, y, cfg, where):
            return np.tile([logit(0.7), 0.0], (len(beta), 1))  # slope 0: every score 0.7

        monkeypatch.setattr(mi_mod, "_descend", constant_models)
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "tied scores collapsed UMB", UserWarning)
            result = run_cmi_experiment(cfg)
        assert result.i_delta2.value == 0.0
        assert result.ecmi_est.value > 0.0
        assert result.i_delta1.value > 0.0

    def test_deterministic(self):
        cfg = CmiExperimentConfig(
            n=40, B=3, trainer=TrainerConfig(epochs=60), seed=21,
            n_supersamples=2, n_masks=6,
        )
        a = run_cmi_experiment(cfg)
        b = run_cmi_experiment(cfg)
        assert a.mean_gap == b.mean_gap
        assert a.ecmi_est.value == b.ecmi_est.value
        assert np.array_equal(a.stats, b.stats)

    def test_finite_estimates_at_default_protocol(self):
        cfg = CmiExperimentConfig(
            n=500, B=7, trainer=TrainerConfig(epochs=80), seed=33,
        )
        result = run_cmi_experiment(cfg)
        assert math.isfinite(result.mean_gap)
        assert math.isfinite(result.ecmi_est.value)
        assert 0.0 <= result.mean_gap <= 2.0
        assert result.stats.shape == (5, 10, len(STATISTICS))

    @pytest.mark.parametrize(
        "n, B, values, distinct",
        [
            (8, 2, (5.545177, 1.140825, 1.474057), (256, 4, 5)),
            (12, 3, (8.317766, 1.355594, 1.560197), (4096, 5, 6)),
        ],
    )
    def test_exact_counts_at_seed_1(self, n, B, values, distinct):
        # The exact mask information of one supersample: the gap differs on every mask,
        # so its entropy is n ln 2; n * delta1 and n * delta2 take a handful of integers.
        cfg = CmiExperimentConfig(n=n, B=B, trainer=TrainerConfig(), seed=1, n_supersamples=1,
                                  exhaustive=True)
        result = run_cmi_experiment(cfg)
        got = (result.ecmi_est.value, result.i_delta1.value, result.i_delta2.value)
        assert got == pytest.approx(values, abs=5e-7)
        assert result.ecmi_est.value == n * LN2
        assert tuple(len(set(result.stats[0, :, j].tolist())) for j in range(3)) == distinct

    @given(
        n=st.integers(2, 7),
        B=st.integers(1, 3),
        n_supersamples=st.integers(1, 3),
        n_masks=st.integers(1, 12),
        exhaustive=st.booleans(),
        method=st.sampled_from(["umb", "uwb"]),
        seed=st.integers(0, 2**32),
    )
    @example(n=3, B=1, n_supersamples=2, n_masks=10, exhaustive=False, method="umb", seed=4)
    @settings(max_examples=40, deadline=None)
    def test_counts_or_ceilings(self, n, B, n_supersamples, n_masks, exhaustive, method, seed):
        # Exhaustive: each statistic's entropy over the 2^n masks, counted with a Counter per
        # supersample and averaged. Sampled, repeated masks included: the certified ceilings.
        assume(n >= 2 * B)
        cfg = CmiExperimentConfig(n=n, B=B, trainer=TrainerConfig(epochs=5), seed=seed,
                                  n_supersamples=n_supersamples, n_masks=n_masks,
                                  method=method, exhaustive=exhaustive)
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "tied scores collapsed UMB", UserWarning)
            result = run_cmi_experiment(cfg)
        estimates = (result.ecmi_est, result.i_delta1, result.i_delta2)
        if exhaustive:
            for j, est in enumerate(estimates):
                per_supersample = []
                for column in result.stats[:, :, j].tolist():
                    p = [c / len(column) for c in Counter(column).values()]
                    per_supersample.append(-sum(q * math.log(q) for q in p))
                assert (est.method, est.k) == ("count", 0)
                assert est.value == pytest.approx(np.mean(per_supersample), abs=1e-12)
                assert est.value <= n * LN2
        else:
            delta = min(n * LN2, math.log(2 * n + 1))
            ceilings = (n * LN2, delta, delta)
            assert [(est.value, est.method, est.k) for est in estimates] == [
                (c, "ceiling", 0) for c in ceilings]

    def test_exhaustive_mode_plugin_oracle(self):
        # Over all 2^n masks the count is the plug-in entropy of each statistic's
        # column, taken per supersample and averaged.
        cfg = CmiExperimentConfig(
            n=5, B=2, trainer=TrainerConfig(epochs=40), seed=8,
            n_supersamples=2, n_masks=2, exhaustive=True,
        )
        result = run_cmi_experiment(cfg)
        assert result.stats.shape == (2, 2**5, len(STATISTICS))
        for j, est in enumerate((result.ecmi_est, result.i_delta1, result.i_delta2)):
            assert (est.method, est.k) == ("count", 0)
            plugin = []
            for column in result.stats[:, :, j]:
                p = np.unique(column, return_counts=True)[1] / column.size
                plugin.append(float(-np.sum(p * np.log(p))))
            assert est.value == pytest.approx(np.mean(plugin), abs=1e-12)
            assert 0.0 <= est.value <= 5 * LN2

    def test_repeated_masks_share_a_label(self):
        # Only 2^3 = 8 masks exist, so 10 draws repeat one. Equal masks give equal
        # n * delta1 and n * delta2; the gap agrees up to the trainer's tolerance,
        # as each draw starts from its own init. The run reports the ceilings
        # rather than a silent 0.
        cfg = CmiExperimentConfig(
            n=3, B=1, trainer=TrainerConfig(), seed=4, n_supersamples=2, n_masks=10,
        )
        with warnings.catch_warnings():
            warnings.filterwarnings("error", message="all labels are singletons")
            result = run_cmi_experiment(cfg)
        for s_idx in range(cfg.n_supersamples):
            masks = stream(cfg.seed, s_idx, 1).integers(0, 2, size=(cfg.n_masks, cfg.n))
            rows = {}
            for mask, (gap, *deltas) in zip(masks.tolist(), result.stats[s_idx].tolist()):
                first_gap, first_deltas = rows.setdefault(tuple(mask), (gap, deltas))
                assert deltas == first_deltas
                assert gap == pytest.approx(first_gap, abs=1e-4)
            assert len(rows) < cfg.n_masks
        delta = min(3 * LN2, math.log(7))
        assert [(e.value, e.method) for e in (result.ecmi_est, result.i_delta1, result.i_delta2)] \
            == [(3 * LN2, "ceiling"), (delta, "ceiling"), (delta, "ceiling")]

    def test_no_estimator_runs(self, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("run_cmi_experiment called an MI estimator")

        monkeypatch.setattr(mi_mod, "ksg_mixed_mi", boom)
        monkeypatch.setattr(mi_mod, "plugin_mi", boom)
        for exhaustive in (False, True):
            run_cmi_experiment(CmiExperimentConfig(
                n=4, B=2, trainer=TrainerConfig(epochs=5), seed=3, n_supersamples=2, n_masks=6,
                exhaustive=exhaustive,
            ))

    def test_uwb_scheme_built_once_per_run(self, monkeypatch):
        built = []
        monkeypatch.setattr(mi_mod, "uwb_scheme", lambda B: built.append(B) or uwb_scheme(B))
        run_cmi_experiment(CmiExperimentConfig(
            n=20, B=3, trainer=TrainerConfig(epochs=20), seed=1, n_supersamples=2, n_masks=5,
            method="uwb",
        ))
        assert built == [3]

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n=40, B=3, n_supersamples=2, n_masks=6),
            dict(n=2, B=1, n_supersamples=3, n_masks=5, method="uwb"),
            dict(n=6, B=2, n_supersamples=2, n_masks=2, exhaustive=True),
        ],
    )
    def test_batched_training_equals_per_cell_training(self, kwargs):
        # Reference: each cell's model trained alone by train_logistic on its
        # own half, from the cell's own seed, and scored by logistic_predict.
        cfg = CmiExperimentConfig(trainer=TrainerConfig(epochs=60), seed=21, **kwargs)
        uwb = uwb_scheme(cfg.B) if cfg.method == "uwb" else None
        per_cell = []  # per supersample: each mask's statistics
        for s_idx in range(cfg.n_supersamples):
            x, y = sample_synthetic(2 * cfg.n, stream(cfg.seed, s_idx, 0))
            if cfg.exhaustive:
                masks = [[(p >> i) & 1 for i in range(cfg.n)] for p in range(2**cfg.n)]
            else:
                masks = stream(cfg.seed, s_idx, 1).integers(0, 2, size=(cfg.n_masks, cfg.n))
            per_cell.append([])
            for m_idx, mask in enumerate(masks):
                sup = Supersample(x.reshape(cfg.n, 2), y.reshape(cfg.n, 2), mask)
                seed = child_seed(cfg.seed, s_idx, m_idx, 2)
                stats = _cell_statistics(*logistic_halves(sup, cfg.trainer, seed), cfg.B, uwb)
                per_cell[-1].append(list(stats))
        batched = run_cmi_experiment(cfg)
        assert batched.stats.tolist() == per_cell
        assert batched.mean_gap == np.mean([cell[0] for cells in per_cell for cell in cells])

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n=4, B=2, n_supersamples=16, n_masks=12),
            dict(n=4, B=2, n_supersamples=16, n_masks=12, method="uwb"),
            dict(n=4, B=2, n_supersamples=16, exhaustive=True),
        ],
    )
    def test_summaries_recompute_from_stats(self, kwargs):
        # mean_gap, from Python lists in (supersample, mask) order. At 16
        # supersamples and 12+ masks, numpy's pairwise sums differ from a
        # sequential sum in the last bit, so another order would show.
        cfg = CmiExperimentConfig(trainer=TrainerConfig(epochs=60), seed=5, **kwargs)
        result = run_cmi_experiment(cfg)
        n_masks = 2**cfg.n if cfg.exhaustive else cfg.n_masks
        assert result.stats.shape == (cfg.n_supersamples, n_masks, len(STATISTICS))
        assert not result.stats.flags.writeable
        cells = result.stats.tolist()
        assert result.mean_gap == np.mean([cell[0] for per_mask in cells for cell in per_mask])

    def test_divergent_cell_reports_epoch_and_cell(self, monkeypatch):
        # The odd masks put the infinite covariate in the training half, so
        # their rows of the batch go non-finite in the first update and the
        # even ones train normally; the first of them is reported.
        cfg = CmiExperimentConfig(
            n=4, B=1, trainer=TrainerConfig(epochs=3), seed=0,
            n_supersamples=1, n_masks=2, exhaustive=True,
        )
        x = np.array([[0.5, np.inf], [0.25, -0.25], [0.5, -0.5], [0.75, -0.75]])
        y = np.ones((4, 2), dtype=np.int64)

        def fake_sample(n, rng):
            return x.ravel(), y.ravel()

        monkeypatch.setattr(mi_mod, "sample_synthetic", fake_sample)
        with warnings.catch_warnings(), pytest.raises(
            ValueError, match=r"epoch 1 \(supersample 0, mask 1\)"
        ):
            warnings.simplefilter("error")  # no numpy warning ahead of the package's message
            run_cmi_experiment(cfg)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CmiExperimentConfig(n=0, B=2, trainer=TrainerConfig(), seed=0)
        with pytest.raises(ValueError, match="n_masks must be at least 1"):
            CmiExperimentConfig(n=10, B=2, trainer=TrainerConfig(), seed=0, n_masks=0)
        with pytest.raises(ValueError):
            CmiExperimentConfig(n=20, B=2, trainer=TrainerConfig(), seed=0, exhaustive=True)
        # One sampled mask is a run: nothing is estimated from the masks.
        CmiExperimentConfig(n=10, B=2, trainer=TrainerConfig(), seed=0, n_masks=1)
        # Exhaustive mode reads no n_masks, and counts at any n >= 2B.
        CmiExperimentConfig(n=4, B=1, trainer=TrainerConfig(), seed=0, n_masks=0, exhaustive=True)
        CmiExperimentConfig(n=2, B=1, trainer=TrainerConfig(), seed=0, exhaustive=True)

    def test_n_beyond_one_numpy_array_rejected(self):
        # 2n draws of 8 bytes each: numpy's size limit is the largest intp.
        largest = (np.iinfo(np.intp).max + 1) // 16 - 1
        CmiExperimentConfig(n=largest, B=2, trainer=TrainerConfig(), seed=0)
        with pytest.raises(ValueError, match=f"^n={largest + 1} is too large"):
            CmiExperimentConfig(n=largest + 1, B=2, trainer=TrainerConfig(), seed=0)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: ksg_mixed_mi(np.zeros(5), [0, 1, 0, 1]), "values and labels must have equal length"),
        (lambda: plugin_mi(np.zeros(5), [0, 1, 0, 1], bins=2),
         "values and labels must have equal length"),
        (lambda: plugin_mi(np.zeros((40, 2)), np.tile([0, 1], 20), bins=4),
         "plug-in estimator takes scalar values"),
        (lambda: ksg_mixed_mi(np.zeros((10, 2, 2)), np.tile([0, 1], 5)),
         "values must be scalars or fixed-length vectors"),
        (lambda: CmiExperimentConfig(n=10, B=2, trainer=TrainerConfig(), seed=0, method="quantile"),
         "unknown scheme method: quantile"),
    ],
    ids=["ksg lengths", "plugin lengths", "plugin 2-d", "3-d values", "unknown method"],
)
def test_boundary_errors(make, message):
    with pytest.raises(ValueError) as e:
        make()
    assert str(e.value) == message
