import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mrcal.core import BinaryMask, RaterStack
from mrcal.metrics import (
    CalibrationBins,
    EvalConfig,
    MetricReport,
    SingleClassReference,
    auc,
    bootstrap_eval,
    ece_single,
    mr_ece,
    reliability_csv,
)


def stack_from(arr) -> RaterStack:
    return RaterStack(np.asarray(arr, dtype=np.uint8))


class TestMrEce:
    def test_frequency_matched_prediction_is_zero(self):
        # p = vote fraction; with K=3 every frequency {0,1/3,2/3,1} lands in
        # a pure bin at M=15, so the gap vanishes
        rng = np.random.default_rng(0)
        arr = rng.integers(0, 2, size=(3, 16, 16)).astype(np.uint8)
        stack = stack_from(arr)
        pred = arr.mean(axis=0)
        value, _ = mr_ece([pred], [stack], EvalConfig(num_bins=15))
        assert value < 1e-9

    def test_maximal_miscalibration(self):
        stack = stack_from(np.zeros((3, 8, 8)))
        pred = np.ones((8, 8))
        value, _ = mr_ece([pred], [stack], EvalConfig())
        assert abs(value - 1.0) < 1e-12

    def test_k1_equals_single_rater_ece(self):
        rng = np.random.default_rng(1)
        for trial in range(50):
            mask_arr = rng.integers(0, 2, size=(6, 6)).astype(np.uint8)
            pred = rng.random((6, 6))
            for mode in ("frequency", "top_label"):
                cfg = EvalConfig(ece_mode=mode)
                v_multi, _ = mr_ece([pred], [stack_from(mask_arr[None])], cfg)
                v_single = ece_single(pred, BinaryMask.from_array(mask_arr), cfg)
                assert abs(v_multi - v_single) < 1e-12

    @pytest.mark.parametrize("mode", ["frequency", "top_label"])
    def test_equals_single_rater_ece_of_rater_copies(self, mode):
        # K raters = the single-rater ECE of K copies of the prediction,
        # each paired with one rater's mask
        rng = np.random.default_rng(5)
        cfg = EvalConfig(ece_mode=mode, tau=0.4)
        masks = rng.integers(0, 2, size=(3, 9, 9)).astype(np.uint8)
        pred = np.round(rng.random((9, 9)), 1)  # some predictions sit exactly on tau
        v_multi, _ = mr_ece([pred], [stack_from(masks)], cfg)
        v_single = ece_single(
            np.concatenate([pred] * 3, axis=1), BinaryMask.from_array(np.concatenate(masks, axis=1)), cfg
        )
        assert abs(v_multi - v_single) < 1e-12

    def test_duplication_invariance(self):
        rng = np.random.default_rng(2)
        mask_arr = rng.integers(0, 2, size=(8, 8)).astype(np.uint8)
        pred = rng.random((8, 8))
        v1, _ = mr_ece([pred], [stack_from(mask_arr[None])], EvalConfig())
        for k in (2, 5):
            vk, _ = mr_ece(
                [pred], [stack_from(np.repeat(mask_arr[None], k, axis=0))], EvalConfig()
            )
            assert abs(vk - v1) < 1e-12

    def test_rater_and_sample_order_invariance(self):
        rng = np.random.default_rng(3)
        stacks = [stack_from(rng.integers(0, 2, size=(3, 6, 6))) for _ in range(4)]
        preds = [rng.random((6, 6)) for _ in range(4)]
        v, _ = mr_ece(preds, stacks, EvalConfig())
        perm_stacks = [stack_from(s.as_array()[::-1]) for s in stacks]
        v_rater, _ = mr_ece(preds, perm_stacks, EvalConfig())
        v_sample, _ = mr_ece(preds[::-1], stacks[::-1], EvalConfig())
        assert abs(v - v_rater) < 1e-12
        assert abs(v - v_sample) < 1e-12

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_permutation_invariance_property(self, data):
        n, k, h, w = (data.draw(st.integers(1, hi)) for hi in (4, 7, 6, 6))
        masks = data.draw(arrays(np.uint8, (n, k, h, w), elements=st.integers(0, 1)))
        preds = list(data.draw(arrays(np.float64, (n, h, w), elements=st.floats(0.0, 1.0))))
        rater_perm = data.draw(st.permutations(range(k)))
        sample_perm = data.draw(st.permutations(range(n)))
        cfg = EvalConfig()
        v, bins = mr_ece(preds, [stack_from(m) for m in masks], cfg)
        v_rater, _ = mr_ece(preds, [stack_from(m[rater_perm]) for m in masks], cfg)
        v_sample, bins_sample = mr_ece(
            [preds[i] for i in sample_perm], [stack_from(masks[i]) for i in sample_perm], cfg
        )
        # permuting raters leaves every vote count, hence every sum, unchanged
        assert v_rater == v
        np.testing.assert_array_equal(bins_sample.counts, bins.counts)
        assert abs(v_sample - v) < 1e-12

    def test_value_in_unit_interval(self):
        rng = np.random.default_rng(4)
        stack = stack_from(rng.integers(0, 2, size=(4, 10, 10)))
        pred = rng.random((10, 10))
        v, bins = mr_ece([pred], [stack], EvalConfig())
        assert 0.0 <= v <= 1.0
        assert bins.counts.sum() == 4 * 100


class TestBinning:
    def test_exhaustive_exclusive(self):
        bins = CalibrationBins(15)
        conf = np.linspace(0.0, 1.0, 1000)
        bins.add(conf, np.zeros_like(conf))
        assert bins.counts.sum() == 1000

    def test_one_lands_in_last_bin(self):
        bins = CalibrationBins(10)
        assert bins.bin_index(np.array([1.0]))[0] == 9
        assert bins.bin_index(np.array([0.0]))[0] == 0
        # right-open boundaries
        assert bins.bin_index(np.array([0.1]))[0] == 1


class TestEceSingle:
    def test_matched_half(self):
        pred = np.full((2, 2), 0.5)
        mask = BinaryMask.from_array(np.array([[1, 0], [0, 1]], dtype=np.uint8))
        assert ece_single(pred, mask, EvalConfig()) < 1e-12

    def test_perfect_binary_predictor_modes(self):
        mask_arr = np.array([[1, 0], [0, 1]], dtype=np.uint8)
        mask = BinaryMask.from_array(mask_arr)
        pred = mask_arr.astype(np.float64)
        assert ece_single(pred, mask, EvalConfig(ece_mode="frequency")) < 1e-12
        # literal mode: the p=0 bin has Acc=1, Conf=0 -> gap contributes
        literal = ece_single(pred, mask, EvalConfig(ece_mode="top_label"))
        assert abs(literal - 0.5) < 1e-12

    def test_against_brute_force(self):
        rng = np.random.default_rng(5)
        mask_arr = rng.integers(0, 2, size=(12, 12)).astype(np.uint8)
        pred = rng.random((12, 12))
        m = 15
        # naive loops
        sums = np.zeros(m)
        accs = np.zeros(m)
        counts = np.zeros(m)
        for i in range(12):
            for j in range(12):
                b = min(int(pred[i, j] * m), m - 1)
                counts[b] += 1
                sums[b] += pred[i, j]
                accs[b] += mask_arr[i, j]
        expected = 0.0
        for b in range(m):
            if counts[b]:
                expected += counts[b] / counts.sum() * abs(
                    sums[b] / counts[b] - accs[b] / counts[b]
                )
        got = ece_single(pred, BinaryMask.from_array(mask_arr), EvalConfig())
        assert abs(got - expected) < 1e-12


class TestAuc:
    def test_perfect_separation(self):
        pred = np.array([[0.9, 0.8, 0.1, 0.2]])
        ref = BinaryMask.from_array(np.array([[1, 1, 0, 0]], dtype=np.uint8))
        assert auc(pred, ref) == 1.0

    def test_constant_is_half(self):
        pred = np.full((1, 6), 0.3)
        ref = BinaryMask.from_array(np.array([[1, 0, 1, 0, 1, 0]], dtype=np.uint8))
        assert auc(pred, ref) == 0.5

    def test_worked_example(self):
        pred = np.array([[0.9, 0.8, 0.7, 0.4, 0.3, 0.2]])
        ref = BinaryMask.from_array(np.array([[1, 1, 0, 1, 0, 0]], dtype=np.uint8))
        assert abs(auc(pred, ref) - 8 / 9) < 1e-12

    def test_against_pair_enumeration(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            n = int(rng.integers(20, 200))
            pred = rng.choice(np.linspace(0, 1, 17), size=n)  # force ties
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                continue
            wins = 0.0
            pairs = 0
            for i in np.flatnonzero(labels == 1):
                for j in np.flatnonzero(labels == 0):
                    pairs += 1
                    if pred[i] > pred[j]:
                        wins += 1.0
                    elif pred[i] == pred[j]:
                        wins += 0.5
            got = auc(pred[None], BinaryMask.from_array(labels[None].astype(np.uint8)))
            assert abs(got - wins / pairs) < 1e-12

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(7)
        pred = rng.random((5, 5))
        ref = BinaryMask.from_array(rng.integers(0, 2, size=(5, 5)).astype(np.uint8))
        a = auc(pred, ref)
        b = auc(1.0 / (1.0 + np.exp(-(4 * pred - 2))), ref)
        assert abs(a - b) < 1e-12

    def test_single_class_raises(self):
        pred = np.random.default_rng(8).random((3, 3))
        ref = BinaryMask.from_array(np.zeros((3, 3), dtype=np.uint8))
        with pytest.raises(SingleClassReference):
            auc(pred, ref)


class TestMajorityMask:
    def test_tie_to_foreground(self):
        stack = stack_from([[[1, 0]], [[0, 0]]])
        np.testing.assert_array_equal(stack.majority(), [[1, 0]])


class TestBootstrap:
    def _fixture(self, n=6, seed=9):
        rng = np.random.default_rng(seed)
        stacks = [stack_from(rng.integers(0, 2, size=(3, 8, 8))) for _ in range(n)]
        preds = [rng.random((8, 8)) for _ in range(n)]
        return preds, stacks

    def test_single_image_full_frac_zero_std(self):
        preds, stacks = self._fixture(n=1)
        cfg = EvalConfig(bootstrap_frac=1.0, bootstrap_n=5)
        rep = bootstrap_eval(preds, stacks, cfg)
        assert rep.mr_ece_boot_std == 0.0

    def test_defaults(self):
        cfg = EvalConfig()
        assert cfg.bootstrap_n == 10
        assert cfg.bootstrap_frac == 0.6
        assert cfg.num_bins == 15

    def test_deterministic(self):
        preds, stacks = self._fixture()
        a = bootstrap_eval(preds, stacks, EvalConfig(seed=3)).to_json()
        b = bootstrap_eval(preds, stacks, EvalConfig(seed=3)).to_json()
        assert a == b

    def test_caller_predictions_unchanged(self):
        preds, stacks = self._fixture()
        preds[0][:2] = 0.0
        preds[0][2:4] = -0.0  # ties that the pooled sort may reorder
        copies = [p.copy() for p in preds]
        auc(preds[0], BinaryMask.from_array(stacks[0].majority()))
        bootstrap_eval(preds, stacks, EvalConfig())
        assert [p.tobytes() for p in preds] == [c.tobytes() for c in copies]

    def test_mean_approaches_point_estimate(self):
        preds, stacks = self._fixture(n=5)
        cfg = EvalConfig(bootstrap_frac=1.0, bootstrap_n=200, seed=1)
        rep = bootstrap_eval(preds, stacks, cfg)
        assert abs(rep.mr_ece_boot_mean - rep.mr_ece) < 0.01
        assert abs(rep.auc_boot_mean - rep.auc) < 0.01


def _midrank_auc(scores, labels) -> float | None:
    """Mann-Whitney AUC from np.unique midranks; None if one class."""
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        return None
    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]
    u = ranks[labels].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def _reference_bootstrap(preds, stacks, cfg) -> MetricReport:
    """bootstrap_eval as a fresh evaluation of every replicate: per-image bin
    accumulation, and midranks from one np.unique sort of the replicate's
    concatenated scores."""

    def ece(idx):
        bins = CalibrationBins(cfg.num_bins)
        for i in idx:
            bins.add(preds[i].ravel(), stacks[i].votes().ravel(), weight=stacks[i].num_raters)
        return bins.ece_value()

    def rank_auc(idx):
        scores = np.concatenate([preds[i].ravel() for i in idx])
        labels = np.concatenate([stacks[i].majority().ravel() for i in idx])
        return _midrank_auc(scores, labels)

    n = len(stacks)
    rng = np.random.default_rng(cfg.seed)
    draws = [
        rng.integers(0, n, size=int(np.ceil(cfg.bootstrap_frac * n)))
        for _ in range(cfg.bootstrap_n)
    ]
    eces = np.array([ece(idx) for idx in draws])
    aucs = [rank_auc(idx) for idx in draws]
    point_auc = rank_auc(range(n))
    have_auc = point_auc is not None and None not in aucs
    return MetricReport(
        mr_ece=ece(range(n)),
        auc=point_auc,
        mr_ece_boot_mean=float(eces.mean()),
        mr_ece_boot_std=float(eces.std()),
        auc_boot_mean=float(np.mean(aucs)) if have_auc else None,
        auc_boot_std=float(np.std(aucs)) if have_auc else None,
        num_bootstrap=cfg.bootstrap_n,
        resample_fraction=cfg.bootstrap_frac,
        num_bins=cfg.num_bins,
        ece_mode=cfg.ece_mode,
        seed=cfg.seed,
    )


class TestAucKernel:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_equals_unique_midranks(self, data):
        levels = data.draw(st.sampled_from((1, 2, 7, 1000)))  # few levels: many ties
        n = data.draw(st.integers(2, 300))
        values = data.draw(arrays(np.int64, n, elements=st.integers(-levels, levels))) / levels
        values[data.draw(arrays(np.bool_, n))] *= -1.0  # -0.0 and 0.0 must tie
        if data.draw(st.booleans()):
            values[data.draw(arrays(np.bool_, n))] = np.nan  # NaNs tie with each other
        labels = data.draw(arrays(np.bool_, n))
        pos, neg = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        labels[pos], labels[neg] = True, False
        expected = _midrank_auc(values, labels)
        got = auc(values[None], BinaryMask.from_array(labels[None].astype(np.uint8)))
        assert got == expected


class TestBootstrapOneSort:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_equals_fresh_sort_per_replicate(self, data):
        n, k = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 5))
        h, w = data.draw(st.integers(1, 7)), data.draw(st.integers(1, 7))
        levels = data.draw(st.sampled_from((2, 5, 16, 1000)))  # few levels: many ties
        preds = [
            data.draw(arrays(np.int64, (h, w), elements=st.integers(0, levels))) / levels
            for _ in range(n)
        ]
        if data.draw(st.booleans()):
            # one class per image, so small draws give single-class replicates
            masks = [np.full((k, h, w), data.draw(st.integers(0, 1))) for _ in range(n)]
        else:
            masks = [
                data.draw(arrays(np.uint8, (k, h, w), elements=st.integers(0, 1)))
                for _ in range(n)
            ]
        stacks = [stack_from(m) for m in masks]
        cfg = EvalConfig(
            num_bins=data.draw(st.integers(1, 20)),
            bootstrap_n=data.draw(st.integers(1, 12)),
            bootstrap_frac=data.draw(st.sampled_from((0.1, 0.35, 0.6, 1.0))),
            seed=data.draw(st.integers(0, 2**16)),
        )
        got = bootstrap_eval(preds, stacks, cfg)
        assert got.to_json() == _reference_bootstrap(preds, stacks, cfg).to_json()
        v, bins = mr_ece(preds, stacks, cfg)
        assert got.mr_ece == v
        np.testing.assert_array_equal(got.bins.counts, bins.counts)
        np.testing.assert_array_equal(got.bins.conf_sums, bins.conf_sums)
        np.testing.assert_array_equal(got.bins.acc_sums, bins.acc_sums)

    def test_tie_heavy_hundred_replicates(self):
        # 5 score levels over 12 images of mixed sizes: every tie group spans
        # images, so each replicate reweights the groups its draws hit
        rng = np.random.default_rng(11)
        shapes = [(16, 16), (9, 20), (1, 7)] * 4
        preds = [rng.integers(0, 5, size=s) / 4 for s in shapes]
        stacks = [stack_from(rng.integers(0, 2, size=(3, *s))) for s in shapes]
        cfg = EvalConfig(bootstrap_n=100, seed=4)
        got = bootstrap_eval(preds, stacks, cfg)
        assert got.auc_boot_std > 0.0
        assert got.to_json() == _reference_bootstrap(preds, stacks, cfg).to_json()

    def test_single_class_replicate_has_no_auc(self):
        preds = [np.array([[0.2, 0.9]]), np.array([[0.4, 0.1]])]
        stacks = [stack_from(np.ones((3, 1, 2))), stack_from(np.zeros((3, 1, 2)))]
        # each replicate draws one image, so each holds one class only
        cfg = EvalConfig(bootstrap_n=4, bootstrap_frac=0.5)
        rep = bootstrap_eval(preds, stacks, cfg)
        assert rep.auc == 0.75
        assert rep.auc_boot_mean is None and rep.auc_boot_std is None
        assert rep.to_json() == _reference_bootstrap(preds, stacks, cfg).to_json()


class TestReliabilityCsv:
    def test_empty_bin_row(self, tmp_path):
        bins = CalibrationBins(2)
        bins.add(np.array([0.1, 0.2]), np.array([1.0, 0.0]))
        path = tmp_path / "rel.csv"
        reliability_csv(bins, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "bin_lo,bin_hi,count,conf,acc"
        assert len(lines) == 3
        second = lines[2].split(",")
        assert second[2] == "0"
        assert second[3] == "" and second[4] == ""
        assert all(len(line.split(",")) == 5 for line in lines[1:])

    def test_round_trip_precision(self, tmp_path):
        rng = np.random.default_rng(10)
        bins = CalibrationBins(15)
        bins.add(rng.random(500), rng.integers(0, 2, size=500).astype(float))
        path = tmp_path / "rel.csv"
        reliability_csv(bins, path)
        conf = bins.conf()
        acc = bins.acc()
        for m, line in enumerate(path.read_text().strip().split("\n")[1:]):
            parts = line.split(",")
            if parts[2] != "0":
                assert abs(float(parts[3]) - conf[m]) < 1e-9
                assert abs(float(parts[4]) - acc[m]) < 1e-9
