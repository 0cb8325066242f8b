import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from mrcal import fusion
from mrcal.core import RaterStack
from mrcal.fusion import (
    METHODS,
    DegenerateStack,
    FusionConfig,
    RaterPerformance,
    fuse,
    fuse_median,
    fuse_random_sampling,
    fuse_simple,
    fuse_soft,
    fuse_soft_gaussian,
    fuse_staple,
    fuse_svls,
    gaussian_filter_valid,
    gaussian_kernel_1d,
)
from mrcal.ordinal import orc_encode


def stack_from(arrs) -> RaterStack:
    return RaterStack(np.array(arrs, dtype=np.uint8))


def random_stack(rng, k=3, shape=(8, 8)) -> RaterStack:
    return RaterStack(rng.integers(0, 2, size=(k, *shape)).astype(np.uint8))


class TestRandomSampling:
    def test_single_rater(self):
        m = np.array([[1, 0], [0, 1]], dtype=np.uint8)
        stack = stack_from([m])
        for seed in (0, 7, 123):
            np.testing.assert_array_equal(
                fuse_random_sampling(stack, seed, 5).data, m
            )

    def test_deterministic(self):
        rng = np.random.default_rng(0)
        stack = random_stack(rng)
        first = fuse_random_sampling(stack, 7, 0).data
        for _ in range(5):
            np.testing.assert_array_equal(fuse_random_sampling(stack, 7, 0).data, first)

    def test_numpy_integer_seed_and_step(self):
        stack = random_stack(np.random.default_rng(1), k=5)
        expected, _ = fuse(stack, FusionConfig(method="rs", rng_seed=5), step=3)
        got, _ = fuse(stack, FusionConfig(method="rs", rng_seed=np.int64(5)), step=np.int64(3))
        np.testing.assert_array_equal(got.data, expected.data)
        for seed, step in [(np.int64(-1), np.uint64(2 ** 64 - 1)), (np.int32(7), np.int8(-3))]:
            expected = fusion._counter_draw(int(seed), int(step), 5)
            assert fusion._counter_draw(seed, step, 5) == expected

    def test_uniform_frequency(self):
        # distinguishable raters: constant masks 0th voxel encodes identity
        masks = np.zeros((3, 1, 3), dtype=np.uint8)
        for r in range(3):
            masks[r, 0, r] = 1
        stack = stack_from(masks)
        counts = np.zeros(3)
        for step in range(10000):
            chosen = fuse_random_sampling(stack, 42, step).data
            counts[np.argmax(chosen[0])] += 1
        freqs = counts / 10000
        assert np.abs(freqs - 1 / 3).max() < 0.02


class TestMedian:
    def test_strict_majority(self):
        stack = stack_from([[[1]], [[0]], [[1]]])
        assert fuse_median(stack).data[0, 0] == 1

    def test_even_tie_goes_foreground(self):
        stack = stack_from([[[1]], [[0]]])
        assert fuse_median(stack).data[0, 0] == 1

    def test_identical_raters_fixed_point(self):
        rng = np.random.default_rng(3)
        m = rng.integers(0, 2, size=(6, 6)).astype(np.uint8)
        stack = stack_from([m, m, m])
        np.testing.assert_array_equal(fuse_median(stack).data, m)


class TestSoft:
    def test_mean(self):
        stack = stack_from([[[1]], [[1]], [[0]], [[0]]])
        assert fuse_soft(stack).data[0, 0] == 0.5

    def test_all_zero(self):
        stack = stack_from(np.zeros((3, 4, 4), dtype=np.uint8))
        assert fuse_soft(stack).data.max() == 0.0

    def test_equals_orc_over_k(self):
        rng = np.random.default_rng(11)
        stack = random_stack(rng, k=5)
        np.testing.assert_allclose(
            fuse_soft(stack).data, orc_encode(stack).data / 5.0
        )

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        arrays(
            np.uint8,
            array_shapes(min_dims=3, max_dims=3, min_side=1, max_side=9),
            elements=st.integers(0, 1),
        )
    )
    def test_equals_votes_over_k_exactly(self, arr):
        stack = RaterStack(arr)
        soft = fuse_soft(stack).data
        assert np.array_equal(soft, stack.votes() / stack.num_raters)
        assert np.array_equal(soft, arr.mean(axis=0, dtype=np.float64))


class TestSoftGaussian:
    @pytest.mark.parametrize("sigma", [0.5, 1.0, 1.3, 2.2, 4.2])
    def test_filter_valid_matches_per_row_convolve(self, sigma):
        g = gaussian_kernel_1d(sigma)
        rng = np.random.default_rng(round(sigma * 10))
        n = len(g)
        for shape in [(n, n), (n + 3, n + 40), (n + 16, n + 10), (n + 64, n + 51)]:
            arr = rng.normal(size=shape)
            rows = np.array([np.convolve(row, g, mode="valid") for row in arr])
            cols = np.array([np.convolve(col, g, mode="valid") for col in rows.T]).T
            out = gaussian_filter_valid(arr, g)
            assert out.shape == (shape[0] - n + 1, shape[1] - n + 1)
            assert np.array_equal(out, cols)
        with pytest.raises(ValueError, match="shorter than the kernel"):
            gaussian_filter_valid(np.zeros((n - 1, n + 5)), g)

    def test_constant_invariance(self):
        stack = stack_from([np.ones((6, 6), dtype=np.uint8), np.zeros((6, 6), dtype=np.uint8)])
        out = fuse_soft_gaussian(stack, sigma=1.0)
        np.testing.assert_allclose(out.data, 0.5, atol=1e-12)

    def test_center_pixel_weight(self):
        # single foreground pixel: output center equals the kernel center weight
        masks = np.zeros((1, 7, 7), dtype=np.uint8)
        masks[0, 3, 3] = 1
        stack = stack_from(masks)
        out = fuse_soft_gaussian(stack, sigma=1.0)
        g = gaussian_kernel_1d(1.0)
        center = g[len(g) // 2] ** 2  # separable 2D kernel center
        assert abs(out.data[3, 3] - center) < 1e-12

    def test_interior_mass_preserved(self):
        rng = np.random.default_rng(5)
        inner = rng.integers(0, 2, size=(40, 40))
        field = np.zeros((64, 64), dtype=np.uint8)
        field[12:52, 12:52] = inner
        stack = stack_from([field])
        out = fuse_soft_gaussian(stack, sigma=1.0)
        assert abs(out.data.sum() - field.sum()) < 1e-5


class TestStaple:
    def test_perfect_agreement_fixed_point(self):
        rng = np.random.default_rng(1)
        m = rng.integers(0, 2, size=(10, 10)).astype(np.uint8)
        stack = stack_from([m, m, m])
        soft, perf = fuse_staple(stack, FusionConfig(method="staple"))
        assert np.abs(soft.data - m).max() < 1e-3
        assert min(perf.sensitivity) > 0.99
        assert min(perf.specificity) > 0.99

    def test_monotone_in_vote_count(self):
        # 4 voxels with 3, 2, 1, 0 votes of 3 raters
        masks = np.array(
            [[[1, 1, 1, 0]], [[1, 1, 0, 0]], [[1, 0, 0, 0]]], dtype=np.uint8
        )
        stack = stack_from(masks)
        soft, _ = fuse_staple(stack, FusionConfig(method="staple"))
        w = soft.data[0]
        assert (np.diff(w) < 0).all()
        # brute-force EM oracle run to convergence agrees on the ordering
        w_oracle = _staple_oracle(masks.reshape(3, 4))
        assert (np.diff(w_oracle) < 0).all()
        np.testing.assert_allclose(w, w_oracle, atol=1e-6)

    def test_w_in_unit_interval(self):
        rng = np.random.default_rng(9)
        stack = random_stack(rng, k=4, shape=(12, 12))
        soft, _ = fuse_staple(stack, FusionConfig(method="staple"))
        assert soft.data.min() >= 0.0 and soft.data.max() <= 1.0

    def test_log_likelihood_non_decreasing(self):
        rng = np.random.default_rng(13)
        stack = random_stack(rng, k=4, shape=(12, 12))
        _, _, trace = fuse_staple(
            stack, FusionConfig(method="staple"), track_likelihood=True
        )
        diffs = np.diff(trace)
        assert diffs.min() > -1e-9

    def test_degenerate_stack(self):
        stack = stack_from(np.ones((3, 4, 4), dtype=np.uint8))
        with pytest.raises(DegenerateStack):
            fuse_staple(stack, FusionConfig(method="staple"))


def _staple_oracle(y):
    """Naive loop EM, run to tight convergence. y: (K, N) in {0,1}."""
    k, n = y.shape
    prior = y.mean()
    p = np.full(k, 0.95)
    q = np.full(k, 0.95)
    w = np.full(n, prior)
    for _ in range(500):
        w_new = np.empty(n)
        for v in range(n):
            a = prior
            b = 1.0 - prior
            for r in range(k):
                a *= p[r] if y[r, v] else 1.0 - p[r]
                b *= q[r] if not y[r, v] else 1.0 - q[r]
            w_new[v] = a / (a + b)
        p = np.clip((w_new * y).sum(axis=1) / w_new.sum(), 1e-6, 1 - 1e-6)
        q = np.clip(
            ((1 - w_new) * (1 - y)).sum(axis=1) / (1 - w_new).sum(), 1e-6, 1 - 1e-6
        )
        if np.abs(w_new - w).mean() < 1e-12:
            break
        w = w_new
    return w


def _staple_voxel_reference(arr, max_iters=100, tol=1e-6):
    """Voxel-level STAPLE EM in the probability domain, as it ran before the
    pattern histogram: returns (w, sens, spec, iterations)."""
    k = arr.shape[0]
    y = arr.reshape(k, -1).astype(np.float64)
    prior = float(y.mean())
    sens = np.full(k, 0.95)
    spec = np.full(k, 0.95)
    clamp = lambda v: np.clip(v, 1e-6, 1.0 - 1e-6)
    w = None
    for iters in range(1, max_iters + 1):
        a = np.exp(np.log(prior) + (
            y * np.log(sens)[:, None] + (1.0 - y) * np.log(1.0 - sens)[:, None]
        ).sum(axis=0))
        b = np.exp(np.log(1.0 - prior) + (
            (1.0 - y) * np.log(spec)[:, None] + y * np.log(1.0 - spec)[:, None]
        ).sum(axis=0))
        w_new = a / (a + b)
        sens = clamp((w_new * y).sum(axis=1) / w_new.sum())
        spec = clamp(((1.0 - w_new) * (1.0 - y)).sum(axis=1) / (1.0 - w_new).sum())
        done = w is not None and np.abs(w_new - w).mean() < tol
        w = w_new
        if done:
            break
    return w.reshape(arr.shape[1:]), sens, spec, iters


def _noisy_raters(rng, k, shape):
    """K raters flipping a blobby truth at per-rater rates, plus one rater
    that marks everything foreground."""
    truth = rng.random(shape) < 0.4
    flip = rng.random((k, *shape)) < rng.uniform(0.02, 0.3, size=(k, 1, 1))
    arr = (truth ^ flip).astype(np.uint8)
    arr[-1] = 1
    return arr


class TestStapleHistogram:
    @pytest.mark.parametrize("k", [2, 3, 7, 8, 9, 16, 17])
    def test_matches_voxel_reference(self, k):
        rng = np.random.default_rng(100 + k)
        cases = [
            rng.integers(0, 2, size=(k, 20, 20)).astype(np.uint8),
            _noisy_raters(rng, k, (24, 31)),
            (rng.random((k, 16, 16)) < 0.1).astype(np.uint8),
        ]
        for arr in cases:
            soft, perf, trace = fuse_staple(
                RaterStack(arr), FusionConfig(method="staple"), track_likelihood=True
            )
            w, sens, spec, iters = _staple_voxel_reference(arr)
            assert np.abs(soft.data - w).max() < 1e-10
            assert np.abs(np.array(perf.sensitivity) - sens).max() < 1e-10
            assert np.abs(np.array(perf.specificity) - spec).max() < 1e-10
            assert len(trace) - 1 == iters

    @pytest.mark.parametrize("max_iters", [1, 2, 5, 100])
    def test_iteration_count_and_monotone_likelihood(self, monkeypatch, max_iters):
        rng = np.random.default_rng(7)
        arr = _noisy_raters(rng, 9, (20, 20))
        monkeypatch.setattr(fusion, "STAPLE_MAX_ITERS", max_iters)
        monkeypatch.setattr(fusion, "STAPLE_TOL", 1e-12)
        cfg = FusionConfig(method="staple")
        _, _, trace = fuse_staple(RaterStack(arr), cfg, track_likelihood=True)
        assert len(trace) - 1 == _staple_voxel_reference(arr, max_iters, 1e-12)[3]
        assert len(trace) - 1 <= max_iters
        assert np.all(np.isfinite(trace))
        assert np.diff(trace).min() >= -1e-9 * abs(trace[0])

    def test_likelihood_equals_voxel_sum(self, monkeypatch):
        rng = np.random.default_rng(8)
        arr = _noisy_raters(rng, 5, (12, 12))
        monkeypatch.setattr(fusion, "STAPLE_MAX_ITERS", 1)
        cfg = FusionConfig(method="staple")
        _, _, trace = fuse_staple(RaterStack(arr), cfg, track_likelihood=True)
        y = arr.reshape(5, -1).astype(np.float64)
        prior = y.mean()
        per_voxel = np.logaddexp(
            np.log(prior) + (y * np.log(0.95) + (1 - y) * np.log(0.05)).sum(axis=0),
            np.log(1 - prior) + ((1 - y) * np.log(0.95) + y * np.log(0.05)).sum(axis=0),
        )
        assert abs(trace[0] - per_voxel.sum()) < 1e-9 * abs(trace[0])

    @pytest.mark.parametrize("seed", [0, 1])
    def test_thousand_raters_finite(self, seed):
        rng = np.random.default_rng(seed)
        for arr in (
            rng.integers(0, 2, size=(1000, 10, 10)).astype(np.uint8),
            _noisy_raters(rng, 1000, (12, 12)),
        ):
            soft, perf, trace = fuse_staple(
                RaterStack(arr), FusionConfig(method="staple"), track_likelihood=True
            )
            assert np.isfinite(soft.data).all()
            assert soft.data.min() >= 0.0 and soft.data.max() <= 1.0
            assert all(0.0 < v < 1.0 for v in (*perf.sensitivity, *perf.specificity))
            assert np.all(np.isfinite(trace))

    def test_one_rater_rejected(self):
        stack = stack_from(np.eye(4, dtype=np.uint8)[None])
        with pytest.raises(DegenerateStack, match="K >= 2"):
            fuse_staple(stack, FusionConfig(method="staple"))
        with pytest.raises(DegenerateStack, match="K >= 2"):
            fuse_simple(stack)


class TestSvlsWeights:
    @pytest.mark.parametrize("sigma", [0.5, 1.0, 1.3, 2.0])
    def test_equals_one_exp_per_tap(self, sigma):
        rng = np.random.default_rng(round(sigma * 10))
        stack = random_stack(rng, k=5, shape=(13, 17))
        pbar = fuse_soft(stack).data
        d = 4.0 * pbar * (1.0 - pbar)
        sig = sigma * (0.25 + 0.75 * d)
        radius = math.ceil(3.0 * sigma)
        padded = np.pad(pbar, radius, mode="symmetric")
        num = np.zeros_like(pbar)
        den = np.zeros_like(pbar)
        for di in range(-radius, radius + 1):
            for dj in range(-radius, radius + 1):
                weight = np.exp(-(di * di + dj * dj) / (2.0 * sig * sig))
                num += weight * padded[radius + di : radius + di + 13, radius + dj : radius + dj + 17]
                den += weight
        expected = np.clip(num / den, 0.0, 1.0)
        out = fuse_svls(stack, FusionConfig(method="svls", sigma=sigma)).data
        assert np.array_equal(out, expected)


class TestSimple:
    def test_identical_raters(self):
        rng = np.random.default_rng(2)
        m = rng.integers(0, 2, size=(8, 8)).astype(np.uint8)
        stack = stack_from([m, m, m])
        np.testing.assert_array_equal(
            fuse_simple(stack).data, m
        )

    def test_outlier_excluded(self):
        rng = np.random.default_rng(4)
        base = (rng.random((16, 16)) < 0.5).astype(np.uint8)
        # symmetric perturbations: every good rater differs from base in
        # exactly one distinct pixel, so their Dice scores tie after the
        # outlier is gone and no further exclusion happens
        good = []
        for r in range(4):
            noisy = base.copy()
            noisy[0, r] = 1 - noisy[0, r]
            good.append(noisy)
        outlier = np.zeros_like(base)
        stack = stack_from(good + [outlier])
        fused = fuse_simple(stack)
        # result equals majority of the four good raters
        votes = np.stack(good).sum(axis=0)
        expected = (2 * votes >= 4).astype(np.uint8)
        np.testing.assert_array_equal(fused.data, expected)

    def test_min_raters_floor(self):
        a = np.ones((4, 4), dtype=np.uint8)
        b = np.zeros((4, 4), dtype=np.uint8)
        stack = stack_from([a, b])
        fused = fuse_simple(stack)
        # no exclusion possible: majority of both with ties to foreground
        np.testing.assert_array_equal(fused.data, a)


class TestSvls:
    def test_constant_invariance(self):
        stack = stack_from([np.ones((6, 6), dtype=np.uint8), np.zeros((6, 6), dtype=np.uint8)])
        out = fuse_svls(stack, FusionConfig(method="svls", sigma=1.0))
        np.testing.assert_allclose(out.data, 0.5, atol=1e-12)

    def test_disagreement_measure(self):
        assert 4 * 0.5 * 0.5 == 1.0
        assert 4 * 0.0 * 1.0 == 0.0

    def test_unanimous_smooths_less_than_gaussian(self):
        rng = np.random.default_rng(6)
        m = (rng.random((16, 16)) < 0.5).astype(np.uint8)
        stack = stack_from([m, m, m])  # d = 0 everywhere
        pbar = fuse_soft(stack).data
        svls_dev = np.abs(fuse_svls(stack, FusionConfig(sigma=1.0)).data - pbar).max()
        gauss_dev = np.abs(fuse_soft_gaussian(stack, 1.0).data - pbar).max()
        assert svls_dev < gauss_dev


class TestSharedInvariants:
    @pytest.mark.parametrize("method", METHODS)
    def test_fuse_matches_direct_function(self, method):
        stack = random_stack(np.random.default_rng(40), k=5, shape=(12, 10))
        cfg = FusionConfig(method=method, sigma=1.5, rng_seed=9)
        direct = {
            "rs": lambda: fuse_random_sampling(stack, 9, 3),
            "mc": lambda: fuse_median(stack),
            "sc": lambda: fuse_soft(stack),
            "scg": lambda: fuse_soft_gaussian(stack, 1.5),
            "staple": lambda: fuse_staple(stack, cfg)[0],
            "simple": lambda: fuse_simple(stack),
            "svls": lambda: fuse_svls(stack, cfg),
        }[method]()
        fused, perf = fuse(stack, cfg, step=3)
        assert type(fused) is type(direct)
        assert fused.data.dtype == direct.data.dtype
        assert fused.data.shape == direct.data.shape
        assert fused.data.tobytes() == direct.data.tobytes()
        if method == "staple":
            assert isinstance(perf, RaterPerformance)
            assert perf == fuse_staple(stack, cfg)[1]
        else:
            assert perf is None

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_permutation_invariance(self, k):
        rng = np.random.default_rng(20 + k)
        arr = rng.integers(0, 2, size=(k, 8, 8)).astype(np.uint8)
        stack = RaterStack(arr)
        perm = rng.permutation(k)
        permuted = RaterStack(arr[perm])
        cfg = FusionConfig(method="staple")
        np.testing.assert_array_equal(fuse_median(stack).data, fuse_median(permuted).data)
        np.testing.assert_allclose(fuse_soft(stack).data, fuse_soft(permuted).data)
        np.testing.assert_allclose(
            fuse_soft_gaussian(stack, 1.0).data, fuse_soft_gaussian(permuted, 1.0).data
        )
        np.testing.assert_allclose(
            fuse_svls(stack, cfg).data, fuse_svls(permuted, cfg).data
        )
        np.testing.assert_allclose(
            fuse_staple(stack, cfg)[0].data,
            fuse_staple(permuted, cfg)[0].data,
            atol=1e-12,
        )
        np.testing.assert_array_equal(
            fuse_simple(stack).data, fuse_simple(permuted).data
        )

    def test_output_ranges_and_shapes(self):
        rng = np.random.default_rng(30)
        stack = random_stack(rng, k=4, shape=(9, 7))
        cfg = FusionConfig(method="staple")
        for soft in (
            fuse_soft(stack),
            fuse_soft_gaussian(stack, 1.0),
            fuse_svls(stack, cfg),
            fuse_staple(stack, cfg)[0],
        ):
            assert soft.data.shape == (9, 7)
            assert soft.data.min() >= 0.0 and soft.data.max() <= 1.0
        for hard in (fuse_median(stack), fuse_simple(stack)):
            assert hard.data.shape == (9, 7)
            assert set(np.unique(hard.data)) <= {0, 1}


@pytest.mark.parametrize("sensitivity, specificity", [
    ((0.5, 1.0), (0.5, 0.5)),
    ((0.5,), (0.0,)),
    ((float("nan"),), (0.5,)),
])
def test_rater_performance_outside_the_open_unit_interval(sensitivity, specificity):
    with pytest.raises(ValueError, match=r"outside \(0,1\)"):
        RaterPerformance(sensitivity, specificity)


def test_fuse_rejects_an_unknown_method():
    with pytest.raises(ValueError, match="unknown fusion method 'bogus'"):
        fuse(stack_from([[[0, 1]], [[1, 1]]]), FusionConfig(method="bogus"))
