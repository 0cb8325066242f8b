import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mrcal.core import RaterStack
from mrcal.ordinal import (
    PROB_CLAMP,
    OrcMap,
    OrdinalProbMap,
    TargetOutOfRange,
    aggregate_foreground,
    bce_loss,
    hybrid_loss,
    majority_level,
    orc_encode,
    rps_loss,
)


def prob_map(levels) -> OrdinalProbMap:
    levels = np.asarray(levels, dtype=np.float64)
    return OrdinalProbMap(levels, num_raters=levels.shape[0] - 1)


def orc(values, k) -> OrcMap:
    return OrcMap(np.asarray(values, dtype=np.int64), num_raters=k)


def random_probs(rng, k, shape) -> OrdinalProbMap:
    raw = rng.random((k + 1, *shape)) + 0.05
    return OrdinalProbMap(raw / raw.sum(axis=0), num_raters=k)


class TestOrcEncode:
    def test_vote_sum(self):
        stack = RaterStack(
            np.array([[[1]], [[0]], [[1]]], dtype=np.uint8)
        )
        assert orc_encode(stack).data[0, 0] == 2

    def test_full_agreement(self):
        stack = RaterStack(np.ones((7, 3, 3), dtype=np.uint8))
        assert (orc_encode(stack).data == 7).all()

    def test_against_double_loop(self):
        rng = np.random.default_rng(1)
        arr = rng.integers(0, 2, size=(4, 6, 5)).astype(np.uint8)
        stack = RaterStack(arr)
        encoded = orc_encode(stack).data
        for i in range(6):
            for j in range(5):
                assert encoded[i, j] == sum(arr[r, i, j] for r in range(4))


class TestAggregateForeground:
    def test_k3(self):
        probs = prob_map(np.array([0.1, 0.2, 0.3, 0.4]).reshape(4, 1, 1))
        out = aggregate_foreground(probs)
        assert abs(out.data[0, 0] - 0.7) < 1e-12

    def test_even_k_inclusive(self):
        probs = prob_map(np.array([0.5, 0.3, 0.2]).reshape(3, 1, 1))
        out = aggregate_foreground(probs)
        assert abs(out.data[0, 0] - 0.5) < 1e-12

    def test_one_hot_top(self):
        levels = np.zeros((4, 1, 1))
        levels[3] = 1.0
        assert aggregate_foreground(prob_map(levels)).data[0, 0] == 1.0

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 7])
    def test_majority_level(self, k):
        t = majority_level(k)
        assert t >= k / 2
        assert t - 1 < k / 2

    def test_logit_shift_invariance(self):
        rng = np.random.default_rng(2)
        z = rng.normal(size=(4, 3, 3))
        def softmax(z):
            e = np.exp(z - z.max(axis=0, keepdims=True))
            return e / e.sum(axis=0, keepdims=True)
        a = aggregate_foreground(prob_map(softmax(z))).data
        b = aggregate_foreground(prob_map(softmax(z + 3.7))).data
        np.testing.assert_allclose(a, b, atol=1e-12)


class TestRps:
    def test_one_hot_at_target_is_zero(self):
        levels = np.zeros((4, 1, 1))
        levels[2] = 1.0
        assert rps_loss(prob_map(levels), orc([[2]], 3)) == 0.0

    def test_uniform_spot_value(self):
        probs = prob_map(np.full((3, 1, 1), 1 / 3))
        loss = rps_loss(probs, orc([[0]], 2))
        assert abs(loss - 5 / 27) < 1e-9

    def test_graded_penalty(self):
        # loss of one-hot mass is non-decreasing in distance to the target
        for k in range(1, 8):
            for true_level in range(k + 1):
                losses_by_distance = {}
                for level in range(k + 1):
                    levels = np.zeros((k + 1, 1, 1))
                    levels[level] = 1.0
                    loss = rps_loss(prob_map(levels), orc([[true_level]], k))
                    losses_by_distance.setdefault(abs(level - true_level), []).append(loss)
                dists = sorted(losses_by_distance)
                maxima = [max(losses_by_distance[d]) for d in dists]
                minima = [min(losses_by_distance[d]) for d in dists]
                for d1, d2 in itertools.pairwise(range(len(dists))):
                    assert minima[d2] >= maxima[d1] - 1e-12

    def test_nonnegative_zero_iff_onehot(self):
        rng = np.random.default_rng(3)
        probs = random_probs(rng, 3, (4, 4))
        target = orc(rng.integers(0, 4, size=(4, 4)), 3)
        loss = rps_loss(probs, target)
        assert loss > 0.0

    def test_target_out_of_range(self):
        probs = prob_map(np.full((3, 1, 1), 1 / 3))
        with pytest.raises(TargetOutOfRange):
            orc([[5]], 2)

    def test_properness_on_simplex_grid(self):
        # expected RPS under q is minimized within one grid step of q
        rng = np.random.default_rng(4)
        step = 0.02
        grid = []
        for p0 in np.arange(0.0, 1.0 + 1e-9, step):
            for p1 in np.arange(0.0, 1.0 - p0 + 1e-9, step):
                grid.append((p0, p1, 1.0 - p0 - p1))
        grid = np.array(grid)
        for _ in range(3):
            q = rng.dirichlet(np.ones(3))
            expected = np.zeros(len(grid))
            for level in range(3):
                losses = np.array(
                    [
                        rps_loss(prob_map(g.reshape(3, 1, 1)), orc([[level]], 2))
                        for g in grid
                    ]
                )
                expected += q[level] * losses
            best = grid[np.argmin(expected)]
            assert np.abs(best - q).max() <= step + 1e-9


class TestBce:
    def test_half_is_ln2(self):
        probs = prob_map(np.full((4, 2, 2), 0.25))
        target = orc(np.array([[0, 1], [2, 3]]), 3)
        # aggregated p = 0.5 everywhere
        assert abs(bce_loss(probs, target) - np.log(2)) < 1e-9

    def test_perfect_prediction_near_zero(self):
        levels = np.zeros((4, 1, 2))
        levels[3, 0, 0] = 1.0
        levels[0, 0, 1] = 1.0
        target = orc([[3, 0]], 3)
        assert bce_loss(prob_map(levels), target) < 1e-6

    def test_k1_reduces_to_pixel_bce(self):
        rng = np.random.default_rng(5)
        p1 = rng.random((3, 3))
        levels = np.stack([1.0 - p1, p1])
        target_vals = rng.integers(0, 2, size=(3, 3))
        loss = bce_loss(prob_map(levels), orc(target_vals, 1))
        pc = np.clip(p1, 1e-7, 1 - 1e-7)
        expected = -(
            target_vals * np.log(pc) + (1 - target_vals) * np.log(1 - pc)
        ).mean()
        assert abs(loss - expected) < 1e-12


class TestHybrid:
    def test_alpha_zero_equals_bce_path(self):
        rng = np.random.default_rng(6)
        probs = random_probs(rng, 3, (4, 4))
        target = orc(rng.integers(0, 4, size=(4, 4)), 3)
        loss0, grad0 = hybrid_loss(probs, target, 0.0)
        assert abs(loss0 - bce_loss(probs, target)) < 1e-12
        # gradient equals the numerical gradient of pure BCE w.r.t. logits
        z = np.log(probs.levels)
        num = _fd_logit_grad(z, target, 0.0)
        np.testing.assert_allclose(grad0, num, atol=1e-7)

    def test_finite_difference(self):
        rng = np.random.default_rng(7)
        z = rng.normal(size=(4, 4, 4))
        target = orc(rng.integers(0, 4, size=(4, 4)), 3)
        probs = _softmax_probs(z)
        _, grad = hybrid_loss(probs, target, 0.8)
        num = _fd_logit_grad(z, target, 0.8)
        denom = np.maximum(np.abs(num), 1e-8)
        assert (np.abs(grad - num) / denom).max() < 1e-4

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_finite_difference_property(self, data):
        k = data.draw(st.integers(1, 7))
        h, w = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
        # |z| up to 50 saturates the softmax, so the PROB_CLAMP branch runs
        scale = data.draw(st.sampled_from((1.0, 50.0)))
        z = data.draw(arrays(np.float64, (k + 1, h, w), elements=st.floats(-scale, scale)))
        target = orc(data.draw(arrays(np.int64, (h, w), elements=st.integers(0, k))), k)
        alpha = data.draw(st.floats(0.0, 1.0))
        probs = _softmax_probs(z)
        t = majority_level(k)
        p_hat, rest = probs.levels[t:].sum(axis=0), probs.levels[:t].sum(axis=0)
        # The clamp is a kink: a central difference straddling it is no
        # derivative. Below the upper clamp, log(1 - p_hat) has an absolute
        # rounding error of about eps / rest, which the difference quotient
        # divides by h: rest >= 1e-5 keeps that under 1e-6.
        assume(not np.isclose(p_hat, PROB_CLAMP, rtol=1e-3).any())
        assume(not ((rest > PROB_CLAMP * (1.0 - 1e-3)) & (rest < 1e-5)).any())
        loss, grad = hybrid_loss(probs, target, alpha)
        assert loss == bce_loss(probs, target) + alpha * rps_loss(probs, target)
        num = _fd_logit_grad(z, target, alpha)
        # relative error, or absolute error 1e-6 below the floor
        denom = np.maximum(np.abs(num), 1e-2)
        assert (np.abs(grad - num) / denom).max() < 1e-4

    def test_gradient_rows_sum_to_zero(self):
        rng = np.random.default_rng(8)
        probs = random_probs(rng, 5, (6, 6))
        target = orc(rng.integers(0, 6, size=(6, 6)), 5)
        _, grad = hybrid_loss(probs, target, 0.8)
        assert np.abs(grad.sum(axis=0)).max() < 1e-6

    def test_loss_always_finite(self):
        # near-degenerate distribution stays finite thanks to clamping
        levels = np.zeros((4, 1, 1))
        levels[0] = 1.0
        target = orc([[3]], 3)
        loss, grad = hybrid_loss(prob_map(levels), target, 0.8)
        assert np.isfinite(loss)
        assert np.isfinite(grad).all()


def _softmax_probs(z) -> OrdinalProbMap:
    e = np.exp(z - z.max(axis=0, keepdims=True))
    return OrdinalProbMap(e / e.sum(axis=0, keepdims=True), num_raters=z.shape[0] - 1)


def _fd_logit_grad(z, target, alpha, h=1e-4):
    num = np.zeros_like(z)
    for idx in np.ndindex(z.shape):
        zp = z.copy()
        zp[idx] += h
        lp, _ = hybrid_loss(_softmax_probs(zp), target, alpha)
        zm = z.copy()
        zm[idx] -= h
        lm, _ = hybrid_loss(_softmax_probs(zm), target, alpha)
        num[idx] = (lp - lm) / (2 * h)
    return num


@pytest.mark.parametrize("levels, message", [
    (np.full((3, 2, 2), 1 / 3), "expected 4 level layers"),
    (np.full((4, 2), 0.25), "expected 4 level layers"),
    (np.array([-1e-6, 0.5, 0.5, 1e-6]).reshape(4, 1, 1), "must be >= 0"),
    (np.full((4, 1, 1), 0.2), "must sum to 1"),
])
def test_ordinal_prob_map_rejects_malformed_levels(levels, message):
    with pytest.raises(ValueError, match=message):
        OrdinalProbMap(levels, num_raters=3)


@pytest.mark.parametrize("target, message", [
    (orc(np.zeros((4, 4)), 2), "target K=2 vs prediction K=3"),
    (orc(np.zeros((4, 5)), 3), "spatial shapes differ"),
])
def test_hybrid_loss_rejects_a_mismatched_target(target, message):
    probs = random_probs(np.random.default_rng(0), 3, (4, 4))
    with pytest.raises(TargetOutOfRange, match=message):
        hybrid_loss(probs, target, 0.8)
