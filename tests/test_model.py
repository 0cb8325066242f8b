import json
import os
import sys
import threading
import warnings
import weakref
from dataclasses import replace

import numpy as np
import pytest

from mrcal.core import Grid2D, RaterStack, Sample
from mrcal.fusion import FusionConfig, fuse
from mrcal import core, fusion, model
from mrcal.model import (
    BAND_PIXELS,
    ArchitectureMismatch,
    Checkpoint,
    EmptyTrainSplit,
    NonFiniteLoss,
    PARAM_NAMES,
    TinyNet,
    TrainConfig,
    _band_logits,
    _forward_logits,
    _im2col,
    _padded_cols,
    _param_grads,
    _sigmoid,
    _sigmoid_bce,
    _softmax,
    backward,
    forward,
    predict,
    train,
)
from mrcal.ordinal import OrdinalProbMap, aggregate_foreground, hybrid_loss, orc_encode


def make_samples(n, rng, k=3, size=12):
    samples = []
    for i in range(n):
        img = rng.random((size, size))
        masks = (rng.random((k, size, size)) < img).astype(np.uint8)
        samples.append(
            Sample(
                id=f"s{i:03d}",
                image=Grid2D(img),
                annotations=RaterStack(masks),
            )
        )
    return samples


class TestArchitecture:
    def test_param_count(self):
        for c_out in (1, 4):
            net = TinyNet.init(c_out, hidden_channels=16)
            # conv1: 16*9 + 16, conv2: 16*16*9 + 16, head: c_out*16 + c_out
            expected = 16 * 9 + 16 + 16 * 16 * 9 + 16 + c_out * 16 + c_out
            assert net.num_params() == expected

    def test_biases_zero_at_init(self):
        net = TinyNet.init(4, seed=3)
        for name in ("b1", "b2", "b3"):
            assert (net.params[name] == 0).all()

    def test_init_deterministic(self):
        a = TinyNet.init(4, seed=5).flatten()
        b = TinyNet.init(4, seed=5).flatten()
        np.testing.assert_array_equal(a, b)
        c = TinyNet.init(4, seed=6).flatten()
        assert not np.array_equal(a, c)

    def test_flat_round_trip(self):
        net = TinyNet.init(4, seed=1)
        flat = net.flatten()
        other = TinyNet.from_flat(flat, 4, 16)
        np.testing.assert_array_equal(other.flatten(), flat)

    def test_load_flat_wrong_size(self):
        with pytest.raises(ArchitectureMismatch):
            TinyNet.from_flat(np.zeros(10, dtype=np.float32), 1, 16)


class TestForward:
    def test_zero_head_gives_uniform(self):
        net = TinyNet.init(4, seed=0)
        net.params["w3"] = np.zeros_like(net.params["w3"])
        out = forward(net, Grid2D(np.random.default_rng(0).random((8, 8))))
        np.testing.assert_allclose(out.levels, 0.25, atol=1e-12)

    def test_softmax_normalized(self):
        net = TinyNet.init(4, seed=1)
        out = forward(net, Grid2D(np.random.default_rng(1).random((10, 10))))
        assert isinstance(out, OrdinalProbMap)
        np.testing.assert_allclose(out.levels.sum(axis=0), 1.0, atol=1e-9)

    def test_sigmoid_head_range(self):
        net = TinyNet.init(1, seed=2)
        out = forward(net, Grid2D(np.random.default_rng(2).random((8, 8))))
        assert out.data.min() > 0.0 and out.data.max() < 1.0

    def test_saturated_sigmoid_warns_on_no_thread(self, monkeypatch):
        """exp overflows to inf below a logit of about -709, which gives the
        right 0. NumPy's error state does not reach a pool's workers, so
        `_sigmoid` silences the warning itself: it is raised as an error
        neither on the calling thread nor in a WorkerPool task."""
        logit = np.array([-1000.0, 0.0, 1000.0])
        monkeypatch.setenv("MRCAL_THREADS", "2")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            np.testing.assert_array_equal(_sigmoid(logit), [0.0, 0.5, 1.0])
            with core.WorkerPool(2) as pool:
                assert pool.workers == 2
                for p in pool.map(_sigmoid, [logit] * 4):
                    np.testing.assert_array_equal(p, [0.0, 0.5, 1.0])

    def test_translation_equivariance_interior(self):
        # fully convolutional: shifting the input shifts the output, away
        # from the zero-padded border
        rng = np.random.default_rng(3)
        net = TinyNet.init(1, seed=3)
        img = rng.random((32, 32))
        shifted = np.roll(img, (1, 1), axis=(0, 1))
        out = forward(net, Grid2D(img)).data
        out_shift = forward(net, Grid2D(shifted)).data
        dev = np.abs(np.roll(out, (1, 1), axis=(0, 1)) - out_shift)[3:-3, 3:-3]
        assert dev.max() < 1e-5

    def test_too_small_image(self):
        net = TinyNet.init(1)
        with pytest.raises(ValueError):
            forward(net, Grid2D(np.zeros((2, 2))))


class TestBackward:
    def test_finite_difference(self):
        rng = np.random.default_rng(4)
        net = TinyNet.init(3, hidden_channels=4, seed=4)
        img = rng.random((8, 8))
        d_logits = rng.normal(size=(3, 8, 8))

        def scalar_loss(n):
            logits, _ = _forward_logits(n, img)
            return float((logits * d_logits).sum())

        logits, cache = _forward_logits(net, img)
        grads = backward(net, cache, d_logits)
        h = 1e-3
        for name in PARAM_NAMES:
            p = net.params[name]
            flat_idx = np.unravel_index(
                rng.integers(0, p.size, size=min(8, p.size)), p.shape
            )
            for pick in zip(*[np.atleast_1d(ax) for ax in flat_idx]):
                orig = p[pick]
                p_plus = p.copy()
                p_plus[pick] = orig + h
                p_minus = p.copy()
                p_minus[pick] = orig - h
                net.params[name] = p_plus
                lp = scalar_loss(net)
                net.params[name] = p_minus
                lm = scalar_loss(net)
                net.params[name] = p
                num = (lp - lm) / (2 * h)
                ana = grads[name][pick]
                denom = max(abs(num), abs(ana), 1e-6)
                assert abs(num - ana) / denom < 1e-3, (name, pick)

    def test_zero_upstream_gives_zero_grads(self):
        rng = np.random.default_rng(5)
        net = TinyNet.init(2, hidden_channels=4, seed=5)
        _, cache = _forward_logits(net, rng.random((6, 6)))
        grads = backward(net, cache, np.zeros((2, 6, 6)))
        for name in PARAM_NAMES:
            assert (grads[name] == 0).all()

    def test_dead_relu_blocks_gradient(self):
        rng = np.random.default_rng(6)
        net = TinyNet.init(1, hidden_channels=4, seed=6)
        # force the first conv fully negative: its weights get no gradient
        # beyond the bias path once ReLU output is identically zero
        net.params["w1"] = -np.abs(net.params["w1"]) - 1.0
        net.params["b1"] = np.full_like(net.params["b1"], -10.0)
        img = rng.random((6, 6))
        _, cache = _forward_logits(net, img)
        assert (cache["a1"] == 0).all()
        grads = backward(net, cache, rng.normal(size=(1, 6, 6)))
        assert (grads["w1"] == 0).all()
        assert (grads["b1"] == 0).all()


def naive_conv3x3(x, w, b):
    """Zero-padded 3x3 conv as a direct loop: x (C_in, H, W), w (C_out, C_in, 3, 3)."""
    c_in, h, wd = x.shape
    out = np.empty((w.shape[0], h, wd))
    for o in range(w.shape[0]):
        for i in range(h):
            for j in range(wd):
                acc = b[o]
                for c in range(c_in):
                    for dy in range(3):
                        for dx in range(3):
                            ii, jj = i + dy - 1, j + dx - 1
                            if 0 <= ii < h and 0 <= jj < wd:
                                acc += w[o, c, dy, dx] * x[c, ii, jj]
                out[o, i, j] = acc
    return out


def naive_conv3x3_backward(x, w, d_out):
    """(d_x, d_w, d_b) of `naive_conv3x3`, each output pixel scattered back by loop."""
    c_in, h, wd = x.shape
    d_x = np.zeros_like(x)
    d_w = np.zeros_like(w)
    for o in range(w.shape[0]):
        for i in range(h):
            for j in range(wd):
                g = d_out[o, i, j]
                for c in range(c_in):
                    for dy in range(3):
                        for dx in range(3):
                            ii, jj = i + dy - 1, j + dx - 1
                            if 0 <= ii < h and 0 <= jj < wd:
                                d_w[o, c, dy, dx] += g * x[c, ii, jj]
                                d_x[c, ii, jj] += g * w[o, c, dy, dx]
    return d_x, d_w, d_out.sum(axis=(1, 2))


def naive_net(params, image, d_logits):
    """TinyNet's logits and parameter gradients from the direct-loop conv."""
    x0 = image[None]
    z1 = naive_conv3x3(x0, params["w1"], params["b1"])
    a1 = np.maximum(z1, 0.0)
    z2 = naive_conv3x3(a1, params["w2"], params["b2"])
    a2 = np.maximum(z2, 0.0)
    w3 = params["w3"][:, :, 0, 0]
    logits = np.zeros((w3.shape[0],) + image.shape)
    d_a2 = np.zeros_like(a2)
    d_w3 = np.zeros_like(w3)
    for o in range(w3.shape[0]):
        logits[o] = params["b3"][o]
        for c in range(w3.shape[1]):
            logits[o] += w3[o, c] * a2[c]
            d_a2[c] += w3[o, c] * d_logits[o]
            d_w3[o, c] = (d_logits[o] * a2[c]).sum()
    d_a1, d_w2, d_b2 = naive_conv3x3_backward(a1, params["w2"], d_a2 * (z2 > 0))
    _, d_w1, d_b1 = naive_conv3x3_backward(x0, params["w1"], d_a1 * (z1 > 0))
    grads = {
        "w1": d_w1, "b1": d_b1, "w2": d_w2, "b2": d_b2,
        "w3": d_w3[:, :, None, None], "b3": d_logits.sum(axis=(1, 2)),
    }
    return logits, grads


class TestColumnBuffer:
    """Training writes conv2's columns, then d_z2's, into one reused buffer
    per worker; both paths equal the allocating ones bit for bit."""

    @pytest.mark.parametrize("c", [1, 16])
    def test_padded_cols_into_buffer(self, c):
        padded = np.random.default_rng(c).random((c, 7 + 2, 11 + 2))
        buf = np.full(c * 9 * 7 * 11 + 5, np.nan)
        cols = _padded_cols(padded, out=buf)
        assert np.shares_memory(cols, buf) and cols.flags.c_contiguous
        assert cols.tobytes() == _padded_cols(padded).tobytes()
        assert buf[: cols.size].tobytes() == cols.tobytes()
        assert np.isnan(buf[cols.size :]).all()  # only the columns' share is written

    @pytest.mark.parametrize("out, h, w", [(4, 9, 13), (1, 12, 5)])
    def test_buffered_gradients_equal_backward(self, out, h, w):
        rng = np.random.default_rng(h * w)
        net = TinyNet.init(out, seed=h)
        for name in ("b1", "b2", "b3"):
            net.params[name] = rng.normal(scale=0.5, size=net.params[name].shape)
        image = rng.random((h, w))
        d_logits = rng.normal(size=(out, h, w))
        buf = np.full(9 * net.hidden_channels * h * w, np.nan)
        logits, cache = _band_logits(net, np.pad(image, 1)[None], 0, h, buf)
        assert np.shares_memory(cache["cols2"], buf)
        grads = _param_grads(net, cache, d_logits, buf)
        ref_logits, ref_cache = _forward_logits(net, image)
        ref = backward(net, ref_cache, d_logits)
        assert logits.tobytes() == ref_logits.tobytes()
        for name in PARAM_NAMES:
            assert grads[name].tobytes() == ref[name].tobytes(), name
        # the buffer now holds d_z2's columns, written over conv2's
        assert buf.tobytes() != ref_cache["cols2"].tobytes()


class TestConvOracle:
    """The im2col kernels against a direct-loop convolution on non-square
    images. conv1 always has C_in = 1; conv2's C_in is the hidden width, 1 or 3."""

    @pytest.mark.parametrize(
        "hidden, out, h, w", [(1, 1, 5, 7), (3, 4, 6, 4), (3, 1, 3, 8)]
    )
    def test_matches_direct_loop(self, hidden, out, h, w):
        rng = np.random.default_rng(hidden * 100 + out * 10 + h)
        net = TinyNet.init(out, hidden_channels=hidden, seed=h)
        for name in ("b1", "b2", "b3"):
            net.params[name] = rng.normal(scale=0.5, size=net.params[name].shape)
        image = rng.random((h, w))
        d_logits = rng.normal(size=(out, h, w))

        logits, cache = _forward_logits(net, image)
        grads = backward(net, cache, d_logits)
        ref_logits, ref_grads = naive_net(net.params, image, d_logits)

        np.testing.assert_allclose(logits, ref_logits, rtol=0, atol=1e-12)
        for name in PARAM_NAMES:
            assert grads[name].shape == net.params[name].shape
            np.testing.assert_allclose(grads[name], ref_grads[name], rtol=0, atol=1e-12)


def one_band_logits(params, image):
    """Head logits from whole-image conv columns, conv2's ReLU output
    pixel-major, as the training forward computes them."""

    def conv(x, w, b):
        c_out = w.shape[0]
        return (w.reshape(c_out, -1) @ _im2col(x) + b[:, None]).reshape(c_out, *x.shape[1:])

    a1 = np.maximum(conv(image[None], params["w1"], params["b1"]), 0.0)
    z2 = conv(a1, params["w2"], params["b2"])
    a2 = np.empty(z2.shape[1:] + z2.shape[:1]).transpose(2, 0, 1)
    np.maximum(z2, 0.0, out=a2)
    return np.einsum("oc,chw->ohw", params["w3"][:, :, 0, 0], a2) + params["b3"][:, None, None]


class TestBandedInference:
    """Inference runs conv2, its ReLU and the head over row bands of at most
    BAND_PIXELS pixels; the training forward keeps one whole-image band."""

    @pytest.mark.parametrize(
        "h, w, atol",
        [(64, 64, 0.0), (256, 256, 0.0), (3, 4100, 1e-12), (70, 70, 1e-12), (130, 257, 1e-12)],
    )
    def test_matches_one_band(self, monkeypatch, h, w, atol):
        rng = np.random.default_rng(h * w)
        net = TinyNet.init(4, seed=h)
        for name in ("b1", "b2", "b3"):
            net.params[name] = rng.normal(scale=0.5, size=net.params[name].shape)
        image = rng.random((h, w))
        bands = []
        real = model._pixel_major_like
        monkeypatch.setattr(
            model, "_pixel_major_like", lambda x: bands.append(x.shape) or real(x)
        )
        out = np.empty((4, h, w))
        logits = model._band_loop(net, image, lambda band: band, out)
        assert logits is out  # inference returns its output array alone, no caches
        assert max(c_h * c_w for _, c_h, c_w in bands) <= max(BAND_PIXELS, w)
        assert sum(c_h for _, c_h, _ in bands) == h
        ref = one_band_logits(net.params, image)
        if atol == 0.0:
            np.testing.assert_array_equal(logits, ref)
        else:
            np.testing.assert_allclose(logits, ref, rtol=0, atol=atol)
        # the training forward is the one-band computation, bit for bit
        np.testing.assert_array_equal(_forward_logits(net, image)[0], ref)


def random_checkpoint(out_channels, seed):
    """A checkpoint of a freshly initialised net with random biases; a
    softmax head's K is out_channels - 1."""
    rng = np.random.default_rng(seed)
    net = TinyNet.init(out_channels, seed=seed)
    for name in ("b1", "b2", "b3"):
        net.params[name] = rng.normal(scale=0.5, size=net.params[name].shape)
    return Checkpoint(hidden_channels=net.hidden_channels, out_channels=out_channels,
                      num_raters=max(out_channels - 1, 1), flat_params=net.flatten(),
                      config={}, loss_trace=[], seed=seed)


# band layouts: 16 equal bands; 9 bands, the last one short; 3 one-row bands
# wider than BAND_PIXELS
PREDICT_SIZES = [(256, 256), (130, 257), (3, 4100)]


class TestBandThreads:
    """`predict` runs one image per pool task and returns the maps in image
    order, so the worker count cannot change them."""

    @pytest.mark.parametrize("h, w", PREDICT_SIZES)
    def test_logits_independent_of_thread_count(self, monkeypatch, h, w):
        ckpt = random_checkpoint(4, seed=w)
        rng = np.random.default_rng(h + w)
        # more images than workers, and the other sizes among them
        images = [Grid2D(rng.random(size)) for size in [(h, w), *PREDICT_SIZES, (h, w)]]
        maps = {}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # more worker switches: a shared write would show
        try:
            for threads in ("1", "4"):
                monkeypatch.setenv("MRCAL_THREADS", threads)
                maps[threads] = [m.data.tobytes() for m in predict(ckpt, images)]
        finally:
            sys.setswitchinterval(interval)
        assert maps["1"] == maps["4"]

    def test_auto_divides_usable_cpus_by_blas_threads(self, monkeypatch):
        monkeypatch.setenv("MRCAL_THREADS", "0")
        for var in core.BLAS_THREAD_VARS:
            monkeypatch.delenv(var, raising=False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
        assert core.thread_cap() == 1  # unpinned BLAS uses all 8 CPUs itself
        monkeypatch.setenv("OMP_NUM_THREADS", "1")
        assert core.thread_cap() == 8
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "4")  # read before OMP_NUM_THREADS
        assert core.thread_cap() == 2
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "16")
        assert core.thread_cap() == 1
        # macOS and Windows have no sched_getaffinity: the CPU count stands in
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        assert core.thread_cap() == 6
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert core.thread_cap() == 1


class TestPredict:
    @pytest.mark.parametrize(
        "out_channels", [4, 10, 1], ids=["softmax-K3", "softmax-K9", "sigmoid"]
    )
    def test_equals_whole_image_reference(self, monkeypatch, out_channels):
        """Each band's per-voxel readout equals the readout of the whole
        image's logits, bit for bit."""
        monkeypatch.setenv("MRCAL_THREADS", "2")
        ckpt = random_checkpoint(out_channels, seed=out_channels)
        rng = np.random.default_rng(out_channels)
        images = [Grid2D(rng.random(size)) for size in PREDICT_SIZES]
        maps = predict(ckpt, images)
        assert len(maps) == len(images)
        for image, got in zip(images, maps):
            ref = forward(ckpt.net, image)
            if out_channels > 1:
                ref = aggregate_foreground(ref)
            assert got.data.tobytes() == ref.data.tobytes()

    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_too_small_image_rejected_before_any_task(self, monkeypatch, position):
        monkeypatch.setenv("MRCAL_THREADS", "2")
        tasks = []
        monkeypatch.setattr(model, "_image_foreground", lambda net, image: tasks.append(image))
        images = [Grid2D(np.zeros((8, 8))) for _ in range(3)]
        images[position] = Grid2D(np.zeros((8, 2)))
        with pytest.raises(ValueError, match="at least 3x3"):
            predict(random_checkpoint(4, seed=0), images)
        assert tasks == []

    def test_empty_list(self):
        assert predict(random_checkpoint(4, seed=0), []) == []

    def test_each_image_freed_once_predicted(self, monkeypatch):
        """With no other reference, image i is gone before image i+1's task
        starts (one worker: calls run inline, in order)."""
        monkeypatch.setenv("MRCAL_THREADS", "1")
        held = []
        task = model._image_foreground

        def checked(net, image):
            assert [ref() for ref in held] == [None] * len(held)
            held.append(weakref.ref(image))
            return task(net, image)

        monkeypatch.setattr(model, "_image_foreground", checked)
        rng = np.random.default_rng(5)
        grids = [Grid2D(rng.random((20, 30))) for _ in range(4)]
        maps = predict(random_checkpoint(4, seed=5), (grids.pop() for _ in range(4)))
        assert len(maps) == len(held) == 4


class TestTraining:
    def test_unknown_loss(self):
        with pytest.raises(ValueError, match="unknown loss 'x'"):
            TrainConfig(loss="x")

    def test_checkpoint_echoes_the_config(self):
        cfg = TrainConfig(loss="bce_vs_fused", alpha=0.5, epochs=1, batch_size=2, seed=3,
                          fusion=FusionConfig(method="scg", sigma=2.0))
        ckpt = train(make_samples(2, np.random.default_rng(3)), cfg)
        assert ckpt.config == {
            "loss": "bce_vs_fused", "alpha": 0.5, "lr": 0.01, "epochs": 1, "batch_size": 2,
            "seed": 3, "hidden_channels": 16, "fusion_method": "scg", "fusion_sigma": 2.0,
        }

    def test_empty_split(self):
        with pytest.raises(EmptyTrainSplit):
            train([], TrainConfig(epochs=1))

    def test_rater_count_mismatch(self):
        rng = np.random.default_rng(7)
        a = make_samples(1, rng, k=3)[0]
        b = make_samples(1, rng, k=2)[0]
        with pytest.raises(ArchitectureMismatch):
            train([a, b], TrainConfig(epochs=1))

    def test_loss_decreases(self):
        rng = np.random.default_rng(8)
        samples = make_samples(6, rng)
        ckpt = train(samples, TrainConfig(loss="hybrid_rps", epochs=8, lr=0.05, seed=0))
        assert ckpt.loss_trace[-1] < ckpt.loss_trace[0]

    def test_deterministic_bitwise(self):
        rng = np.random.default_rng(9)
        samples = make_samples(4, rng)
        cfg = TrainConfig(loss="hybrid_rps", epochs=3, seed=11)
        a = train(samples, cfg)
        b = train(samples, cfg)
        np.testing.assert_array_equal(a.flat_params, b.flat_params)
        assert a.loss_trace == b.loss_trace

    def test_rs_target_deterministic(self):
        rng = np.random.default_rng(10)
        samples = make_samples(4, rng)
        cfg = TrainConfig(
            loss="bce_vs_fused",
            fusion=FusionConfig(method="rs", rng_seed=5),
            epochs=2,
            seed=1,
        )
        a = train(samples, cfg)
        b = train(samples, cfg)
        np.testing.assert_array_equal(a.flat_params, b.flat_params)

    def test_fused_heads_are_single_channel(self):
        rng = np.random.default_rng(11)
        samples = make_samples(3, rng)
        for method in ("mc", "sc"):
            cfg = TrainConfig(
                loss="bce_vs_fused", fusion=FusionConfig(method=method), epochs=1
            )
            ckpt = train(samples, cfg)
            assert ckpt.out_channels == 1

    def test_staple_performance_recorded(self):
        rng = np.random.default_rng(12)
        samples = make_samples(3, rng)
        cfg = TrainConfig(
            loss="bce_vs_fused", fusion=FusionConfig(method="staple"), epochs=1
        )
        ckpt = train(samples, cfg)
        perf = ckpt.extra["staple_rater_performance"]
        assert len(perf["sensitivity"]) == 3
        assert len(perf["specificity"]) == 3

    def test_staple_runs_once_per_sample(self, monkeypatch):
        samples = make_samples(4, np.random.default_rng(13))
        calls = []
        real = fusion.fuse_staple

        def counting(stack, cfg, *args, **kwargs):
            calls.append(stack)
            return real(stack, cfg, *args, **kwargs)

        monkeypatch.setattr(fusion, "fuse_staple", counting)
        cfg = TrainConfig(loss="bce_vs_fused", fusion=FusionConfig(method="staple"), epochs=2)
        ckpt = train(samples, cfg)
        assert len(calls) == len(samples)
        # the recorded estimate is the one the first sample's target came from
        _, perf = real(samples[0].annotations, cfg.fusion)
        assert ckpt.extra["staple_rater_performance"] == {
            "sensitivity": list(perf.sensitivity),
            "specificity": list(perf.specificity),
        }

    @pytest.mark.parametrize("batch_size", [1, 3, 8])
    @pytest.mark.parametrize("loss, method", [
        ("hybrid_rps", "mc"), ("bce_vs_fused", "rs"), ("bce_vs_fused", "staple"),
    ])
    def test_matches_reference_sgd_loop(self, monkeypatch, loss, method, batch_size):
        """`train` is plain minibatch SGD, bit for bit: with 4 samples,
        batch_size 3 leaves a short last batch and 8 makes one batch. The
        parameters are compared in float64, where the float32 checkpoint
        would hide a different summation order."""
        monkeypatch.setattr(TinyNet, "flatten", lambda net: np.concatenate(
            [net.params[name].ravel() for name in PARAM_NAMES]
        ))
        samples = make_samples(4, np.random.default_rng(14), size=8)
        cfg = TrainConfig(
            loss=loss, fusion=FusionConfig(method=method, rng_seed=5), lr=0.05,
            epochs=3, batch_size=batch_size, seed=2,
        )
        params, trace = reference_sgd(samples, cfg)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # more worker switches: a shared write would show
        try:
            for threads in ("1", "2", "4"):
                monkeypatch.setenv("MRCAL_THREADS", threads)
                ckpt = train(samples, cfg)
                np.testing.assert_array_equal(ckpt.flat_params, params, err_msg=threads)
                assert ckpt.loss_trace == trace, threads
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("loss", ["hybrid_rps", "bce_vs_fused"])
    def test_non_finite_loss_on_the_pool(self, monkeypatch, loss):
        """A NaN image raises the same NonFiniteLoss at every thread count, and
        no worker outlives `train`, whether it returns or raises."""
        samples = make_samples(6, np.random.default_rng(15), size=8)
        cfg = TrainConfig(loss=loss, epochs=2, batch_size=4)
        nan_sample = Sample(id="nan", image=Grid2D(np.full((8, 8), np.nan)),
                            annotations=samples[4].annotations)
        errors = []
        for threads in ("1", "4"):
            monkeypatch.setenv("MRCAL_THREADS", threads)
            train(samples, cfg)
            assert workers_alive() == []
            with pytest.raises(NonFiniteLoss) as info:
                train(samples[:4] + [nan_sample] + samples[5:], cfg)
            assert workers_alive() == []
            errors.append(str(info.value))
        assert errors == ["epoch 0: loss is not finite"] * 2

    @pytest.mark.parametrize("loss", ["hybrid_rps", "bce_vs_fused"])
    def test_diverging_parameters_raise(self, monkeypatch, loss):
        """A parameter that leaves the float32 range (the checkpoint's) raises
        NonFiniteLoss naming the epoch, while every loss is still finite."""
        samples = make_samples(4, np.random.default_rng(21), size=8)
        cfg = TrainConfig(loss=loss, lr=1e300, epochs=3, fusion=FusionConfig(method="mc"))
        for threads in ("1", "2"):
            monkeypatch.setenv("MRCAL_THREADS", threads)
            with pytest.raises(NonFiniteLoss, match="epoch 0: a parameter is NaN, inf or beyond"):
                train(samples, cfg)

    def test_defaults(self):
        cfg = TrainConfig()
        assert cfg.lr == 0.01
        assert cfg.epochs == 20
        assert cfg.batch_size == 4
        assert cfg.alpha == 0.8


def workers_alive():
    return [t.name for t in threading.enumerate() if t.name.startswith("mrcal-worker")]


def reference_sgd(samples, cfg):
    """The SGD rule `train` implements, as a plain loop: per sample in each
    epoch's permutation, forward, loss, backward; gradients summed in that
    order and the mean applied after every batch_size samples and at the end
    of the epoch. rs redraws its target at step epoch * n + sample index."""
    k = samples[0].annotations.num_raters
    ordinal = cfg.loss == "hybrid_rps"
    net = TinyNet.init(k + 1 if ordinal else 1, seed=cfg.seed)
    rng = np.random.default_rng(cfg.seed + 1)
    n = len(samples)
    trace = []
    for epoch in range(cfg.epochs):
        order = rng.permutation(n).tolist()
        losses, batch = [], []
        for pos, idx in enumerate(order):
            sample = samples[idx]
            logits, cache = _forward_logits(net, sample.image.data)
            if ordinal:
                probs = OrdinalProbMap(_softmax(logits), num_raters=k)
                loss, d_logits = hybrid_loss(probs, orc_encode(sample.annotations), cfg.alpha)
            else:
                step = epoch * n + idx if cfg.fusion.method == "rs" else 0
                target, _ = fuse(sample.annotations, cfg.fusion, step=step)
                loss, d_logit = _sigmoid_bce(logits[0], target.data.astype(np.float64))
                d_logits = d_logit[None]
            losses.append(loss)
            batch.append(backward(net, cache, d_logits))
            if len(batch) == cfg.batch_size or pos == n - 1:
                for name in PARAM_NAMES:
                    total = batch[0][name]
                    for grads in batch[1:]:
                        total = total + grads[name]
                    net.params[name] = net.params[name] - cfg.lr * (total / len(batch))
                batch = []
        trace.append(float(np.mean(losses)))
    return net.flatten(), trace


class TestCheckpoint:
    def test_save_load_round_trip(self, tmp_path):
        rng = np.random.default_rng(13)
        samples = make_samples(3, rng)
        ckpt = train(samples, TrainConfig(loss="hybrid_rps", epochs=1))
        path = tmp_path / "model.mrc"
        ckpt.save(path)
        assert path.exists()
        assert path.with_suffix(".mrc.json").exists()
        loaded = Checkpoint.load(path)
        np.testing.assert_array_equal(loaded.flat_params, ckpt.flat_params)
        assert loaded.out_channels == ckpt.out_channels
        assert loaded.num_raters == 3
        # predictions from the reloaded net are bit-identical
        img = Grid2D(rng.random((12, 12)))
        np.testing.assert_array_equal(
            predict(loaded, [img])[0].data, predict(ckpt, [img])[0].data
        )

    def test_corrupt_descriptor(self, tmp_path):
        rng = np.random.default_rng(14)
        samples = make_samples(2, rng)
        ckpt = train(samples, TrainConfig(loss="hybrid_rps", epochs=1))
        path = tmp_path / "model.mrc"
        ckpt.save(path)
        sidecar = path.with_suffix(".mrc.json")
        n = ckpt.flat_params.size
        text = sidecar.read_text().replace(f'"num_params": {n}', '"num_params": 999')
        sidecar.write_text(text)
        with pytest.raises(ArchitectureMismatch):
            Checkpoint.load(path)

    def test_parameters_from_another_checkpoint_rejected(self, tmp_path):
        rng = np.random.default_rng(18)
        samples = make_samples(2, rng)
        first = train(samples, TrainConfig(loss="hybrid_rps", epochs=1))
        second = train(samples, TrainConfig(loss="hybrid_rps", epochs=1, seed=1))
        first.save(tmp_path / "first.mrc")
        second.save(tmp_path / "second.mrc")
        # a crash between save's two renames pairs new parameters with the old sidecar
        os.replace(tmp_path / "second.mrc", tmp_path / "first.mrc")
        with pytest.raises(ArchitectureMismatch, match="sha256"):
            Checkpoint.load(tmp_path / "first.mrc")

    def test_non_finite_parameters_rejected(self, tmp_path):
        ckpt = train(make_samples(2, np.random.default_rng(20)), TrainConfig(epochs=1))
        flat = ckpt.flat_params.copy()
        flat[[3, 7]] = np.nan, np.inf
        path = tmp_path / "model.mrc"
        replace(ckpt, flat_params=flat).save(path)  # its sidecar's sha256 matches
        with pytest.raises(core.NonFiniteValues, match=f"2 of {flat.size} parameters") as info:
            Checkpoint.load(path)
        assert str(path) in str(info.value)

    def test_sidecar_without_digest_loads(self, tmp_path):
        rng = np.random.default_rng(19)
        ckpt = train(make_samples(2, rng), TrainConfig(loss="hybrid_rps", epochs=1))
        path = tmp_path / "model.mrc"
        ckpt.save(path)
        sidecar_path = path.with_suffix(".mrc.json")
        sidecar = json.loads(sidecar_path.read_text())
        del sidecar["params_sha256"]
        sidecar_path.write_text(json.dumps(sidecar))
        np.testing.assert_array_equal(Checkpoint.load(path).flat_params, ckpt.flat_params)

    def test_failed_save_keeps_earlier_checkpoint(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(16)
        samples = make_samples(2, rng)
        first = train(samples, TrainConfig(loss="hybrid_rps", epochs=1))
        second = train(samples, TrainConfig(loss="hybrid_rps", epochs=1, seed=1))
        path = tmp_path / "model.mrc"
        first.save(path)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

        def fail(self, *args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(type(path), "write_text", fail)
        with pytest.raises(OSError, match="disk full"):
            second.save(path)
        monkeypatch.undo()
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
        np.testing.assert_array_equal(Checkpoint.load(path).flat_params, first.flat_params)

    def test_build_net_from_flat_params(self):
        rng = np.random.default_rng(17)
        ckpt = train(make_samples(2, rng), TrainConfig(loss="hybrid_rps", epochs=1))
        net = ckpt.build_net()
        np.testing.assert_array_equal(net.flatten(), ckpt.flat_params)
        reference = TinyNet.init(ckpt.out_channels, ckpt.hidden_channels)
        for name in PARAM_NAMES:
            assert net.params[name].shape == reference.params[name].shape
            assert net.params[name].dtype == np.float64
        assert ckpt.net is ckpt.net  # built once, then reused by predict
        ckpt.flat_params = ckpt.flat_params[:-1]
        with pytest.raises(ArchitectureMismatch):
            ckpt.build_net()

    def test_predict_aggregates_ordinal_head(self):
        rng = np.random.default_rng(15)
        samples = make_samples(2, rng)
        ckpt = train(samples, TrainConfig(loss="hybrid_rps", epochs=1))
        img = Grid2D(rng.random((12, 12)))
        net = ckpt.build_net()
        levels = forward(net, img).levels
        expected = levels[2:].sum(axis=0)  # majority level for K=3
        np.testing.assert_allclose(predict(ckpt, [img])[0].data, expected, atol=1e-12)
