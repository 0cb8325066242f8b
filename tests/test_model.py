import json
import os
import sys

import numpy as np
import pytest

from mrcal.core import Grid2D, RaterStack, Sample
from mrcal.fusion import FusionConfig
from mrcal import core, fusion, model
from mrcal.model import (
    BAND_PIXELS,
    ArchitectureMismatch,
    Checkpoint,
    EmptyTrainSplit,
    PARAM_NAMES,
    TinyNet,
    TrainConfig,
    _forward_logits,
    _im2col,
    backward,
    forward,
    predict,
    train,
)
from mrcal.ordinal import OrdinalProbMap


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
        logits, cache = _forward_logits(net, image, keep_cache=False)
        assert cache is None
        assert max(c_h * c_w for _, c_h, c_w in bands) <= max(BAND_PIXELS, w)
        assert sum(c_h for _, c_h, _ in bands) == h
        ref = one_band_logits(net.params, image)
        if atol == 0.0:
            np.testing.assert_array_equal(logits, ref)
        else:
            np.testing.assert_allclose(logits, ref, rtol=0, atol=atol)
        # the training forward is the one-band computation, bit for bit
        np.testing.assert_array_equal(_forward_logits(net, image)[0], ref)


class TestBandThreads:
    """Bands write disjoint rows of the logits, so the worker count cannot
    change them."""

    @pytest.mark.parametrize("h, w", [(256, 256), (130, 257), (3, 4100)])
    def test_logits_independent_of_thread_count(self, monkeypatch, h, w):
        rng = np.random.default_rng(h + w)
        net = TinyNet.init(4, seed=w)
        for name in ("b1", "b2", "b3"):
            net.params[name] = rng.normal(scale=0.5, size=net.params[name].shape)
        image = rng.random((h, w))
        logits = {}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # more worker switches: a shared write would show
        try:
            for threads in ("1", "4"):
                monkeypatch.setenv("MRCAL_THREADS", threads)
                logits[threads], _ = _forward_logits(net, image, keep_cache=False)
        finally:
            sys.setswitchinterval(interval)
        np.testing.assert_array_equal(logits["1"], logits["4"])

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


class TestTraining:
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

    def test_defaults(self):
        cfg = TrainConfig()
        assert cfg.lr == 0.01
        assert cfg.epochs == 20
        assert cfg.batch_size == 4
        assert cfg.alpha == 0.8


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
            predict(loaded, img).data, predict(ckpt, img).data
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
        np.testing.assert_allclose(predict(ckpt, img).data, expected, atol=1e-12)
