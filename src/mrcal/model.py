"""A small self-contained convolutional segmentation net with manual gradients.

Architecture: 3x3 conv (1 -> C_h, pad 1) + ReLU, 3x3 conv (C_h -> C_h, pad 1)
+ ReLU, 1x1 head (C_h -> C_out). C_out = 1 trains a sigmoid foreground head;
C_out = K+1 trains the softmax ordinal-consensus head.

Convolutions are im2col matmuls over channels-first columns: `_im2col` maps a
(C, H, W) input to a (C*9, H*W) matrix, so a conv is one (C_out, C_in*9) @
(C_in*9, H*W) product. The forward pass caches both convs' columns and the
backward pass reuses them for the weight gradients instead of rebuilding
them. The conv2 input gradient is the flipped-kernel correlation over the
columns of the upstream gradient; conv1's input gradient (the gradient with
respect to the image) is never needed, so it is not computed. Backward passes
are exact reverse-mode gradients, verified against finite differences and a
direct-loop convolution in the test suite. Inference keeps no cache: it runs
the whole net (conv1 with a one-row halo, both ReLUs, conv2 and the head) per
row band of at most BAND_PIXELS pixels, so every intermediate stays
cache-sized at any image size. The bands are independent and run through
`core.ordered_map` on its MRCAL_THREADS worker threads (see
`core.thread_cap`); each writes only its own rows of the logits, so the
result is the same bit for bit at every thread count. Training runs the same
code as one whole-image band.

Two arrays are stored pixel-major ((H, W, C) in memory, see
`_pixel_major_like`): conv2's ReLU output, which the head's einsums read, and
conv1's output gradient, which its weight and bias gradients reduce. numpy's
einsum and sums and OpenBLAS's small-matrix kernels round in memory order, and
this is the order these reductions have always used, so with one BLAS thread a
trained checkpoint stays byte-identical to the one the per-pixel im2col layout
of earlier versions wrote.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import (
    DTYPE_F32,
    ForegroundProbMap,
    Grid2D,
    ordered_map,
    read_container,
    write_container,
    write_together,
)
from .fusion import DegenerateStack, FusionConfig, fuse
from .ordinal import LossConfig, OrdinalProbMap, aggregate_foreground, hybrid_loss, orc_encode

PARAM_NAMES = ("w1", "b1", "w2", "b2", "w3", "b3")

# Pixels per inference band (see `_forward_logits`): 4096 pixels of conv2's
# 16-channel columns are 4.7 MB, against 75 MB for a whole 256x256 image.
BAND_PIXELS = 4096


class ArchitectureMismatch(Exception):
    pass


class EmptyTrainSplit(Exception):
    pass


class NonFiniteLoss(Exception):
    pass


@dataclass
class TrainConfig:
    loss: str = "hybrid_rps"  # or "bce_vs_fused"
    alpha: float = 0.8
    lr: float = 0.01
    epochs: int = 20
    batch_size: int = 4
    seed: int = 0
    fusion: FusionConfig = field(default_factory=FusionConfig)
    hidden_channels: int = 16

    def __post_init__(self):
        if not 0 < self.lr < math.inf:
            raise ValueError("lr must be finite and > 0")
        LossConfig(alpha=self.alpha)  # rejects a non-finite or negative alpha
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.loss not in ("hybrid_rps", "bce_vs_fused"):
            raise ValueError(f"unknown loss {self.loss!r}")


@dataclass
class TinyNet:
    """Parameter container; out_channels 1 = sigmoid head, K+1 = softmax head."""

    params: dict[str, np.ndarray]
    hidden_channels: int
    out_channels: int

    @classmethod
    def init(cls, out_channels: int, hidden_channels: int = 16, seed: int = 0) -> "TinyNet":
        """Kaiming-uniform weights (seeded), zero biases."""
        rng = np.random.default_rng(seed)
        c = hidden_channels
        fan_in = {"w1": 9, "w2": 9 * c, "w3": c}
        params = {}
        for name, shape in _param_shapes(out_channels, c).items():
            if name in fan_in:
                bound = np.sqrt(6.0 / fan_in[name])
                params[name] = rng.uniform(-bound, bound, size=shape)
            else:
                params[name] = np.zeros(shape)
        return cls(params=params, hidden_channels=c, out_channels=out_channels)

    @classmethod
    def from_flat(cls, flat: np.ndarray, out_channels: int, hidden_channels: int) -> "TinyNet":
        """The net whose `flatten()` is `flat` (float64 views of it)."""
        flat = np.asarray(flat, dtype=np.float64)
        shapes = _param_shapes(out_channels, hidden_channels)
        sizes = [math.prod(shape) for shape in shapes.values()]
        if flat.size != sum(sizes):
            raise ArchitectureMismatch(
                f"flat vector has {flat.size} values, expected {sum(sizes)}"
            )
        params = {}
        offset = 0
        for (name, shape), size in zip(shapes.items(), sizes):
            params[name] = flat[offset : offset + size].reshape(shape)
            offset += size
        return cls(params=params, hidden_channels=hidden_channels, out_channels=out_channels)

    def num_params(self) -> int:
        return sum(p.size for p in self.params.values())

    def flatten(self) -> np.ndarray:
        return np.concatenate(
            [self.params[name].ravel() for name in PARAM_NAMES]
        ).astype(np.float32)


def _param_shapes(out_channels: int, hidden_channels: int) -> dict[str, tuple]:
    """Parameter shapes in PARAM_NAMES (= flatten) order."""
    c = hidden_channels
    return {
        "w1": (c, 1, 3, 3),
        "b1": (c,),
        "w2": (c, c, 3, 3),
        "b2": (c,),
        "w3": (out_channels, c, 1, 1),
        "b3": (out_channels,),
    }


def _padded_cols(padded: np.ndarray) -> np.ndarray:
    """Channels-first 3x3 columns of an already padded (C, H+2, W+2) input:
    (C*9, H*W).

    Row c*9 + 3*dy + dx holds x[c, i + dy - 1, j + dx - 1] at column i*W + j,
    matching w.reshape(C_out, C*9) for w of shape (C_out, C, 3, 3).
    """
    c, h, wd = padded.shape[0], padded.shape[1] - 2, padded.shape[2] - 2
    windows = sliding_window_view(padded, (3, 3), axis=(1, 2))  # (C, H, W, 3, 3)
    return windows.transpose(0, 3, 4, 1, 2).reshape(c * 9, h * wd)


def _im2col(x: np.ndarray) -> np.ndarray:
    """Channels-first 3x3 columns of x (C, H, W), zero padding 1: (C*9, H*W)."""
    return _padded_cols(np.pad(x, ((0, 0), (1, 1), (1, 1))))


def _conv3x3(cols: np.ndarray, w: np.ndarray, b: np.ndarray, shape) -> np.ndarray:
    """Padded 3x3 conv from `_im2col` columns; w: (C_out, C_in, 3, 3).

    Returns (C_out, H, W) for shape = (H, W).
    """
    c_out = w.shape[0]
    return (w.reshape(c_out, -1) @ cols + b[:, None]).reshape(c_out, *shape)


def _conv3x3_param_grads(cols: np.ndarray, w: np.ndarray, d_out: np.ndarray):
    """Weight and bias gradients of a padded 3x3 conv from its forward columns."""
    d_flat = d_out.reshape(w.shape[0], -1)
    return (d_flat @ cols.T).reshape(w.shape), d_flat.sum(axis=1)


def _conv3x3_input_grad(w: np.ndarray, d_out: np.ndarray) -> np.ndarray:
    """Input gradient of a padded 3x3 conv: d_out correlated with the flipped kernel."""
    c_out, c_in = w.shape[:2]
    w_flip = w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(c_in, c_out * 9)
    return (w_flip @ _im2col(d_out)).reshape(c_in, *d_out.shape[1:])


def _pixel_major_like(x: np.ndarray) -> np.ndarray:
    """An empty array shaped like x (C, H, W) but stored pixel-major, (H, W, C)
    in memory: reductions over it round as they did before (module docstring)."""
    c, h, wd = x.shape
    return np.empty((h, wd, c)).transpose(2, 0, 1)


def _band_logits(net: TinyNet, padded: np.ndarray, top: int, bottom: int, logits: np.ndarray):
    """Run the whole net for image rows [top, bottom) into logits[:, top:bottom].

    `padded` is the zero-padded (1, H+2, W+2) image. conv1 runs on the band
    plus a one-row halo above and below (clipped to the image), since conv2
    reads it; its ReLU goes into a zero-padded band buffer whose border rows
    outside the image stay 0. Returns the band's caches for backward, which
    cover the whole image when the band does.
    """
    h, wd = padded.shape[1] - 2, padded.shape[2] - 2
    lo, hi = max(top - 1, 0), min(bottom + 1, h)  # conv1 output rows
    cols1 = _padded_cols(padded[:, lo : hi + 2])
    z1 = _conv3x3(cols1, net.params["w1"], net.params["b1"], (hi - lo, wd))
    a1_padded = np.zeros((z1.shape[0], bottom - top + 2, wd + 2))
    a1 = np.maximum(z1, 0.0, out=a1_padded[:, lo - top + 1 : hi - top + 1, 1:-1])
    cols2 = _padded_cols(a1_padded)
    z2 = _conv3x3(cols2, net.params["w2"], net.params["b2"], (bottom - top, wd))
    a2 = np.maximum(z2, 0.0, out=_pixel_major_like(z2))
    w3 = net.params["w3"][:, :, 0, 0]  # (C_out, C_h)
    logits[:, top:bottom] = np.einsum("oc,chw->ohw", w3, a2) + net.params["b3"][:, None, None]
    return {"cols1": cols1, "z1": z1, "a1": a1, "cols2": cols2, "z2": z2, "a2": a2}


def _forward_logits(net: TinyNet, image: np.ndarray, keep_cache: bool = True):
    """Raw head outputs (C_out, H, W) plus the caches backward needs.

    With keep_cache=False (inference) the cache is None, and the whole net
    runs per band of max(1, BAND_PIXELS // W) rows, so every intermediate
    stays cache-sized instead of one (C*9, H*W) matrix per image. The bands
    are independent and each writes its own rows of the logits, so they run
    through `ordered_map` with results that do not depend on the thread
    count. With the cache, the band is the whole image.
    """
    h, wd = image.shape
    padded = np.pad(image, 1)[None]
    logits = np.empty((net.out_channels, h, wd))
    if keep_cache:
        return logits, _band_logits(net, padded, 0, h, logits)
    rows = max(1, BAND_PIXELS // wd)
    bands = [(top, min(top + rows, h)) for top in range(0, h, rows)]

    def run(band):
        _band_logits(net, padded, *band, logits)  # its caches die here, not in the map's window

    for _ in ordered_map(run, bands):
        pass
    return logits, None


def _softmax(logits: np.ndarray) -> np.ndarray:
    e = logits - logits.max(axis=0, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=0, keepdims=True)
    return e


def forward(net: TinyNet, image: Grid2D):
    """Run the net; softmax head returns an OrdinalProbMap, sigmoid head a
    ForegroundProbMap."""
    if image.height < 3 or image.width < 3:
        raise ValueError("image must be at least 3x3")
    logits, _ = _forward_logits(net, image.data, keep_cache=False)
    if net.out_channels == 1:
        return ForegroundProbMap.from_array(1.0 / (1.0 + np.exp(-logits[0])))
    return OrdinalProbMap(_softmax(logits), num_raters=net.out_channels - 1)


def backward(net: TinyNet, cache: dict, d_logits: np.ndarray) -> dict[str, np.ndarray]:
    """Parameter gradients given the loss gradient at the head logits."""
    a2 = cache["a2"]
    w3 = net.params["w3"][:, :, 0, 0]
    d_w3 = np.einsum("ohw,chw->oc", d_logits, a2)[:, :, None, None]
    d_b3 = d_logits.sum(axis=(1, 2))
    d_a2 = np.einsum("oc,ohw->chw", w3, d_logits)
    d_z2 = d_a2 * (cache["z2"] > 0)
    d_w2, d_b2 = _conv3x3_param_grads(cache["cols2"], net.params["w2"], d_z2)
    d_a1 = _conv3x3_input_grad(net.params["w2"], d_z2)
    d_z1 = np.multiply(d_a1, cache["z1"] > 0, out=_pixel_major_like(d_a1))
    d_w1, d_b1 = _conv3x3_param_grads(cache["cols1"], net.params["w1"], d_z1)
    return {"w1": d_w1, "b1": d_b1, "w2": d_w2, "b2": d_b2, "w3": d_w3, "b3": d_b3}


def _sigmoid_bce(logit: np.ndarray, target: np.ndarray, clamp: float = 1e-7):
    """BCE of sigmoid(logit) against a (possibly soft) target in [0,1].

    Returns (loss, gradient w.r.t. the logit). The gradient p - t is exact
    for the unclamped loss; the clamp only guards the log evaluation.
    """
    p = 1.0 / (1.0 + np.exp(-logit))
    pc = np.clip(p, clamp, 1.0 - clamp)
    loss = float((-(target * np.log(pc) + (1.0 - target) * np.log(1.0 - pc))).mean())
    grad = (p - target) / target.size
    return loss, grad


@dataclass
class Checkpoint:
    """Trained parameters plus enough metadata to rebuild the net."""

    hidden_channels: int
    out_channels: int
    num_raters: int
    flat_params: np.ndarray
    config: dict
    loss_trace: list[float]
    seed: int
    extra: dict = field(default_factory=dict)

    def build_net(self) -> TinyNet:
        return TinyNet.from_flat(self.flat_params, self.out_channels, self.hidden_channels)

    @cached_property
    def net(self) -> TinyNet:
        """The net of `flat_params`, built on first use and then reused."""
        return self.build_net()

    def save(self, path) -> None:
        """MRC1 f32 1-D parameter vector plus a .json sidecar.

        Both files are written to temporary files beside their targets and
        then renamed over them (`write_together`), so a failed save leaves no
        partial file and keeps an earlier checkpoint at `path` loadable. The
        sidecar records the sha256 of the parameter payload, so `load` rejects
        a parameter file paired with another checkpoint's sidecar, which a
        crash between the two renames can leave.
        """
        path = Path(path)
        flat = np.asarray(self.flat_params, dtype="<f4")
        sidecar = {
            "architecture": {
                "hidden_channels": self.hidden_channels,
                "out_channels": self.out_channels,
                "num_raters": self.num_raters,
                "num_params": int(flat.size),
            },
            "config": self.config,
            "loss_trace": self.loss_trace,
            "params_sha256": hashlib.sha256(flat.tobytes()).hexdigest(),
            "seed": self.seed,
            "extra": self.extra,
        }
        text = json.dumps(sidecar, indent=2, sort_keys=True) + "\n"
        write_together({
            path: lambda tmp: write_container(DTYPE_F32, (flat.size,), flat, tmp),
            path.with_suffix(path.suffix + ".json"): lambda tmp: tmp.write_text(text),
        })

    @classmethod
    def load(cls, path) -> "Checkpoint":
        """Read a checkpoint. A sidecar without `params_sha256` (written before
        the field existed) loads unchecked."""
        path = Path(path)
        _, dims, flat = read_container(path)
        sidecar_path = path.with_suffix(path.suffix + ".json")
        try:
            sidecar = json.loads(sidecar_path.read_text())
            arch = sidecar["architecture"]
            num_params = int(arch["num_params"])
            digest = sidecar.get("params_sha256")
            checkpoint = cls(
                hidden_channels=int(arch["hidden_channels"]),
                out_channels=int(arch["out_channels"]),
                num_raters=int(arch["num_raters"]),
                flat_params=np.asarray(flat, dtype=np.float32),
                config=sidecar["config"],
                loss_trace=sidecar["loss_trace"],
                seed=sidecar["seed"],
                extra=sidecar.get("extra", {}),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ArchitectureMismatch(f"{sidecar_path}: malformed sidecar: {exc!r}") from exc
        if int(np.prod(dims)) != num_params:
            raise ArchitectureMismatch(
                f"{path}: {int(np.prod(dims))} params on disk, descriptor says {num_params}"
            )
        if digest is not None and digest != hashlib.sha256(flat.tobytes()).hexdigest():
            raise ArchitectureMismatch(
                f"{path}: parameters do not match the sha256 in {sidecar_path.name}"
            )
        return checkpoint


def _fused_target(sample, cfg: TrainConfig, step: int):
    """The sample's fused target as float64, plus STAPLE's rater performance
    estimate (None for the other methods)."""
    try:
        fused, perf = fuse(sample.annotations, cfg.fusion, step=step)
    except DegenerateStack as exc:
        raise DegenerateStack(
            f"cannot fuse sample {sample.id!r} with {cfg.fusion.method}: {exc}"
        ) from exc
    return fused.data.astype(np.float64), perf


def train(samples, cfg: TrainConfig) -> Checkpoint:
    """Plain SGD over the train split; returns a checkpoint with loss trace.

    hybrid_rps trains the K+1 softmax head against ordinal consensus
    targets. bce_vs_fused trains the 1-channel sigmoid head against the
    configured fusion target; random-sampling targets are redrawn every
    epoch at step = epoch * len(samples) + index.
    """
    samples = list(samples)
    if not samples:
        raise EmptyTrainSplit("train split is empty")
    k = samples[0].annotations.num_raters
    for s in samples:
        if s.annotations.num_raters != k:
            raise ArchitectureMismatch(
                f"sample {s.id!r} has K={s.annotations.num_raters}, expected {k}"
            )

    perf = None  # STAPLE's rater performance on the first sample
    if cfg.loss == "hybrid_rps":
        out_channels = k + 1
        targets = {s.id: orc_encode(s.annotations) for s in samples}
    else:
        out_channels = 1
        if cfg.fusion.method != "rs":
            fused = [_fused_target(s, cfg, step=0) for s in samples]
            targets = {s.id: target for s, (target, _) in zip(samples, fused)}
            perf = fused[0][1]
        else:
            targets = None  # redrawn per (epoch, index)

    net = TinyNet.init(out_channels, cfg.hidden_channels, seed=cfg.seed)
    loss_cfg = LossConfig(alpha=cfg.alpha)
    rng = np.random.default_rng(cfg.seed + 1)
    trace = []

    for epoch in range(cfg.epochs):
        order = rng.permutation(len(samples))
        epoch_losses = []
        batch_grads = None
        batch_count = 0

        for pos, idx in enumerate(order):
            sample = samples[int(idx)]
            logits, cache = _forward_logits(net, sample.image.data)
            if cfg.loss == "hybrid_rps":
                probs = OrdinalProbMap(_softmax(logits), num_raters=k)
                loss, d_logits = hybrid_loss(probs, targets[sample.id], loss_cfg)
            else:
                if targets is None:
                    step = epoch * len(samples) + int(idx)
                    target, _ = _fused_target(sample, cfg, step=step)
                else:
                    target = targets[sample.id]
                loss, d_logits = _sigmoid_bce(logits[0], target)
                d_logits = d_logits[None]
            if not np.isfinite(loss):
                raise NonFiniteLoss(f"epoch {epoch}: loss is not finite")
            epoch_losses.append(loss)

            grads = backward(net, cache, d_logits)
            if batch_grads is None:
                batch_grads = grads
            else:
                for name in PARAM_NAMES:
                    batch_grads[name] = batch_grads[name] + grads[name]
            batch_count += 1

            if batch_count == cfg.batch_size or pos == len(order) - 1:
                for name in PARAM_NAMES:
                    net.params[name] = net.params[name] - cfg.lr * (
                        batch_grads[name] / batch_count
                    )
                batch_grads = None
                batch_count = 0

        trace.append(float(np.mean(epoch_losses)))

    extra = {}
    if perf is not None:
        extra["staple_rater_performance"] = {
            "sensitivity": list(perf.sensitivity),
            "specificity": list(perf.specificity),
        }

    config_echo = {
        "loss": cfg.loss,
        "alpha": cfg.alpha,
        "lr": cfg.lr,
        "epochs": cfg.epochs,
        "batch_size": cfg.batch_size,
        "seed": cfg.seed,
        "hidden_channels": cfg.hidden_channels,
        "fusion_method": cfg.fusion.method,
        "fusion_sigma": cfg.fusion.sigma,
    }
    return Checkpoint(
        hidden_channels=cfg.hidden_channels,
        out_channels=out_channels,
        num_raters=k,
        flat_params=net.flatten(),
        config=config_echo,
        loss_trace=trace,
        seed=cfg.seed,
        extra=extra,
    )


def predict(checkpoint: Checkpoint, image: Grid2D) -> ForegroundProbMap:
    """Foreground probability map; ordinal heads aggregate majority mass."""
    out = forward(checkpoint.net, image)
    if isinstance(out, OrdinalProbMap):
        return aggregate_foreground(out)
    return out
