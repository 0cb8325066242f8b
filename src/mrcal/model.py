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
direct-loop convolution in the test suite. Inference keeps no cache: its one
band loop, `_band_loop`, runs the whole net (conv1 with a one-row halo, both
ReLUs, conv2 and the head) per row band of at most BAND_PIXELS pixels, so
every intermediate stays cache-sized at any image size. Training
(`_forward_logits`) runs the same code as one whole-image band.

`predict` runs a list of images through `core.ordered_map`, one image per
task on its MRCAL_THREADS worker threads (see `core.thread_cap`). Each task,
`_image_foreground`, runs the band loop inline, each band's head readout
(softmax and majority-mass sum, or sigmoid) going into its rows of one (H, W)
map, so no (K+1, H, W) array is built. Every step is per voxel and results
come back in image order, so the maps are the same bit for bit at every
thread count. The calling thread wraps each finished map in a
`ForegroundProbMap`, which checks it and stores one copy, so the maps that
outlive the pool are allocated there, not in the workers' malloc arenas,
whose freed memory glibc mostly keeps resident.

`train` opens one `core.WorkerPool` for the whole call and runs each
mini-batch's samples on it, one sample per task (`_sample_step`): forward,
loss and, for a finite loss, backward, which only read the parameters. The
calling thread takes the losses and gradients back in permutation order,
raises on the first non-finite loss, sums the gradients in that order and
applies the update, the same float arithmetic as a serial loop, so a
checkpoint is the same bit for bit at every thread count. Each worker reuses
one float64 buffer of 9 * C_h * max(H*W) values, made on the calling thread
before the first batch: conv2's forward writes its im2col columns into it,
and after the conv2 weight gradient has read them, the backward writes the
columns of conv2's output gradient over them. So a step allocates no
im2col-sized array, and a task's caches die with it. Random-sampling
targets are drawn on the calling thread before a batch is submitted.

Worker threads call only private helpers (`_image_foreground`, `_band_loop`,
`_sample_step`, `_band_logits`, `_channel_softmax`, `_sigmoid`, `_logit_bce`,
`_param_grads`, `ordinal._majority_mass`, `ordinal._loss_terms`), never a
public or traced name such as `predict`, `forward`, `_forward_logits`,
`_softmax`, `_sigmoid_bce`, `backward`, `hybrid_loss` or
`aggregate_foreground`, which call the same helpers on the calling thread.

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
from contextlib import closing
from dataclasses import asdict, dataclass, field
from functools import cached_property, partial
from pathlib import Path
from queue import SimpleQueue

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import (
    DTYPE_F32,
    ForegroundProbMap,
    Grid2D,
    NonFiniteValues,
    WorkerPool,
    json_text,
    ordered_map,
    read_container,
    write_container,
    write_together,
)
from .fusion import DegenerateStack, FusionConfig, fuse
from .ordinal import (
    PROB_CLAMP, OrdinalProbMap, _loss_terms, _majority_mass, orc_encode,
)

PARAM_NAMES = ("w1", "b1", "w2", "b2", "w3", "b3")

F32_MAX = float(np.finfo(np.float32).max)  # a trained parameter must fit a checkpoint

# Pixels per inference band (see `_bands`): 4096 pixels of conv2's
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

    def __post_init__(self):
        if not 0 < self.lr < math.inf:
            raise ValueError("lr must be finite and > 0")
        if not 0 <= self.alpha < math.inf:
            raise ValueError("alpha must be finite and >= 0")
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


def _padded_cols(padded: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Channels-first 3x3 columns of an already padded (C, H+2, W+2) input:
    (C*9, H*W).

    Row c*9 + 3*dy + dx holds x[c, i + dy - 1, j + dx - 1] at column i*W + j,
    matching w.reshape(C_out, C*9) for w of shape (C_out, C, 3, 3). With
    `out`, a 1-D float64 buffer of at least C*9*H*W values, the columns are
    written into its start and returned as a view of it, not a new array.
    """
    c, h, wd = padded.shape[0], padded.shape[1] - 2, padded.shape[2] - 2
    windows = sliding_window_view(padded, (3, 3), axis=(1, 2)).transpose(0, 3, 4, 1, 2)
    if out is None:
        return windows.reshape(c * 9, h * wd)
    cols = out[: c * 9 * h * wd].reshape(c * 9, h * wd)
    cols.reshape(c, 3, 3, h, wd)[...] = windows
    return cols


def _im2col(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Channels-first 3x3 columns of x (C, H, W), zero padding 1: (C*9, H*W),
    written into `out` when given (`_padded_cols`)."""
    return _padded_cols(np.pad(x, ((0, 0), (1, 1), (1, 1))), out)


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


def _conv3x3_input_grad(w: np.ndarray, d_out: np.ndarray, cols=None) -> np.ndarray:
    """Input gradient of a padded 3x3 conv: d_out correlated with the flipped
    kernel, over d_out's columns (written into `cols` when given)."""
    c_out, c_in = w.shape[:2]
    w_flip = w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(c_in, c_out * 9)
    return (w_flip @ _im2col(d_out, cols)).reshape(c_in, *d_out.shape[1:])


def _pixel_major_like(x: np.ndarray) -> np.ndarray:
    """An empty array shaped like x (C, H, W) but stored pixel-major, (H, W, C)
    in memory: reductions over it round as they did before (module docstring)."""
    c, h, wd = x.shape
    return np.empty((h, wd, c)).transpose(2, 0, 1)


def _bands(h: int, wd: int) -> list[tuple[int, int]]:
    """Row ranges [top, bottom) of an H x W image's inference bands, each of
    max(1, BAND_PIXELS // W) rows, so every intermediate stays cache-sized
    instead of one (C*9, H*W) matrix per image."""
    rows = max(1, BAND_PIXELS // wd)
    return [(top, min(top + rows, h)) for top in range(0, h, rows)]


def _band_logits(net: TinyNet, padded: np.ndarray, top: int, bottom: int, cols=None):
    """Run the whole net for image rows [top, bottom): the band's head
    outputs (C_out, bottom - top, W) and its caches for backward.

    `padded` is the zero-padded (1, H+2, W+2) image. conv1 runs on the band
    plus a one-row halo above and below (clipped to the image), since conv2
    reads it; its ReLU goes into a zero-padded band buffer whose border rows
    outside the image stay 0. conv2's columns are written into `cols` when
    it is given (training's per-worker buffer). The caches cover the whole
    image when the band does.
    """
    h, wd = padded.shape[1] - 2, padded.shape[2] - 2
    lo, hi = max(top - 1, 0), min(bottom + 1, h)  # conv1 output rows
    cols1 = _padded_cols(padded[:, lo : hi + 2])
    z1 = _conv3x3(cols1, net.params["w1"], net.params["b1"], (hi - lo, wd))
    a1_padded = np.zeros((z1.shape[0], bottom - top + 2, wd + 2))
    a1 = np.maximum(z1, 0.0, out=a1_padded[:, lo - top + 1 : hi - top + 1, 1:-1])
    cols2 = _padded_cols(a1_padded, cols)
    z2 = _conv3x3(cols2, net.params["w2"], net.params["b2"], (bottom - top, wd))
    a2 = np.maximum(z2, 0.0, out=_pixel_major_like(z2))
    w3 = net.params["w3"][:, :, 0, 0]  # (C_out, C_h)
    logits = np.einsum("oc,chw->ohw", w3, a2) + net.params["b3"][:, None, None]
    return logits, {"cols1": cols1, "z1": z1, "a1": a1, "cols2": cols2, "z2": z2, "a2": a2}


def _forward_logits(net: TinyNet, image: np.ndarray):
    """Training's forward: raw head outputs (C_out, H, W) of the image as one
    whole-image band, plus the caches backward needs."""
    return _band_logits(net, np.pad(image, 1)[None], 0, image.shape[0])


def _band_loop(net: TinyNet, image: np.ndarray, readout, out: np.ndarray) -> np.ndarray:
    """Inference's one band loop: write `readout` of each band's head outputs
    (C_out, rows, W) into those rows of `out` (..., H, W), band by band on the
    calling thread, and return `out`. A band's caches die before the next."""
    padded = np.pad(image, 1)[None]
    for top, bottom in _bands(*image.shape):
        out[..., top:bottom, :] = readout(_band_logits(net, padded, top, bottom)[0])
    return out


def _channel_softmax(logits: np.ndarray) -> np.ndarray:
    """The package's one softmax: over axis 0 of (C, ...) logits, per voxel."""
    e = logits - logits.max(axis=0, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=0, keepdims=True)
    return e


def _softmax(logits: np.ndarray) -> np.ndarray:
    """`_channel_softmax` under the name that training and `forward` call,
    on the calling thread only (module docstring)."""
    return _channel_softmax(logits)


def _sigmoid(logit: np.ndarray) -> np.ndarray:
    """The package's one sigmoid, per voxel. exp overflows to inf for a
    logit below about -709, which gives the right 0; the warning is silenced
    here, since NumPy's error state does not reach a pool's workers."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-logit))


def _check_size(*images: Grid2D) -> None:
    if any(min(image.shape) < 3 for image in images):
        raise ValueError("image must be at least 3x3")


def forward(net: TinyNet, image: Grid2D):
    """Run the net; softmax head returns an OrdinalProbMap, sigmoid head a
    ForegroundProbMap."""
    _check_size(image)
    logits = np.empty((net.out_channels, *image.shape))
    _band_loop(net, image.data, lambda band: band, logits)
    if net.out_channels == 1:
        return ForegroundProbMap(_sigmoid(logits[0]))
    return OrdinalProbMap(_softmax(logits), num_raters=net.out_channels - 1)


def backward(net: TinyNet, cache: dict, d_logits: np.ndarray) -> dict[str, np.ndarray]:
    """Parameter gradients given the loss gradient at the head logits."""
    return _param_grads(net, cache, d_logits)


def _param_grads(net: TinyNet, cache: dict, d_logits: np.ndarray, cols=None):
    """`backward`'s kernel. d_z2's columns are written into `cols` when it is
    given, which may be the buffer that holds the forward's `cache["cols2"]`:
    they are written only after the conv2 weight gradient has read those."""
    a2 = cache["a2"]
    w3 = net.params["w3"][:, :, 0, 0]
    d_w3 = np.einsum("ohw,chw->oc", d_logits, a2)[:, :, None, None]
    d_b3 = d_logits.sum(axis=(1, 2))
    d_a2 = np.einsum("oc,ohw->chw", w3, d_logits)
    d_z2 = d_a2 * (cache["z2"] > 0)
    d_w2, d_b2 = _conv3x3_param_grads(cache["cols2"], net.params["w2"], d_z2)
    d_a1 = _conv3x3_input_grad(net.params["w2"], d_z2, cols)
    d_z1 = np.multiply(d_a1, cache["z1"] > 0, out=_pixel_major_like(d_a1))
    d_w1, d_b1 = _conv3x3_param_grads(cache["cols1"], net.params["w1"], d_z1)
    return {"w1": d_w1, "b1": d_b1, "w2": d_w2, "b2": d_b2, "w3": d_w3, "b3": d_b3}


def _sigmoid_bce(logit: np.ndarray, target: np.ndarray):
    """BCE of sigmoid(logit) against a (possibly soft) target in [0,1].

    Returns (loss, gradient w.r.t. the logit). The gradient p - t is exact
    for the unclamped loss; the clamp (PROB_CLAMP) only guards the log.
    """
    return _logit_bce(logit, target)


def _logit_bce(logit: np.ndarray, target: np.ndarray):
    """`_sigmoid_bce`'s kernel, under the name training workers call."""
    p = _sigmoid(logit)
    pc = np.clip(p, PROB_CLAMP, 1.0 - PROB_CLAMP)
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
        text = json_text(sidecar)
        write_together({
            path: lambda tmp: write_container(DTYPE_F32, (flat.size,), flat, tmp),
            path.with_suffix(path.suffix + ".json"): lambda tmp: tmp.write_text(text),
        })

    @classmethod
    def load(cls, path) -> "Checkpoint":
        """Read a checkpoint. A sidecar without `params_sha256` (written before
        the field existed) loads unchecked. NaN or inf parameters raise
        NonFiniteValues naming the file."""
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
        bad = int(np.count_nonzero(~np.isfinite(flat)))
        if bad:
            raise NonFiniteValues(f"{path}: {bad} of {flat.size} parameters are NaN or infinite")
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
    epoch at step = epoch * len(samples) + index. Each step applies the mean
    gradient of a batch_size slice of the epoch's permutation (the epoch's
    last batch may be shorter).

    A batch's samples run on one `WorkerPool` opened for the whole call
    (module docstring); their losses and gradients come back in permutation
    order, where the first non-finite loss raises NonFiniteLoss and the
    gradients are summed, so the result is the same at every thread count.
    An update that leaves a parameter NaN, inf or beyond float32 (what a
    checkpoint stores) raises NonFiniteLoss as well.
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

    extra = {}
    if cfg.loss == "hybrid_rps":
        out_channels = k + 1
        targets = [orc_encode(s.annotations) for s in samples]
        target_of = lambda idx, step: targets[idx]

        def objective(logits, target):  # `hybrid_loss`'s arithmetic, untraced
            bce, rps, d_logits = _loss_terms(
                OrdinalProbMap(_channel_softmax(logits), k), target, cfg.alpha
            )
            return bce + cfg.alpha * rps, d_logits
    else:
        out_channels = 1
        if cfg.fusion.method == "rs":
            target_of = lambda idx, step: _fused_target(samples[idx], cfg, step)[0]
        else:
            targets, perfs = zip(*(_fused_target(s, cfg, step=0) for s in samples))
            if perfs[0] is not None:  # STAPLE's rater performance on the first sample
                extra["staple_rater_performance"] = perfs[0].to_dict()
            target_of = lambda idx, step: targets[idx]

        def objective(logits, target):
            loss, d_logit = _logit_bce(logits[0], target)
            return loss, d_logit[None]

    net = TinyNet.init(out_channels, seed=cfg.seed)
    rng = np.random.default_rng(cfg.seed + 1)
    trace = []
    with WorkerPool(min(cfg.batch_size, len(samples))) as pool:
        buffers = SimpleQueue()  # one column buffer per worker, made on this thread
        size = 9 * net.hidden_channels * max(s.image.data.size for s in samples)
        for _ in range(pool.workers):
            buffers.put(np.empty(size))

        def sample_step(job):
            idx, target = job
            cols = buffers.get()
            try:
                return _sample_step(net, samples[idx].image.data, objective, target, cols)
            finally:
                buffers.put(cols)

        for epoch in range(cfg.epochs):
            order = rng.permutation(len(samples)).tolist()
            losses = []
            for start in range(0, len(samples), cfg.batch_size):
                batch, total = order[start : start + cfg.batch_size], {}
                jobs = [(idx, target_of(idx, epoch * len(samples) + idx)) for idx in batch]
                with closing(pool.map(sample_step, jobs)) as results:
                    for loss, grads in results:
                        if not np.isfinite(loss):
                            raise NonFiniteLoss(f"epoch {epoch}: loss is not finite")
                        losses.append(loss)
                        # a running sum: a list of grads raised peak RSS
                        for name in PARAM_NAMES:
                            total[name] = total[name] + grads[name] if name in total else grads[name]
                with np.errstate(over="ignore", invalid="ignore"):  # checked right below
                    for name in PARAM_NAMES:
                        net.params[name] = net.params[name] - cfg.lr * (total[name] / len(batch))
                if not all(np.abs(p).max() <= F32_MAX for p in net.params.values()):  # NaN too
                    raise NonFiniteLoss(f"epoch {epoch}: a parameter is NaN, inf or beyond float32")
            trace.append(float(np.mean(losses)))

    config_echo = {
        **{name: value for name, value in asdict(cfg).items() if name != "fusion"},
        "hidden_channels": net.hidden_channels,
        "fusion_method": cfg.fusion.method,
        "fusion_sigma": cfg.fusion.sigma,
    }
    return Checkpoint(
        hidden_channels=net.hidden_channels,
        out_channels=out_channels,
        num_raters=k,
        flat_params=net.flatten(),
        config=config_echo,
        loss_trace=trace,
        seed=cfg.seed,
        extra=extra,
    )


def _sample_step(net: TinyNet, image: np.ndarray, objective, target, cols: np.ndarray):
    """One training sample, as a pool task: (loss, parameter gradients), the
    gradients None when the loss is not finite. conv2's forward columns and
    then d_z2's go into the worker's buffer `cols`; every array the step
    allocates dies with it."""
    logits, cache = _band_logits(net, np.pad(image, 1)[None], 0, image.shape[0], cols)
    loss, d_logits = objective(logits, target)
    if not np.isfinite(loss):
        return loss, None
    return loss, _param_grads(net, cache, d_logits, cols)


def predict(checkpoint: Checkpoint, images) -> list[ForegroundProbMap]:
    """One foreground probability map per image of a list, in order; ordinal
    heads aggregate majority mass.

    `images` is any iterable of Grid2D. Every image's size is checked and
    the net built before any worker starts; the images then run through
    `ordered_map`, one per task (module docstring). Each image is held only
    until its map is computed, so a caller that keeps no other reference
    (as `eval` does) frees each image once it is predicted, and the maps
    reuse its memory. Each map equals
    `aggregate_foreground(forward(net, image))`, or `forward(net, image)`
    for a sigmoid head, bit for bit. A non-finite map raises
    `NonFiniteValues`, that of the first such image in list order.
    """
    images = list(images)
    _check_size(*images)
    tasks = ordered_map(partial(_image_foreground, checkpoint.net), [im.data for im in images])
    del images  # each image now lives only until its task ends
    with closing(tasks):
        return [ForegroundProbMap(fg) for fg in tasks]


def _image_foreground(net: TinyNet, image: np.ndarray) -> np.ndarray:
    """`predict`'s per-image task: every band runs the net and its head's
    per-voxel readout into that band's rows of one (H, W) map."""
    k = net.out_channels - 1

    def readout(logits):
        return _sigmoid(logits[0]) if k == 0 else _majority_mass(_channel_softmax(logits), k)

    return _band_loop(net, image, readout, np.empty(image.shape))
