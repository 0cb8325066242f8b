"""Per-module tracing for the benchmark's traced run.

The tracer wraps functions of the `mrcal` package by module attribute, from
outside the package: `src/` is never edited. Each wrapped function opens a
span; a span's self time is its duration minus the time its wrapped child
spans cover. The benchmark opens one root span per CLI call (`cli.<command>`),
so within a repeat the self times of all spans add up exactly to the summed
duration of the root spans, which is `trace.wall_s`.

A function listed in WRAPPED that no longer exists (renamed or removed) is
recorded as missing, and every metric that depends only on missing functions
is reported as missing (value null), never as 0. The untraced end-to-end run
wraps nothing, so a missing function cannot break it.

Computed counts (the formulas are stated where they are computed):

- FLOPs of one TinyNet image step, H x W pixels, C hidden channels, O head
  channels, counting multiply-adds as 2 FLOPs and only the matmuls the
  result needs (the input gradient of the first conv is not needed):
    forward  = 2*H*W*(9*C + 9*C*C + C*O)
    backward = 2*H*W*(9*C*C + 9*C*C + 9*C + 2*C*O)
  (conv2 weight and input gradients, conv1 weight gradient, head weight and
  input gradients). `model.gflop_per_s` = (forward + backward FLOPs) /
  (model.forward_s + model.backward_s) / 1e9.
- `core.read_mb` / `core.write_mb`: MRC1 container sizes, 8 + 4*ndim +
  prod(dims)*itemsize bytes per container read or written, / 1e6.
- `metrics.voxels_ranked`: per `bootstrap_eval` call over n images of H x W
  voxels with B replicates of ceil(f*n) images each, (n + B*ceil(f*n))*H*W
  voxels go through the AUC rank sort.
"""

from __future__ import annotations

import functools
import math
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

MODULES = ("cli", "core", "synthgen", "fusion", "ordinal", "model", "metrics")

# (module, attribute path) -> span name; None = counted only, no span.
WRAPPED = {
    ("core", "load_dataset"): "core.load_dataset",
    ("core", "read_container"): "core.read_container",
    ("core", "write_container"): "core.write_container",
    ("core", "RaterStack.as_array"): None,
    ("synthgen", "generate"): "synthgen.generate",
    ("synthgen", "generate_sample"): "synthgen.generate_sample",
    ("synthgen", "true_consensus_probability"): "synthgen.oracle",
    ("fusion", "fuse_random_sampling"): "fusion.rs",
    ("fusion", "fuse_median"): "fusion.mc",
    ("fusion", "fuse_soft"): "fusion.sc",
    ("fusion", "fuse_soft_gaussian"): "fusion.scg",
    ("fusion", "fuse_staple"): "fusion.staple",
    ("fusion", "fuse_simple"): "fusion.simple",
    ("fusion", "fuse_svls"): "fusion.svls",
    ("ordinal", "hybrid_loss"): "ordinal.hybrid_loss",
    ("ordinal", "aggregate_foreground"): "ordinal.aggregate_foreground",
    ("model", "_forward_logits"): "model._forward_logits",
    ("model", "_softmax"): "model._softmax",
    ("model", "forward"): "model.forward",
    ("model", "predict"): "model.predict",
    ("model", "backward"): "model.backward",
    ("model", "train"): "model.train",
    ("model", "_sigmoid_bce"): "model._sigmoid_bce",
    ("model", "Checkpoint.build_net"): None,
    ("metrics", "bootstrap_eval"): "metrics.bootstrap_eval",
    ("metrics", "mr_ece"): "metrics.mr_ece",
}

ROOT_SPANS = ("cli.synth", "cli.fuse", "cli.train", "cli.eval")

# Self-time metrics: metric -> spans whose self times it sums. Together they
# cover every span, so they add up to trace.wall_s.
SELF_TIME = {
    "model.forward_s": ("model._forward_logits", "model._softmax", "model.forward", "model.predict"),
    "model.backward_s": ("model.backward",),
    "model.update_s": ("model.train",),
    "model.sigmoid_bce_s": ("model._sigmoid_bce",),
    "ordinal.hybrid_loss_s": ("ordinal.hybrid_loss",),
    "ordinal.aggregate_foreground_s": ("ordinal.aggregate_foreground",),
    "fusion.rs_s": ("fusion.rs",),
    "fusion.mc_s": ("fusion.mc",),
    "fusion.sc_s": ("fusion.sc",),
    "fusion.scg_s": ("fusion.scg",),
    "fusion.staple_s": ("fusion.staple",),
    "fusion.simple_s": ("fusion.simple",),
    "fusion.svls_s": ("fusion.svls",),
    "metrics.bootstrap_eval_s": ("metrics.bootstrap_eval",),
    "metrics.mr_ece_s": ("metrics.mr_ece",),
    "core.load_dataset_s": ("core.load_dataset",),
    "core.read_container_s": ("core.read_container",),
    "core.write_container_s": ("core.write_container",),
    "synthgen.generate_s": ("synthgen.generate",),
    "synthgen.generate_sample_s": ("synthgen.generate_sample",),
    "synthgen.oracle_s": ("synthgen.oracle",),
    "cli.self_s": ROOT_SPANS,
}

# Inclusive command times.
INCLUSIVE = {f"{span}_s": span for span in ROOT_SPANS}

# Count metrics: metric -> wrapped functions it needs.
COUNTS = {
    "model.steps": (("model", "backward"),),
    "model.build_net_calls": (("model", "Checkpoint.build_net"),),
    "core.as_array_calls": (("core", "RaterStack.as_array"),),
    "core.read_mb": (("core", "read_container"),),
    "core.write_mb": (("core", "write_container"),),
    "metrics.voxels_ranked": (("metrics", "bootstrap_eval"),),
    "fusion.staple_iters": (("fusion", "fuse_staple"),),
}

# Counts derived from shapes and sizes by the formulas in the module
# docstring, not measured; the report labels them "(computed)".
COMPUTED = ("model.gflop_per_s", "core.read_mb", "core.write_mb", "metrics.voxels_ranked")

UNITS = {
    **{name: "s" for name in SELF_TIME},
    **{name: "s" for name in INCLUSIVE},
    "model.gflop_per_s": "GFLOP/s",
    "model.steps": "count",
    "model.build_net_calls": "count",
    "core.as_array_calls": "count",
    "core.read_mb": "MB",
    "core.write_mb": "MB",
    "metrics.voxels_ranked": "count",
    "fusion.staple_iters": "count",
    "trace.wall_s": "s",
    "trace.overhead_frac": "frac",
}


def _container_bytes(dtype: int, dims) -> int:
    itemsize = 1 if dtype == 0 else 4
    return 8 + 4 * len(dims) + math.prod(int(d) for d in dims) * itemsize


def _forward_flops(net, image) -> int:
    h, w = image.shape
    c, o = net.hidden_channels, net.out_channels
    return 2 * h * w * (9 * c + 9 * c * c + c * o)


def _backward_flops(net, d_logits) -> int:
    h, w = d_logits.shape[1:]
    c, o = net.hidden_channels, net.out_channels
    return 2 * h * w * (9 * c * c + 9 * c * c + 9 * c + 2 * c * o)


class Tracer:
    """Span and count recorder; `installed()` patches mrcal for one repeat."""

    def __init__(self, package):
        self.package = package
        self.stack = []  # [name, start, child_time]
        self.self_time = defaultdict(float)
        self.total_time = defaultdict(float)
        self.counts = defaultdict(float)
        self.missing = []
        self.probe_failed = set()
        self.repeats = 0
        self.staple_calls = None  # (stack, cfg) of the first traced repeat
        self._recording_staple = False
        self._staple_fn = None
        self._resolve()

    def _resolve(self):
        """Find every wrapped function; record the ones that do not exist."""
        self.targets = {}
        for key in WRAPPED:
            module_name, path = key
            obj = getattr(self.package, module_name, None)
            owner, attr = None, None
            for part in path.split("."):
                owner, attr = obj, part
                obj = getattr(obj, part, None) if obj is not None else None
            if obj is None or not callable(obj):
                self.missing.append(f"{module_name}.{path}")
            else:
                self.targets[key] = (owner, attr, obj)
        if ("fusion", "fuse_staple") in self.targets:
            self._staple_fn = self.targets[("fusion", "fuse_staple")][2]

    @contextmanager
    def span(self, name):
        frame = [name, time.perf_counter(), 0.0]
        self.stack.append(frame)
        try:
            yield
        finally:
            end = time.perf_counter()
            self.stack.pop()
            duration = end - frame[1]
            self.self_time[name] += duration - frame[2]
            self.total_time[name] += duration
            if self.stack:
                self.stack[-1][2] += duration

    def _probe(self, key, args, kwargs, result):
        if key == ("model", "_forward_logits"):
            self.counts["flops"] += _forward_flops(args[0], args[1])
        elif key == ("model", "backward"):
            self.counts["model.steps"] += 1
            self.counts["flops"] += _backward_flops(args[0], args[2])
        elif key == ("model", "Checkpoint.build_net"):
            self.counts["model.build_net_calls"] += 1
        elif key == ("core", "RaterStack.as_array"):
            self.counts["core.as_array_calls"] += 1
        elif key == ("core", "read_container"):
            self.counts["core.read_mb"] += _container_bytes(result[0], result[1]) / 1e6
        elif key == ("core", "write_container"):
            self.counts["core.write_mb"] += _container_bytes(args[0], args[1]) / 1e6
        elif key == ("metrics", "bootstrap_eval"):
            preds, cfg = args[0], args[2]
            n = len(preds)
            voxels = preds[0].size if hasattr(preds[0], "size") else preds[0].data.size
            draw = math.ceil(cfg.bootstrap_frac * n)
            self.counts["metrics.voxels_ranked"] += (n + cfg.bootstrap_n * draw) * voxels
        elif key == ("fusion", "fuse_staple") and self._recording_staple:
            self.staple_calls.append((args[0], args[1]))

    def _wrap(self, key, fn):
        span_name = WRAPPED[key]
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if span_name is None:
                result = fn(*args, **kwargs)
            else:
                with tracer.span(span_name):
                    result = fn(*args, **kwargs)
            try:
                tracer._probe(key, args, kwargs, result)
            except (IndexError, AttributeError, TypeError):
                tracer.probe_failed.add(key)  # the call signature changed
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Patch every wrapped function, in every mrcal module that binds it."""
        patches = []
        for key, (owner, attr, fn) in self.targets.items():
            wrapper = self._wrap(key, fn)
            if isinstance(owner, type):
                patches.append((owner, attr, fn))
                setattr(owner, attr, wrapper)
                continue
            for module_name in MODULES:
                module = getattr(self.package, module_name, None)
                for name, value in list(vars(module).items()) if module else ():
                    if value is fn:
                        patches.append((module, name, fn))
                        setattr(module, name, wrapper)
        self._recording_staple = self.staple_calls is None
        if self._recording_staple:
            self.staple_calls = []
        self.repeats += 1
        try:
            yield
        finally:
            self._recording_staple = False
            for obj, name, fn in reversed(patches):
                setattr(obj, name, fn)

    def _count_staple_iters(self):
        """Untimed pass: EM iterations to convergence of the recorded calls."""
        iters = 0
        for stack, cfg in self.staple_calls or ():
            _, _, loglik = self._staple_fn(stack, cfg, track_likelihood=True)
            iters += len(loglik) - 1
        return iters

    def metrics(self, untraced_walls, traced_walls) -> dict:
        """Per-layer metrics, per traced repeat; None marks a missing metric."""
        present_spans = set(WRAPPED[k] for k in self.targets) | set(ROOT_SPANS)
        n = max(self.repeats, 1)
        out = {}
        for name, spans in SELF_TIME.items():
            if any(s in present_spans for s in spans):
                out[name] = sum(self.self_time[s] for s in spans) / n
            else:
                out[name] = None
        for name, span in INCLUSIVE.items():
            out[name] = self.total_time[span] / n
        usable = set(self.targets) - self.probe_failed
        for name, needs in COUNTS.items():
            if not all(k in usable for k in needs):
                out[name] = None
            elif name == "fusion.staple_iters":
                try:
                    out[name] = float(self._count_staple_iters())
                except TypeError:  # fuse_staple lost its track_likelihood option
                    out[name] = None
            else:
                out[name] = self.counts[name] / n
        flop_keys = (("model", "_forward_logits"), ("model", "backward"))
        busy = (out["model.forward_s"] or 0.0) + (out["model.backward_s"] or 0.0)
        if not all(k in usable for k in flop_keys):
            out["model.gflop_per_s"] = None
        else:
            out["model.gflop_per_s"] = self.counts["flops"] / n / busy / 1e9 if busy else 0.0
        out["trace.wall_s"] = sum(self.total_time[s] for s in ROOT_SPANS) / n
        out["trace.overhead_frac"] = (
            statistics.median(traced_walls) / statistics.median(untraced_walls) - 1.0
        )
        return out
