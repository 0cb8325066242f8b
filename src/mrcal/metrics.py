"""Calibration and discrimination metrics for multi-rater segmentation.

MR-ECE evaluates every voxel prediction against every annotator's label:
each voxel contributes K (confidence, rater label) pairs, pairs are binned
by confidence into M equal-width bins, and the metric is the bin-weighted
mean absolute gap between mean confidence and empirical foreground
frequency. With K=1 this reduces exactly to frequency-mode ECE. In top_label
mode a pair's label is whether the rater agrees with the thresholded
prediction I(p >= TAU), and with K=1 it reduces to top-label `ece_single`.

AUC is the Mann-Whitney rank statistic against the majority vote of the
rater stack (ties to foreground). The bootstrap protocol resamples test
images with replacement. The pooled scores are sorted once; a replicate's
AUC is then one cumulative sum over that sort, weighted by how often each
image was drawn, and its MR-ECE merges per-image bins. `auc()` runs the same
kernel on one image.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .core import BinaryMask, DimensionMismatch, ForegroundProbMap


class SingleClassReference(Exception):
    pass


class EmptyTestSet(Exception):
    pass


class InconsistentRaterCount(Exception):
    pass


TAU = 0.5  # top_label mode's threshold: p >= TAU calls foreground


@dataclass
class EvalConfig:
    num_bins: int = 15
    bootstrap_n: int = 10
    bootstrap_frac: float = 0.6
    seed: int = 0
    ece_mode: str = "frequency"

    def __post_init__(self):
        if not 0.0 < self.bootstrap_frac <= 1.0:
            raise ValueError("bootstrap_frac must be in (0,1]")
        if self.num_bins < 1:
            raise ValueError("num_bins must be >= 1")
        if self.bootstrap_n < 1:
            raise ValueError("bootstrap_n must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.ece_mode not in ("frequency", "top_label"):
            raise ValueError(f"unknown ece_mode {self.ece_mode!r}")


@dataclass
class CalibrationBins:
    """M equal-width confidence bins accumulating (confidence, label) items.

    Bins are right-open except the last, so a confidence of exactly 1.0
    lands in the final bin.
    """

    num_bins: int
    counts: np.ndarray = field(init=False)
    conf_sums: np.ndarray = field(init=False)
    acc_sums: np.ndarray = field(init=False)

    def __post_init__(self):
        self.counts = np.zeros(self.num_bins, dtype=np.int64)
        self.conf_sums = np.zeros(self.num_bins)
        self.acc_sums = np.zeros(self.num_bins)

    def bin_index(self, confidences: np.ndarray) -> np.ndarray:
        idx = np.floor(confidences * self.num_bins).astype(np.int64)
        return np.minimum(idx, self.num_bins - 1)

    def add(self, confidences: np.ndarray, labels: np.ndarray, weight: int = 1):
        """Accumulate items; `weight` repeats each confidence that many times
        while `labels` already carries the per-item label sum."""
        idx = self.bin_index(confidences)
        self.counts += weight * np.bincount(idx, minlength=self.num_bins)
        self.conf_sums += weight * np.bincount(
            idx, weights=confidences, minlength=self.num_bins
        )
        self.acc_sums += np.bincount(idx, weights=labels, minlength=self.num_bins)

    def merge(self, other: "CalibrationBins"):
        self.counts += other.counts
        self.conf_sums += other.conf_sums
        self.acc_sums += other.acc_sums

    def edges(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.num_bins + 1)

    def conf(self) -> np.ndarray:
        with np.errstate(invalid="ignore"):
            return np.where(self.counts > 0, self.conf_sums / self.counts, np.nan)

    def acc(self) -> np.ndarray:
        with np.errstate(invalid="ignore"):
            return np.where(self.counts > 0, self.acc_sums / self.counts, np.nan)

    def ece_value(self) -> float:
        total = self.counts.sum()
        if total == 0:
            return 0.0
        occupied = self.counts > 0
        gaps = np.abs(self.conf()[occupied] - self.acc()[occupied])
        return float((self.counts[occupied] / total * gaps).sum())


def _as_pred_array(pred) -> np.ndarray:
    if isinstance(pred, ForegroundProbMap):
        return pred.data
    return np.asarray(pred, dtype=np.float64)


def _image_bins(preds, stacks, cfg: EvalConfig) -> list[CalibrationBins]:
    """One CalibrationBins per (prediction, rater stack) sample, in order.

    Each voxel adds K items at its prediction. Their label sum is the
    foreground vote count in frequency mode; in top_label mode it is the
    number of raters who agree with the thresholded prediction I(p >= TAU),
    as in `ece_single`.
    """
    if len(preds) != len(stacks):
        raise ValueError("preds and stacks must have equal length")
    if not stacks:
        raise EmptyTestSet("no samples")
    k = stacks[0].num_raters
    out = []
    for pred, stack in zip(preds, stacks):
        pred = _as_pred_array(pred)
        if stack.num_raters != k:
            raise InconsistentRaterCount(
                f"expected K={k}, got K={stack.num_raters}"
            )
        if pred.shape != stack.shape:
            raise DimensionMismatch(
                f"prediction {pred.shape} vs stack {stack.shape}"
            )
        pred = pred.ravel()
        labels = stack.votes().ravel()
        if cfg.ece_mode == "top_label":
            labels = np.where(pred >= TAU, labels, k - labels)
        bins = CalibrationBins(cfg.num_bins)
        bins.add(pred, labels, weight=k)
        out.append(bins)
    return out


def _merged(image_bins: list[CalibrationBins], idx, num_bins: int) -> CalibrationBins:
    """The bins of the images `idx` (repeats allowed), merged in that order."""
    bins = CalibrationBins(num_bins)
    for i in idx:
        bins.merge(image_bins[i])
    return bins


def mr_ece(preds, stacks, cfg: EvalConfig):
    """Multi-rater ECE over a list of (prediction, rater stack) samples.

    Returns (value, populated CalibrationBins).
    """
    image_bins = _image_bins(preds, stacks, cfg)
    bins = _merged(image_bins, range(len(image_bins)), cfg.num_bins)
    return bins.ece_value(), bins


def ece_single(pred, mask: BinaryMask, cfg: EvalConfig) -> float:
    """Single-rater ECE.

    frequency mode: per-bin mean prediction vs empirical foreground
    frequency (identical machinery to MR-ECE with K=1).
    top_label mode: per-bin accuracy of the thresholded prediction,
    Acc = mean I(y == I(p >= TAU)).
    """
    pred = _as_pred_array(pred)
    if pred.shape != mask.shape:
        raise DimensionMismatch(f"prediction {pred.shape} vs mask {mask.shape}")
    y = mask.data.astype(np.float64)
    bins = CalibrationBins(cfg.num_bins)
    if cfg.ece_mode == "top_label":
        y_hat = (pred >= TAU).astype(np.float64)
        labels = (y == y_hat).astype(np.float64)
    else:
        labels = y
    bins.add(pred.ravel(), labels.ravel())
    return bins.ece_value()


class _MannWhitney:
    """Mann-Whitney AUC of any multiset of a fixed list of images.

    Built from one argsort of the pooled scores, which gathers each sorted
    position's image and label; the kernel's own concatenated copy of the
    scores is then sorted in place (the caller's arrays never change). Each
    sorted position keeps only its image index, and each positive keeps its
    image and the bounds [lo, hi) of its tie group in the sorted order,
    found by searchsorted, so -0.0 and 0.0 tie and all NaNs (sorted last)
    tie, as in np.unique, and the order of tied values never matters. The
    scores and the sort are freed before any replicate runs.

    For image multiplicities m, position p has weight w_p = m[image of p]
    and cum is the exclusive cumsum of w, so a tie group's midrank is
    (cum[lo] + cum[hi] + 1) / 2. With n_pos = sum of w over positives,
    2U = sum over positives of w * (cum[lo] + cum[hi] + 1) - n_pos * (n_pos + 1)
       = sum over positives of w * (cum[lo] + cum[hi]) - n_pos**2,
    in exact integers: twice the Mann-Whitney U of the multiset's concatenated
    scores, so every AUC is the same float as ranking the multiset afresh.
    The int64 sums hold while a multiset has fewer than about 3e9 scores.
    """

    def __init__(self, scores, labels):
        n = len(scores)
        self.sizes = np.array([s.size for s in scores], dtype=np.int64)
        self.pos_counts = np.array([y.sum() for y in labels], dtype=np.int64)
        values = np.concatenate([s.ravel() for s in scores])
        order = np.argsort(values)
        self.image = np.repeat(np.arange(n, dtype=np.min_scalar_type(n - 1)), self.sizes)[order]
        pos = np.flatnonzero(np.concatenate([y.ravel() for y in labels])[order])
        del order
        values.sort()  # equal to values[order] up to the order of ties
        self.pos_image = self.image[pos]
        tied = values[pos]
        del pos
        self.lo = np.searchsorted(values, tied, "left")
        self.hi = np.searchsorted(values, tied, "right")
        del values, tied
        self.cum = None

    def auc(self, m: np.ndarray) -> float | None:
        """AUC of the images drawn m[i] times each; None if one class."""
        n_pos = int(m @ self.pos_counts)
        n_neg = int(m @ self.sizes) - n_pos
        if n_pos == 0 or n_neg == 0:
            return None
        if self.cum is None:
            self.cum = np.zeros(self.image.size + 1, dtype=np.int64)
        cum = self.cum
        np.take(m, self.image, out=cum[1:], mode="clip")
        np.cumsum(cum[1:], out=cum[1:])
        w = np.take(m, self.pos_image)
        twice_u = int(w @ np.take(cum, self.lo)) + int(w @ np.take(cum, self.hi)) - n_pos * n_pos
        return float(twice_u / 2 / (n_pos * n_neg))


def auc(pred, reference: BinaryMask) -> float:
    """Mann-Whitney AUC: P(score of random positive > random negative),
    ties counted 0.5."""
    kernel = _MannWhitney([_as_pred_array(pred)], [reference.data.astype(bool)])
    value = kernel.auc(np.ones(1, dtype=np.int64))
    if value is None:
        raise SingleClassReference("reference must contain both classes")
    return value


@dataclass
class MetricReport:
    mr_ece: float
    auc: float | None
    mr_ece_boot_mean: float
    mr_ece_boot_std: float
    auc_boot_mean: float | None
    auc_boot_std: float | None
    num_bootstrap: int
    resample_fraction: float
    num_bins: int
    ece_mode: str
    seed: int
    bins_csv_path: str = ""
    notes: dict = field(default_factory=dict)
    bins: CalibrationBins | None = field(default=None, repr=False, compare=False)

    def to_dict(self) -> dict:
        return {
            "mr_ece": {
                "point": self.mr_ece,
                "boot_mean": self.mr_ece_boot_mean,
                "boot_std": self.mr_ece_boot_std,
            },
            "auc": {
                "point": self.auc,
                "boot_mean": self.auc_boot_mean,
                "boot_std": self.auc_boot_std,
            },
            "config": {
                "num_bootstrap": self.num_bootstrap,
                "resample_fraction": self.resample_fraction,
                "num_bins": self.num_bins,
                "ece_mode": self.ece_mode,
                "seed": self.seed,
            },
            "bins_csv_path": self.bins_csv_path,
            "notes": self.notes,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


def bootstrap_eval(preds, stacks, cfg: EvalConfig) -> MetricReport:
    """Point estimates plus image-level bootstrap mean/std of MR-ECE and AUC.

    Each replicate draws ceil(frac * n) images with replacement; stddev is
    the population form (divide by N). The pooled scores are sorted once
    (`_MannWhitney`): a replicate's AUC is one O(N) pass that weights every
    sorted score by its image's draw count, and its MR-ECE merges the
    per-image bins in draw order, so every replicate equals a fresh
    evaluation of its images, bit for bit. The point estimate's bins are
    returned in `MetricReport.bins`.
    """
    if not stacks:
        raise EmptyTestSet("test set is empty")
    preds = [_as_pred_array(p) for p in preds]
    image_bins = _image_bins(preds, stacks, cfg)
    kernel = _MannWhitney(preds, [s.majority() for s in stacks])

    n = len(stacks)
    point_bins = _merged(image_bins, range(n), cfg.num_bins)
    point_auc = kernel.auc(np.ones(n, dtype=np.int64))
    draw = int(np.ceil(cfg.bootstrap_frac * n))
    rng = np.random.default_rng(cfg.seed)
    eces, aucs = [], []
    for _ in range(cfg.bootstrap_n):
        idx = rng.integers(0, n, size=draw)
        eces.append(_merged(image_bins, idx, cfg.num_bins).ece_value())
        aucs.append(kernel.auc(np.bincount(idx, minlength=n)))

    eces = np.array(eces)
    have_auc = point_auc is not None and all(a is not None for a in aucs)
    aucs_arr = np.array(aucs, dtype=np.float64) if have_auc else None
    return MetricReport(
        mr_ece=point_bins.ece_value(),
        auc=point_auc,
        mr_ece_boot_mean=float(eces.mean()),
        mr_ece_boot_std=float(eces.std()),
        auc_boot_mean=float(aucs_arr.mean()) if have_auc else None,
        auc_boot_std=float(aucs_arr.std()) if have_auc else None,
        num_bootstrap=cfg.bootstrap_n,
        resample_fraction=cfg.bootstrap_frac,
        num_bins=cfg.num_bins,
        ece_mode=cfg.ece_mode,
        seed=cfg.seed,
        bins=point_bins,
    )


def reliability_csv(bins: CalibrationBins, path) -> None:
    """Write per-bin reliability data: bin_lo,bin_hi,count,conf,acc.

    Empty bins keep count 0 with empty conf/acc fields. Values use
    9-decimal formatting.
    """
    edges = bins.edges()
    conf = bins.conf()
    acc = bins.acc()
    lines = ["bin_lo,bin_hi,count,conf,acc"]
    for m in range(bins.num_bins):
        if bins.counts[m] > 0:
            conf_s = f"{conf[m]:.9f}"
            acc_s = f"{acc[m]:.9f}"
        else:
            conf_s = acc_s = ""
        lines.append(
            f"{edges[m]:.9f},{edges[m + 1]:.9f},{bins.counts[m]},{conf_s},{acc_s}"
        )
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
