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

`bootstrap_eval` runs on one `core.WorkerPool`: a task per image (its bins
and its sorted scores), a task per value range to build the kernel, then a
task per AUC pass. Every array that outlives a task is made on the calling
thread, tasks call only private helpers, and results come back in order, so
a report is the same bit for bit at every thread count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from queue import SimpleQueue

import numpy as np

from .core import BinaryMask, DimensionMismatch, ForegroundProbMap, WorkerPool, json_text


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


def _num_raters(preds, stacks) -> int:
    """K of the first stack, once preds and stacks pair up."""
    if len(preds) != len(stacks):
        raise ValueError("preds and stacks must have equal length")
    if not stacks:
        raise EmptyTestSet("no samples")
    return stacks[0].num_raters


def _sample_bins(pred: np.ndarray, stack, k: int, cfg: EvalConfig) -> CalibrationBins:
    """The CalibrationBins of one (prediction, rater stack) sample.

    Each voxel adds K items at its prediction. Their label sum is the
    foreground vote count in frequency mode; in top_label mode it is the
    number of raters who agree with the thresholded prediction I(p >= TAU),
    as in `ece_single`.
    """
    if stack.num_raters != k:
        raise InconsistentRaterCount(f"expected K={k}, got K={stack.num_raters}")
    if pred.shape != stack.shape:
        raise DimensionMismatch(f"prediction {pred.shape} vs stack {stack.shape}")
    pred = pred.ravel()
    labels = stack.votes().ravel()
    if cfg.ece_mode == "top_label":
        labels = np.where(pred >= TAU, labels, k - labels)
    bins = CalibrationBins(cfg.num_bins)
    bins.add(pred, labels, weight=k)
    return bins


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
    k = _num_raters(preds, stacks)
    image_bins = [_sample_bins(_as_pred_array(p), s, k, cfg) for p, s in zip(preds, stacks)]
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


def _sorted_runs(scores: np.ndarray, positive: np.ndarray, out: np.ndarray) -> int:
    """Write one image's positive scores, sorted, then its negative scores,
    sorted, into `out`; return the positive count."""
    n_pos = int(np.count_nonzero(positive))
    np.compress(positive, scores, out=out[:n_pos])
    np.compress(~positive, scores, out=out[n_pos:])
    out[:n_pos].sort()
    out[n_pos:].sort()
    return n_pos


def _count_dtype(top: int):
    """The smaller integer dtype that holds every value in [0, top]."""
    return np.int32 if top <= np.iinfo(np.int32).max else np.int64


CHUNK_SCORES = 2 ** 17  # about this many sorted positions per merge task


class _MannWhitney:
    """Mann-Whitney AUC of any multiset of a fixed list of images.

    Built on a `WorkerPool` from `runs`, which holds each image's scores
    as two sorted runs (`_sorted_runs`), its positives' then its
    negatives', at the image's offset. The calling thread cuts the value
    range at pivots taken from a sorted strided sample of `runs`; since
    every run is cut at the same values, equal scores (-0.0 and 0.0 too,
    and all NaNs, sorted last, as in np.unique) share a chunk. Each chunk's
    task merges its slices of the runs with one argsort, writes the image
    index of each of its sorted positions, and, for each positive, the
    bounds [lo, hi) of its tie group in the pooled sorted order, read off
    where the sorted values change; a chunk whose scores all tie (few score
    levels) skips the argsort. The order of tied values never matters.
    Every array that outlives a task (`image`, `bounds`, and the passes'
    `cum` buffers) is made on the calling thread, so none stays in a
    worker's malloc arena.
    `bounds` holds each image's positives' lo values, then their hi values,
    in image order, so a pass sums them image by image and builds no
    positive-sized array.

    For image multiplicities m, position p has weight w_p = m[image of p]
    and cum is the exclusive cumsum of w, so a tie group's midrank is
    (cum[lo] + cum[hi] + 1) / 2. With n_pos = sum of w over positives,
    2U = sum over positives of w * (cum[lo] + cum[hi] + 1) - n_pos * (n_pos + 1)
       = sum over images i of m[i] * (sum of cum over i's bounds) - n_pos**2,
    in exact integers: twice the Mann-Whitney U of the multiset's concatenated
    scores, so every AUC is the same float as ranking the multiset afresh.
    `cum` is int32 when the largest multiset's score count fits, else int64;
    each image's sum is int64, which holds while an image's positives times
    a multiset's scores stay below about 4e18.
    """

    def __init__(self, runs: np.ndarray, sizes, pos_counts, pool: WorkerPool):
        n = len(sizes)
        self.sizes = np.asarray(sizes, dtype=np.int64)
        self.pos_counts = np.asarray(pos_counts, dtype=np.int64)
        starts = np.cumsum(self.sizes) - self.sizes
        # run r is image r // 2's positives (r even) or negatives (r odd)
        cuts = np.append(np.column_stack((starts, starts + self.pos_counts)).ravel(), runs.size)
        chunks = max(pool.workers, -(-runs.size // CHUNK_SCORES))
        sample = np.sort(runs[:: max(1, runs.size // (64 * chunks))])
        pivots = np.unique(sample[len(sample) * np.arange(1, chunks) // chunks])
        # edges[r, c:c + 2] bounds run r's slice of chunk c
        edges = np.empty((2 * n, len(pivots) + 2), dtype=np.int64)
        edges[:, 0], edges[:, -1] = cuts[:-1], cuts[1:]
        for r in range(2 * n):
            edges[r, 1:-1] = cuts[r] + np.searchsorted(runs[cuts[r] : cuts[r + 1]], pivots)
        offsets = np.append(0, np.cumsum((edges[:, 1:] - edges[:, :-1]).sum(axis=0)))
        self.image = np.empty(runs.size, dtype=np.min_scalar_type(n - 1))
        self.blocks = np.append(0, 2 * np.cumsum(self.pos_counts))
        self.bounds = np.empty(self.blocks[-1], dtype=_count_dtype(runs.size))
        merge = partial(self._merge, runs, cuts, edges, offsets)
        for _ in pool.map(merge, np.flatnonzero(offsets[1:] > offsets[:-1])):
            pass

    def _merge(self, runs, cuts, edges, offsets, c: int) -> None:
        """Chunk c's task: write the image index of each of its sorted
        positions, and the tie bounds of each of its positives."""
        lo, hi = edges[:, c], edges[:, c + 1]
        held = np.flatnonzero(hi > lo)
        lengths = (hi - lo)[held]
        at = np.cumsum(lengths) - lengths  # run held[j]'s slice in the chunk
        start, stop = offsets[c], offsets[c + 1]
        extremes = runs[np.append(lo[held], hi[held] - 1)]
        # one tie group, whose order is free, and which may far outgrow CHUNK_SCORES
        if extremes.min() == extremes.max():
            for r, a, size in zip(held, at, lengths):
                self.image[start + a : start + a + size] = r // 2
            group = None
        else:
            values = np.concatenate([runs[lo[r] : hi[r]] for r in held])
            order = np.argsort(values)
            ids = np.repeat((held // 2).astype(self.image.dtype), lengths)
            np.take(ids, order, out=self.image[start:stop])
            del ids
            values.sort()  # equal to values[order] up to the order of ties
            # a tie group begins where the sorted value changes; the NaNs, sorted last, all tie
            begins = np.empty(values.size, dtype=bool)
            begins[0] = True
            np.not_equal(values[1:], values[:-1], out=begins[1:])
            begins[np.searchsorted(values, np.nan) + 1 :] = False
            del values
            # the tie group of each chunk entry, in the concatenated order
            group = np.empty(order.size, dtype=self.bounds.dtype)
            group[order] = np.cumsum(begins, dtype=group.dtype)
            group -= 1
            del order
            group_lo = np.flatnonzero(begins).astype(self.bounds.dtype)
            del begins
            group_hi = np.empty_like(group_lo)
            group_hi[:-1], group_hi[-1] = group_lo[1:], stop - start
            group_lo += start
            group_hi += start
        for r, a, size in zip(held, at, lengths):
            if r % 2:
                continue
            first = self.blocks[r // 2] + lo[r] - cuts[r]
            out_lo = self.bounds[first : first + size]
            out_hi = self.bounds[first + self.pos_counts[r // 2] :][:size]
            if group is None:
                out_lo[:], out_hi[:] = start, stop
            else:
                np.take(group_lo, group[a : a + size], out=out_lo)
                np.take(group_hi, group[a : a + size], out=out_hi)

    def aucs(self, multisets, pool: WorkerPool):
        """The AUC of each multiset (draw counts per image), in order, None
        where it holds one class: one pool task per multiset, each filling
        a `cum` buffer of its own, made here on the calling thread."""
        dtype = _count_dtype(max(int(m @ self.sizes) for m in multisets))
        cums = SimpleQueue()
        for _ in range(min(pool.workers, len(multisets))):
            cum = np.empty(self.image.size + 1, dtype=dtype)
            cum[0] = 0
            cums.put(cum)

        def task(m):
            cum = cums.get()
            try:
                return self._auc(m, cum)
            finally:
                cums.put(cum)

        return pool.map(task, multisets)

    def _auc(self, m: np.ndarray, cum: np.ndarray) -> float | None:
        n_pos = int(m @ self.pos_counts)
        n_neg = int(m @ self.sizes) - n_pos
        if n_pos == 0 or n_neg == 0:
            return None
        m_cum = m.astype(cum.dtype)
        for a in range(0, self.image.size, CHUNK_SCORES):  # take copies its indices as intp
            b = min(a + CHUNK_SCORES, self.image.size)
            np.take(m_cum, self.image[a:b], out=cum[a + 1 : b + 1], mode="clip")
        np.cumsum(cum[1:], out=cum[1:], dtype=cum.dtype)
        twice_u = -n_pos * n_pos
        for i in np.flatnonzero(m * self.pos_counts):
            bounds = self.bounds[self.blocks[i] : self.blocks[i + 1]]
            twice_u += int(m[i]) * int(np.take(cum, bounds).sum(dtype=np.int64))
        return float(twice_u / 2 / (n_pos * n_neg))


def auc(pred, reference: BinaryMask) -> float:
    """Mann-Whitney AUC: P(score of random positive > random negative),
    ties counted 0.5."""
    pred = _as_pred_array(pred)
    if pred.shape != reference.shape:
        raise DimensionMismatch(f"prediction {pred.shape} vs reference {reference.shape}")
    runs = np.empty(pred.size)
    n_pos = _sorted_runs(pred.ravel(), reference.data.ravel().astype(bool), runs)
    with WorkerPool(1) as pool:
        kernel = _MannWhitney(runs, [pred.size], [n_pos], pool)
        (value,) = kernel.aucs([np.ones(1, dtype=np.int64)], pool)
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
    config: EvalConfig
    bins_csv_path: str = ""
    notes: dict = field(default_factory=dict)
    bins: CalibrationBins | None = field(default=None, repr=False, compare=False)

    def to_dict(self) -> dict:
        cfg = self.config
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
                "num_bootstrap": cfg.bootstrap_n,
                "resample_fraction": cfg.bootstrap_frac,
                "num_bins": cfg.num_bins,
                "ece_mode": cfg.ece_mode,
                "seed": cfg.seed,
            },
            "bins_csv_path": self.bins_csv_path,
            "notes": self.notes,
        }

    def to_json(self) -> str:
        return json_text(self.to_dict())


def bootstrap_eval(preds, stacks, cfg: EvalConfig) -> MetricReport:
    """Point estimates plus image-level bootstrap mean/std of MR-ECE and AUC.

    Each replicate draws ceil(frac * n) images with replacement; stddev is
    the population form (divide by N). The work runs on one `WorkerPool`:
    one task per image computes its bins and writes its sorted scores
    (`_sorted_runs`) into an array made on the calling thread; tasks over
    value ranges merge them into one Mann-Whitney kernel (`_MannWhitney`);
    then the point and each replicate AUC run one per task, each one O(N)
    pass that weights every sorted score by its image's draw count. Each
    replicate's MR-ECE merges the per-image bins in draw order on the
    calling thread. So every replicate equals a fresh evaluation of its
    images, bit for bit, at every thread count. The point estimate's bins
    are returned in `MetricReport.bins`.
    """
    if not stacks:
        raise EmptyTestSet("test set is empty")
    preds = [_as_pred_array(p) for p in preds]
    k = _num_raters(preds, stacks)
    n = len(stacks)
    sizes = np.array([p.size for p in preds], dtype=np.int64)
    starts = np.cumsum(sizes) - sizes
    draw = int(np.ceil(cfg.bootstrap_frac * n))
    rng = np.random.default_rng(cfg.seed)
    draws = [rng.integers(0, n, size=draw) for _ in range(cfg.bootstrap_n)]
    multisets = [np.ones(n, dtype=np.int64)] + [np.bincount(idx, minlength=n) for idx in draws]

    runs = np.empty(int(sizes.sum()))

    def score_image(i):
        bins = _sample_bins(preds[i], stacks[i], k, cfg)
        run = runs[starts[i] : starts[i] + sizes[i]]
        return bins, _sorted_runs(preds[i].ravel(), stacks[i].majority().ravel(), run)

    with WorkerPool(max(n, len(multisets))) as pool:
        image_bins, pos_counts = zip(*pool.map(score_image, range(n)))
        kernel = _MannWhitney(runs, sizes, pos_counts, pool)
        del runs
        point_auc, *aucs = kernel.aucs(multisets, pool)

    point_bins = _merged(image_bins, range(n), cfg.num_bins)
    eces = np.array([_merged(image_bins, idx, cfg.num_bins).ece_value() for idx in draws])
    have_auc = point_auc is not None and all(a is not None for a in aucs)
    aucs_arr = np.array(aucs, dtype=np.float64) if have_auc else None
    return MetricReport(
        mr_ece=point_bins.ece_value(),
        auc=point_auc,
        mr_ece_boot_mean=float(eces.mean()),
        mr_ece_boot_std=float(eces.std()),
        auc_boot_mean=float(aucs_arr.mean()) if have_auc else None,
        auc_boot_std=float(aucs_arr.std()) if have_auc else None,
        config=cfg,
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
