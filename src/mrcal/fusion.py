"""Multi-annotation fusion strategies.

Seven ways of turning a stack of K binary rater masks into a single
supervision target:

    rs      random sampling (one rater per step, counter-based deterministic)
    mc      per-voxel median consensus (hard mask, ties to foreground)
    sc      soft consensus (per-voxel mean of rater votes)
    scg     soft consensus smoothed with a Gaussian kernel
    staple  EM estimate of a latent truth with per-rater sensitivity/specificity
    simple  iterated majority vote with exclusion of low-agreement raters
    svls    spatially varying label smoothing driven by local disagreement
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .core import BinaryMask, Grid2D, RaterStack, majority_level

METHODS = ("rs", "mc", "sc", "scg", "staple", "simple", "svls")


class DegenerateStack(ValueError):
    """Raised when a method is undefined on a stack: too few raters, or no
    foreground/background contrast at all."""


@dataclass(frozen=True)
class SoftLabelMap:
    """Per-voxel soft supervision target in [0,1]."""

    grid: Grid2D

    def __post_init__(self):
        vals = self.grid.data
        if vals.min() < 0.0 or vals.max() > 1.0:
            raise ValueError("SoftLabelMap values must lie in [0,1]")

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "SoftLabelMap":
        return cls(Grid2D(np.asarray(arr, dtype=np.float64)))

    @property
    def data(self) -> np.ndarray:
        return self.grid.data


@dataclass(frozen=True)
class RaterPerformance:
    """Per-rater STAPLE performance parameters, clamped inside (0,1)."""

    sensitivity: tuple[float, ...]
    specificity: tuple[float, ...]

    def __post_init__(self):
        for v in (*self.sensitivity, *self.specificity):
            if not 0.0 < v < 1.0:
                raise ValueError(f"performance value {v} outside (0,1)")


@dataclass
class FusionConfig:
    method: str = "sc"
    sigma: float = 1.0
    staple_max_iters: int = 100
    staple_tol: float = 1e-6
    simple_max_iters: int = 10
    simple_min_raters: int = 2
    rng_seed: int = 0

    def __post_init__(self):
        if not 0 < self.sigma < math.inf:
            raise ValueError("sigma must be finite and > 0")
        # svls divides by 2*s*s for widths s down to sigma/4 (the Gaussian
        # kernel by 2*sigma**2, never smaller); 0 there gives NaN weights
        if 2.0 * (0.25 * self.sigma) * (0.25 * self.sigma) == 0.0:
            raise ValueError(f"sigma {self.sigma!r} is too small: 2*(sigma/4)**2 underflows to 0")
        if self.staple_max_iters < 1 or self.simple_max_iters < 1:
            raise ValueError("iteration limits must be >= 1")


def _counter_draw(seed: int, step: int, k: int) -> int:
    """Deterministic uniform draw from {0..k-1}, independent of call order."""
    digest = hashlib.blake2b(
        struct.pack("<QQ", seed & 0xFFFFFFFFFFFFFFFF, step & 0xFFFFFFFFFFFFFFFF),
        digest_size=8,
    ).digest()
    return int.from_bytes(digest, "little") % k


def fuse_random_sampling(stack: RaterStack, seed: int, step: int) -> BinaryMask:
    """Return the mask of one rater picked uniformly from (seed, step)."""
    idx = _counter_draw(seed, step, stack.num_raters)
    return BinaryMask.from_array(stack.as_array()[idx])


def fuse_median(stack: RaterStack) -> BinaryMask:
    """Per-voxel median vote; even-K ties resolve to foreground."""
    return BinaryMask.from_array(stack.majority())


def fuse_soft(stack: RaterStack) -> SoftLabelMap:
    """Per-voxel mean of the K binary votes."""
    return SoftLabelMap.from_array(stack.votes() / stack.num_raters)


def gaussian_kernel_1d(sigma: float) -> np.ndarray:
    """Normalized 1D Gaussian, truncated at radius ceil(3*sigma)."""
    radius = math.ceil(3.0 * sigma)
    x = np.arange(-radius, radius + 1, dtype=np.float64)
    g = np.exp(-(x * x) / (2.0 * sigma * sigma))
    return g / g.sum()


def gaussian_filter_valid(arr: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Separable 'valid' convolution with the 1D kernel g, rows then columns.

    Each pass convolves the flattened array once and drops the outputs whose
    window crosses a row end: the kept ones are the dot products a per-row
    np.convolve computes, bit for bit (a tap loop or matmul rounds differently).
    """
    if min(arr.shape) < len(g):
        raise ValueError(f"array {arr.shape} is shorter than the kernel ({len(g)})")
    for _ in range(2):
        flat = np.concatenate([np.convolve(arr.ravel(), g, mode="valid"), np.zeros(len(g) - 1)])
        arr = flat.reshape(arr.shape)[:, : arr.shape[1] - len(g) + 1].T
    return arr


def gaussian_smooth(arr: np.ndarray, sigma: float) -> np.ndarray:
    """Separable Gaussian smoothing with reflect padding (edge included)."""
    g = gaussian_kernel_1d(sigma)
    return gaussian_filter_valid(np.pad(arr, len(g) // 2, mode="symmetric"), g)


def fuse_soft_gaussian(stack: RaterStack, sigma: float) -> SoftLabelMap:
    """Soft consensus smoothed by a normalized Gaussian of std sigma."""
    if sigma <= 0:
        raise ValueError("sigma must be > 0")
    smoothed = gaussian_smooth(fuse_soft(stack).data, sigma)
    return SoftLabelMap.from_array(np.clip(smoothed, 0.0, 1.0))


def _staple_log_ab(patterns, prior, sens, spec):
    """Log joint probability of each vote pattern (column) with truth 1 and 0."""
    log_a = np.log(prior) + (
        patterns * np.log(sens)[:, None] + (1.0 - patterns) * np.log(1.0 - sens)[:, None]
    ).sum(axis=0)
    log_b = np.log(1.0 - prior) + (
        (1.0 - patterns) * np.log(spec)[:, None] + patterns * np.log(1.0 - spec)[:, None]
    ).sum(axis=0)
    return log_a, log_b


def fuse_staple(
    stack: RaterStack, cfg: FusionConfig, track_likelihood: bool = False
):
    """EM estimate of a latent soft truth plus per-rater performance.

    The posterior depends on a voxel only through its K-bit vote pattern, so
    EM runs on the distinct patterns weighted by their voxel counts and the
    result is scattered back to the voxels. The E-step stays in the log
    domain, so no K-term product underflows at large K.

    Returns (SoftLabelMap, RaterPerformance), or a third element with the
    per-iteration log-likelihood trace when track_likelihood is set.
    """
    if stack.num_raters < 2:
        raise DegenerateStack("STAPLE requires K >= 2 raters")
    arr = stack.as_array()
    if arr.min() == arr.max():
        raise DegenerateStack("all voxels identical across the whole stack")

    k = stack.num_raters
    n = arr.shape[1] * arr.shape[2]
    flat = arr.reshape(k, n)
    packed = np.ascontiguousarray(np.packbits(flat, axis=0).T)
    keys = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
    _, first, inverse, c = np.unique(
        keys, return_index=True, return_inverse=True, return_counts=True
    )
    y = flat[:, first].astype(np.float64)
    prior = np.count_nonzero(flat) / flat.size
    sens = np.full(k, 0.95)
    spec = np.full(k, 0.95)
    clamp = lambda v: np.clip(v, 1e-6, 1.0 - 1e-6)

    w = None
    trace = []
    for _ in range(cfg.staple_max_iters):
        log_a, log_b = _staple_log_ab(y, prior, sens, spec)
        if track_likelihood:
            trace.append(float((c * np.logaddexp(log_a, log_b)).sum()))
        with np.errstate(over="ignore"):  # exp -> inf gives w = 0 exactly
            w_new = 1.0 / (1.0 + np.exp(log_b - log_a))
        cw = c * w_new
        cv = c * (1.0 - w_new)
        sens = clamp((y * cw).sum(axis=1) / cw.sum())
        spec = clamp(((1.0 - y) * cv).sum(axis=1) / cv.sum())
        if w is not None and (c * np.abs(w_new - w)).sum() / n < cfg.staple_tol:
            w = w_new
            break
        w = w_new
    if track_likelihood:
        log_a, log_b = _staple_log_ab(y, prior, sens, spec)
        trace.append(float((c * np.logaddexp(log_a, log_b)).sum()))

    soft = SoftLabelMap.from_array(w[inverse].reshape(arr.shape[1:]))
    perf = RaterPerformance(sensitivity=tuple(sens), specificity=tuple(spec))
    if track_likelihood:
        return soft, perf, trace
    return soft, perf


def _dice(a: np.ndarray, b: np.ndarray) -> float:
    denom = a.sum() + b.sum()
    if denom == 0:
        return 1.0
    return float(2.0 * (a & b).sum() / denom)


def fuse_simple(stack: RaterStack, cfg: FusionConfig) -> BinaryMask:
    """Iterated majority vote that excludes raters with anomalously low Dice.

    A rater is excluded when its Dice overlap with the current fused mask
    falls below mean - stddev over the included raters; exclusion stops
    before fewer than simple_min_raters would remain.
    """
    if stack.num_raters < 2:
        raise DegenerateStack("SIMPLE requires K >= 2 raters")
    arr = stack.as_array().astype(bool)
    included = list(range(stack.num_raters))

    for _ in range(cfg.simple_max_iters):
        fused = arr[included].sum(axis=0) >= majority_level(len(included))
        dice = np.array([_dice(arr[r], fused) for r in included])
        threshold = dice.mean() - dice.std()
        # drop worst-first, never going below the retained-rater floor
        order = np.argsort(dice, kind="stable")
        dropped = []
        for pos in order:
            if dice[pos] >= threshold:
                break
            if len(included) - len(dropped) - 1 < cfg.simple_min_raters:
                break
            dropped.append(included[pos])
        if not dropped:
            break
        included = [r for r in included if r not in dropped]
    fused = arr[included].sum(axis=0) >= majority_level(len(included))
    return BinaryMask.from_array(fused)


def fuse_svls(stack: RaterStack, cfg: FusionConfig) -> SoftLabelMap:
    """Spatially varying smoothing of the soft consensus.

    Local disagreement d = 4*p*(1-p) sets a per-voxel kernel width
    sigma(v) = sigma * (0.25 + 0.75*d), so unanimous regions are barely
    smoothed and maximally ambiguous ones get the full kernel.
    """
    pbar = fuse_soft(stack).data
    h, wdt = pbar.shape
    d = 4.0 * pbar * (1.0 - pbar)
    sig = cfg.sigma * (0.25 + 0.75 * d)
    radius = math.ceil(3.0 * cfg.sigma)
    padded = np.pad(pbar, radius, mode="symmetric")

    num = np.zeros_like(pbar)
    den = np.zeros_like(pbar)
    two_sig2 = 2.0 * sig * sig
    weights = {}  # one exp per distinct squared offset
    for di in range(-radius, radius + 1):
        for dj in range(-radius, radius + 1):
            r2 = di * di + dj * dj
            if r2 not in weights:
                weights[r2] = np.exp(-r2 / two_sig2)
            weight = weights[r2]
            shifted = padded[radius + di : radius + di + h, radius + dj : radius + dj + wdt]
            num += weight * shifted
            den += weight
    return SoftLabelMap.from_array(np.clip(num / den, 0.0, 1.0))


def fuse(stack: RaterStack, cfg: FusionConfig, step: int = 0):
    """Fuse by cfg.method: (BinaryMask or SoftLabelMap, STAPLE's
    RaterPerformance or None for every other method)."""
    if cfg.method == "staple":
        return fuse_staple(stack, cfg)
    if cfg.method == "rs":
        return fuse_random_sampling(stack, cfg.rng_seed, step), None
    if cfg.method == "mc":
        return fuse_median(stack), None
    if cfg.method == "sc":
        return fuse_soft(stack), None
    if cfg.method == "scg":
        return fuse_soft_gaussian(stack, cfg.sigma), None
    if cfg.method == "simple":
        return fuse_simple(stack, cfg), None
    if cfg.method == "svls":
        return fuse_svls(stack, cfg), None
    raise ValueError(f"unknown fusion method {cfg.method!r}")
