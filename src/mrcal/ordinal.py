"""Ordinal consensus targets and the hybrid RPS + BCE training objective.

The rater stack is summed per voxel into an ordered consensus level in
{0..K}. A model predicting a distribution over these K+1 levels is trained
with a ranked probability score (squared gap between cumulative
distributions, which penalizes predictions by their ordinal distance from
the true level) plus a binary cross-entropy term on the aggregated
majority-foreground probability. Gradients are analytic, w.r.t. the
pre-softmax logits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ForegroundProbMap, Grid2D, RaterStack, majority_level

PROB_CLAMP = 1e-7


class TargetOutOfRange(Exception):
    pass


@dataclass(frozen=True)
class OrcMap:
    """Per-voxel consensus level in {0..K} (count of foreground votes)."""

    grid: Grid2D
    num_raters: int

    def __post_init__(self):
        vals = self.grid.data
        if vals.min() < 0 or vals.max() > self.num_raters:
            raise TargetOutOfRange(
                f"consensus levels must lie in [0, {self.num_raters}]"
            )

    @property
    def data(self) -> np.ndarray:
        return self.grid.data


@dataclass(frozen=True)
class OrdinalProbMap:
    """Per-voxel distribution over the K+1 consensus levels: (K+1, H, W)."""

    levels: np.ndarray
    num_raters: int

    def __post_init__(self):
        if self.levels.ndim != 3 or self.levels.shape[0] != self.num_raters + 1:
            raise ValueError(
                f"expected {self.num_raters + 1} level layers, "
                f"got shape {self.levels.shape}"
            )
        if self.levels.min() < -1e-9:
            raise ValueError("level probabilities must be >= 0")
        sums = self.levels.sum(axis=0)
        if np.abs(sums - 1.0).max() > 1e-5:
            raise ValueError("per-voxel level probabilities must sum to 1")
        # clip float-arithmetic dust so downstream logs stay defined
        arr = np.ascontiguousarray(np.clip(self.levels, 0.0, None), dtype=np.float64)
        arr.flags.writeable = False
        object.__setattr__(self, "levels", arr)

    @property
    def shape(self) -> tuple[int, int]:
        return self.levels.shape[1:]


@dataclass
class LossConfig:
    alpha: float = 0.8

    def __post_init__(self):
        if not np.isfinite(self.alpha) or self.alpha < 0:
            raise ValueError("alpha must be finite and >= 0")


def orc_encode(stack: RaterStack) -> OrcMap:
    """Sum the K binary votes per voxel into a consensus level."""
    return OrcMap(Grid2D(stack.votes()), num_raters=stack.num_raters)


def aggregate_foreground(probs: OrdinalProbMap) -> ForegroundProbMap:
    """Collapse level probabilities to P(majority of raters vote foreground)."""
    t = majority_level(probs.num_raters)
    mass = probs.levels[t:].sum(axis=0)
    return ForegroundProbMap.from_array(mass)


def _loss_terms(probs: OrdinalProbMap, target: OrcMap, alpha: float):
    """The loss kernel: (BCE, RPS, gradient of BCE + alpha*RPS w.r.t. the
    pre-softmax logits), each reduced by an unweighted mean over voxels.

    RPS is the mean squared gap between the predicted and the true cumulative
    distributions over the K+1 levels; BCE scores the aggregated majority
    mass against the majority-vote label. The gradient assumes probs =
    softmax(logits) per voxel and chains through the softmax Jacobian.
    """
    if target.num_raters != probs.num_raters:
        raise TargetOutOfRange(
            f"target K={target.num_raters} vs prediction K={probs.num_raters}"
        )
    if probs.shape != target.data.shape:
        raise TargetOutOfRange(
            f"spatial shapes differ: {probs.shape} vs {target.data.shape}"
        )
    k = probs.num_raters
    n_voxels = probs.levels.shape[1] * probs.levels.shape[2]
    t = majority_level(k)

    # RPS value and gradient w.r.t. level probabilities
    f_hat = np.cumsum(probs.levels, axis=0)
    j = np.arange(k + 1).reshape(-1, 1, 1)
    f_true = (j >= target.data[None]).astype(np.float64)
    diff = f_hat - f_true
    rps = float((diff ** 2).mean(axis=0).mean())
    # d RPS / d p_k = (2/(K+1)) * sum_{j >= k} (F_hat_j - F_j)
    rev_cum = np.cumsum(diff[::-1], axis=0)[::-1]
    g_rps = (2.0 / (k + 1)) * rev_cum / n_voxels

    # BCE value and gradient through the majority-mass aggregation
    raw_p = probs.levels[t:].sum(axis=0)
    p_hat = np.clip(raw_p, PROB_CLAMP, 1.0 - PROB_CLAMP)
    b = (target.data >= t).astype(np.float64)
    bce = float(
        (-(b * np.log(p_hat) + (1.0 - b) * np.log(1.0 - p_hat))).mean()
    )
    inside = (raw_p > PROB_CLAMP) & (raw_p < 1.0 - PROB_CLAMP)
    d_bce = np.where(inside, (p_hat - b) / (p_hat * (1.0 - p_hat)), 0.0) / n_voxels
    g_bce = np.zeros_like(probs.levels)
    g_bce[t:] = d_bce[None]

    g_p = g_bce + alpha * g_rps
    # softmax Jacobian: g_z = p * (g_p - sum_k g_p[k] * p[k])
    inner = (g_p * probs.levels).sum(axis=0, keepdims=True)
    return bce, rps, probs.levels * (g_p - inner)


def rps_loss(probs: OrdinalProbMap, target: OrcMap) -> float:
    """Mean-over-voxels ranked probability score against the consensus level."""
    return _loss_terms(probs, target, alpha=1.0)[1]


def bce_loss(probs: OrdinalProbMap, target: OrcMap) -> float:
    """BCE of the aggregated foreground probability vs the majority-vote label."""
    return _loss_terms(probs, target, alpha=1.0)[0]


def hybrid_loss(probs: OrdinalProbMap, target: OrcMap, cfg: LossConfig):
    """Total loss BCE + alpha*RPS and its gradient w.r.t. pre-softmax logits.

    Returns (scalar, gradient of shape (K+1, H, W)); see `_loss_terms`.
    """
    bce, rps, grad = _loss_terms(probs, target, cfg.alpha)
    return bce + cfg.alpha * rps, grad
