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
from typing import ClassVar

import numpy as np

from .core import ForegroundProbMap, Grid2D, RaterStack, _freeze, majority_level

PROB_CLAMP = 1e-7


class TargetOutOfRange(Exception):
    pass


@dataclass(frozen=True)
class OrcMap(Grid2D):
    """Per-voxel consensus level in {0..K} (count of foreground votes),
    stored in the dtype given."""

    num_raters: int
    dtype: ClassVar = None

    def __post_init__(self):
        vals = np.asarray(self.data)
        if vals.min() < 0 or vals.max() > self.num_raters:
            raise TargetOutOfRange(
                f"consensus levels must lie in [0, {self.num_raters}]"
            )
        super().__post_init__()


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
        lo = self.levels.min()
        if lo < -1e-9:
            raise ValueError("level probabilities must be >= 0")
        sums = self.levels.sum(axis=0)
        if np.abs(sums - 1.0).max() > 1e-5:
            raise ValueError("per-voxel level probabilities must sum to 1")
        # clip float-arithmetic dust so downstream logs stay defined
        levels = np.clip(self.levels, 0.0, None) if lo < 0 else self.levels
        object.__setattr__(self, "levels", _freeze(levels, np.float64))

    @property
    def shape(self) -> tuple[int, int]:
        return self.levels.shape[1:]


def orc_encode(stack: RaterStack) -> OrcMap:
    """Sum the K binary votes per voxel into a consensus level."""
    return OrcMap(stack.votes(), num_raters=stack.num_raters)


def aggregate_foreground(probs: OrdinalProbMap) -> ForegroundProbMap:
    """Collapse level probabilities to P(majority of raters vote foreground)."""
    return ForegroundProbMap(_majority_mass(probs.levels, probs.num_raters))


def _majority_mass(levels: np.ndarray, num_raters: int) -> np.ndarray:
    """The package's one majority-mass sum: the probability of the levels
    that are a majority of K, from (K+1, ...) level probabilities.

    Inference workers call it under this private name, so wrapping
    `aggregate_foreground` (as a tracer does) never runs on a worker.
    """
    return levels[majority_level(num_raters):].sum(axis=0)


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
    if probs.shape != target.shape:
        raise TargetOutOfRange(
            f"spatial shapes differ: {probs.shape} vs {target.shape}"
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
    raw_p = _majority_mass(probs.levels, k)
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


def hybrid_loss(probs: OrdinalProbMap, target: OrcMap, alpha: float):
    """Total loss BCE + alpha*RPS and its gradient w.r.t. pre-softmax logits.

    Returns (scalar, gradient of shape (K+1, H, W)); see `_loss_terms`.
    """
    bce, rps, grad = _loss_terms(probs, target, alpha)
    return bce + alpha * rps, grad
