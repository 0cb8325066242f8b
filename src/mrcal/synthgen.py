"""Synthetic multi-rater dataset generator with a known consensus process.

Each sample draws 1-3 soft ellipses into a latent field s(v) in [0,1] whose
boundary sharpness shrinks with the ambiguity setting. Rater r thresholds
s(v) + b_r + eps_r(v) at 0.5, where b_r is a per-rater bias and eps_r is
per-voxel Gaussian noise smoothed at sigma=1. Because bias and smoothed
noise are jointly Gaussian, the probability that a random rater labels a
voxel foreground is exactly Phi((s - 0.5) / sigma_eff), which serves as a
calibrated oracle predictor in tests.

Noise fields are drawn on a padded canvas and smoothed with a 'valid'
convolution so every voxel sees a full kernel window and sigma_eff is
uniform across the image.

`generate` computes the samples through `core.ordered_map`, on the
MRCAL_THREADS worker threads, and writes each sample's files on the calling
thread in index order. Each sample's random stream is keyed by (seed, index),
so a dataset is byte-identical at every thread count.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import asdict, dataclass
from functools import partial
from pathlib import Path

import numpy as np

from .core import (
    DTYPE_F32, DTYPE_U8, SPLITS, DatasetManifest, ManifestEntry, json_text, ordered_map,
    write_container,
)
from .fusion import gaussian_filter_valid, gaussian_kernel_1d

NOISE_SMOOTH_SIGMA = 1.0
IMAGE_NOISE_STD = 0.05
SPLIT_FRACTIONS = (0.7, 0.15, 0.15)


@dataclass
class SynthConfig:
    num_samples: int = 20
    image_size: int = 64
    num_raters: int = 3
    ambiguity: float = 0.5
    rater_bias_std: float = 0.1
    rater_noise_std: float = 0.2
    seed: int = 0

    def __post_init__(self):
        if self.image_size < 8:
            raise ValueError("image_size must be >= 8")
        if self.num_raters < 1:
            raise ValueError("num_raters must be >= 1")
        if not 0.0 <= self.ambiguity <= 1.0:
            raise ValueError("ambiguity must be in [0,1]")
        if self.num_samples < 1:
            raise ValueError("num_samples must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        for name in ("rater_bias_std", "rater_noise_std"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and >= 0")


def smoothed_noise_std_factor() -> float:
    """Std shrinkage from smoothing unit white noise with the sigma=1 kernel."""
    g = gaussian_kernel_1d(NOISE_SMOOTH_SIGMA)
    # separable 2D kernel: sum of squares factorizes
    return float((g * g).sum())  # per-axis factor


def effective_sigma(cfg: SynthConfig) -> float:
    ssq_2d = smoothed_noise_std_factor() ** 2
    return math.sqrt(cfg.rater_bias_std ** 2 + cfg.rater_noise_std ** 2 * ssq_2d)


def _soft_ellipses(rng: np.random.Generator, size: int, ambiguity: float) -> np.ndarray:
    """Sum of 1-3 sigmoid-edged ellipses, clipped to [0,1]."""
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64)
    n_ellipses = int(rng.integers(1, 4))
    # edge width in normalized-radius units; near-step at ambiguity 0
    width = 0.02 + 0.30 * ambiguity
    field = np.zeros((size, size))
    for _ in range(n_ellipses):
        cy, cx = rng.uniform(0.25 * size, 0.75 * size, size=2)
        ry, rx = rng.uniform(0.12 * size, 0.30 * size, size=2)
        d = np.sqrt(((yy - cy) / ry) ** 2 + ((xx - cx) / rx) ** 2)
        field += 1.0 / (1.0 + np.exp((d - 1.0) / width))
    return np.clip(field, 0.0, 1.0)


def _smoothed_noise(rng: np.random.Generator, size: int, std: float) -> np.ndarray:
    """Gaussian noise of the given std, smoothed at sigma=1 with full windows."""
    g = gaussian_kernel_1d(NOISE_SMOOTH_SIGMA)
    padded = size + len(g) - 1
    raw = rng.normal(0.0, std, size=(padded, padded))
    return gaussian_filter_valid(raw, g)


def generate_sample(cfg: SynthConfig, index: int):
    """One (latent, image, rater masks) triple of arrays: the float64 latent
    and image (H, W) and the uint8 masks (K, H, W). The RNG stream is keyed
    by (seed, index)."""
    return _sample(cfg, index)


def _sample(cfg: SynthConfig, index: int):
    """`generate_sample`'s body. `generate`'s worker threads call it under
    this private name, so wrapping the public one (as a tracer does) never
    runs on a worker."""
    rng = np.random.default_rng([cfg.seed, index])
    s = _soft_ellipses(rng, cfg.image_size, cfg.ambiguity)
    image = np.clip(
        s + rng.normal(0.0, IMAGE_NOISE_STD, size=s.shape), 0.0, 1.0
    )
    masks = []
    for _ in range(cfg.num_raters):
        bias = rng.normal(0.0, cfg.rater_bias_std) if cfg.rater_bias_std > 0 else 0.0
        if cfg.rater_noise_std > 0:
            eps = _smoothed_noise(rng, cfg.image_size, cfg.rater_noise_std)
        else:
            eps = 0.0
        masks.append((s + bias + eps >= 0.5).astype(np.uint8))
    return s, image, np.stack(masks)


def split_sizes(n: int) -> tuple[int, int, int]:
    """The split sizes in `SPLITS` order: 70/15/15 with floor on train and
    val; the remainder goes to test."""
    n_train = int(math.floor(SPLIT_FRACTIONS[0] * n))
    n_val = int(math.floor(SPLIT_FRACTIONS[1] * n))
    return n_train, n_val, n - n_train - n_val


def generate(cfg: SynthConfig, out_dir) -> Path:
    """Write a full dataset directory; returns the manifest path.

    Layout: images/<id>.mrc (f32), raters/<id>_r<r>.mrc (u8),
    latents/<id>.mrc (f32), manifest.json (the `DatasetManifest` that
    `parse_manifest` reads back), synth_meta.json (with `cfg` as "config").
    The latents and meta support the analytic consensus-probability oracle;
    they are not part of the manifest schema.
    """
    out_dir = Path(out_dir)
    for sub in ("images", "raters", "latents"):
        (out_dir / sub).mkdir(parents=True, exist_ok=True)

    order = np.random.default_rng([cfg.seed, cfg.num_samples]).permutation(cfg.num_samples)
    split_of = dict(zip(order.tolist(), np.repeat(SPLITS, split_sizes(cfg.num_samples)).tolist()))

    entries = []
    latent_paths = {}
    indices = range(cfg.num_samples)
    samples = ordered_map(partial(_sample, cfg), indices)
    with contextlib.closing(samples):  # a failed write stops the workers
        for index, (latent, image, masks) in zip(indices, samples):
            sample_id = f"s{index:04d}"
            image_path = f"images/{sample_id}.mrc"
            write_container(DTYPE_F32, image.shape, image, out_dir / image_path)
            rater_paths = []
            for r in range(cfg.num_raters):
                rp = f"raters/{sample_id}_r{r}.mrc"
                write_container(DTYPE_U8, masks[r].shape, masks[r], out_dir / rp)
                rater_paths.append(rp)
            latent_path = f"latents/{sample_id}.mrc"
            write_container(DTYPE_F32, latent.shape, latent, out_dir / latent_path)
            latent_paths[sample_id] = latent_path
            entries.append(ManifestEntry(sample_id, image_path, rater_paths, split_of[index]))

    manifest_path = out_dir / "manifest.json"
    manifest_path.write_text(json_text(asdict(DatasetManifest("1", cfg.num_raters, entries))))
    meta = {
        "generator": "mrcal-synth",
        "config": asdict(cfg),
        "sigma_eff": effective_sigma(cfg),
        "latent_paths": latent_paths,
    }
    (out_dir / "synth_meta.json").write_text(json_text(meta))
    return manifest_path


def _erf(x: np.ndarray) -> np.ndarray:
    """`math.erf` of every element of x, as a float64 array of x's shape."""
    return np.fromiter(map(math.erf, x.ravel().tolist()), np.float64, x.size).reshape(x.shape)


def true_consensus_probability(latent: np.ndarray, cfg: SynthConfig) -> np.ndarray:
    """Analytic P(a random rater labels v foreground) = Phi((s-0.5)/sigma_eff)
    for the latent field s, a float array."""
    sigma = effective_sigma(cfg)
    if sigma == 0.0:
        return np.heaviside(latent - 0.5, 1.0)  # the step s >= 0.5, NaN kept as NaN
    z = (latent - 0.5) / sigma
    return 0.5 * (1.0 + _erf(z / math.sqrt(2.0)))
