import json
import hashlib
import subprocess
import sys
import threading

import numpy as np
import pytest

from conftest import child_env
from mrcal.core import load_dataset, parse_manifest, read_container
from mrcal.synthgen import (
    LatentField,
    SynthConfig,
    effective_sigma,
    generate,
    generate_sample,
    smoothed_noise_std_factor,
    split_sizes,
    true_consensus_probability,
)
from mrcal.core import Grid2D
from mrcal.ordinal import orc_encode


class TestConfig:
    def test_defaults(self):
        cfg = SynthConfig()
        assert cfg.num_samples == 20
        assert cfg.image_size == 64
        assert cfg.num_raters == 3
        assert cfg.ambiguity == 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            SynthConfig(ambiguity=1.5)
        with pytest.raises(ValueError):
            SynthConfig(image_size=4)
        with pytest.raises(ValueError):
            SynthConfig(num_raters=0)


class TestSplits:
    def test_canonical_20(self):
        assert split_sizes(20) == (14, 3, 3)

    def test_sums(self):
        for n in range(1, 60):
            tr, va, te = split_sizes(n)
            assert tr + va + te == n
            assert min(tr, va, te) >= 0


class TestSampleGeneration:
    def test_zero_disagreement_unanimous(self):
        cfg = SynthConfig(rater_bias_std=0.0, rater_noise_std=0.0, num_raters=5)
        _, _, masks = generate_sample(cfg, 0)
        orc = masks.sum(axis=0)
        assert set(np.unique(orc)) <= {0, 5}

    def test_partial_consensus_present(self):
        cfg = SynthConfig(num_raters=3)
        partial = 0
        total = 0
        for index in range(5):
            _, _, masks = generate_sample(cfg, index)
            orc = masks.sum(axis=0)
            partial += int(((orc > 0) & (orc < 3)).sum())
            total += orc.size
        assert partial / total > 0.01

    def test_deterministic_per_index(self):
        cfg = SynthConfig()
        lat_a, img_a, masks_a = generate_sample(cfg, 7)
        lat_b, img_b, masks_b = generate_sample(cfg, 7)
        np.testing.assert_array_equal(lat_a.data, lat_b.data)
        np.testing.assert_array_equal(img_a, img_b)
        np.testing.assert_array_equal(masks_a, masks_b)

    def test_indices_differ(self):
        cfg = SynthConfig()
        _, img_a, _ = generate_sample(cfg, 0)
        _, img_b, _ = generate_sample(cfg, 1)
        assert not np.array_equal(img_a, img_b)

    def test_latent_and_image_ranges(self):
        cfg = SynthConfig()
        lat, img, masks = generate_sample(cfg, 3)
        assert lat.data.min() >= 0.0 and lat.data.max() <= 1.0
        assert img.min() >= 0.0 and img.max() <= 1.0
        assert masks.dtype == np.uint8
        assert set(np.unique(masks)) <= {0, 1}

    def test_disagreement_localized_to_boundary(self):
        # voxels far from the 0.5 level set should be unanimous
        cfg = SynthConfig()
        sigma = effective_sigma(cfg)
        for index in range(3):
            lat, _, masks = generate_sample(cfg, index)
            orc = masks.sum(axis=0)
            far = np.abs(lat.data - 0.5) > 5 * sigma
            assert set(np.unique(orc[far])) <= {0, 3}

    def test_noise_monotonicity(self):
        # more rater noise -> more partial-consensus voxels
        def partial_fraction(noise):
            cfg = SynthConfig(rater_bias_std=0.0, rater_noise_std=noise)
            count = 0
            for index in range(6):
                _, _, masks = generate_sample(cfg, index)
                orc = masks.sum(axis=0)
                count += int(((orc > 0) & (orc < 3)).sum())
            return count

        assert partial_fraction(0.05) < partial_fraction(0.2) < partial_fraction(0.5)


class TestOracle:
    def test_latent_half_maps_to_half(self):
        cfg = SynthConfig()
        lat = LatentField(Grid2D(np.full((4, 4), 0.5)))
        np.testing.assert_allclose(true_consensus_probability(lat, cfg), 0.5)

    def test_zero_sigma_is_step(self):
        cfg = SynthConfig(rater_bias_std=0.0, rater_noise_std=0.0)
        lat = LatentField(Grid2D(np.array([[0.2, 0.5, 0.8, np.nan]])))
        np.testing.assert_array_equal(
            true_consensus_probability(lat, cfg), [[0.0, 1.0, 1.0, np.nan]]
        )

    def test_monotone_in_latent(self):
        cfg = SynthConfig()
        lat = LatentField(Grid2D(np.linspace(0, 1, 50).reshape(1, 50)))
        q = true_consensus_probability(lat, cfg)[0]
        assert (np.diff(q) > 0).all()

    def test_sigma_eff_formula(self):
        cfg = SynthConfig(rater_bias_std=0.3, rater_noise_std=0.0)
        assert abs(effective_sigma(cfg) - 0.3) < 1e-12
        ssq = smoothed_noise_std_factor()
        cfg2 = SynthConfig(rater_bias_std=0.0, rater_noise_std=0.4)
        assert abs(effective_sigma(cfg2) - 0.4 * ssq) < 1e-12

    def test_monte_carlo_vote_frequency(self):
        # empirical foreground frequency over many raters tracks the
        # analytic probability; per-voxel binomial noise at K=64 has std up
        # to 1/16, so check the mean deviation tightly and the bulk loosely
        cfg = SynthConfig(num_raters=64, image_size=32, seed=5)
        lat, _, masks = generate_sample(cfg, 0)
        freq = masks.mean(axis=0)
        q = true_consensus_probability(lat, cfg)
        dev = np.abs(freq - q)
        assert dev.mean() < 0.06
        assert np.quantile(dev, 0.95) < 0.15


class TestDatasetOutput:
    def test_directory_layout_and_loading(self, tmp_path):
        cfg = SynthConfig(num_samples=6, image_size=16, seed=2)
        manifest_path = generate(cfg, tmp_path / "ds")
        assert manifest_path.name == "manifest.json"
        manifest = parse_manifest(manifest_path)
        assert manifest.num_raters == 3
        assert len(manifest.samples) == 6
        by_split = load_dataset(manifest_path)
        total = sum(len(v) for v in by_split.values())
        assert total == 6

    def test_image_is_f32_rater_is_u8(self, tmp_path):
        cfg = SynthConfig(num_samples=1, image_size=16)
        generate(cfg, tmp_path / "ds")
        dtype_img, _, _ = read_container(tmp_path / "ds/images/s0000.mrc")
        dtype_rat, _, rat = read_container(tmp_path / "ds/raters/s0000_r0.mrc")
        assert dtype_img == 1
        assert dtype_rat == 0
        assert set(np.unique(rat)) <= {0, 1}

    def test_byte_identical_regeneration(self, tmp_path):
        cfg = SynthConfig(num_samples=4, image_size=16, seed=9)
        generate(cfg, tmp_path / "a")
        generate(cfg, tmp_path / "b")
        for rel in sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*") if p.is_file()):
            a = (tmp_path / "a" / rel).read_bytes()
            b = (tmp_path / "b" / rel).read_bytes()
            assert hashlib.sha256(a).hexdigest() == hashlib.sha256(b).hexdigest(), rel

    def test_meta_supports_oracle(self, tmp_path):
        cfg = SynthConfig(num_samples=2, image_size=16, seed=4)
        generate(cfg, tmp_path / "ds")
        meta = json.loads((tmp_path / "ds/synth_meta.json").read_text())
        assert abs(meta["sigma_eff"] - effective_sigma(cfg)) < 1e-12
        for sample_id, rel in meta["latent_paths"].items():
            _, _, latent = read_container(tmp_path / "ds" / rel)
            index = int(sample_id[1:])
            expected, _, _ = generate_sample(cfg, index)
            np.testing.assert_allclose(latent, expected.data, atol=1e-7)

    def test_split_counts_match_policy(self, tmp_path):
        cfg = SynthConfig(num_samples=20, image_size=16, seed=1)
        manifest_path = generate(cfg, tmp_path / "ds")
        manifest = parse_manifest(manifest_path)
        counts = {"train": 0, "val": 0, "test": 0}
        for entry in manifest.samples:
            counts[entry.split] += 1
        assert (counts["train"], counts["val"], counts["test"]) == (14, 3, 3)


def _dataset_digest(root):
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


class TestThreadedGeneration:
    # more samples than the 2 x 4 in flight at 4 threads
    SIZE, N = 72, 20

    def test_identical_at_every_thread_count(self, monkeypatch, tmp_path):
        cfg = SynthConfig(num_samples=self.N, image_size=self.SIZE, seed=6)
        digests = {}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # more worker switches: a shared write would show
        try:
            for threads in ("1", "2", "4"):
                monkeypatch.setenv("MRCAL_THREADS", threads)
                generate(cfg, tmp_path / threads)
                digests[threads] = _dataset_digest(tmp_path / threads)
        finally:
            sys.setswitchinterval(interval)
        # one more at 4 threads in a fresh process, through the CLI
        code = (
            "import sys; sys.setswitchinterval(1e-6); from mrcal.cli import main; "
            f"sys.exit(main(['synth', '--out', {str(tmp_path / 'child')!r}, '--n', '{self.N}', "
            f"'--size', '{self.SIZE}', '--seed', '6']))"
        )
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                env=child_env(MRCAL_THREADS="4"), timeout=120)
        assert result.returncode == 0, result.stderr
        digests["child"] = _dataset_digest(tmp_path / "child")
        assert len(set(digests.values())) == 1, digests

    def test_failed_write_joins_workers_before_raising(self, monkeypatch, tmp_path):
        monkeypatch.setenv("MRCAL_THREADS", "2")
        (tmp_path / "raters" / "s0005_r1.mrc").mkdir(parents=True)
        before = threading.active_count()
        cfg = SynthConfig(num_samples=self.N, image_size=self.SIZE)
        with pytest.raises(IsADirectoryError) as failure:
            generate(cfg, tmp_path)
        # the traceback held here keeps generate's frame alive: its workers must be gone anyway
        assert failure.value.__traceback__ is not None
        assert threading.active_count() == before

    def test_samples_equal_generate_sample(self, monkeypatch, tmp_path):
        monkeypatch.setenv("MRCAL_THREADS", "4")
        cfg = SynthConfig(num_samples=10, image_size=self.SIZE, num_raters=2, seed=3)
        generate(cfg, tmp_path)
        for index in range(cfg.num_samples):
            latent, image, masks = generate_sample(cfg, index)
            sid = f"s{index:04d}"
            assert read_container(tmp_path / f"images/{sid}.mrc")[2].tobytes() == \
                image.astype("<f4").tobytes()
            assert read_container(tmp_path / f"latents/{sid}.mrc")[2].tobytes() == \
                latent.data.astype("<f4").tobytes()
            for r in range(cfg.num_raters):
                assert read_container(tmp_path / f"raters/{sid}_r{r}.mrc")[2].tobytes() == \
                    masks[r].tobytes()
