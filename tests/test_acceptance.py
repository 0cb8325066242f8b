"""End-to-end acceptance gate.

Each test checks one release criterion and records a single PASS/FAIL line
that the terminal summary prints after the run (see conftest.py).
"""

import hashlib
import json
import subprocess
import sys
import time

import numpy as np
import pytest

from conftest import child_env, record_result
from mrcal.cli import _parse_grid
from mrcal.core import Grid2D, RaterStack, Sample
from mrcal.fusion import FusionConfig, fuse_simple, fuse_staple
from mrcal.metrics import EvalConfig, auc, bootstrap_eval, ece_single, mr_ece
from mrcal.model import TinyNet, TrainConfig, _forward_logits, _softmax, backward, predict, train
from mrcal.ordinal import (
    LossConfig,
    OrcMap,
    OrdinalProbMap,
    aggregate_foreground,
    bce_loss,
    hybrid_loss,
    orc_encode,
    rps_loss,
)
from mrcal.synthgen import SynthConfig, generate_sample, true_consensus_probability
from mrcal.core import BinaryMask


def check(n, description, ok, detail=""):
    record_result(f"criterion {n:2d} [{'PASS' if ok else 'FAIL'}] {description}")
    assert ok, f"criterion {n} failed: {description}" + (f"\n{detail}" if detail else "")


def _samples_from_cfg(cfg, indices):
    samples = []
    for index in indices:
        _, image, masks = generate_sample(cfg, index)
        samples.append(
            Sample(
                id=f"s{index:04d}",
                image=Grid2D(image),
                annotations=RaterStack(masks),
            )
        )
    return samples


def test_criterion_1_gradient_correctness():
    """Analytic loss gradients w.r.t. all net parameters match central
    finite differences within 1e-3 relative error (8x8, K=3)."""
    start = time.time()
    rng = np.random.default_rng(42)
    k = 3
    img = rng.random((8, 8))
    target = OrcMap(Grid2D(rng.integers(0, k + 1, size=(8, 8))), num_raters=k)
    worst = 0.0
    for alpha in (0.0, 0.8):
        net = TinyNet.init(k + 1, hidden_channels=4, seed=1)
        cfg = LossConfig(alpha=alpha)

        def loss_of(n):
            logits, _ = _forward_logits(n, img)
            probs = OrdinalProbMap(_softmax(logits), num_raters=k)
            value, _ = hybrid_loss(probs, target, cfg)
            return value

        logits, cache = _forward_logits(net, img)
        probs = OrdinalProbMap(_softmax(logits), num_raters=k)
        _, d_logits = hybrid_loss(probs, target, cfg)
        grads = backward(net, cache, d_logits)

        h = 1e-4
        for name, p in net.params.items():
            picks = rng.integers(0, p.size, size=min(10, p.size))
            for flat in picks:
                idx = np.unravel_index(int(flat), p.shape)
                orig = p[idx]
                p_work = p.copy()
                p_work[idx] = orig + h
                net.params[name] = p_work
                lp = loss_of(net)
                p_work = p.copy()
                p_work[idx] = orig - h
                net.params[name] = p_work
                lm = loss_of(net)
                net.params[name] = p
                num = (lp - lm) / (2 * h)
                ana = grads[name][idx]
                rel = abs(num - ana) / max(abs(num), abs(ana), 1e-7)
                worst = max(worst, rel)
    elapsed = time.time() - start
    check(
        1,
        f"analytic vs finite-difference gradients, max rel err {worst:.2e} "
        f"(< 1e-3), {elapsed:.1f}s (< 10s)",
        worst < 1e-3 and elapsed < 10,
    )


def test_criterion_2_rps_properness():
    """Expected RPS under 10 random targets is minimized within one grid
    step of the target on a 0.02-resolution K=2 simplex grid."""
    start = time.time()
    rng = np.random.default_rng(7)
    step = 0.02
    grid = []
    for p0 in np.arange(0.0, 1.0 + 1e-9, step):
        for p1 in np.arange(0.0, 1.0 - p0 + 1e-9, step):
            grid.append((p0, p1, 1.0 - p0 - p1))
    grid = np.array(grid)
    losses_by_level = np.stack(
        [
            np.array(
                [
                    rps_loss(
                        OrdinalProbMap(g.reshape(3, 1, 1), num_raters=2),
                        OrcMap(Grid2D(np.array([[level]])), num_raters=2),
                    )
                    for g in grid
                ]
            )
            for level in range(3)
        ]
    )
    ok = True
    for _ in range(10):
        q = rng.dirichlet(np.ones(3))
        expected = q @ losses_by_level
        best = grid[np.argmin(expected)]
        ok = ok and np.abs(best - q).max() <= step + 1e-9
    elapsed = time.time() - start
    check(
        2,
        f"expected score minimized at the target on the simplex grid, "
        f"{elapsed:.1f}s (< 30s)",
        ok and elapsed < 30,
    )


def test_criterion_3_ordinal_gradedness():
    """For every K <= 7 and every true level, one-hot predictions farther
    from the truth never score better than nearer ones."""
    ok = True
    for k in range(1, 8):
        for true_level in range(k + 1):
            target = OrcMap(Grid2D(np.array([[true_level]])), num_raters=k)
            losses = []
            for level in range(k + 1):
                levels = np.zeros((k + 1, 1, 1))
                levels[level] = 1.0
                losses.append(
                    rps_loss(OrdinalProbMap(levels, num_raters=k), target)
                )
            for a in range(k + 1):
                for b in range(k + 1):
                    if abs(a - true_level) < abs(b - true_level):
                        ok = ok and losses[a] <= losses[b] + 1e-12
    check(3, "one-hot score non-decreasing in ordinal distance, all K <= 7", ok)


def test_criterion_4_mr_ece_reduction():
    """K=1 multi-rater calibration error equals single-rater ECE to 1e-12
    on 50 instances; duplicating the rater K times leaves it unchanged."""
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(50):
        mask = rng.integers(0, 2, size=(8, 8)).astype(np.uint8)
        pred = rng.random((8, 8))
        v1, _ = mr_ece(
            [pred], [RaterStack(mask[None])], EvalConfig()
        )
        single = ece_single(pred, BinaryMask.from_array(mask), EvalConfig())
        worst = max(worst, abs(v1 - single))
        for k in (3, 6):
            vk, _ = mr_ece(
                [pred],
                [RaterStack(np.repeat(mask[None], k, axis=0))],
                EvalConfig(),
            )
            worst = max(worst, abs(vk - v1))
    check(
        4,
        f"K=1 reduction and duplication invariance, max dev {worst:.1e} (< 1e-12)",
        worst < 1e-12,
    )


def test_criterion_5_oracle_calibration():
    """The analytic consensus-probability predictor is calibrated on the
    synthetic test distribution: MR-ECE < 0.01 with 15 bins, 40 images."""
    start = time.time()
    cfg = SynthConfig(num_samples=40, image_size=64, num_raters=3, ambiguity=0.5, seed=0)
    preds = []
    stacks = []
    for index in range(40):
        latent, _, masks = generate_sample(cfg, index)
        preds.append(true_consensus_probability(latent, cfg))
        stacks.append(RaterStack(masks))
    value, _ = mr_ece(preds, stacks, EvalConfig(num_bins=15))
    elapsed = time.time() - start
    check(
        5,
        f"analytic oracle MR-ECE {value:.4f} (< 0.01) on 40 images, "
        f"{elapsed:.1f}s (< 60s)",
        value < 0.01 and elapsed < 60,
    )


def test_criterion_6_fusion_oracles():
    """STAPLE fixed point and monotone likelihood, SIMPLE outlier
    exclusion, AUC vs exhaustive pair enumeration."""
    rng = np.random.default_rng(3)
    ok = True

    m = rng.integers(0, 2, size=(12, 12)).astype(np.uint8)
    stack = RaterStack(np.stack([m, m, m]))
    soft, _ = fuse_staple(stack, FusionConfig(method="staple"))
    ok = ok and np.abs(soft.data - m).max() < 1e-3

    noisy = RaterStack(rng.integers(0, 2, size=(4, 12, 12)).astype(np.uint8))
    _, _, trace = fuse_staple(noisy, FusionConfig(method="staple"), track_likelihood=True)
    ok = ok and np.diff(trace).min() > -1e-9

    base = (rng.random((16, 16)) < 0.5).astype(np.uint8)
    good = []
    for r in range(4):
        flip = base.copy()
        flip[0, r] = 1 - flip[0, r]
        good.append(flip)
    outlier = np.zeros_like(base)
    fused = fuse_simple(
        RaterStack(np.stack(good + [outlier])),
        FusionConfig(method="simple"),
    )
    votes = np.stack(good).sum(axis=0)
    ok = ok and np.array_equal(fused.data, (2 * votes >= 4).astype(np.uint8))

    for _ in range(5):
        n = int(rng.integers(20, 200))
        pred = rng.choice(np.linspace(0, 1, 13), size=n)
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            continue
        wins = 0.0
        pairs = 0
        for i in np.flatnonzero(labels == 1):
            for j in np.flatnonzero(labels == 0):
                pairs += 1
                if pred[i] > pred[j]:
                    wins += 1.0
                elif pred[i] == pred[j]:
                    wins += 0.5
        got = auc(pred[None], BinaryMask.from_array(labels[None].astype(np.uint8)))
        ok = ok and abs(got - wins / pairs) < 1e-12

    check(6, "STAPLE / SIMPLE / ranking-score oracles all agree", ok)


def test_criterion_7_benchmark_ordering():
    """Directional benchmark: the ordinal-loss model beats both the
    median-consensus and soft-consensus baselines on bootstrap-mean
    calibration error for >= 2 of 3 seeds, with competitive AUC."""
    start = time.time()
    wins = 0
    auc_ok = True
    details = []
    for seed in (101, 202, 303):
        cfg = SynthConfig(
            num_samples=240, image_size=64, num_raters=3, ambiguity=0.5, seed=seed
        )
        train_samples = _samples_from_cfg(cfg, range(200))
        test_samples = _samples_from_cfg(cfg, range(200, 240))
        stacks = [s.annotations for s in test_samples]

        results = {}
        for label, tcfg in (
            ("rps", TrainConfig(loss="hybrid_rps", epochs=20, lr=0.01, seed=seed)),
            (
                "mc",
                TrainConfig(
                    loss="bce_vs_fused",
                    fusion=FusionConfig(method="mc"),
                    epochs=20,
                    lr=0.01,
                    seed=seed,
                ),
            ),
            (
                "sc",
                TrainConfig(
                    loss="bce_vs_fused",
                    fusion=FusionConfig(method="sc"),
                    epochs=20,
                    lr=0.01,
                    seed=seed,
                ),
            ),
        ):
            ckpt = train(train_samples, tcfg)
            preds = [predict(ckpt, s.image).data for s in test_samples]
            report = bootstrap_eval(preds, stacks, EvalConfig(seed=0))
            results[label] = (report.mr_ece_boot_mean, report.auc)

        rps_ece, rps_auc = results["rps"]
        if rps_ece < results["mc"][0] and rps_ece < results["sc"][0]:
            wins += 1
        best_auc = max(v[1] for v in results.values())
        auc_ok = auc_ok and (best_auc - rps_auc) <= 0.02
        details.append(
            f"s{seed}: rps {rps_ece:.4f} vs mc {results['mc'][0]:.4f} / "
            f"sc {results['sc'][0]:.4f}"
        )
    elapsed = time.time() - start
    check(
        7,
        f"ordinal loss wins {wins}/3 seeds (need >= 2), AUC within 0.02, "
        f"{elapsed:.0f}s (< 900s) [{'; '.join(details)}]",
        wins >= 2 and auc_ok and elapsed < 900,
    )


def test_criterion_8_reference_values():
    """Hand-computed reference values for the three core formulas."""
    levels = np.array([0.1, 0.2, 0.3, 0.4]).reshape(4, 1, 1)
    agg = aggregate_foreground(OrdinalProbMap(levels, num_raters=3)).data[0, 0]

    uniform = OrdinalProbMap(np.full((3, 1, 1), 1 / 3), num_raters=2)
    rps = rps_loss(uniform, OrcMap(Grid2D(np.array([[0]])), num_raters=2))

    half = OrdinalProbMap(np.full((4, 2, 2), 0.25), num_raters=3)
    target = OrcMap(Grid2D(np.array([[0, 1], [2, 3]])), num_raters=3)
    bce = bce_loss(half, target)

    ok = (
        abs(agg - 0.7) < 1e-12
        and abs(rps - 5 / 27) < 1e-9
        and abs(bce - np.log(2)) < 1e-9
    )
    check(
        8,
        f"majority mass 0.7, uniform score 5/27, half-confidence BCE ln 2 "
        f"({agg:.3f}, {rps:.6f}, {bce:.6f})",
        ok,
    )


def _pipeline_digest(root, threads):
    env = child_env(MRCAL_THREADS=threads, HOME=str(root))
    # relative paths + cwd so embedded path strings match across run dirs
    for argv in (
        ["synth", "--out", "ds", "--n", "8", "--size", "16", "--seed", "5"],
        ["train", "--data", "ds", "--loss", "rps", "--epochs", "2",
         "--seed", "5", "--out", "model.mrc"],
        ["eval", "--model", "model.mrc", "--data", "ds", "--split", "test",
         "--report", "report.json"],
    ):
        proc = subprocess.run(
            [sys.executable, "-m", "mrcal.cli", *argv],
            capture_output=True, text=True, env=env, cwd=root,
        )
        if proc.returncode != 0:
            last_line = (proc.stderr.strip().splitlines() or ["(no stderr)"])[-1]
            check(
                9,
                f"pipeline stage {argv[0]} (MRCAL_THREADS={threads}) exited "
                f"{proc.returncode}: {last_line}",
                False,
                detail=proc.stderr,
            )
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def test_criterion_9_reproducibility(tmp_path):
    """synth -> train -> eval produces byte-identical artifacts across two
    runs and across thread-cap settings 1 and 4."""
    digests = []
    for name, threads in (("run1", "1"), ("run2", "1"), ("run4", "4")):
        root = tmp_path / name
        root.mkdir()
        digests.append(_pipeline_digest(root, threads))
    ok = len(set(digests)) == 1
    check(9, "byte-identical pipeline artifacts across reruns and thread caps", ok)


def test_criterion_10_protocol_defaults():
    """Evaluation and sweep defaults match the published protocol."""
    ecfg = EvalConfig()
    grid = _parse_grid("0.5:1.0:0.1")
    fcfg = FusionConfig(method="scg")
    ok = (
        ecfg.num_bins == 15
        and ecfg.bootstrap_n == 10
        and abs(ecfg.bootstrap_frac - 0.6) < 1e-12
        and len(grid) == 6
        and abs(fcfg.sigma - 1.0) < 1e-12
    )
    check(
        10,
        "defaults: 15 bins, bootstrap 10 x 0.6, 6-point alpha grid, sigma 1",
        ok,
    )
