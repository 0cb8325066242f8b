import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from conftest import child_env
from mrcal import fusion
from mrcal.cli import _parse_grid, main
from mrcal.model import Checkpoint
from mrcal.core import read_container, write_container


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("data") / "ds"
    code = main(
        ["synth", "--out", str(out), "--n", "8", "--size", "16", "--seed", "3"]
    )
    assert code == 0
    return out


def _load_argv(command, data, tmp_path):
    """argv of an `eval --split test` or a `fuse` run that loads `data`."""
    if command == "eval":
        return ["eval", "--model", "oracle", "--data", str(data), "--split", "test"]
    return ["fuse", "--data", str(data), "--method", "mc", "--out", str(tmp_path / "f")]


class TestSynth:
    def test_default_split_counts(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "synth", "--out", str(tmp_path / "ds"), "--n", "20", "--size", "16"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["splits"] == {"train": 14, "val": 3, "test": 3}
        assert (tmp_path / "ds/manifest.json").exists()

    def test_missing_out_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--n", "5"])
        assert exc.value.code == 2

    def test_failed_write_exits_1_and_stops_workers(self, capsys, monkeypatch, tmp_path):
        # 72x72 samples run on the worker pool; one rater target is a directory
        monkeypatch.setenv("MRCAL_THREADS", "2")
        out = tmp_path / "ds"
        (out / "raters" / "s0005_r1.mrc").mkdir(parents=True)
        before = threading.active_count()
        code, stdout, err = run_cli(capsys, "synth", "--out", str(out), "--n", "20", "--size", "72")
        assert code == 1
        assert stdout == ""
        assert err.startswith("synth failed: ") and "s0005_r1.mrc" in err
        assert err.count("\n") == 1
        assert threading.active_count() == before
        assert (out / "raters" / "s0005_r0.mrc").is_file()
        assert not (out / "latents" / "s0005.mrc").exists()  # nothing written past the failure

    def test_rerun_identical_manifest(self, capsys, tmp_path):
        args = ["synth", "--n", "5", "--size", "16", "--seed", "7"]
        main(args + ["--out", str(tmp_path / "a")])
        main(args + ["--out", str(tmp_path / "b")])
        capsys.readouterr()
        ha = hashlib.sha256((tmp_path / "a/manifest.json").read_bytes()).hexdigest()
        hb = hashlib.sha256((tmp_path / "b/manifest.json").read_bytes()).hexdigest()
        assert ha == hb


class TestFuse:
    def test_writes_all_samples(self, capsys, dataset, tmp_path):
        code, out, _ = run_cli(
            capsys,
            "fuse", "--data", str(dataset), "--method", "mc",
            "--out", str(tmp_path / "fused"),
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["written"] == 8
        assert len(list((tmp_path / "fused").glob("*_mc.mrc"))) == 8

    def test_staple_sidecar_has_performance(self, capsys, dataset, tmp_path):
        code, _, _ = run_cli(
            capsys,
            "fuse", "--data", str(dataset), "--method", "staple",
            "--out", str(tmp_path / "fused"),
        )
        assert code == 0
        sidecars = sorted((tmp_path / "fused").glob("*.mrc.json"))
        doc = json.loads(sidecars[0].read_text())
        assert len(doc["rater_performance"]["sensitivity"]) == 3

    def test_rs_requires_seed(self, capsys, dataset, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(
                ["fuse", "--data", str(dataset), "--method", "rs",
                 "--out", str(tmp_path / "fused")]
            )
        assert exc.value.code == 2

    def test_bad_data_dir_is_io_error(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys,
            "fuse", "--data", str(tmp_path / "nope"), "--method", "mc",
            "--out", str(tmp_path / "fused"),
        )
        assert code == 1
        assert err != ""

    @pytest.mark.parametrize(
        "message", ["", "Unable to allocate 447. GiB for an array"], ids=["bare", "numpy"]
    )
    def test_out_of_memory_is_one_line(self, capsys, dataset, tmp_path, monkeypatch, message):
        def no_memory(sigma):
            raise MemoryError(message)

        monkeypatch.setattr(fusion, "gaussian_kernel_1d", no_memory)
        code, out, err = run_cli(
            capsys,
            "fuse", "--data", str(dataset), "--method", "scg",
            "--out", str(tmp_path / "fused"),
        )
        assert code == 1
        assert out == ""
        assert err.startswith("fuse: out of memory") and message in err
        assert err.count("\n") == 1


class TestTrainEval:
    def test_train_writes_checkpoint_and_trace(self, capsys, dataset, tmp_path):
        ckpt = tmp_path / "model.mrc"
        code, out, _ = run_cli(
            capsys,
            "train", "--data", str(dataset), "--loss", "rps",
            "--epochs", "2", "--out", str(ckpt),
        )
        assert code == 0
        lines = [json.loads(line) for line in out.strip().split("\n")]
        assert [line["epoch"] for line in lines] == [0, 1]
        assert all(np.isfinite(line["loss"]) for line in lines)
        assert ckpt.exists() and ckpt.with_suffix(".mrc.json").exists()

    def test_staple_loss_records_performance(self, capsys, dataset, tmp_path):
        ckpt = tmp_path / "model.mrc"
        code, _, _ = run_cli(
            capsys,
            "train", "--data", str(dataset), "--loss", "staple",
            "--epochs", "1", "--out", str(ckpt),
        )
        assert code == 0
        sidecar = json.loads(ckpt.with_suffix(".mrc.json").read_text())
        assert "staple_rater_performance" in sidecar["extra"]

    def test_eval_checkpoint(self, capsys, dataset, tmp_path):
        ckpt = tmp_path / "model.mrc"
        run_cli(
            capsys,
            "train", "--data", str(dataset), "--loss", "rps",
            "--epochs", "1", "--out", str(ckpt),
        )
        report = tmp_path / "report.json"
        rel = tmp_path / "rel.csv"
        code, out, _ = run_cli(
            capsys,
            "eval", "--model", str(ckpt), "--data", str(dataset),
            "--split", "test", "--report", str(report), "--reliability", str(rel),
        )
        assert code == 0
        doc = json.loads(out)
        assert 0.0 <= doc["mr_ece"] <= 1.0
        saved = json.loads(report.read_text())
        assert saved["mr_ece"]["point"] == doc["mr_ece"]
        assert rel.read_text().startswith("bin_lo,bin_hi,count,conf,acc")

    def test_eval_oracle(self, capsys, dataset, tmp_path):
        code, out, _ = run_cli(
            capsys,
            "eval", "--model", "oracle", "--data", str(dataset), "--split", "test",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["auc"] > 0.9

    def test_eval_reports_byte_identical(self, capsys, dataset, tmp_path):
        reports = []
        for name in ("r1.json", "r2.json"):
            path = tmp_path / name
            code, _, _ = run_cli(
                capsys,
                "eval", "--model", "oracle", "--data", str(dataset),
                "--split", "test", "--report", str(path),
            )
            assert code == 0
            reports.append(path.read_bytes())
        assert reports[0] == reports[1]

    def test_unwritable_checkpoint_is_io_error(self, capsys, dataset, tmp_path):
        out = tmp_path / "missing" / "t.mrc"
        code, stdout, err = run_cli(
            capsys,
            "train", "--data", str(dataset), "--loss", "rps", "--epochs", "1",
            "--out", str(out),
        )
        assert code == 1
        assert stdout == ""
        assert str(out) in err and err.count("\n") == 1
        assert not (tmp_path / "missing").exists()

    @pytest.mark.parametrize("flag", ["--report", "--reliability"])
    def test_unwritable_eval_output_is_io_error(self, capsys, dataset, tmp_path, flag):
        out = tmp_path / "missing" / "out"
        code, stdout, err = run_cli(
            capsys,
            "eval", "--model", "oracle", "--data", str(dataset), flag, str(out),
        )
        assert code == 1
        assert stdout == ""
        assert str(out) in err and err.count("\n") == 1

    def test_failed_eval_output_leaves_no_partial_output(self, capsys, dataset, tmp_path):
        csv, report = tmp_path / "ok.csv", tmp_path / "missing" / "r.json"
        code, stdout, err = run_cli(
            capsys,
            "eval", "--model", "oracle", "--data", str(dataset),
            "--reliability", str(csv), "--report", str(report),
        )
        assert code == 1
        assert stdout == ""
        assert str(report) in err and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_missing_model_is_io_error(self, capsys, dataset, tmp_path):
        code, _, err = run_cli(
            capsys,
            "eval", "--model", str(tmp_path / "missing.mrc"), "--data", str(dataset),
        )
        assert code == 1
        assert err != ""

    def test_corrupt_sidecar_is_io_error(self, capsys, dataset, tmp_path):
        ckpt = tmp_path / "model.mrc"
        run_cli(
            capsys,
            "train", "--data", str(dataset), "--loss", "rps",
            "--epochs", "1", "--out", str(ckpt),
        )
        ckpt.with_suffix(".mrc.json").write_text("{bad")
        code, out, err = run_cli(
            capsys,
            "eval", "--model", str(ckpt), "--data", str(dataset), "--split", "test",
        )
        assert code == 1
        assert out == ""
        assert err.startswith("cannot load model/predictions:")
        assert err.count("\n") == 1

    def test_mismatched_checkpoint_pair_is_io_error(self, capsys, dataset, tmp_path):
        for seed in ("0", "1"):
            run_cli(
                capsys,
                "train", "--data", str(dataset), "--loss", "rps", "--epochs", "1",
                "--seed", seed, "--out", str(tmp_path / f"model{seed}.mrc"),
            )
        # the parameters of one checkpoint beside the sidecar of the other
        os.replace(tmp_path / "model1.mrc", tmp_path / "model0.mrc")
        code, out, err = run_cli(
            capsys,
            "eval", "--model", str(tmp_path / "model0.mrc"), "--data", str(dataset),
        )
        assert code == 1
        assert out == ""
        assert "sha256" in err and err.count("\n") == 1

    def test_nan_pixel_is_numeric_error(self, capsys, dataset, tmp_path):
        ckpt = tmp_path / "model.mrc"
        run_cli(
            capsys,
            "train", "--data", str(dataset), "--loss", "rps",
            "--epochs", "1", "--out", str(ckpt),
        )
        data = tmp_path / "ds"
        shutil.copytree(dataset, data)
        manifest = json.loads((data / "manifest.json").read_text())
        entry = next(s for s in manifest["samples"] if s["split"] == "test")
        image_path = data / entry["image_path"]
        dtype, dims, image = read_container(image_path)
        image = np.array(image, dtype=np.float32)
        image[2, 3] = np.nan
        write_container(dtype, dims, image, image_path)
        code, out, err = run_cli(
            capsys,
            "eval", "--model", str(ckpt), "--data", str(data), "--split", "test",
        )
        assert code == 3
        assert out == ""
        assert err.startswith("non-finite predictions:")
        assert err.count("\n") == 1

    def test_trailing_bytes_in_dataset_is_io_error(self, capsys, dataset, tmp_path):
        data = tmp_path / "ds"
        shutil.copytree(dataset, data)
        manifest = json.loads((data / "manifest.json").read_text())
        image_path = data / manifest["samples"][0]["image_path"]
        image_path.write_bytes(image_path.read_bytes() + b"xx")
        code, out, err = run_cli(
            capsys,
            "eval", "--model", "oracle", "--data", str(data), "--split", "test",
        )
        assert code == 1
        assert out == ""
        assert "2 trailing" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["eval", "fuse"])
    def test_mask_value_two_is_io_error(self, capsys, dataset, tmp_path, command):
        self._check_mask_value_two(capsys, dataset, tmp_path, command, index=0)

    def test_val_mask_value_two_fails_test_eval(self, capsys, dataset, tmp_path):
        # eval scores the test split but still validates every split's files
        manifest = json.loads((dataset / "manifest.json").read_text())
        index = next(i for i, s in enumerate(manifest["samples"]) if s["split"] == "val")
        self._check_mask_value_two(capsys, dataset, tmp_path, "eval", index)

    @staticmethod
    def _check_mask_value_two(capsys, dataset, tmp_path, command, index):
        data = tmp_path / "ds"
        shutil.copytree(dataset, data)
        manifest = json.loads((data / "manifest.json").read_text())
        mask_path = data / manifest["samples"][index]["rater_paths"][1]
        dtype, dims, mask = read_container(mask_path)
        mask = np.array(mask)
        mask[0, 0] = 2
        write_container(dtype, dims, mask, mask_path)
        code, out, err = run_cli(capsys, *_load_argv(command, data, tmp_path))
        assert code == 1
        assert out == ""
        assert err.startswith("cannot load dataset:")
        assert str(mask_path) in err and "0 or 1" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("field", ["image_path", "rater_paths"])
    @pytest.mark.parametrize("command", ["eval", "fuse"])
    def test_directory_entry_is_io_error(self, capsys, dataset, tmp_path, command, field):
        data = tmp_path / "ds"
        shutil.copytree(dataset, data)
        manifest = json.loads((data / "manifest.json").read_text())
        entry = manifest["samples"][0]
        path = data / (entry["image_path"] if field == "image_path" else entry["rater_paths"][1])
        path.unlink()
        path.mkdir()
        code, out, err = run_cli(capsys, *_load_argv(command, data, tmp_path))
        assert code == 1
        assert out == ""
        assert err.startswith("cannot load dataset:")
        assert str(path) in err and "directory" in err
        assert err.count("\n") == 1

    def test_top_label_changes_calibration_only(self, capsys, dataset, tmp_path):
        results = {}
        for mode in ("frequency", "top_label"):
            report, rel = tmp_path / f"{mode}.json", tmp_path / f"{mode}.csv"
            code, out, _ = run_cli(
                capsys,
                "eval", "--model", "oracle", "--data", str(dataset), "--ece-mode", mode,
                "--report", str(report), "--reliability", str(rel),
            )
            assert code == 0
            results[mode] = json.loads(report.read_text()), rel.read_text()
        (freq, freq_csv), (top, top_csv) = results["frequency"], results["top_label"]
        assert top["config"]["ece_mode"] == "top_label"
        assert top["mr_ece"]["point"] != freq["mr_ece"]["point"]
        assert top_csv != freq_csv
        assert top["auc"] == freq["auc"]

    @pytest.mark.parametrize("command", ["eval", "fuse"])
    def test_manifest_without_raters_is_io_error(self, capsys, dataset, tmp_path, command):
        data = tmp_path / "ds"
        shutil.copytree(dataset, data)
        manifest_path = data / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["num_raters"] = 0
        for entry in manifest["samples"]:
            entry["rater_paths"] = []
        manifest_path.write_text(json.dumps(manifest))
        code, out, err = run_cli(capsys, *_load_argv(command, data, tmp_path))
        assert code == 1
        assert out == ""
        assert err.startswith("cannot load dataset:")
        assert str(manifest_path) in err and "num_raters" in err
        assert err.count("\n") == 1

    def test_eval_builds_net_once(self, capsys, dataset, tmp_path, monkeypatch):
        ckpt = tmp_path / "model.mrc"
        run_cli(
            capsys,
            "train", "--data", str(dataset), "--loss", "rps",
            "--epochs", "1", "--out", str(ckpt),
        )
        calls = []
        build_net = Checkpoint.build_net
        monkeypatch.setattr(
            Checkpoint, "build_net", lambda self: calls.append(1) or build_net(self)
        )
        code, _, _ = run_cli(
            capsys,
            "eval", "--model", str(ckpt), "--data", str(dataset), "--split", "train",
        )
        assert code == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("edit", ["unknown key", "nan std", "not utf-8"])
    def test_bad_synth_meta_is_io_error(self, capsys, dataset, tmp_path, edit):
        data = tmp_path / "ds"
        shutil.copytree(dataset, data)
        meta_path = data / "synth_meta.json"
        meta = json.loads(meta_path.read_text())
        if edit == "unknown key":
            meta["config"]["extra"] = 1
        else:
            meta["config"]["rater_noise_std"] = float("nan")
        meta_path.write_text(json.dumps(meta))
        if edit == "not utf-8":
            meta_path.write_bytes(b"\xff\xfe")
        code, out, err = run_cli(capsys, "eval", "--model", "oracle", "--data", str(data))
        assert code == 1
        assert out == ""
        assert err.startswith("cannot load model/predictions:")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("edit", ["shape", "nan"])
    def test_bad_oracle_latent(self, capsys, dataset, tmp_path, edit):
        data = tmp_path / "ds"
        shutil.copytree(dataset, data)
        manifest = json.loads((data / "manifest.json").read_text())
        meta = json.loads((data / "synth_meta.json").read_text())
        entry = next(s for s in manifest["samples"] if s["split"] == "test")
        latent_path = data / meta["latent_paths"][entry["id"]]
        dtype, dims, latent = read_container(latent_path)
        if edit == "shape":
            write_container(dtype, (8, 8), latent[:8, :8], latent_path)
        else:
            latent = np.array(latent)
            latent[2, 3] = np.nan
            write_container(dtype, dims, latent, latent_path)
        code, out, err = run_cli(capsys, "eval", "--model", "oracle", "--data", str(data))
        if edit == "shape":
            assert code == 1
            assert err.startswith(f"cannot load model/predictions: {latent_path}: ")
        else:
            assert code == 3
            assert err.startswith("non-finite predictions:")
        assert out == ""
        assert err.count("\n") == 1

    def test_wrong_shape_sidecar_is_io_error(self, capsys, dataset, tmp_path):
        ckpt = tmp_path / "model.mrc"
        run_cli(
            capsys,
            "train", "--data", str(dataset), "--loss", "rps",
            "--epochs", "1", "--out", str(ckpt),
        )
        ckpt.with_suffix(".mrc.json").write_text("[]\n")
        code, out, err = run_cli(
            capsys,
            "eval", "--model", str(ckpt), "--data", str(dataset), "--split", "test",
        )
        assert code == 1
        assert out == ""
        assert err.startswith("cannot load model/predictions:")
        assert "malformed sidecar" in err
        assert err.count("\n") == 1

    def test_checkpoint_rater_count_mismatch_is_io_error(self, capsys, dataset, tmp_path):
        ckpt = tmp_path / "model.mrc"
        run_cli(
            capsys,
            "train", "--data", str(dataset), "--loss", "rps",
            "--epochs", "1", "--out", str(ckpt),
        )
        data5 = tmp_path / "ds5"
        main(["synth", "--out", str(data5), "--n", "8", "--size", "16", "--raters", "5"])
        capsys.readouterr()
        code, out, err = run_cli(
            capsys,
            "eval", "--model", str(ckpt), "--data", str(data5), "--split", "test",
        )
        assert code == 1
        assert out == ""
        assert err.startswith("cannot load model/predictions:")
        assert "K=3" in err and "K=5" in err
        assert err.count("\n") == 1


@pytest.fixture(scope="module")
def one_rater_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("data1") / "ds"
    code = main(
        ["synth", "--out", str(out), "--n", "8", "--size", "16", "--raters", "1", "--seed", "3"]
    )
    assert code == 0
    return out


def _blank_train_sample(dataset, tmp_path):
    """Copy of the dataset in which every rater of one train sample marks nothing."""
    data = tmp_path / "ds"
    shutil.copytree(dataset, data)
    manifest = json.loads((data / "manifest.json").read_text())
    entry = next(s for s in manifest["samples"] if s["split"] == "train")
    for rel in entry["rater_paths"]:
        dtype, dims, mask = read_container(data / rel)
        write_container(dtype, dims, np.zeros_like(mask), data / rel)
    return data, entry["id"]


class TestUndefinedFusion:
    @pytest.mark.parametrize("method", ["staple", "simple"])
    def test_fuse_one_rater_is_data_error(self, capsys, one_rater_dataset, tmp_path, method):
        code, out, err = run_cli(
            capsys,
            "fuse", "--data", str(one_rater_dataset), "--method", method,
            "--out", str(tmp_path / "f"),
        )
        assert code == 1
        assert out == ""
        assert err.startswith("cannot fuse sample ") and method in err and "K >= 2" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("method", ["staple", "simple"])
    def test_train_one_rater_is_data_error(self, capsys, one_rater_dataset, tmp_path, method):
        ckpt = tmp_path / "m.mrc"
        code, out, err = run_cli(
            capsys,
            "train", "--data", str(one_rater_dataset), "--loss", method,
            "--epochs", "1", "--out", str(ckpt),
        )
        assert code == 1
        assert out == ""
        assert err.startswith("training failed: cannot fuse sample ")
        assert method in err and "K >= 2" in err
        assert err.count("\n") == 1
        assert not ckpt.exists()

    @pytest.mark.parametrize("method", ["sc", "svls", "mc"])
    def test_other_methods_accept_one_rater(self, capsys, one_rater_dataset, tmp_path, method):
        code, _, _ = run_cli(
            capsys,
            "fuse", "--data", str(one_rater_dataset), "--method", method,
            "--out", str(tmp_path / "f"),
        )
        assert code == 0

    @pytest.mark.parametrize("command", ["fuse", "train"])
    def test_degenerate_stack_is_data_error(self, capsys, dataset, tmp_path, command):
        data, sample_id = _blank_train_sample(dataset, tmp_path)
        if command == "fuse":
            argv = ["fuse", "--data", str(data), "--method", "staple", "--out", str(tmp_path / "f")]
        else:
            argv = ["train", "--data", str(data), "--loss", "staple", "--epochs", "1",
                    "--out", str(tmp_path / "m.mrc")]
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert f"cannot fuse sample {sample_id!r} with staple" in err
        assert "identical" in err
        assert err.count("\n") == 1


INVALID_CONFIGS = [
    ["synth", "--out", "{tmp}/s", "--n", "0"],
    ["synth", "--out", "{tmp}/s", "--size", "4"],
    ["synth", "--out", "{tmp}/s", "--raters", "0"],
    ["synth", "--out", "{tmp}/s", "--ambiguity", "2"],
    ["train", "--data", "{tmp}/none", "--loss", "rps", "--out", "{tmp}/m.mrc", "--epochs", "0"],
    ["train", "--data", "{tmp}/none", "--loss", "rps", "--out", "{tmp}/m.mrc", "--lr", "0"],
    ["train", "--data", "{tmp}/none", "--loss", "rps", "--out", "{tmp}/m.mrc", "--batch-size", "0"],
    ["train", "--data", "{tmp}/none", "--loss", "rps", "--out", "{tmp}/m.mrc", "--batch-size", "-3"],
    ["train", "--data", "{tmp}/none", "--loss", "scg", "--out", "{tmp}/m.mrc", "--sigma", "0"],
    ["fuse", "--data", "{tmp}/none", "--method", "svls", "--out", "{tmp}/f", "--sigma", "0"],
    ["eval", "--model", "oracle", "--data", "{tmp}/none", "--bins", "0"],
    ["eval", "--model", "oracle", "--data", "{tmp}/none", "--frac", "0"],
    ["eval", "--model", "oracle", "--data", "{tmp}/none", "--bootstrap", "0"],
    ["sweep", "--data", "{tmp}/none", "--values", "0.5:0.7:0.1", "--epochs", "0"],
    ["sweep", "--data", "{tmp}/none", "--values", "0.5", "--metric", "auc"],
    ["synth", "--out", "{tmp}/s", "--seed", "-1"],
    ["synth", "--out", "{tmp}/s", "--rater-noise-std", "nan"],
    ["synth", "--out", "{tmp}/s", "--rater-bias-std", "-1"],
    ["train", "--data", "{tmp}/none", "--loss", "rps", "--out", "{tmp}/m.mrc", "--seed", "-1"],
    ["train", "--data", "{tmp}/none", "--loss", "rps", "--out", "{tmp}/m.mrc", "--lr", "nan"],
    ["train", "--data", "{tmp}/none", "--loss", "rps", "--out", "{tmp}/m.mrc", "--alpha", "-1"],
    ["fuse", "--data", "{tmp}/none", "--method", "svls", "--out", "{tmp}/f", "--sigma", "inf"],
    # 2 * (sigma/4)**2 underflows to 0: the Gaussian weights would be NaN
    ["fuse", "--data", "{tmp}/none", "--method", "svls", "--out", "{tmp}/f", "--sigma", "1e-300"],
    ["fuse", "--data", "{tmp}/none", "--out", "{tmp}/f", "--sigma", "1e-300", "--method", "scg"],
    ["train", "--data", "{tmp}/none", "--loss", "scg", "--out", "{tmp}/m.mrc", "--sigma", "1e-300"],
    ["train", "--data", "{tmp}/none", "--out", "{tmp}/m.mrc", "--sigma", "1e-300", "--loss", "svls"],
    ["eval", "--model", "oracle", "--data", "{tmp}/none", "--seed", "-1"],
    ["sweep", "--data", "{tmp}/none", "--values", "nan"],
    ["sweep", "--data", "{tmp}/none", "--values", "0:1:1e-300"],
]


class TestInvalidConfig:
    @pytest.mark.parametrize(
        "argv", INVALID_CONFIGS, ids=[" ".join(a[:1] + a[-2:]) for a in INVALID_CONFIGS]
    )
    def test_usage_error_before_data_is_read(self, capsys, tmp_path, argv):
        # the data paths do not exist: a config check that ran after loading
        # would report exit 1 instead
        code, out, err = run_cli(capsys, *(a.format(tmp=tmp_path) for a in argv))
        assert code == 2
        assert out == ""
        assert err.startswith(f"{argv[0]}: ")
        assert err.count("\n") == 1
        assert not any(tmp_path.iterdir())

    def test_batch_size_one_still_trains(self, capsys, dataset, tmp_path):
        code, _, _ = run_cli(
            capsys,
            "train", "--data", str(dataset), "--loss", "rps", "--batch-size", "1",
            "--epochs", "1", "--out", str(tmp_path / "m.mrc"),
        )
        assert code == 0


class TestSweep:
    def test_grid_parse(self):
        values = _parse_grid("0.5:1.0:0.1")
        assert len(values) == 6
        assert abs(values[0] - 0.5) < 1e-12
        assert abs(values[-1] - 1.0) < 1e-12
        assert _parse_grid("0.8") == [0.8]
        with pytest.raises(ValueError):
            _parse_grid("1.0:0.5:0.1")
        with pytest.raises(ValueError):
            _parse_grid("abc")

    def test_sweep_reports_argmin(self, capsys, dataset):
        code, out, _ = run_cli(
            capsys,
            "sweep", "--data", str(dataset), "--values", "0.4:0.8:0.2",
            "--epochs", "1",
        )
        assert code == 0
        doc = json.loads(out)
        assert len(doc["table"]) == 3
        best = min(doc["table"], key=lambda row: row["metric"])
        assert doc["argmin"] == best["value"]

    def test_bad_values_is_usage_error(self, capsys, dataset):
        code, _, _ = run_cli(
            capsys, "sweep", "--data", str(dataset), "--values", "oops"
        )
        assert code == 2


class TestReport:
    def test_round_trip(self, capsys, tmp_path):
        doc = {"mr_ece": {"point": 0.01}}
        path = tmp_path / "report.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, "report", "--report", str(path))
        assert code == 0
        assert json.loads(out) == doc

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "report", "--report", str(tmp_path / "nope.json")
        )
        assert code == 1
        assert err != ""


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "mrcal.cli", "synth", "--out",
             str(tmp_path / "ds"), "--n", "2", "--size", "16"],
            capture_output=True, text=True, env=child_env(),
        )
        assert result.returncode == 0, result.stderr
        json.loads(result.stdout)  # stdout is pure JSON

    def test_fusion_identical_across_blas_threads(self, dataset, tmp_path):
        digests = {}
        for threads in ("1", "2"):
            for method in ("staple", "svls"):
                out = tmp_path / f"{method}{threads}"
                result = subprocess.run(
                    [sys.executable, "-m", "mrcal.cli", "fuse", "--data", str(dataset),
                     "--method", method, "--out", str(out)],
                    capture_output=True, text=True,
                    env=child_env(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads),
                )
                assert result.returncode == 0, result.stderr
                files = sorted(out.iterdir())
                assert len(files) == 16
                digest = hashlib.sha256()
                for path in files:
                    digest.update(path.name.encode() + path.read_bytes())
                digests[method, threads] = digest.hexdigest()
        assert digests["staple", "1"] == digests["staple", "2"]
        assert digests["svls", "1"] == digests["svls", "2"]

    @pytest.mark.parametrize("value", ["abc", "-3"])
    def test_bad_thread_cap_is_usage_error(self, tmp_path, value):
        result = subprocess.run(
            [sys.executable, "-m", "mrcal.cli", "synth", "--out",
             str(tmp_path / "ds"), "--n", "2", "--size", "16"],
            capture_output=True, text=True, env=child_env(MRCAL_THREADS=value),
        )
        assert result.returncode == 2
        assert result.stdout == ""
        assert "MRCAL_THREADS" in result.stderr and repr(value) in result.stderr
        assert result.stderr.count("\n") == 1
        assert not (tmp_path / "ds").exists()

    def test_eval_identical_across_thread_counts(self, dataset, tmp_path):
        # 128x128 images run 4 inference bands each
        ckpt, data = tmp_path / "m.mrc", tmp_path / "big"
        assert main(["train", "--data", str(dataset), "--loss", "rps", "--epochs", "2",
                     "--out", str(ckpt)]) == 0
        assert main(["synth", "--out", str(data), "--n", "6", "--size", "128", "--seed", "4"]) == 0
        report, rel = tmp_path / "r.json", tmp_path / "r.csv"
        digests = set()
        for threads in ("1", "2", "4"):
            for blas in ("1", "2"):
                result = subprocess.run(
                    [sys.executable, "-m", "mrcal.cli", "eval", "--model", str(ckpt),
                     "--data", str(data), "--report", str(report), "--reliability", str(rel)],
                    capture_output=True, text=True,
                    env=child_env(MRCAL_THREADS=threads, OPENBLAS_NUM_THREADS=blas,
                                  OMP_NUM_THREADS=blas),
                )
                assert result.returncode == 0, result.stderr
                digests.add(hashlib.sha256(report.read_bytes() + rel.read_bytes()).hexdigest())
        assert len(digests) == 1

    @pytest.mark.parametrize("loss", ["rps", "sc"])
    def test_train_identical_across_blas_threads(self, dataset, tmp_path, loss):
        digests = set()
        for blas in ("1", "2"):
            out = tmp_path / f"{blas}.mrc"
            result = subprocess.run(
                [sys.executable, "-m", "mrcal.cli", "train", "--data", str(dataset),
                 "--loss", loss, "--epochs", "3", "--out", str(out)],
                capture_output=True, text=True,
                env=child_env(OPENBLAS_NUM_THREADS=blas, OMP_NUM_THREADS=blas),
            )
            assert result.returncode == 0, result.stderr
            sidecar = out.with_suffix(".mrc.json")
            digests.add(hashlib.sha256(out.read_bytes() + sidecar.read_bytes()).hexdigest())
        assert len(digests) == 1

    def test_runs_without_sched_getaffinity(self, monkeypatch, dataset, tmp_path):
        # macOS and Windows have no os.sched_getaffinity; 0 = auto must still work
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setenv("MRCAL_THREADS", "0")
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")  # auto = one worker per CPU
        ckpt, data = tmp_path / "m.mrc", tmp_path / "big"
        assert main(["synth", "--out", str(data), "--n", "6", "--size", "128", "--seed", "4"]) == 0
        assert main(["train", "--data", str(dataset), "--loss", "rps", "--epochs", "1",
                     "--out", str(ckpt)]) == 0
        assert main(["eval", "--model", str(ckpt), "--data", str(data),
                     "--report", str(tmp_path / "r.json")]) == 0

    def test_thread_cap_env(self, tmp_path):
        for threads in ("1", "4"):
            result = subprocess.run(
                [sys.executable, "-m", "mrcal.cli", "synth", "--out",
                 str(tmp_path / f"ds{threads}"), "--n", "2", "--size", "16"],
                capture_output=True, text=True,
                env=child_env(MRCAL_THREADS=threads),
            )
            assert result.returncode == 0, result.stderr


INTS = ["-1", "0", "1", "2", "1.5", "abc", ""]
FLOATS = ["-1", "0", "1e-300", "1e-9", "0.5", "1", "2", "nan", "inf", "-inf", "abc", ""]
SEEDS = ["-1", "0", "7", "abc"]
OUTS = ["{tmp}/new", "{tmp}/missing/deep/out", "{tmp}/file", "{tmp}", "/dev/null/out"]
DATA = ["{data}", "{dirdata}", "{tmp}", "{tmp}/missing", "{tmp}/file"]

# Each subcommand's flags and the values drawn for them. The first argv
# holds the flags every run starts from; sizes stay tiny so a run is fast.
ARGV_FLAGS = {
    "synth": (["--out", "{tmp}/new", "--n", "3", "--size", "8"], {
        "--out": OUTS, "--n": ["-1", "0", "1", "3", "abc"], "--size": ["-1", "4", "8", "abc"],
        "--raters": ["-1", "0", "1", "3", "abc"], "--ambiguity": FLOATS,
        "--rater-bias-std": FLOATS, "--rater-noise-std": FLOATS, "--seed": SEEDS,
    }),
    "fuse": (["--data", "{data}", "--method", "sc", "--out", "{tmp}/new"], {
        "--data": DATA, "--method": ["rs", "mc", "scg", "staple", "svls", "bogus"],
        "--sigma": FLOATS, "--seed": SEEDS, "--out": OUTS,
    }),
    "train": (["--data", "{data}", "--loss", "rps", "--epochs", "1", "--out", "{tmp}/m.mrc"], {
        "--data": DATA, "--loss": ["rps", "sc", "staple", "rs", "bogus"], "--alpha": FLOATS,
        "--lr": FLOATS + ["1e300"], "--epochs": ["-1", "0", "1", "2", "abc"],
        "--batch-size": INTS, "--sigma": FLOATS, "--seed": SEEDS, "--out": OUTS,
    }),
    "eval": (["--model", "{model}", "--data", "{data}", "--bootstrap", "3"], {
        "--model": ["{model}", "oracle", "{data}", "{tmp}/file", "{tmp}/missing.mrc"],
        "--data": DATA, "--split": ["train", "val", "test", "bogus"], "--bins": INTS,
        "--bootstrap": ["-1", "0", "1", "3", "abc"], "--frac": FLOATS, "--seed": SEEDS,
        "--report": OUTS, "--reliability": OUTS, "--ece-mode": ["frequency", "top_label", "x"],
    }),
    "sweep": (["--data", "{data}", "--values", "0.5", "--epochs", "1"], {
        "--data": DATA, "--param": ["alpha", "lr"], "--metric": ["mr_ece", "auc"],
        "--values": ["0.5", "0.2:0.6:0.2", "1:0:0.1", "0:1:0", "0:1:1e-300", "0:inf:1",
                     "nan", "-1", "abc", ""],
        "--lr": FLOATS, "--epochs": ["-1", "0", "1", "abc"], "--seed": SEEDS,
    }),
    "report": (["--report", "{report}"], {
        "--report": ["{report}", "{tmp}", "{tmp}/file", "{tmp}/missing.json", "{model}"],
    }),
}


@pytest.fixture(scope="module")
def argv_inputs(dataset, tmp_path_factory):
    """A checkpoint and a report for `dataset`, and a copy of it whose
    manifest names a directory where a rater mask should be."""
    root = tmp_path_factory.mktemp("argv")
    model = root / "m.mrc"
    assert main(["train", "--data", str(dataset), "--loss", "rps", "--epochs", "1",
                 "--out", str(model)]) == 0
    report = root / "r.json"
    assert main(["eval", "--model", "oracle", "--data", str(dataset), "--report", str(report)]) == 0
    dirdata = root / "dirdata"
    shutil.copytree(dataset, dirdata)
    manifest = json.loads((dirdata / "manifest.json").read_text())
    mask = dirdata / manifest["samples"][-1]["rater_paths"][0]
    mask.unlink()
    mask.mkdir()
    return {"data": dataset, "dirdata": dirdata, "model": model, "report": report}


class TestArgvProperty:
    @pytest.mark.parametrize("command", sorted(ARGV_FLAGS))
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_any_argv_exits_with_contract_code(self, argv_inputs, tmp_path_factory, command, data):
        base, flags = ARGV_FLAGS[command]
        argv = [command, *base]
        for flag in data.draw(st.lists(st.sampled_from(sorted(flags)), max_size=3, unique=True)):
            argv += [flag, data.draw(st.sampled_from(flags[flag]))]
        edit = data.draw(st.sampled_from(("none", "none", "none", "drop", "no value")))
        if edit == "drop":  # a required flag may go missing
            at = data.draw(st.integers(0, len(base) // 2 - 1))
            del argv[1 + 2 * at : 3 + 2 * at]
        elif edit == "no value":
            argv.append(data.draw(st.sampled_from(sorted(flags))))
        with tempfile.TemporaryDirectory(dir=tmp_path_factory.getbasetemp()) as tmp:
            (Path(tmp) / "file").write_text("not a dataset\n")
            argv = [a.format(tmp=tmp, **argv_inputs) for a in argv]
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                try:
                    code = main(argv)
                except SystemExit as exc:  # argparse's usage errors
                    code = exc.code
        event(f"exit {code}")
        assert code in range(5), (argv, stderr.getvalue())
        for line in stdout.getvalue().splitlines():
            json.loads(line)
        assert "Traceback" not in stderr.getvalue()

    def test_child_process_has_no_traceback(self, argv_inputs, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "mrcal.cli", "fuse", "--data", str(argv_inputs["dirdata"]),
             "--method", "mc", "--out", str(tmp_path / "f")],
            capture_output=True, text=True, env=child_env(),
        )
        assert result.returncode == 1
        assert result.stdout == ""
        assert "Traceback" not in result.stderr and result.stderr.count("\n") == 1
