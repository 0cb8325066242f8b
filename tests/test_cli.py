import contextlib
import dataclasses
import hashlib
import io
import json
import os
import shutil
import struct
import subprocess
import sys
import tempfile
import threading
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from conftest import child_env
from mrcal import fusion, model
from mrcal.cli import _parse_grid, build_parser, main
from mrcal.metrics import EvalConfig
from mrcal.model import Checkpoint, TrainConfig
from mrcal.synthgen import SynthConfig
from mrcal.core import (
    DTYPE_F32, DTYPE_U8, BinaryMask, ForegroundProbMap, load_dataset, read_container,
    write_container,
)
from mrcal.fusion import METHODS, FusionConfig


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

    @pytest.mark.parametrize("method", METHODS)
    def test_target_type_sets_container_dtype(self, capsys, dataset, tmp_path, method):
        # hard masks are written as u8, [0,1] maps as f32
        binary = method in ("rs", "mc", "simple")
        sample = load_dataset(dataset / "manifest.json")["train"][0]
        fused, _ = fusion.fuse(sample.annotations, fusion.FusionConfig(method=method))
        assert type(fused) is (BinaryMask if binary else ForegroundProbMap)
        code, _, _ = run_cli(
            capsys,
            "fuse", "--data", str(dataset), "--method", method, "--seed", "0",
            "--out", str(tmp_path / "fused"),
        )
        assert code == 0
        dtype, _, _ = read_container(tmp_path / "fused" / f"{sample.id}_{method}.mrc")
        assert dtype == (DTYPE_U8 if binary else DTYPE_F32)

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


def _resize_sample(data, entry, size):
    """Rewrite one sample's image and rater masks at size x size."""
    rng = np.random.default_rng(size)
    image = rng.random((size, size))
    write_container(DTYPE_F32, image.shape, image, data / entry["image_path"])
    for rp in entry["rater_paths"]:
        mask = (rng.random((size, size)) < image).astype(np.uint8)
        write_container(DTYPE_U8, mask.shape, mask, data / rp)


class TestManifestIds:
    """Sample ids name fuse's output files, so a manifest with a repeated id
    or an id that is not one path component is a dataset error."""

    @pytest.mark.parametrize(
        "bad_id", ["s0000", "../../escaped", "s\0"], ids=["duplicate", "escaping", "nul"]
    )
    @pytest.mark.parametrize("command", ["train-rps", "train-sc", "fuse-sc"])
    def test_rejected_before_any_output(self, capsys, dataset, tmp_path, bad_id, command):
        data = tmp_path / "ds"
        shutil.copytree(dataset, data)
        manifest = data / "manifest.json"
        doc = json.loads(manifest.read_text())
        doc["samples"][1]["id"] = bad_id  # samples 0 and 1 are both in the train split
        _resize_sample(data, doc["samples"][1], 20)  # the dataset's images are 16x16
        manifest.write_text(json.dumps(doc))
        out = tmp_path / "runs" / "a" / ("m.mrc" if command.startswith("train") else "f")
        out.parent.mkdir(parents=True)
        verb, method = command.split("-")
        if verb == "train":
            argv = ["train", "--data", str(data), "--loss", method, "--epochs", "1"]
        else:
            argv = ["fuse", "--data", str(data), "--method", method]
        before = set(tmp_path.rglob("*"))
        code, stdout, err = run_cli(capsys, *argv, "--out", str(out))
        assert code == 1
        assert stdout == ""
        assert err.startswith(f"cannot load dataset: {manifest}: sample id {bad_id!r}")
        assert err.count("\n") == 1
        assert all(p == out or out in p.parents for p in set(tmp_path.rglob("*")) - before)


class TestEmptySplits:
    @pytest.fixture(scope="class")
    def one_image(self, tmp_path_factory):
        """A dataset whose only image is in the test split."""
        out = tmp_path_factory.mktemp("one") / "ds"
        assert main(["synth", "--out", str(out), "--n", "1", "--size", "16"]) == 0
        return out

    def test_eval_of_an_empty_split(self, capsys, one_image):
        code, out, err = run_cli(
            capsys, "eval", "--model", "oracle", "--data", str(one_image), "--split", "train"
        )
        assert (code, out, err) == (1, "", "split 'train' is empty\n")

    def test_sweep_needs_train_and_val(self, capsys, one_image):
        code, out, err = run_cli(capsys, "sweep", "--data", str(one_image), "--values", "0.5")
        assert (code, out, err) == (1, "", "sweep needs nonempty train and val splits\n")


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

    def test_directory_target_leaves_both_outputs_as_they_were(self, capsys, dataset, tmp_path):
        csv, report = tmp_path / "rel.csv", tmp_path / "DIR"
        csv.write_text("old\n")
        report.mkdir()
        code, stdout, err = run_cli(
            capsys,
            "eval", "--model", "oracle", "--data", str(dataset),
            "--reliability", str(csv), "--report", str(report),
        )
        assert code == 1
        assert stdout == ""
        assert err == f"cannot write eval output: [Errno 21] Is a directory: '{report}'\n"
        assert csv.read_bytes() == b"old\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["DIR", "rel.csv"]
        assert list(report.iterdir()) == []

    @pytest.mark.parametrize("flag", ["--report", "--reliability"])
    def test_output_under_a_file_names_the_target(self, capsys, dataset, tmp_path, flag):
        """The temporary is never made; its cleanup does not replace the
        write's error, which names the target."""
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "out"
        code, stdout, err = run_cli(
            capsys, "eval", "--model", "oracle", "--data", str(dataset), flag, str(out),
        )
        assert code == 1
        assert stdout == ""
        assert err == f"cannot write eval output: [Errno 20] Not a directory: '{out}'\n"
        assert [p.name for p in tmp_path.iterdir()] == ["file"]

    @pytest.mark.parametrize("report", ["out.txt", "x/../out.txt"])
    def test_report_and_reliability_on_one_file_is_usage_error(
        self, capsys, dataset, tmp_path, report
    ):
        # one file cannot be both outputs: the report would replace the CSV
        code, stdout, err = run_cli(
            capsys,
            "eval", "--model", "oracle", "--data", str(dataset),
            "--report", str(tmp_path / report), "--reliability", str(tmp_path / "out.txt"),
        )
        assert code == 2
        assert stdout == ""
        assert err.startswith("eval: ") and err.count("\n") == 1
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

    def test_nan_pixel_error_independent_of_thread_count(self, capsys, monkeypatch, tmp_path):
        """Images run one per worker and fail in image order: the first
        non-finite map is reported at every thread count."""
        data = tmp_path / "ds"
        ckpt = tmp_path / "model.mrc"
        assert main(["synth", "--out", str(data), "--n", "20", "--size", "16", "--seed", "3"]) == 0
        assert main(["train", "--data", str(data), "--loss", "rps", "--epochs", "1",
                     "--out", str(ckpt)]) == 0
        capsys.readouterr()
        manifest = json.loads((data / "manifest.json").read_text())
        tests = [s for s in manifest["samples"] if s["split"] == "test"]
        assert len(tests) == 3
        # one NaN pixel in image 2 spreads to 5x5 probabilities; a 2x2 block in image 3 to 6x6
        for entry, block in ((tests[1], (slice(7, 8), slice(7, 8))),
                             (tests[2], (slice(7, 9), slice(7, 9)))):
            image_path = data / entry["image_path"]
            dtype, dims, image = read_container(image_path)
            image = np.array(image, dtype=np.float32)
            image[block] = np.nan
            write_container(dtype, dims, image, image_path)
        errs = {}
        for threads in ("1", "2"):
            monkeypatch.setenv("MRCAL_THREADS", threads)
            code, out, errs[threads] = run_cli(
                capsys, "eval", "--model", str(ckpt), "--data", str(data), "--split", "test",
            )
            assert code == 3
            assert out == ""
        assert errs["1"] == errs["2"] == (
            "non-finite predictions: 25 of 256 probabilities are NaN or infinite\n"
        )

    def test_eval_frees_each_image_once_predicted(self, capsys, monkeypatch, tmp_path):
        """eval keeps only the rater stacks: image i is gone before image
        i+1's task starts (one worker: calls run inline, in order)."""
        data, ckpt = tmp_path / "ds", tmp_path / "model.mrc"
        assert main(["synth", "--out", str(data), "--n", "20", "--size", "16"]) == 0
        assert main(["train", "--data", str(data), "--loss", "rps", "--epochs", "1",
                     "--out", str(ckpt)]) == 0
        monkeypatch.setenv("MRCAL_THREADS", "1")
        held = []
        task = model._image_foreground

        def checked(net, image):
            assert [ref() for ref in held] == [None] * len(held)
            held.append(weakref.ref(image))
            return task(net, image)

        monkeypatch.setattr(model, "_image_foreground", checked)
        code, _, err = run_cli(capsys, "eval", "--model", str(ckpt), "--data", str(data),
                               "--split", "train")
        assert code == 0, err
        assert len(held) == 14

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

    @pytest.mark.parametrize(
        "case", ["missing", "nul byte", "through a file", "wrong ndim", "zero dim", "f32 half"]
    )
    def test_bad_mask_is_one_line(self, capsys, dataset, tmp_path, case):
        data = tmp_path / "ds"
        shutil.copytree(dataset, data)
        manifest = json.loads((data / "manifest.json").read_text())
        rater_paths = manifest["samples"][0]["rater_paths"]
        mask_path = data / rater_paths[1]
        if case == "missing":
            mask_path.unlink()
        elif case == "nul byte":
            rater_paths[1] += "\0"
        elif case == "through a file":
            rater_paths[1] += "/x"
        elif case == "wrong ndim":
            write_container(DTYPE_U8, (1, 16, 16), np.zeros(256), mask_path)
        elif case == "zero dim":
            mask_path.write_bytes(b"MRC1" + struct.pack("<BBH2I", DTYPE_U8, 2, 0, 0, 16))
        else:
            write_container(DTYPE_F32, (16, 16), np.full((16, 16), 0.5), mask_path)
        (data / "manifest.json").write_text(json.dumps(manifest))
        code, out, err = run_cli(capsys, *_load_argv("fuse", data, tmp_path))
        assert code == 1
        assert out == ""
        assert err.startswith("cannot load dataset:") and str(data / rater_paths[1]) in err
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

    def test_head_that_does_not_fit_the_sidecar_raters_is_io_error(
        self, capsys, dataset, tmp_path
    ):
        """A K=3 rps checkpoint whose sidecar claims K=5 is not evaluated on
        a K=5 set: its 4-channel head fits neither 1 nor 5 + 1."""
        ckpt = tmp_path / "m.mrc"
        run_cli(
            capsys,
            "train", "--data", str(dataset), "--loss", "rps",
            "--epochs", "1", "--out", str(ckpt),
        )
        sidecar_path = ckpt.with_suffix(".mrc.json")
        sidecar = json.loads(sidecar_path.read_text())
        sidecar["architecture"]["num_raters"] = 5
        sidecar_path.write_text(json.dumps(sidecar))
        data5 = tmp_path / "ds5"
        main(["synth", "--out", str(data5), "--n", "8", "--size", "16", "--raters", "5"])
        capsys.readouterr()
        code, out, err = run_cli(
            capsys, "eval", "--model", str(ckpt), "--data", str(data5), "--split", "test",
        )
        assert code == 1
        assert out == ""
        assert err == (
            f"cannot load model/predictions: {sidecar_path}: "
            "out_channels 4 is neither 1 nor num_raters + 1 = 6\n"
        )

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
    ["train", "--data", "{tmp}/none", "--loss", "rps", "--out", "{tmp}/m.mrc", "--alpha", "nan"],
    ["train", "--data", "{tmp}/none", "--loss", "rps", "--out", "{tmp}/m.mrc", "--alpha", "inf"],
    ["fuse", "--data", "{tmp}/none", "--method", "svls", "--out", "{tmp}/f", "--sigma", "inf"],
    # 2 * (sigma/4)**2 underflows to 0: the Gaussian weights would be NaN
    ["fuse", "--data", "{tmp}/none", "--method", "svls", "--out", "{tmp}/f", "--sigma", "1e-300"],
    ["fuse", "--data", "{tmp}/none", "--out", "{tmp}/f", "--sigma", "1e-300", "--method", "scg"],
    ["train", "--data", "{tmp}/none", "--loss", "scg", "--out", "{tmp}/m.mrc", "--sigma", "1e-300"],
    ["train", "--data", "{tmp}/none", "--out", "{tmp}/m.mrc", "--sigma", "1e-300", "--loss", "svls"],
    # above fusion.MAX_SIGMA: svls would loop over 60,001**2 kernel offsets per sample
    ["fuse", "--data", "{tmp}/none", "--method", "svls", "--out", "{tmp}/f", "--sigma", "1e4"],
    ["train", "--data", "{tmp}/none", "--loss", "scg", "--out", "{tmp}/m.mrc", "--sigma", "1e4"],
    ["eval", "--model", "oracle", "--data", "{tmp}/none", "--seed", "-1"],
    ["sweep", "--data", "{tmp}/none", "--values", "nan"],
    ["sweep", "--data", "{tmp}/none", "--values", "0:1:1e-300"],
    ["sweep", "--data", "{tmp}/none", "--values", "-1"],
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


# Per command: its config type, the argv of its required flags, and a
# non-default value for every other flag
ALL_FLAGS = {
    "synth": (SynthConfig, ["--out", "o"], [
        "--n", "7", "--size", "17", "--raters", "4", "--ambiguity", "0.3",
        "--rater-bias-std", "0.2", "--rater-noise-std", "0.3", "--seed", "5",
    ]),
    "fuse": (FusionConfig, ["--data", "d", "--method", "scg", "--out", "o"], [
        "--sigma", "2", "--seed", "5",
    ]),
    "train": (TrainConfig, ["--data", "d", "--loss", "scg", "--out", "o"], [
        "--alpha", "0.5", "--lr", "0.1", "--epochs", "3", "--batch-size", "2",
        "--sigma", "2", "--seed", "5",
    ]),
    "eval": (EvalConfig, ["--model", "m", "--data", "d"], [
        "--split", "val", "--bins", "7", "--bootstrap", "3", "--frac", "0.5", "--seed", "5",
        "--report", "r", "--reliability", "c", "--ece-mode", "top_label",
    ]),
}


@pytest.mark.parametrize("command", ALL_FLAGS)
def test_every_config_field_is_set_by_a_flag(command):
    """A config field that no flag moves off its default is a constant in
    disguise: with every flag off its default, every field is too."""
    config_type, required, flags = ALL_FLAGS[command]
    parser = build_parser()
    defaults = vars(parser.parse_args([command, *required]))
    args = parser.parse_args([command, *required, *flags])
    unset = {name for name, value in defaults.items() if value == vars(args)[name]}
    assert unset == {"command", "func", "config"} | {a[2:] for a in required[::2]}
    cfg = args.config(args)
    assert type(cfg) is config_type
    for f in dataclasses.fields(config_type):
        default = f.default if f.default_factory is dataclasses.MISSING else f.default_factory()
        assert getattr(cfg, f.name) != default, f"{command}: {f.name} keeps its default"


REQUIRED_ONLY = [
    (["synth", "--out", "o"], SynthConfig()),
    *((["fuse", "--data", "d", "--method", m, "--out", "o"], FusionConfig(method=m))
      for m in METHODS),
    (["eval", "--model", "m", "--data", "d"], EvalConfig()),
    (["train", "--data", "d", "--loss", "rps", "--out", "o"], TrainConfig()),
    *((["train", "--data", "d", "--loss", m, "--out", "o"],
       TrainConfig(loss="bce_vs_fused", fusion=FusionConfig(method=m))) for m in METHODS),
    (["sweep", "--data", "d", "--values", "0.2:0.6:0.2"],
     [TrainConfig(alpha=v) for v in _parse_grid("0.2:0.6:0.2")]),
]


@pytest.mark.parametrize(
    "argv, expected", REQUIRED_ONLY, ids=[" ".join(argv) for argv, _ in REQUIRED_ONLY]
)
def test_required_flags_alone_give_the_dataclass_defaults(argv, expected):
    """The protocol a bare command runs is the dataclasses' (15 bins, a
    10 x 0.6 bootstrap, sigma 1, ...): the CLI holds no default of its own."""
    args = build_parser().parse_args(argv)
    assert args.config(args) == expected


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

    def test_diverging_training_is_a_numerical_failure(self, capsys, dataset):
        code, out, err = run_cli(
            capsys, "sweep", "--data", str(dataset), "--values", "0.5", "--epochs", "3",
            "--lr", "1e300",
        )
        assert (code, out) == (3, "")
        assert err == "alpha=0.5: epoch 0: a parameter is NaN, inf or beyond float32\n"

    @pytest.mark.parametrize("edit", ["nan-pixel", "2x2-image"])
    def test_val_image_that_predict_rejects(self, capsys, dataset, tmp_path, edit):
        """sweep maps `predict`'s errors as eval does: exit 3 for a NaN
        pixel, exit 1 for an image too small for the net (train, which never
        sees the val split, accepts both)."""
        data = tmp_path / "ds"
        shutil.copytree(dataset, data)
        manifest = json.loads((data / "manifest.json").read_text())
        entry = next(s for s in manifest["samples"] if s["split"] == "val")
        if edit == "nan-pixel":
            dtype, dims, image = read_container(data / entry["image_path"])
            image = np.array(image, dtype=np.float32)
            image[2, 3] = np.nan
            write_container(dtype, dims, image, data / entry["image_path"])
            expected = (3, "non-finite predictions: ")
        else:
            _resize_sample(data, entry, 2)
            expected = (1, "cannot load model/predictions: image must be at least 3x3")
        code, out, err = run_cli(
            capsys, "sweep", "--data", str(data), "--values", "0.5", "--epochs", "1"
        )
        assert code == expected[0]
        assert out == ""
        assert err.startswith(expected[1])
        assert err.count("\n") == 1


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
        # 128x128 images run 4 inference bands each; 18 test images are 294,912
        # scores, which the bootstrap's kernel merges in 3 or more value-range
        # chunks (metrics.CHUNK_SCORES)
        ckpt, data = tmp_path / "m.mrc", tmp_path / "big"
        assert main(["train", "--data", str(dataset), "--loss", "rps", "--epochs", "2",
                     "--out", str(ckpt)]) == 0
        assert main(["synth", "--out", str(data), "--n", "120", "--size", "128", "--seed", "4"]) == 0
        report, rel = tmp_path / "r.json", tmp_path / "r.csv"
        for model in (str(ckpt), "oracle"):
            digests = set()
            for threads in ("1", "2", "4"):
                for blas in ("1", "2"):
                    result = subprocess.run(
                        [sys.executable, "-m", "mrcal.cli", "eval", "--model", model,
                         "--data", str(data), "--bootstrap", "25",
                         "--report", str(report), "--reliability", str(rel)],
                        capture_output=True, text=True,
                        env=child_env(MRCAL_THREADS=threads, OPENBLAS_NUM_THREADS=blas,
                                      OMP_NUM_THREADS=blas),
                    )
                    assert result.returncode == 0, result.stderr
                    digests.add(hashlib.sha256(report.read_bytes() + rel.read_bytes()).hexdigest())
            assert len(digests) == 1, model

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


def _child(*argv, **variables):
    return subprocess.run([sys.executable, "-m", "mrcal.cli", *argv],
                          capture_output=True, text=True, env=child_env(**variables))


class TestFloatingPointPolicy:
    """A NumPy warning never reaches stderr, and a checkpoint holds only
    finite float32 values: a training run exits 0 with nothing on stderr, or
    3 with one line and no checkpoint written."""

    @pytest.fixture(scope="class")
    def many_raters(self, tmp_path_factory):
        data = tmp_path_factory.mktemp("k40") / "ds"
        assert main(["synth", "--out", str(data), "--n", "7", "--size", "8", "--raters", "40"]) == 0
        return data

    def _train(self, data, loss, lr, out, threads="1"):
        result = _child("train", "--data", str(data), "--loss", loss, "--epochs", "5",
                        "--lr", lr, "--out", str(out), MRCAL_THREADS=threads)
        assert "RuntimeWarning" not in result.stderr
        if result.returncode == 0:
            assert result.stderr == ""
            assert np.isfinite(read_container(out)[2]).all()
        else:
            assert result.returncode == 3 and result.stdout == "", result.stderr
            assert result.stderr.startswith("training aborted: epoch ")
            assert result.stderr.count("\n") == 1
            assert not out.exists() and not out.with_suffix(".mrc.json").exists()
        return result.returncode

    def test_saturated_sigmoid_is_silent(self, tmp_path):
        # exp overflows on a saturated negative logit; the sigmoid is still 0
        data = tmp_path / "ds"
        assert main(["synth", "--out", str(data), "--n", "60", "--size", "64"]) == 0
        assert self._train(data, "sc", "30", tmp_path / "sc.mrc") == 0

    def test_float32_overflow_saves_no_checkpoint(self, many_raters, tmp_path):
        # every loss stays finite (the BCE clips p) while parameters pass 3.4e38
        assert self._train(many_raters, "mc", "1e20", tmp_path / "mc.mrc") == 3

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("loss", ["sc", "mc", "rps"])
    def test_learning_rate_grid(self, many_raters, tmp_path, loss, threads):
        for lr in ("1e1", "1e5", "1e10", "1e20"):
            self._train(many_raters, loss, lr, tmp_path / f"{lr}.mrc", threads)

    def test_eval_rejects_non_finite_checkpoint(self, many_raters, tmp_path):
        path = tmp_path / "nan.mrc"
        assert main(["train", "--data", str(many_raters), "--loss", "mc", "--epochs", "1",
                     "--out", str(path)]) == 0
        ckpt = Checkpoint.load(path)
        flat = ckpt.flat_params.copy()
        flat[::7] = np.nan
        dataclasses.replace(ckpt, flat_params=flat).save(path)
        result = _child("eval", "--model", str(path), "--data", str(many_raters), "--split", "train")
        assert result.returncode == 3 and result.stdout == ""
        # the load rejects it: no prediction ran
        assert result.stderr.startswith(f"non-finite parameters: {path}: ")
        assert "parameters are NaN" in result.stderr
        assert result.stderr.count("\n") == 1


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
        "--sigma": FLOATS + ["1e4"], "--seed": SEEDS, "--out": OUTS,
    }),
    "train": (["--data", "{data}", "--loss", "rps", "--epochs", "1", "--out", "{tmp}/m.mrc"], {
        "--data": DATA, "--loss": ["rps", "sc", "staple", "rs", "bogus"], "--alpha": FLOATS,
        "--lr": FLOATS + ["1e300"], "--epochs": ["-1", "0", "1", "2", "abc"],
        "--batch-size": INTS, "--sigma": FLOATS + ["1e4"], "--seed": SEEDS, "--out": OUTS,
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
