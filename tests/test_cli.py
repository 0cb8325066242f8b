import hashlib
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from conftest import child_env
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
        data = tmp_path / "ds"
        shutil.copytree(dataset, data)
        manifest = json.loads((data / "manifest.json").read_text())
        mask_path = data / manifest["samples"][0]["rater_paths"][1]
        dtype, dims, mask = read_container(mask_path)
        mask = np.array(mask)
        mask[0, 0] = 2
        write_container(dtype, dims, mask, mask_path)
        if command == "eval":
            argv = ["eval", "--model", "oracle", "--data", str(data)]
        else:
            argv = ["fuse", "--data", str(data), "--method", "mc", "--out", str(tmp_path / "f")]
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("cannot load dataset:")
        assert str(mask_path) in err and "0 or 1" in err
        assert err.count("\n") == 1

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
        if command == "eval":
            argv = ["eval", "--model", "oracle", "--data", str(data)]
        else:
            argv = ["fuse", "--data", str(data), "--method", "mc", "--out", str(tmp_path / "f")]
        code, out, err = run_cli(capsys, *argv)
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
