"""The three benchmark workloads, each driven through `mrcal.cli.main`.

Every workload has the same shape:

- `setup(dest)` makes the inputs in `dest` and returns its seconds;
- `repeat(i)` runs the timed section once and returns its seconds;
- `finish()` runs the untimed quality step and returns `mr_ece` and `auc`.

Seconds are the summed durations of the CLI calls, so the benchmark's own
checks (hashing artifacts) are never timed.

The workload seed feeds `synth --seed`. `train --seed` and `fuse --seed` stay
0: the initial weights alone move a 5-epoch model's MR-ECE by about 30%
between seeds, more than any bound the benchmark could hold, while varying
the data moves it by about 5%.

Each result the program prints is checked against the reference recorded in
`reference.json` (see `Runner.check` in run.py).
"""

from __future__ import annotations

from pathlib import Path

FUSION_METHODS = ("rs", "mc", "sc", "scg", "staple", "simple", "svls")

# Sizes of each workload. "tiny" runs in a few seconds for the self-tests.
PRESETS = {
    "full": {
        "train": {"n": 60, "size": 64, "raters": 3, "epochs": 5},
        "infer": {"n": 60, "size": 64, "raters": 3, "epochs": 5, "eval_n": 200, "eval_size": 256},
        "prep": {"n": 100, "size": 128, "raters": 7},
    },
    "tiny": {
        "train": {"n": 12, "size": 24, "raters": 3, "epochs": 1},
        "infer": {"n": 12, "size": 24, "raters": 3, "epochs": 1, "eval_n": 20, "eval_size": 48},
        "prep": {"n": 10, "size": 24, "raters": 3},
    },
}


def _synth_argv(out: Path, n: int, size: int, raters: int, seed: int) -> list[str]:
    return ["synth", "--out", str(out), "--n", str(n), "--size", str(size),
            "--raters", str(raters), "--seed", str(seed)]


def _train_argv(data: Path, loss: str, epochs: int, out: Path) -> list[str]:
    return ["train", "--data", str(data), "--loss", loss, "--epochs", str(epochs),
            "--seed", "0", "--out", str(out)]


def _checkpoint_files(path: Path) -> dict[str, Path]:
    return {path.name: path, path.name + ".json": path.with_suffix(path.suffix + ".json")}


class Workload:
    def __init__(self, runner, work: Path, seed: int, cfg: dict):
        self.runner = runner
        self.work = work
        self.seed = seed
        self.cfg = cfg
        self.images_per_repeat = 0

    def _synth(self, key: str, out: Path, n: int, size: int):
        """Synthesize a dataset; returns the call and its split counts."""
        op = self.runner.call(key, _synth_argv(out, n, size, self.cfg["raters"], self.seed),
                              artifacts={"dataset": out})
        return op, (op.last or {}).get("splits") or {"train": 0, "val": 0, "test": 0}


class Train(Workload):
    """The paper's comparison: ordinal (rps) head against a fused-target
    (sc) sigmoid baseline. Stresses the conv forward/backward of TinyNet."""

    def setup(self, dest: Path):
        c = self.cfg
        self.data = dest / "data"
        op, splits = self._synth("setup.synth", self.data, c["n"], c["size"])
        self.images_per_repeat = c["epochs"] * splits["train"] * 2
        return op.seconds

    def repeat(self, i: int) -> float:
        seconds = 0.0
        for loss in ("rps", "sc"):
            out = self.work / f"{loss}.mrc"
            op = self.runner.call(f"train.{loss}", _train_argv(self.data, loss, self.cfg["epochs"], out),
                                  artifacts=_checkpoint_files(out))
            seconds += op.seconds
            if loss == "rps":
                self.runner.check(op, "rps_final_loss", (op.last or {}).get("loss"))
        return seconds

    def finish(self) -> dict:
        report = self.work / "rps_report.json"
        op = self.runner.call("eval.rps", ["eval", "--model", str(self.work / "rps.mrc"),
                                           "--data", str(self.data), "--split", "test",
                                           "--report", str(report)],
                              artifacts={"report": report})
        return self.runner.check_quality(op, op.last)


class Infer(Workload):
    """Forward only, at 16x the training pixels: a checkpoint trained on
    64x64 images evaluated on 256x256 ones (TinyNet is fully convolutional)."""

    def setup(self, dest: Path):
        c = self.cfg
        small = dest / "small"
        synth_small, _ = self._synth("setup.synth_small", small, c["n"], c["size"])
        self.checkpoint = dest / "rps.mrc"
        train = self.runner.call("setup.train", _train_argv(small, "rps", c["epochs"], self.checkpoint),
                                 artifacts=_checkpoint_files(self.checkpoint))
        self.data = dest / "eval"
        synth_eval, splits = self._synth("setup.synth_eval", self.data, c["eval_n"], c["eval_size"])
        self.images_per_repeat = splits["test"]
        self.result = None
        return synth_small.seconds + train.seconds + synth_eval.seconds

    def repeat(self, i: int) -> float:
        report = self.work / "report.json"
        op = self.runner.call("eval", ["eval", "--model", str(self.checkpoint), "--data", str(self.data),
                                       "--split", "test", "--report", str(report)],
                              artifacts={"report": report})
        self.result = self.runner.check_quality(op, op.last)
        return op.seconds

    def finish(self) -> dict:
        return self.result


class Prep(Workload):
    """No model: synthesis, all seven fusions and the oracle eval, writing
    a fresh dataset every repeat. Stresses fusion and container I/O."""

    def setup(self, dest: Path):
        self.images_per_repeat = self.cfg["n"]
        self.last_dir = None
        return 0.0

    def repeat(self, i: int) -> float:
        c = self.cfg
        rep = self.work / f"rep{i}"
        data = rep / "data"
        op = self.runner.call("synth", _synth_argv(data, c["n"], c["size"], c["raters"], self.seed),
                              artifacts={"dataset": data})
        seconds = op.seconds
        for method in FUSION_METHODS:
            out = rep / f"fused_{method}"
            op = self.runner.call(f"fuse.{method}", ["fuse", "--data", str(data), "--method", method,
                                                     "--seed", "0", "--out", str(out)],
                                  artifacts={"fused": out})
            seconds += op.seconds
        report = rep / "oracle.json"
        op = self.runner.call("eval.oracle", ["eval", "--model", "oracle", "--data", str(data),
                                              "--split", "train", "--report", str(report)],
                              artifacts={"report": report})
        seconds += op.seconds
        last = op.last or {}
        self.runner.check(op, "oracle_mr_ece", last.get("mr_ece"))
        self.runner.check(op, "oracle_auc", last.get("auc"))
        self.last_dir = rep  # kept until the run ends: deleting files mid-run adds disk noise
        return seconds

    def finish(self) -> dict:
        """Pooled MR-ECE and AUC of the STAPLE targets against the raters.

        The oracle is calibrated by construction, so its MR-ECE is sampling
        noise that moves by about 60% between seeds; STAPLE's posterior has a
        systematic calibration gap that moves by under 10%.
        """
        from mrcal import core, metrics

        op = self.runner.new_op("quality.staple")
        data = self.last_dir / "data"
        fused = self.last_dir / "fused_staple"
        try:
            dataset = core.load_dataset(data / "manifest.json")
            samples = [s for split in core.SPLITS for s in dataset[split]]
            preds = [core.read_container(fused / f"{s.id}_staple.mrc")[2].astype("float64")
                     for s in samples]
            stacks = [s.annotations for s in samples]
            report = metrics.bootstrap_eval(preds, stacks, metrics.EvalConfig(bootstrap_n=1))
        except (OSError, ValueError, core.ContainerError, core.DatasetError) as exc:
            op.problems.append(f"cannot score the STAPLE targets: {exc}")
            return {"mr_ece": None, "auc": None}
        return self.runner.check_quality(op, {"mr_ece": report.mr_ece, "auc": report.auc})


WORKLOADS = {"train": Train, "infer": Infer, "prep": Prep}
