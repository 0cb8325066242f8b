"""Command-line pipeline: synth -> fuse -> train -> eval -> sweep -> report.

stdout carries machine-readable JSON (or JSON lines) only; human
diagnostics go to stderr. Exit codes: 0 success, 1 IO/data error or out of
memory, 2 usage error, 3 numerical failure, 4 metric undefined (single-class
AUC).

Before any data is read, `main` checks MRCAL_THREADS and each command builds
its config dataclass from the flags given (`_from_flags`): each flag's `dest`
is its field's name, and every field whose flag is not given keeps its
dataclass default, so the defaults live only in the dataclasses. `main` maps
their ValueError to exit 2. `main` also maps a dataset that cannot be loaded
(`DatasetError`) and a failed allocation (`MemoryError`) to exit 1 with one
stderr line. An output path that cannot be written exits 1.

MRCAL_THREADS sizes the one worker pool (`core.WorkerPool`) that runs
inference images, synthetic samples, the samples of each training batch and
eval's bootstrap (0 or unset = the usable CPUs divided by the BLAS thread
count, see `core.thread_cap`); leaving its `with` block, also on a failure,
cancels the calls not yet started and joins the workers. Each image's map
comes back in image order, each sample's random stream is keyed by (seed,
index), synth writes its files in index order on the main thread, train sums
each batch's gradients on the main thread in permutation order, and each
bootstrap AUC is exact integer arithmetic, so the output never depends on
it.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import core, metrics, model, synthgen
from .core import BinaryMask, DatasetError, ForegroundProbMap, load_dataset
from .fusion import METHODS, DegenerateStack, FusionConfig, fuse
from .metrics import EvalConfig, bootstrap_eval, mr_ece, reliability_csv
from .model import Checkpoint, NonFiniteLoss, TrainConfig, predict, train
from .synthgen import SynthConfig, generate, true_consensus_probability

EXIT_OK = 0
EXIT_IO = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_UNDEFINED = 4


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj, sort_keys=True) + "\n")


def _diag(msg: str) -> None:
    sys.stderr.write(msg + "\n")


def _from_flags(config_type, args, **fixed):
    """A `config_type` from the flags in `args` named after its fields, and
    from `fixed`; each field set by neither keeps its dataclass default."""
    names = {f.name for f in dataclasses.fields(config_type)}
    given = {name: value for name, value in vars(args).items() if name in names}
    return config_type(**(given | fixed))


def cmd_synth(args, cfg: SynthConfig) -> int:
    try:
        manifest_path = generate(cfg, args.out)
    except OSError as exc:
        _diag(f"synth failed: {exc}")
        return EXIT_IO
    splits = dict(zip(core.SPLITS, synthgen.split_sizes(cfg.num_samples)))
    _emit({"manifest": str(manifest_path), "splits": splits})
    return EXIT_OK


def cmd_fuse(args, cfg: FusionConfig) -> int:
    dataset = load_dataset(Path(args.data) / "manifest.json")
    out_dir = Path(args.out)
    written = []
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for split in core.SPLITS:
            for sample in dataset[split]:
                try:
                    fused, perf = fuse(sample.annotations, cfg, step=len(written))
                except DegenerateStack as exc:
                    _diag(f"cannot fuse sample {sample.id!r} with {args.method}: {exc}")
                    return EXIT_IO
                path = out_dir / f"{sample.id}_{args.method}.mrc"
                dtype = core.DTYPE_U8 if isinstance(fused, BinaryMask) else core.DTYPE_F32
                core.write_container(dtype, fused.data.shape, fused.data, path)
                sidecar = {
                    "method": args.method,
                    "parameters": {"sigma": cfg.sigma, "seed": cfg.rng_seed},
                }
                if perf is not None:
                    sidecar["rater_performance"] = perf.to_dict()
                path.with_suffix(".mrc.json").write_text(core.json_text(sidecar))
                written.append(str(path))
    except OSError as exc:
        _diag(f"cannot write fused output: {exc}")
        return EXIT_IO
    _emit({"method": args.method, "written": len(written), "out": str(out_dir)})
    return EXIT_OK


def _train_config(args) -> TrainConfig:
    """`--loss rps` trains the ordinal head and ignores `--sigma`; every other
    loss trains against that fusion method's targets, drawn with the
    training seed."""
    if args.loss == "rps":
        return _from_flags(TrainConfig, args, loss="hybrid_rps")
    seed = getattr(args, "seed", TrainConfig.seed)
    fusion = _from_flags(FusionConfig, args, method=args.loss, rng_seed=seed)
    return _from_flags(TrainConfig, args, loss="bce_vs_fused", fusion=fusion)


def cmd_train(args, cfg: TrainConfig) -> int:
    dataset = load_dataset(Path(args.data) / "manifest.json", ("train",))
    try:
        checkpoint = train(dataset["train"], cfg)
    except NonFiniteLoss as exc:
        _diag(f"training aborted: {exc}")
        return EXIT_NUMERIC
    except (model.EmptyTrainSplit, model.ArchitectureMismatch, DegenerateStack) as exc:
        _diag(f"training failed: {exc}")
        return EXIT_IO
    try:
        checkpoint.save(args.out)
    except OSError as exc:
        _diag(f"cannot write checkpoint {args.out}: {exc.strerror or exc}")
        return EXIT_IO
    for epoch, loss in enumerate(checkpoint.loss_trace):
        _emit({"epoch": epoch, "loss": loss})
    return EXIT_OK


def _oracle_predictions(data_dir: Path, samples):
    meta = json.loads((data_dir / "synth_meta.json").read_text())
    cfg = SynthConfig(**meta["config"])
    preds = []
    for sample in samples:
        latent_path = data_dir / meta["latent_paths"][sample.id]
        _, _, arr = core.read_container(latent_path)
        if arr.shape != sample.image.shape:
            raise core.ContainerError(
                f"{latent_path}: latent {arr.shape} vs image {sample.image.shape}"
            )
        q = true_consensus_probability(np.asarray(arr, dtype=np.float64), cfg)
        # a NaN latent raises NonFiniteValues (exit 3), as a NaN pixel does in `predict`
        preds.append(ForegroundProbMap(q).data)
    return preds


def _model_predictions(model_path: str, checkpoint: Checkpoint, samples: list):
    """The checkpoint's maps of the samples' images. Takes every sample out
    of `samples`, so that only `predict` holds the images and frees each one
    once it is predicted."""
    k = samples[0].annotations.num_raters
    if checkpoint.num_raters != k:
        raise model.ArchitectureMismatch(
            f"{model_path}: checkpoint was trained on K={checkpoint.num_raters} raters, "
            f"dataset has K={k}"
        )
    return [p.data for p in predict(checkpoint, _take_images(samples))]


def _take_images(samples: list):
    """Yield each sample's image in order, removing the samples from the list."""
    samples.reverse()
    while samples:
        yield samples.pop().image


def _eval_config(args) -> EvalConfig:
    if args.report and args.reliability and (
        os.path.realpath(args.report) == os.path.realpath(args.reliability)
    ):
        raise ValueError(f"--report and --reliability name the same file: {args.reliability}")
    return _from_flags(EvalConfig, args)


def _prediction_failure(exc: Exception, values: str) -> int:
    """Exit code of a failed model load or `predict`, after one stderr line;
    `values` names what a `NonFiniteValues` found NaN or inf in."""
    if isinstance(exc, core.NonFiniteValues):
        _diag(f"non-finite {values}: {exc}")
        return EXIT_NUMERIC
    _diag(f"cannot load model/predictions: {exc}")
    return EXIT_IO


def cmd_eval(args, cfg: EvalConfig) -> int:
    data_dir = Path(args.data)
    samples = load_dataset(data_dir / "manifest.json", (args.split,))[args.split]
    if not samples:
        _diag(f"split {args.split!r} is empty")
        return EXIT_IO
    stacks = [s.annotations for s in samples]
    failures = (
        # ValueError and TypeError: a sidecar or synth_meta.json that is not
        # UTF-8 JSON, or whose config SynthConfig rejects
        OSError, KeyError, TypeError, ValueError, core.ContainerError, model.ArchitectureMismatch
    )
    try:
        checkpoint = None if args.model == "oracle" else Checkpoint.load(args.model)
    except failures as exc:
        return _prediction_failure(exc, "parameters")
    try:
        if checkpoint is None:
            preds = _oracle_predictions(data_dir, samples)
        else:
            preds = _model_predictions(args.model, checkpoint, samples)
    except failures as exc:
        return _prediction_failure(exc, "predictions")
    del samples  # only the rater stacks are scored from here on

    report = bootstrap_eval(preds, stacks, cfg)
    report.notes = {
        "auc_reference": "majority_vote_ties_foreground",
        "split": args.split,
        "model": str(args.model),
    }
    writers = {}
    if args.reliability:
        writers[args.reliability] = lambda tmp: reliability_csv(report.bins, tmp)
        report.bins_csv_path = str(args.reliability)
    if args.report:
        text = report.to_json()
        writers[args.report] = lambda tmp: tmp.write_text(text)
    try:
        core.write_together(writers)
    except OSError as exc:
        _diag(f"cannot write eval output: {exc}")
        return EXIT_IO
    _emit({"mr_ece": report.mr_ece, "auc": report.auc})
    return EXIT_UNDEFINED if report.auc is None else EXIT_OK


MAX_GRID_VALUES = 1000


def _parse_grid(spec: str) -> list[float]:
    """The values of `start:stop:step` (inclusive) or of one `value`.

    Every number must be finite and the grid must hold 1 to MAX_GRID_VALUES
    values, so the loop below always ends.
    """
    parts = spec.split(":")
    try:
        numbers = [float(p) for p in parts]
        if not all(math.isfinite(v) for v in numbers):
            raise ValueError
        if len(numbers) == 1:
            return numbers
        if len(numbers) == 3:
            start, stop, step = numbers
            if step <= 0 or stop < start:
                raise ValueError
            values = []
            v = start
            while v <= stop + 1e-9:
                if len(values) == MAX_GRID_VALUES:
                    raise ValueError
                values.append(round(v, 10))
                v += step
            return values
    except ValueError:
        pass
    raise ValueError(
        f"malformed grid {spec!r} (expected start:stop:step or value, finite, "
        f"at most {MAX_GRID_VALUES} values)"
    )


def _sweep_config(args) -> list[TrainConfig]:
    """One hybrid_rps training config per alpha on the grid."""
    if args.param != "alpha":
        raise ValueError(f"unsupported sweep parameter {args.param!r}")
    if args.metric != "mr_ece":
        raise ValueError(f"unsupported sweep metric {args.metric!r}")
    return [_from_flags(TrainConfig, args, alpha=value) for value in _parse_grid(args.values)]


def cmd_sweep(args, cfgs: list[TrainConfig]) -> int:
    dataset = load_dataset(Path(args.data) / "manifest.json", ("train", "val"))
    if not dataset["train"] or not dataset["val"]:
        _diag("sweep needs nonempty train and val splits")
        return EXIT_IO

    eval_cfg = _from_flags(EvalConfig, args)
    table = []
    for cfg in cfgs:
        try:
            checkpoint = train(dataset["train"], cfg)
        except NonFiniteLoss as exc:
            _diag(f"alpha={cfg.alpha}: {exc}")
            return EXIT_NUMERIC
        try:
            preds = [p.data for p in predict(checkpoint, [s.image for s in dataset["val"]])]
        except ValueError as exc:  # includes NonFiniteValues
            return _prediction_failure(exc, "predictions")
        stacks = [s.annotations for s in dataset["val"]]
        metric_value, _ = mr_ece(preds, stacks, eval_cfg)
        table.append({"value": cfg.alpha, "metric": metric_value})
    best = min(table, key=lambda row: row["metric"])
    _emit({"param": args.param, "metric": args.metric, "table": table, "argmin": best["value"]})
    return EXIT_OK


def cmd_report(args, _cfg) -> int:
    try:
        doc = json.loads(Path(args.report).read_text())
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or not JSON
        _diag(f"cannot read report: {exc}")
        return EXIT_IO
    _emit(doc)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mrcal",
        description="Ordinal-consensus calibrated segmentation pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # a flag not given is absent from the parsed args; only the CLI's own
    # flags, which set no config field, have a default. A flag named unlike
    # its field keeps its name as metavar, so usage text is unchanged.
    command = functools.partial(sub.add_parser, argument_default=argparse.SUPPRESS)

    p = command("synth", help="generate a synthetic multi-rater dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=int, dest="num_samples", metavar="N")
    p.add_argument("--size", type=int, dest="image_size", metavar="SIZE")
    p.add_argument("--raters", type=int, dest="num_raters", metavar="RATERS")
    p.add_argument("--ambiguity", type=float)
    p.add_argument("--rater-bias-std", type=float)
    p.add_argument("--rater-noise-std", type=float)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_synth, config=functools.partial(_from_flags, SynthConfig))

    p = command("fuse", help="write fused supervision targets")
    p.add_argument("--data", required=True)
    p.add_argument("--method", required=True, choices=METHODS)
    p.add_argument("--sigma", type=float)
    p.add_argument("--seed", type=int, dest="rng_seed", metavar="SEED")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fuse, config=functools.partial(_from_flags, FusionConfig))

    p = command("train", help="train a segmentation model")
    p.add_argument("--data", required=True)
    p.add_argument(
        "--loss",
        required=True,
        choices=("rps", "rs", "mc", "sc", "scg", "staple", "simple", "svls"),
    )
    p.add_argument("--alpha", type=float)
    p.add_argument("--lr", type=float)
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--sigma", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train, config=_train_config)

    p = command("eval", help="evaluate a checkpoint (or the synth oracle)")
    p.add_argument("--model", required=True, help="checkpoint path or 'oracle'")
    p.add_argument("--data", required=True)
    p.add_argument("--split", default="test", choices=core.SPLITS)
    p.add_argument("--bins", type=int, dest="num_bins", metavar="BINS")
    p.add_argument("--bootstrap", type=int, dest="bootstrap_n", metavar="BOOTSTRAP")
    p.add_argument("--frac", type=float, dest="bootstrap_frac", metavar="FRAC")
    p.add_argument("--seed", type=int)
    p.add_argument("--report", default=None)
    p.add_argument("--reliability", default=None)
    p.add_argument("--ece-mode", choices=("frequency", "top_label"))
    p.set_defaults(func=cmd_eval, config=_eval_config)

    p = command("sweep", help="grid sweep of a hyperparameter on the val split")
    p.add_argument("--data", required=True)
    p.add_argument("--param", default="alpha")
    p.add_argument("--values", required=True, help="start:stop:step (inclusive)")
    p.add_argument("--metric", default="mr_ece")
    p.add_argument("--lr", type=float)
    p.add_argument("--epochs", type=int)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_sweep, config=_sweep_config)

    p = command("report", help="echo a metric report JSON to stdout")
    p.add_argument("--report", required=True)
    p.set_defaults(func=cmd_report, config=lambda args: None)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "fuse" and args.method == "rs" and "rng_seed" not in args:
        parser.error("--method rs requires --seed")
    try:
        core.thread_cap()
        cfg = args.config(args)
    except ValueError as exc:
        _diag(f"{args.command}: {exc}")
        return EXIT_USAGE
    try:
        return args.func(args, cfg)
    except DatasetError as exc:
        _diag(f"cannot load dataset: {exc}")
        return EXIT_IO
    except MemoryError as exc:
        _diag(f"{args.command}: out of memory" + (f": {exc}" if str(exc) else ""))
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
