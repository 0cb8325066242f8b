"""Command-line pipeline: synth -> fuse -> train -> eval -> sweep -> report.

stdout carries machine-readable JSON (or JSON lines) only; human
diagnostics go to stderr. Exit codes: 0 success, 1 IO/data error or out of
memory, 2 usage error, 3 numerical failure, 4 metric undefined (single-class
AUC).

Before any data is read, `main` checks MRCAL_THREADS and each command builds
its config dataclass from the arguments; `main` maps their ValueError to
exit 2. `main` also maps a dataset that cannot be loaded (`DatasetError`) and
a failed allocation (`MemoryError`) to exit 1 with one stderr line. An output
path that cannot be written exits 1.

MRCAL_THREADS sizes the worker pool (`core.ordered_map`) that runs
inference bands and synthetic samples (0 or unset = the usable CPUs divided by the BLAS thread
count, see `core.thread_cap`). Each band writes its own rows, each sample's
random stream is keyed by (seed, index) and synth writes its files in index
order on the main thread, so results never depend on it.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import core, metrics, model, synthgen
from .core import DatasetError, ForegroundProbMap, load_dataset
from .fusion import METHODS, DegenerateStack, FusionConfig, SoftLabelMap, fuse
from .metrics import EvalConfig, SingleClassReference, bootstrap_eval, mr_ece, reliability_csv
from .model import Checkpoint, NonFiniteLoss, TrainConfig, predict, train
from .synthgen import LatentField, SynthConfig, generate, true_consensus_probability

EXIT_OK = 0
EXIT_IO = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_UNDEFINED = 4


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj, sort_keys=True) + "\n")


def _diag(msg: str) -> None:
    sys.stderr.write(msg + "\n")


def _synth_config(args) -> SynthConfig:
    return SynthConfig(
        num_samples=args.n,
        image_size=args.size,
        num_raters=args.raters,
        ambiguity=args.ambiguity,
        rater_bias_std=args.rater_bias_std,
        rater_noise_std=args.rater_noise_std,
        seed=args.seed,
    )


def cmd_synth(args, cfg: SynthConfig) -> int:
    try:
        manifest_path = generate(cfg, args.out)
    except OSError as exc:
        _diag(f"synth failed: {exc}")
        return EXIT_IO
    n_train, n_val, n_test = synthgen.split_sizes(cfg.num_samples)
    _emit(
        {
            "manifest": str(manifest_path),
            "splits": {"train": n_train, "val": n_val, "test": n_test},
        }
    )
    return EXIT_OK


def _fusion_config(args) -> FusionConfig:
    return FusionConfig(method=args.method, sigma=args.sigma, rng_seed=args.seed or 0)


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
                dtype = core.DTYPE_F32 if isinstance(fused, SoftLabelMap) else core.DTYPE_U8
                core.write_container(dtype, fused.data.shape, fused.data, path)
                sidecar = {
                    "method": args.method,
                    "parameters": {"sigma": cfg.sigma, "seed": cfg.rng_seed},
                }
                if perf is not None:
                    sidecar["rater_performance"] = {
                        "sensitivity": list(perf.sensitivity),
                        "specificity": list(perf.specificity),
                    }
                path.with_suffix(".mrc.json").write_text(
                    json.dumps(sidecar, indent=2, sort_keys=True) + "\n"
                )
                written.append(str(path))
    except OSError as exc:
        _diag(f"cannot write fused output: {exc}")
        return EXIT_IO
    _emit({"method": args.method, "written": len(written), "out": str(out_dir)})
    return EXIT_OK


def _train_config(args) -> TrainConfig:
    if args.loss == "rps":
        return TrainConfig(
            loss="hybrid_rps",
            alpha=args.alpha,
            lr=args.lr,
            epochs=args.epochs,
            batch_size=args.batch_size,
            seed=args.seed,
        )
    return TrainConfig(
        loss="bce_vs_fused",
        alpha=args.alpha,
        lr=args.lr,
        epochs=args.epochs,
        batch_size=args.batch_size,
        seed=args.seed,
        fusion=FusionConfig(method=args.loss, sigma=args.sigma, rng_seed=args.seed),
    )


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
        latent = LatentField(core.Grid2D(np.asarray(arr, dtype=np.float64)))
        # a NaN latent raises NonFiniteValues (exit 3), as a NaN pixel does in `predict`
        preds.append(ForegroundProbMap.from_array(true_consensus_probability(latent, cfg)).data)
    return preds


def _model_predictions(model_path: str, samples):
    checkpoint = Checkpoint.load(model_path)
    k = samples[0].annotations.num_raters
    if checkpoint.num_raters != k:
        raise model.ArchitectureMismatch(
            f"{model_path}: checkpoint was trained on K={checkpoint.num_raters} raters, "
            f"dataset has K={k}"
        )
    return [predict(checkpoint, s.image).data for s in samples]


def _eval_config(args) -> EvalConfig:
    return EvalConfig(
        num_bins=args.bins,
        bootstrap_n=args.bootstrap,
        bootstrap_frac=args.frac,
        seed=args.seed,
        ece_mode=args.ece_mode,
    )


def cmd_eval(args, cfg: EvalConfig) -> int:
    data_dir = Path(args.data)
    dataset = load_dataset(data_dir / "manifest.json", (args.split,))
    samples = dataset[args.split]
    if not samples:
        _diag(f"split {args.split!r} is empty")
        return EXIT_IO
    try:
        if args.model == "oracle":
            preds = _oracle_predictions(data_dir, samples)
        else:
            preds = _model_predictions(args.model, samples)
    except core.NonFiniteValues as exc:
        _diag(f"non-finite predictions: {exc}")
        return EXIT_NUMERIC
    except (
        # ValueError and TypeError: a sidecar or synth_meta.json that is not
        # UTF-8 JSON, or whose config SynthConfig rejects
        OSError, KeyError, TypeError, ValueError, core.ContainerError, model.ArchitectureMismatch
    ) as exc:
        _diag(f"cannot load model/predictions: {exc}")
        return EXIT_IO

    stacks = [s.annotations for s in samples]
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
    return [
        TrainConfig(loss="hybrid_rps", alpha=value, lr=args.lr, epochs=args.epochs, seed=args.seed)
        for value in _parse_grid(args.values)
    ]


def cmd_sweep(args, cfgs: list[TrainConfig]) -> int:
    dataset = load_dataset(Path(args.data) / "manifest.json", ("train", "val"))
    if not dataset["train"] or not dataset["val"]:
        _diag("sweep needs nonempty train and val splits")
        return EXIT_IO

    eval_cfg = EvalConfig(seed=args.seed)
    table = []
    for cfg in cfgs:
        try:
            checkpoint = train(dataset["train"], cfg)
        except NonFiniteLoss as exc:
            _diag(f"alpha={cfg.alpha}: {exc}")
            return EXIT_NUMERIC
        preds = [predict(checkpoint, s.image).data for s in dataset["val"]]
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

    p = sub.add_parser("synth", help="generate a synthetic multi-rater dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=int, default=20)
    p.add_argument("--size", type=int, default=64)
    p.add_argument("--raters", type=int, default=3)
    p.add_argument("--ambiguity", type=float, default=0.5)
    p.add_argument("--rater-bias-std", type=float, default=0.1)
    p.add_argument("--rater-noise-std", type=float, default=0.2)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_synth, config=_synth_config)

    p = sub.add_parser("fuse", help="write fused supervision targets")
    p.add_argument("--data", required=True)
    p.add_argument("--method", required=True, choices=METHODS)
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fuse, config=_fusion_config)

    p = sub.add_parser("train", help="train a segmentation model")
    p.add_argument("--data", required=True)
    p.add_argument(
        "--loss",
        required=True,
        choices=("rps", "rs", "mc", "sc", "scg", "staple", "simple", "svls"),
    )
    p.add_argument("--alpha", type=float, default=0.8)
    p.add_argument("--lr", type=float, default=0.01)
    p.add_argument("--epochs", type=int, default=20)
    p.add_argument("--batch-size", type=int, default=4)
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train, config=_train_config)

    p = sub.add_parser("eval", help="evaluate a checkpoint (or the synth oracle)")
    p.add_argument("--model", required=True, help="checkpoint path or 'oracle'")
    p.add_argument("--data", required=True)
    p.add_argument("--split", default="test", choices=core.SPLITS)
    p.add_argument("--bins", type=int, default=15)
    p.add_argument("--bootstrap", type=int, default=10)
    p.add_argument("--frac", type=float, default=0.6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--report", default=None)
    p.add_argument("--reliability", default=None)
    p.add_argument(
        "--ece-mode", default="frequency", choices=("frequency", "top_label")
    )
    p.set_defaults(func=cmd_eval, config=_eval_config)

    p = sub.add_parser("sweep", help="grid sweep of a hyperparameter on the val split")
    p.add_argument("--data", required=True)
    p.add_argument("--param", default="alpha")
    p.add_argument("--values", required=True, help="start:stop:step (inclusive)")
    p.add_argument("--metric", default="mr_ece")
    p.add_argument("--lr", type=float, default=0.01)
    p.add_argument("--epochs", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_sweep, config=_sweep_config)

    p = sub.add_parser("report", help="echo a metric report JSON to stdout")
    p.add_argument("--report", required=True)
    p.set_defaults(func=cmd_report, config=lambda args: None)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "fuse" and args.method == "rs" and args.seed is None:
        parser.error("--method rs requires --seed")
    try:
        core.thread_cap()
        cfg = args.config(args)
    except ValueError as exc:
        _diag(f"{args.command}: {exc}")
        return EXIT_USAGE
    try:
        return args.func(args, cfg)
    except SingleClassReference as exc:
        _diag(str(exc))
        return EXIT_UNDEFINED
    except DatasetError as exc:
        _diag(f"cannot load dataset: {exc}")
        return EXIT_IO
    except MemoryError as exc:
        _diag(f"{args.command}: out of memory" + (f": {exc}" if str(exc) else ""))
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
