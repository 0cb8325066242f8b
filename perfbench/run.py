"""Benchmark of the mrcal pipeline through its public `mrcal.cli.main` entry.

Run from the repository root:

    python3 perfbench/run.py --workload train --seed 0 --seconds 25 --trace 0

One process per workload. The BLAS thread variables are pinned to 1 below,
before NumPy is imported, and the benchmark starts no threads or processes.
The run sets up the workload three times (`setup_s` is the import time plus
the median set-up), repeats the timed section for about `--seconds` seconds
(at least twice), then runs the untimed quality step. With `--trace 0` it
reports the end-to-end metrics; with `--trace 1` it alternates untraced and
traced repeats and reports the per-module metrics of tracing.py.

Every CLI call is an operation. An operation fails on a nonzero exit, stdout
that is not JSON, an artifact whose sha256 differs from the first repeat's,
or a printed result outside the reference in reference.json. Failures are
counted, never dropped: `ok_frac` = 1 - failed / attempted.

The last stdout line is one JSON object with `correct`, `attempted`, `failed`
and `metrics`. A readable report, with the environment, precedes it, and a
copy goes to .perfbench_work/results/.
"""

import os
import sys
import time

_START = time.perf_counter()
PINNED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}
os.environ.update(PINNED)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import threading  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
WORK_ROOT = Path(".perfbench_work")
SETUPS = 3

END_TO_END_UNITS = {
    "img_per_s": "img/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "ok_frac": "frac",
    "mr_ece": "1",
    "auc": "1",
}


def digest(path: Path):
    """sha256 of a file, or of a directory's relative paths and contents."""
    h = hashlib.sha256()
    if path.is_file():
        h.update(path.read_bytes())
    elif path.is_dir():
        for f in sorted(p for p in path.rglob("*") if p.is_file()):
            h.update(str(f.relative_to(path)).encode() + b"\0")
            h.update(hashlib.sha256(f.read_bytes()).digest())
    else:
        return None
    return h.hexdigest()


@dataclass
class Op:
    key: str
    argv: list
    rc: object = 0
    seconds: float = 0.0
    lines: list = field(default_factory=list)
    problems: list = field(default_factory=list)

    @property
    def last(self):
        """The last JSON object the call printed, if any."""
        if self.lines and isinstance(self.lines[-1], dict):
            return self.lines[-1]
        return None


class Runner:
    """Runs CLI calls in-process and checks each one."""

    def __init__(self, cli, reference, seed):
        self.cli = cli
        self.reference = reference
        self.seed = seed
        self.ops = []
        self.digests = {}
        self.observed = {}
        self.tracer = None

    def new_op(self, key, argv=()):
        op = Op(key, list(argv))
        self.ops.append(op)
        return op

    def call(self, key, argv, artifacts=None) -> Op:
        op = self.new_op(key, argv)
        out, err = io.StringIO(), io.StringIO()
        span = self.tracer.span(f"cli.{argv[0]}") if self.tracer else contextlib.nullcontext()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), span:
                op.rc = self.cli.main(argv)
        except SystemExit as exc:
            op.rc = exc.code
        except Exception as exc:  # a traceback is a failed operation, not a crash
            op.rc = f"{type(exc).__name__}: {exc}"
        op.seconds = time.perf_counter() - start
        if op.rc != 0:
            op.problems.append(f"exit {op.rc}: {err.getvalue().strip()[-300:]}")
        for line in out.getvalue().splitlines():
            try:
                op.lines.append(json.loads(line))
            except json.JSONDecodeError:
                op.problems.append(f"stdout is not JSON: {line[:80]!r}")
                break
        for name, path in (artifacts or {}).items():
            d = digest(path)
            if d is None:
                op.problems.append(f"artifact {name} not written")
            elif self.digests.setdefault(f"{key}/{name}", d) != d:
                op.problems.append(f"artifact {name} differs from the first repeat's")
        return op

    def check(self, op: Op, name: str, value):
        """Compare a printed result with the reference for this seed.

        A seed recorded in reference.json must match within rel_tol; any
        other seed must fall inside the recorded band.
        """
        self.observed[name] = value
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            op.problems.append(f"{name} missing or not finite: {value!r}")
            return
        if self.reference is None:
            return
        exact = self.reference["seeds"].get(str(self.seed), {})
        if name in exact:
            ref = exact[name]
            if abs(value - ref) > self.reference["rel_tol"] * abs(ref):
                op.problems.append(f"{name}={value!r}, reference {ref!r}")
        else:
            lo, hi = self.reference["band"][name]
            if not lo <= value <= hi:
                op.problems.append(f"{name}={value!r} outside reference band [{lo}, {hi}]")

    def check_quality(self, op: Op, values) -> dict:
        values = values or {}
        for name in ("mr_ece", "auc"):
            self.check(op, name, values.get(name))
        return {name: values.get(name) for name in ("mr_ece", "auc")}

    @property
    def failed(self) -> int:
        return sum(1 for op in self.ops if op.problems)


def load_reference(workload: str, cfg: dict):
    """The recorded reference for this workload, if recorded at these sizes."""
    doc = json.loads(REFERENCE.read_text())
    entry = doc["workloads"].get(workload)
    if entry is None or entry["config"] != cfg:
        return None
    return {"rel_tol": doc["rel_tol"], **entry}


def environment(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        **{var: os.environ.get(var) for var in PINNED},
        "threads": threading.active_count(),
        "seed": seed,
    }


def measure(wl, runner, seconds, tracer):
    """Repeat the timed section for about `seconds`; returns the untraced
    and traced repeat times. With a tracer, repeats alternate.

    Repeat 0 warms the process up and is checked but not timed: the first
    STAPLE call in a process, for one, runs about twice as long as later ones.
    """
    untraced, traced, elapsed, op_times = [], [], [], []
    minimum = 5 if tracer else 3
    start = time.perf_counter()
    i = 0
    while True:
        t = time.perf_counter()
        if i == 0:
            wl.repeat(i)
        elif tracer is not None and i % 2 == 0:
            runner.tracer = tracer
            with tracer.installed():
                traced.append(wl.repeat(i))
            runner.tracer = None
        else:
            first = len(runner.ops)
            untraced.append(wl.repeat(i))
            op_times.append({op.key: op.seconds for op in runner.ops[first:] if op.argv})
        elapsed.append(time.perf_counter() - t)
        i += 1
        if i >= minimum and time.perf_counter() - start + statistics.median(elapsed) > seconds:
            return untraced, traced, op_times


def finite_or_none(value):
    return value if isinstance(value, (int, float)) and math.isfinite(value) else None


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=("train", "infer", "prep"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--preset", choices=("full", "tiny"), default="full",
                   help="workload sizes; 'tiny' is for the benchmark's own tests")
    return p.parse_args(argv)


def import_program(root: Path = Path(".")):
    """Import mrcal from `root`/src; None when the checkout has no program."""
    src = root / "src"
    if not (src / "mrcal" / "cli.py").is_file():
        return None
    sys.path.insert(0, str(src.resolve()))
    import mrcal
    import mrcal.cli  # noqa: F401

    return mrcal


def main(argv=None) -> int:
    args = parse_args(argv)
    mrcal = import_program()
    if mrcal is None:
        print("perfbench: src/mrcal not found; run from the repository root", file=sys.stderr)
        return 2
    cli = mrcal.cli
    import_s = time.perf_counter() - _START
    from tracing import COMPUTED, UNITS, Tracer
    from workloads import PRESETS, WORKLOADS

    cfg = PRESETS[args.preset][args.workload]
    reference = load_reference(args.workload, cfg)
    runner = Runner(cli, reference, args.seed)
    work = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        wl = WORKLOADS[args.workload](runner, work / "run", args.seed, cfg)
        (work / "run").mkdir(parents=True)
        setup_times = []
        for k in range(SETUPS):
            setup_times.append(wl.setup(work / f"setup{k}"))
            if k:
                shutil.rmtree(work / f"setup{k - 1}", ignore_errors=True)
        tracer = Tracer(mrcal) if args.trace else None
        untraced, traced, op_times = measure(wl, runner, args.seconds, tracer)
        quality = wl.finish()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed = len(runner.ops), runner.failed
    if tracer is not None:
        values = tracer.metrics(untraced, traced)
        units = UNITS
    else:
        values = {
            "img_per_s": statistics.median(wl.images_per_repeat / s for s in untraced),
            "setup_s": import_s + statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": 1.0 - failed / attempted,
            **quality,
        }
        units = END_TO_END_UNITS
    metrics = {name: {"value": finite_or_none(values[name]), "unit": units[name]} for name in units}
    env = environment(args.seed)
    detail = {
        "workload": args.workload,
        "preset": args.preset,
        "config": cfg,
        "environment": env,
        "reference": "exact" if reference and str(args.seed) in reference["seeds"]
        else "band" if reference else "none",
        "repeats": {"op_s": op_times, "untraced_s": untraced, "traced_s": traced, "setup_s": setup_times, "import_s": import_s},
        "observed": runner.observed,
        "missing_functions": tracer.missing if tracer else [],
        "failures": [{"op": op.key, "argv": op.argv, "problems": op.problems} for op in runner.ops if op.problems],
    }

    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
          f"repeats={len(untraced)}+{len(traced)} traced")
    print("environment " + json.dumps(env, sort_keys=True))
    for name, m in metrics.items():
        shown = "missing" if m["value"] is None else f"{m['value']:.6g}"
        label = "  (computed)" if name in COMPUTED else ""
        print(f"  {name:<32} {shown:>14} {m['unit']}{label}")
    print(f"  {'fail_frac':<32} {failed / attempted:>14.6g} frac  ({failed} of {attempted} operations)")
    for f in detail["failures"][:10]:
        print(f"  FAILED {f['op']}: {'; '.join(f['problems'])}")
    if tracer is not None and tracer.missing:
        print("  missing functions: " + ", ".join(tracer.missing))
    results = WORK_ROOT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**detail, "metrics": metrics, "attempted": attempted, "failed": failed}, indent=2) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
