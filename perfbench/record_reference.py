"""Record the results the benchmark checks into reference.json.

Run from the repository root:

    python3 perfbench/record_reference.py --seeds 0-19

For each workload and seed it sets up once, runs the timed section once and
then the quality step, untimed, and stores every result `Runner.check` sees.
A recorded seed must later reproduce these values within `rel_tol`. Any
other seed must fall inside the band: the recorded range widened on each
side by the range plus a tenth of the median.
"""

import json
import shutil
import statistics
import sys

import run

REL_TOL = 1e-7


def record(cli, workload, seed, cfg):
    from workloads import WORKLOADS

    runner = run.Runner(cli, None, seed)
    work = run.WORK_ROOT / f"record-{workload}-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        wl = WORKLOADS[workload](runner, work / "run", seed, cfg)
        (work / "run").mkdir(parents=True)
        wl.setup(work / "setup")
        wl.repeat(0)
        wl.finish()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failures = [(op.key, op.problems) for op in runner.ops if op.problems]
    if failures:
        raise SystemExit(f"{workload} seed {seed} failed: {failures}")
    return runner.observed


def band(values):
    lo, hi = min(values), max(values)
    margin = (hi - lo) + 0.1 * abs(statistics.median(values))
    return [lo - margin, hi + margin]


def main(argv):
    first, last = (int(x) for x in argv[argv.index("--seeds") + 1].split("-"))
    mrcal = run.import_program()
    if mrcal is None:
        raise SystemExit("src/mrcal not found; run from the repository root")
    from workloads import PRESETS

    doc = {"rel_tol": REL_TOL, "workloads": {}}
    for workload, cfg in PRESETS["full"].items():
        seeds = {}
        for seed in range(first, last + 1):
            seeds[str(seed)] = record(mrcal.cli, workload, seed, cfg)
            print(workload, seed, seeds[str(seed)], flush=True)
        names = next(iter(seeds.values()))
        doc["workloads"][workload] = {
            "config": cfg,
            "band": {name: band([s[name] for s in seeds.values()]) for name in names},
            "seeds": seeds,
        }
    run.REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(sys.argv)
