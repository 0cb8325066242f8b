"""Tests of the benchmark itself, at tiny workload sizes.

Run from the repository root:

    python3 -m pytest perfbench/selftest.py

The file name keeps these tests out of the repository's default pytest
collection; each workload here takes a few seconds.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def bench(workload, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--preset", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_emitted_with_units(workload):
    res = result(bench(workload, 0))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == expected
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert all(isinstance(v["value"], float) for v in res["metrics"].values())
    assert res["metrics"]["ok_frac"]["value"] == 1.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_self_times_add_up_to_wall(workload):
    proc = bench(workload, 1)
    res = result(proc)
    labelled = {line.split()[0] for line in proc.stdout.splitlines() if line.endswith("(computed)")}
    assert labelled == set(tracing.COMPUTED)
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == expected
    values = {k: v["value"] for k, v in res["metrics"].items()}
    assert all(v is not None for v in values.values()), "no function is missing at this commit"
    self_times = [values[name] for name in tracing.SELF_TIME]
    assert min(self_times) >= 0.0
    assert sum(self_times) == pytest.approx(values["trace.wall_s"], rel=1e-9)
    assert values["trace.wall_s"] > 0.0


def test_without_program_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench")
    proc = bench("train", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.fixture
def program():
    mrcal = run.import_program(ROOT)
    assert mrcal is not None
    return mrcal


def test_corrupted_checkpoint_is_counted_as_failure(program, tmp_path):
    from workloads import PRESETS, Infer

    runner = run.Runner(program.cli, None, seed=3)
    (tmp_path / "run").mkdir()
    wl = Infer(runner, tmp_path / "run", 3, PRESETS["tiny"]["infer"])
    wl.setup(tmp_path / "setup")
    wl.repeat(0)
    assert runner.failed == 0
    raw = bytearray(wl.checkpoint.read_bytes())
    raw[-2] ^= 0x01  # flip a mantissa bit of the last parameter
    wl.checkpoint.write_bytes(bytes(raw))
    wl.repeat(1)
    assert runner.failed == 1
    assert runner.ops[-1].key == "eval"
    assert any("differs from the first repeat" in p for p in runner.ops[-1].problems)


def test_reference_check_exact_and_band():
    reference = {"rel_tol": 1e-7, "seeds": {"3": {"auc": 0.9}}, "band": {"auc": [0.8, 1.0]}}
    op = run.Op("eval", [])
    run.Runner(None, reference, seed=3).check(op, "auc", 0.9)
    assert op.problems == []
    run.Runner(None, reference, seed=3).check(op, "auc", 0.9001)
    assert len(op.problems) == 1
    run.Runner(None, reference, seed=4).check(op, "auc", 0.85)
    run.Runner(None, reference, seed=4).check(op, "auc", 0.7)
    run.Runner(None, reference, seed=4).check(op, "auc", None)
    assert len(op.problems) == 3


def test_missing_function_is_reported_missing_not_zero(program, monkeypatch):
    monkeypatch.delattr(program.fusion, "fuse_svls")
    tracer = tracing.Tracer(program)
    assert "fusion.fuse_svls" in tracer.missing
    values = tracer.metrics([1.0], [1.0])
    assert values["fusion.svls_s"] is None
    assert values["fusion.sc_s"] == 0.0
