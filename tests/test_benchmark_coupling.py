"""perfbench/tracing.py wraps mrcal functions by module attribute. A renamed
or deleted one is recorded as missing and its per-layer metric reads null,
so every name it wraps must exist. Its spans share one stack across threads,
so a wrapped function must never run on a worker thread either."""

import functools
import importlib.util
import threading
from pathlib import Path

import mrcal
import mrcal.cli  # noqa: F401  the benchmark imports the CLI before tracing
from mrcal.cli import main

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_function_exists():
    assert _tracing().Tracer(mrcal).missing == []


def test_traced_functions_run_on_the_main_thread(monkeypatch, tmp_path):
    """Every function the tracer wraps, replaced as the tracer replaces it
    (on its class, or wherever an mrcal module binds it), records its thread
    through synth, train, eval and sweep on 4 workers."""
    tracing = _tracing()
    calls = []

    def recording(name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls.append((name, threading.current_thread()))
            return fn(*args, **kwargs)

        return wrapper

    for (module_name, path), (owner, attr, fn) in tracing.Tracer(mrcal).targets.items():
        wrapper = recording(f"{module_name}.{path}", fn)
        if isinstance(owner, type):
            monkeypatch.setattr(owner, attr, wrapper)
            continue
        for bound_in in tracing.MODULES:
            module = getattr(mrcal, bound_in)
            for name, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, name, wrapper)

    monkeypatch.setenv("MRCAL_THREADS", "4")
    data, ckpt = tmp_path / "ds", tmp_path / "rps.mrc"
    # 72x72 is two inference bands; 14 samples give 2 val and 3 test images
    for argv in (
        ["synth", "--out", str(data), "--n", "14", "--size", "72"],
        ["train", "--data", str(data), "--loss", "rps", "--epochs", "1", "--out", str(ckpt)],
        ["train", "--data", str(data), "--loss", "sc", "--epochs", "1",
         "--out", str(tmp_path / "sc.mrc")],
        ["eval", "--model", str(ckpt), "--data", str(data)],
        ["eval", "--model", str(tmp_path / "sc.mrc"), "--data", str(data)],
        ["eval", "--model", "oracle", "--data", str(data)],
        ["sweep", "--data", str(data), "--values", "0.8", "--epochs", "1"],
    ):
        assert main(argv) == 0, argv
    called = {name for name, _ in calls}
    for name in ("synthgen.generate", "model.predict", "model.train", "metrics.bootstrap_eval"):
        assert name in called
    off_main = {name for name, thread in calls if thread is not threading.main_thread()}
    assert off_main == set()
