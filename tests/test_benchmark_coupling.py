"""perfbench/tracing.py wraps mrcal functions by module attribute. A renamed
or deleted one is recorded as missing and its per-layer metric reads null,
so every name it wraps must exist."""

import importlib.util
from pathlib import Path

import mrcal
import mrcal.cli  # noqa: F401  the benchmark imports the CLI before tracing

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_function_exists():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.Tracer(mrcal).missing == []
