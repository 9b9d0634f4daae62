"""The benchmark's per-layer tracer wraps package functions by name; a
renamed or deleted target would silently read 0 in every traced run."""

import importlib.util
from pathlib import Path

import prymlab.cli  # noqa: F401  (imports every module the tracer wraps)

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_trace_target_exists():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    t = tracer.Tracer()
    try:
        t.install()
        assert t.missing == []
    finally:
        t.uninstall()
