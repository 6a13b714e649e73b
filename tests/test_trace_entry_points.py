"""Every entry point the benchmark's tracer wraps must exist: a renamed or
deleted one fails here in seconds instead of failing the traced run."""

import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()
ENTRY_POINTS = [entry for entries in tracer.LAYERS.values() for entry in entries] + [
    (module, path) for _metric, module, path in tracer.COUNTERS
]


@pytest.mark.parametrize("module,path", ENTRY_POINTS, ids=lambda v: v)
def test_tracer_entry_point_resolves(module, path):
    *_, fn = tracer._resolve(module, path)
    assert callable(fn), f"{module}.{path}"
