"""Every entry point the benchmark's tracer wraps must exist: a renamed or
deleted one fails here in seconds instead of failing the traced run.  The
two lift layers must also keep their callers, so their rows keep their
meaning."""

import importlib.util
import sys
from pathlib import Path

import pytest

import relhom as R
from relhom import modres, pairhom

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


def _count_calls(monkeypatch, fn):
    """Replace `fn` by a counting wrapper in every relhom module that holds
    it, by identity, as the tracer replaces its entry points."""
    calls = [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return fn(*args, **kwargs)

    for modname, mod in list(sys.modules.items()):
        if mod is not None and (modname == "relhom" or modname.startswith("relhom.")):
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, attr, counted)
    return calls


def test_lift_layers_keep_their_callers(monkeypatch):
    # pairhom.lift times the comparison's lift only and modres.lift the
    # Tor-side lifts, although both run the one loop in modres; a fresh
    # group starts with an empty memo
    pair_lift = _count_calls(monkeypatch, pairhom._lift_along_exact_target)
    tor_lifts = [
        _count_calls(monkeypatch, modres.horseshoe),
        _count_calls(monkeypatch, modres.lift_over_resolution),
    ]
    c4 = R.cyclic_group(4)
    h = c4.subgroup_generated([2])
    R.comparison(h, R.GModule.trivial(c4), [2])
    assert pair_lift[0] > 0
    assert tor_lifts == [[0], [0]]
    calls = pair_lift[0]
    R.verify_takasu_les(h, R.GModule.trivial(c4), 2)
    assert pair_lift == [calls]
    assert tor_lifts == [[1], [1]]
