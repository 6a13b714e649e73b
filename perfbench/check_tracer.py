"""Tracer coverage: each layer fires on the workload meant to exercise it.

Entry points are imported by name across relhom's modules, so a wrapper
that replaced only the defining module would miss calls and report zero.
"""

import json

import pytest

import run
import tracer
import workloads

# layer -> the workloads on which it must fire
EXPECTED = {
    "cli.run": workloads.WORKLOADS,
    "cli.parse": workloads.WORKLOADS,
    "groups": ("compare", "session"),
    "pairhom": workloads.WORKLOADS,
    "pairhom.adamson_cache": ("compare", "orbit", "session"),
    "pairhom.enumerate": ("compare", "orbit", "session"),
    "pairhom.tensor": ("compare", "orbit", "session"),
    "pairhom.lift": ("compare", "session"),
    "modres.resolution_cache": ("compare", "tor-les", "session"),
    "modres.resolve": ("compare", "tor-les", "session"),
    "modres.lift": ("tor-les", "session"),
    "modres.tensor": ("compare", "tor-les", "session"),
    "bredon": ("orbit",),
    "exactla.smith": workloads.WORKLOADS,
    "exactla.solve": ("compare", "tor-les", "session"),
    "exactla.lattice": workloads.WORKLOADS,
    "exactla.cone": ("compare", "tor-les", "orbit", "session"),
    "exactla.homology": workloads.WORKLOADS,
}


def test_every_layer_is_expected_somewhere():
    assert set(EXPECTED) == set(tracer.LAYERS)


@pytest.fixture(scope="module")
def traced_passes():
    spec = {"seed": 5, "deadline": workloads.DEADLINE_S, "trace": True}
    return {w: run.spawn(dict(spec, workload=w), run.now()) for w in workloads.WORKLOADS}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_layers_fire_on_their_workloads(traced_passes, workload):
    fired = set(traced_passes[workload]["fired"])
    missing = {layer for layer, ws in EXPECTED.items() if workload in ws} - fired
    assert not missing


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_pass_is_correct_and_accounted(traced_passes, workload):
    out = traced_passes[workload]
    with open(run.REFS, encoding="utf-8") as fh:
        refs = json.load(fh)
    assert run.check_pass(out, refs) == [""] * len(out["jobs"])
    layers = out["layers"]
    assert set(name for name, _u, _b in tracer.PER_LAYER) - set(layers) == {"tracer.overhead_ratio"}
    self_total = sum(v for k, v in layers.items() if k.endswith(".self_s"))
    assert 0 < self_total <= out["t_last"] - out["t_first"]
