"""Runtime spans around the public entry points of relhom's layers.

`Tracer.install` replaces each entry point named in `LAYERS` with a
wrapper that records a span: layer, function, start, end, parent span and
job.  Modules import many entry points by name (`pairhom` imports
`horseshoe` from `modres`, `cli` imports `comparison` from `pairhom`), so
the wrapper replaces the name in every relhom module that holds it, and
methods are replaced on their class.  A missing entry point raises, so a
rename in the program fails the traced run instead of reporting zeros.

Spans are kept in memory.  The clock they read excludes the tracer's own
bookkeeping (sizing matrices and recording), so self times are the
program's; the bookkeeping shows only in the traced run's wall time.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

# layer -> entry points, as (module, attribute path)
LAYERS: Dict[str, List[Tuple[str, str]]] = {
    "cli.run": [("relhom.cli", "run")],
    "cli.parse": [("relhom.cli", "Job.__init__")],
    "groups": [
        ("relhom.groups", "make_group"),
        ("relhom.groups", "FiniteGroup.subgroup_generated"),
        ("relhom.groups", "coset_space"),
        ("relhom.groups", "all_subgroups"),
        ("relhom.groups", "subgroup_conjugacy_classes"),
        ("relhom.groups", "is_malnormal"),
        ("relhom.groups", "family_gh"),
        ("relhom.groups", "fixed_cosets"),
    ],
    "pairhom": [
        ("relhom.pairhom", "comparison"),
        ("relhom.pairhom", "verify_takasu_les"),
        ("relhom.pairhom", "adamson_homology"),
        ("relhom.pairhom", "takasu_homology"),
        ("relhom.pairhom", "normal_quotient_oracle"),
        ("relhom.pairhom", "j_module"),
    ],
    "pairhom.adamson_cache": [("relhom.pairhom", "adamson_complex")],
    "pairhom.enumerate": [("relhom.pairhom", "AdamsonComplex.__init__")],
    "pairhom.tensor": [("relhom.pairhom", "AdamsonComplex.tensor")],
    "pairhom.lift": [("relhom.pairhom", "_lift_along_exact_target")],
    "modres.resolution_cache": [("relhom.modres", "cached_resolution")],
    "modres.resolve": [
        ("relhom.modres", "resolve"),
        ("relhom.modres", "takasu_resolution"),
        ("relhom.modres", "induce_resolution"),
        ("relhom.modres", "cyclic_resolution"),
    ],
    "modres.lift": [
        ("relhom.modres", "horseshoe"),
        ("relhom.modres", "lift_over_resolution"),
    ],
    "modres.tensor": [
        ("relhom.modres", "tensor_free_resolution"),
        ("relhom.modres", "tensor_perm_complex"),
        ("relhom.modres", "tensor_gmodule_complex"),
    ],
    "bredon": [
        ("relhom.bredon", "build_orbit_category"),
        ("relhom.bredon", "coinvariants_system"),
        ("relhom.bredon", "constant_system"),
        ("relhom.bredon", "bredon_complex"),
        ("relhom.bredon", "takasu_pair_complex"),
    ],
    "exactla.smith": [
        ("relhom.exactla", "smith_form"),
        ("relhom.exactla", "smith_invariants"),
        ("relhom.exactla", "rank_z"),
        ("relhom.exactla", "kernel_basis"),
        ("relhom.exactla", "IntSolver.__init__"),
        ("relhom.exactla", "HomologyData.__init__"),
    ],
    "exactla.solve": [("relhom.exactla", "IntSolver.solve")],
    "exactla.lattice": [("relhom.exactla", "column_image_basis")],
    "exactla.cone": [
        ("relhom.exactla", "PresentedComplex.cone"),
        ("relhom.exactla", "PresentedChainMap.cone_map"),
        ("relhom.exactla", "PresentedComplex.solve_relations"),
    ],
    "exactla.homology": [
        ("relhom.exactla", "homology_group"),
        ("relhom.exactla", "induced_map"),
        ("relhom.exactla", "hom_kernel"),
        ("relhom.exactla", "hom_cokernel"),
        ("relhom.exactla", "sequence_exact_at"),
    ],
}

# Calls counted without a span: (metric, module, attribute path).
COUNTERS = [("exactla.lattice.inserts", "relhom.exactla", "LatticeAccumulator.insert")]

# The per-layer metrics a traced run reports: (name, unit, better).  A hit
# ratio is reported next to its base, the calls of the same layer.
_S, _N = "s", "count"
PER_LAYER = [
    ("cli.parse.self_s", _S, "lower"),
    ("cli.run.self_s", _S, "lower"),
    ("groups.self_s", _S, "lower"),
    ("groups.calls", _N, "lower"),
    ("pairhom.self_s", _S, "lower"),
    ("pairhom.enumerate.self_s", _S, "lower"),
    ("pairhom.enumerate.calls", _N, "lower"),
    ("pairhom.enumerate.tuples", _N, "lower"),
    ("pairhom.tensor.self_s", _S, "lower"),
    ("pairhom.tensor.calls", _N, "lower"),
    ("pairhom.tensor.max_rank", _N, "lower"),
    ("pairhom.tensor.hit_ratio", "ratio", "higher"),
    ("pairhom.lift.self_s", _S, "lower"),
    ("pairhom.lift.incl_s", _S, "lower"),
    ("pairhom.lift.solves", _N, "lower"),
    ("pairhom.lift.max_cells", "cells", "lower"),
    ("pairhom.adamson_cache.calls", _N, "lower"),
    ("pairhom.adamson_cache.hit_ratio", "ratio", "higher"),
    ("modres.resolve.self_s", _S, "lower"),
    ("modres.resolve.calls", _N, "lower"),
    ("modres.resolve.max_rank", _N, "lower"),
    ("modres.resolution_cache.calls", _N, "lower"),
    ("modres.resolution_cache.hit_ratio", "ratio", "higher"),
    ("modres.lift.self_s", _S, "lower"),
    ("modres.lift.solves", _N, "lower"),
    ("modres.tensor.self_s", _S, "lower"),
    ("modres.tensor.max_rank", _N, "lower"),
    ("bredon.self_s", _S, "lower"),
    ("bredon.max_rank", _N, "lower"),
    ("exactla.smith.self_s", _S, "lower"),
    ("exactla.smith.calls", _N, "lower"),
    ("exactla.smith.max_cells", "cells", "lower"),
    ("exactla.smith.max_entry_bits", "bits", "lower"),
    ("exactla.solve.self_s", _S, "lower"),
    ("exactla.solve.calls", _N, "lower"),
    ("exactla.lattice.self_s", _S, "lower"),
    ("exactla.lattice.calls", _N, "lower"),
    ("exactla.lattice.max_cells", "cells", "lower"),
    ("exactla.lattice.max_entry_bits", "bits", "lower"),
    ("exactla.lattice.inserts", _N, "lower"),
    ("exactla.cone.self_s", _S, "lower"),
    ("exactla.cone.relation_solves", _N, "lower"),
    ("exactla.homology.self_s", _S, "lower"),
    ("tracer.overhead_ratio", "ratio", "lower"),
]


def _entry_bits(*mats) -> int:
    best = 0
    for m in mats:
        for row in m.data:
            if row:
                best = max(best, max(row), -min(row))
    return best.bit_length()


def _cells(*mats) -> int:
    return max(m.rows * m.cols for m in mats)


def _max_rank(cx) -> int:
    return max(cx.ranks, default=0)


# Span attributes read from arguments (before the call) and from the result
# (after it), keyed by function name.
def _before(func: str, args) -> Optional[dict]:
    if func in ("smith_form", "smith_invariants", "rank_z", "kernel_basis",
                "column_image_basis"):
        return {"cells": _cells(args[0]), "bits": _entry_bits(args[0])}
    if func in ("IntSolver.__init__", "HomologyData.__init__"):
        mats = args[1:3]
        return {"cells": _cells(*mats), "bits": _entry_bits(*mats)}
    if func == "AdamsonComplex.tensor":
        return {"cached": len(args[0]._tensor_cache)}
    return None


def _after(func: str, args, result, attrs: Optional[dict]) -> Optional[dict]:
    if func == "AdamsonComplex.__init__":
        return {"tuples": sum(len(t) for t in args[0].tuples)}
    if func == "AdamsonComplex.tensor":
        return {"rank": _max_rank(result), "hit": len(args[0]._tensor_cache) == attrs["cached"]}
    if func in ("resolve", "takasu_resolution", "induce_resolution", "cyclic_resolution"):
        return {"rank": max(result.free_ranks, default=0) * result.group.order}
    if func in ("tensor_free_resolution", "tensor_perm_complex",
                "tensor_gmodule_complex", "bredon_complex"):
        return {"rank": _max_rank(result)}
    if func == "column_image_basis":
        return {"cells": attrs["cells"], "bits": max(attrs["bits"], _entry_bits(result))}
    return attrs


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *outer, name = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, name, getattr(owner, name)


class Tracer:
    """Records spans of one worker's jobs."""

    def __init__(self):
        self.job: Optional[int] = None
        # span: [layer, func, start, end, parent, job, attrs]
        self.spans: List[list] = []
        self.counts: Dict[str, int] = {}
        self._stack: List[int] = []
        self._paused = 0.0

    def pause(self, seconds: float):
        """Leave `seconds` that just went by (a speed sample) out of the
        span clock."""
        self._paused += seconds

    def _span_wrapper(self, layer: str, func: str, fn: Callable) -> Callable:
        tracer = self

        def wrapper(*args, **kwargs):
            t_enter = time.perf_counter()
            attrs = _before(func, args)
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else None
            span = [layer, func, 0.0, 0.0, parent, tracer.job, attrs]
            tracer.spans.append(span)
            tracer._stack.append(idx)
            t0 = time.perf_counter()
            tracer._paused += t0 - t_enter
            span[2] = t0 - tracer._paused
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                span[3] = t1 - tracer._paused
                tracer._stack.pop()
            span[6] = _after(func, args, result, attrs)
            tracer._paused += time.perf_counter() - t1
            return result

        return functools.wraps(fn)(wrapper)

    def _count_wrapper(self, metric: str, fn: Callable) -> Callable:
        counts = self.counts
        counts[metric] = 0

        def wrapper(*args, **kwargs):
            counts[metric] += 1
            return fn(*args, **kwargs)

        return functools.wraps(fn)(wrapper)

    def install(self):
        """Replace every entry point by its wrapper."""
        for layer, entries in LAYERS.items():
            for module, path in entries:
                self._replace(module, path, lambda fn: self._span_wrapper(layer, path, fn))
        for metric, module, path in COUNTERS:
            self._replace(module, path, lambda fn: self._count_wrapper(metric, fn))

    @staticmethod
    def _replace(module: str, path: str, make_wrapper: Callable):
        owner, name, orig = _resolve(module, path)
        wrapper = make_wrapper(orig)
        if isinstance(owner, type):
            setattr(owner, name, wrapper)
            return
        replaced = 0
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "relhom" or modname.startswith("relhom.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, wrapper)
                    replaced += 1
        if not replaced:
            raise RuntimeError(f"{module}.{path} is bound in no relhom module")

    def fired(self) -> set:
        """The layers with at least one span."""
        return {span[0] for span in self.spans}

    def write(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["layer", "func", "start", "end", "parent", "job", "attrs"],
                       "spans": self.spans}, fh)

    def summary(self) -> Dict[str, float]:
        """Per-layer metrics of the recorded spans, a superset of PER_LAYER
        without the overhead ratio."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        children: List[List[int]] = [[] for _ in spans]
        for i, (_l, _f, start, end, parent, _j, _a) in enumerate(spans):
            if parent is not None:
                child_time[parent] += end - start
                children[parent].append(i)

        def under(i: int, layer: str) -> bool:
            p = spans[i][4]
            while p is not None:
                if spans[p][0] == layer:
                    return True
                p = spans[p][4]
            return False

        m: Dict[str, float] = {f"{layer}.self_s": 0.0 for layer in LAYERS}
        m.update({f"{layer}.calls": 0 for layer in LAYERS})
        for key in ("pairhom.enumerate.tuples", "pairhom.tensor.max_rank",
                    "pairhom.tensor.hits", "pairhom.lift.solves",
                    "pairhom.lift.max_cells", "pairhom.adamson_cache.hits",
                    "modres.resolve.max_rank", "modres.resolution_cache.hits",
                    "modres.lift.solves", "modres.tensor.max_rank", "bredon.max_rank",
                    "exactla.smith.max_cells", "exactla.smith.max_entry_bits",
                    "exactla.lattice.max_cells", "exactla.lattice.max_entry_bits",
                    "exactla.cone.relation_solves"):
            m[key] = 0
        m["pairhom.lift.incl_s"] = 0.0
        for i, (layer, func, start, end, _p, _j, attrs) in enumerate(spans):
            m[f"{layer}.self_s"] += end - start - child_time[i]
            m[f"{layer}.calls"] += 1
            attrs = attrs or {}
            if "rank" in attrs:
                m[f"{layer}.max_rank"] = max(m[f"{layer}.max_rank"], attrs["rank"])
            if "cells" in attrs and layer.startswith("exactla."):
                m[f"{layer}.max_cells"] = max(m[f"{layer}.max_cells"], attrs["cells"])
                m[f"{layer}.max_entry_bits"] = max(m[f"{layer}.max_entry_bits"], attrs["bits"])
            if layer == "pairhom.enumerate":
                m["pairhom.enumerate.tuples"] += attrs.get("tuples", 0)
            elif layer == "pairhom.tensor":
                m["pairhom.tensor.hits"] += attrs.get("hit", False)
            elif layer == "pairhom.lift":
                m["pairhom.lift.incl_s"] += end - start
            elif layer == "pairhom.adamson_cache":
                m["pairhom.adamson_cache.hits"] += not any(
                    spans[c][0] == "pairhom.enumerate" for c in children[i])
            elif layer == "modres.resolution_cache":
                m["modres.resolution_cache.hits"] += not any(
                    spans[c][0] == "modres.resolve" for c in children[i])
            elif layer == "exactla.solve":
                for owner in ("pairhom.lift", "modres.lift"):
                    if under(i, owner):
                        m[f"{owner}.solves"] += 1
            elif layer == "exactla.smith" and under(i, "pairhom.lift"):
                m["pairhom.lift.max_cells"] = max(m["pairhom.lift.max_cells"], attrs["cells"])
            if func == "PresentedComplex.solve_relations":
                m["exactla.cone.relation_solves"] += 1
        for cache in ("pairhom.tensor", "pairhom.adamson_cache", "modres.resolution_cache"):
            calls = m[f"{cache}.calls"]
            m[f"{cache}.hit_ratio"] = m.pop(f"{cache}.hits") / calls if calls else 0.0
        m.update(self.counts)
        return m
