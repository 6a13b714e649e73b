"""Seeded job-list generators for the four benchmark workloads.

A workload is a fixed list of *templates*.  A template is one query up to
equivalence: its variants ask the same question about conjugate subgroups
or through another generating set, so they cost the same and have
isomorphic answers.  For a seed, `generate` picks one variant per template;
the mix of commands, groups and coefficients, and so the work, is the same
for every seed.  Only the session stream is shuffled: relhom's caches keep
every job's objects alive, so in a list of few large jobs the order moves
the peak memory and the collector's cost by tens of percent.

Only jobs that the CLI accepts under the default budget appear here.  The
pairs that run into the `column_image_basis` entry-growth cliff (C2 x C6
over its subgroup of order 3) are listed in `CLIFF_JOBS` instead: they miss
any sensible deadline, and a workload must be able to finish.
"""

from __future__ import annotations

import hashlib
import json
import random
from functools import lru_cache
from pathlib import Path
from typing import Dict, List, Optional

import grouptables as gt

WORKLOADS = ("compare", "tor-les", "orbit", "session")

# Per-job deadline in seconds.  The slowest job that completes (adamson
# D5 > C2 with regular coefficients) takes about 3.5 s on a 2-CPU Xeon.
DEADLINE_S = 15.0

# Variants kept per template: enough to vary the job documents, few enough
# that the references stay quick to regenerate.
MAX_VARIANTS = 4

CELLS_PATH = Path(__file__).resolve().parent / "data" / "bredon_cells.json"


def _cyc(n: int) -> dict:
    return {"kind": "cyclic", "n": n}


def _prod(*factors: dict) -> dict:
    return {"kind": "direct_product", "factors": list(factors)}


C4, C6, C8 = _cyc(4), _cyc(6), _cyc(8)
V4 = _prod(_cyc(2), _cyc(2))
C2xC4 = _prod(_cyc(2), _cyc(4))
C2xC6 = _prod(_cyc(2), _cyc(6))
C3xC3 = _prod(_cyc(3), _cyc(3))
S3 = {"kind": "symmetric", "n": 3}
S4 = {"kind": "symmetric", "n": 4}
D4 = {"kind": "dihedral", "n": 4}
D5 = {"kind": "dihedral", "n": 5}
D6 = {"kind": "dihedral", "n": 6}
A4 = {"kind": "from_permutations", "generators": [[1, 2, 0, 3], [1, 0, 3, 2]]}

# The order-<=12 corpus of the tor-les workload, by name.
CORPUS = {
    "C4": C4, "C6": C6, "C8": C8, "V4": V4, "C2xC4": C2xC4, "S3": S3,
    "D4": D4, "D5": D5, "D6": D6, "A4": A4, "C2xC6": C2xC6, "C3xC3": C3xC3,
}
# The session workload draws from the groups of order at most 8.
SMALL = ("C4", "C6", "C8", "V4", "C2xC4", "S3", "D4")

CLIFF_JOBS = [
    {
        "command": command,
        "group": C2xC6,
        "subgroup": {"generators": [2]},
        "coefficients": {"kind": kind},
        "degrees": degrees,
    }
    for command, degrees in (("verify-les", "0..3"), ("takasu", "1..4"))
    for kind in ("trivial_Z", "regular")
]


def job_key(doc: dict) -> str:
    """Stable identifier of a job document."""
    canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def subgroup_variants(group: dict, gens: List[int]) -> List[List[int]]:
    """Generator lists of the conjugates of <gens>, interleaved so that the
    first variants are distinct conjugates."""
    t = gt.table(group)
    per_conj = [gt.generating_sets(t, h)[:2] for h in gt.conjugates(t, gt.closure(t, gens))]
    out = [s[i] for i in range(2) for s in per_conj if i < len(s)]
    return out[:MAX_VARIANTS]


def _coefficients(kind: Optional[str], sub: List[int]) -> Optional[dict]:
    if kind is None:
        return None
    if kind == "perm":
        return {"kind": "perm", "generators": sub}
    return {"kind": kind}


def _template(command: str, group: dict, gens: List[int], kind: Optional[str],
              degrees: Optional[str]) -> List[dict]:
    """Variants of one query; a perm module is Z[G/H] for the same H."""
    out = []
    for sub in subgroup_variants(group, gens):
        doc = {"command": command, "group": group, "subgroup": {"generators": sub}}
        coeffs = _coefficients(kind, sub)
        if coeffs is not None:
            doc["coefficients"] = coeffs
        if degrees is not None:
            doc["degrees"] = degrees
        out.append(doc)
    return out


def _pair_classes(names) -> List[tuple]:
    """(group doc, least generating set, index, normal) for every class of
    proper nontrivial subgroups of the named groups."""
    out = []
    for name in names:
        group = CORPUS[name]
        t = gt.table(group)
        for h in gt.subgroup_classes(t):
            out.append((group, gt.generating_sets(t, h)[0], len(t) // len(h), gt.is_normal(t, h)))
    return out


def _is_cliff(group: dict, gens: List[int]) -> bool:
    t = gt.table(group)
    return group == C2xC6 and gt.closure(t, gens) == gt.closure(t, [2])


def _compare_templates() -> List[List[dict]]:
    """Few large comparisons: the malnormal S3 > C2 at 2..4 with three
    coefficient modules, the reference pair C4 > C2, and D4 over a
    reflection, where phi is not an isomorphism."""
    out = [_template("compare", S3, [1], k, "2..4") for k in ("trivial_Z", "perm", "regular")]
    out.append(_template("compare", C4, [2], "trivial_Z", "1..4"))
    out.append(_template("compare", D4, [4], "trivial_Z", "1..3"))
    return out


def _tor_les_templates() -> List[List[dict]]:
    """The Tor side only: verify-les 0..3 on every pair class with
    |G| <= 10 and takasu 1..4 on every pair class with |G| = 12, each with
    trivial and regular coefficients."""
    out = []
    for group, gens, _index, _normal in _pair_classes(CORPUS):
        if _is_cliff(group, gens):
            continue
        small = len(gt.table(group)) <= 10
        command, degrees = ("verify-les", "0..3") if small else ("takasu", "1..4")
        for kind in ("trivial_Z", "regular"):
            out.append(_template(command, group, gens, kind, degrees))
    return out


@lru_cache(maxsize=None)
def _bredon_cells() -> Dict[str, dict]:
    with open(CELLS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def cells_key(group: dict, gens: List[int]) -> str:
    return job_key(group) + ":" + ",".join(map(str, sorted(gens)))


BREDON_PAIRS = ((C4, [2]), (C6, [3]), (S3, [1]))
BREDON_LENGTH = 3


def _orbit_templates() -> List[List[dict]]:
    """Coset and orbit enumeration without a chain lift: adamson on pairs
    of large index, and bredon on the collapsed pair complexes."""
    s4_point_stabilizer = [2, 6]
    out = [_template("adamson", D5, [5], k, "0..3") for k in ("trivial_Z", "perm", "regular")]
    out.append(_template("adamson", A4, [1], "regular", "0..3"))
    out.append(_template("adamson", S4, s4_point_stabilizer, "regular", "0..2"))
    cells = _bredon_cells()
    for group, gens in BREDON_PAIRS:
        for kind in ("trivial_Z", "regular"):
            variants = []
            for sub in subgroup_variants(group, gens):
                variants.append({
                    "command": "bredon",
                    "group": group,
                    "complex": cells[cells_key(group, sub)],
                    "coefficients": {"kind": kind},
                    "degrees": f"0..{BREDON_LENGTH - 1}",
                })
            out.append(variants)
    return out


def _session_templates() -> List[List[dict]]:
    """Small mixed jobs on groups of order <= 8 and index <= 4.  The mix
    leaves out the jobs that take seconds (regular coefficients over index
    4, and compare over index 4 or with regular coefficients)."""
    out = []
    for group, gens, index, normal in _pair_classes(SMALL):
        if index > 4:
            continue

        def add(command, kind=None, degrees=None):
            out.append(_template(command, group, gens, kind, degrees))

        add("jmodule")
        add("takasu", "trivial_Z", "1..3")
        add("takasu", "regular", "1..3")
        add("adamson", "trivial_Z", "0..3")
        add("verify-les", "trivial_Z", "0..2")
        if normal:
            add("oracle-normal", "trivial_Z", "0..3")
        if index <= 3:
            add("adamson", "perm", "0..3")
            add("compare", "trivial_Z", "2..3")
        if index == 2:
            add("verify-les", "regular", "0..2")
            add("compare", "perm", "2..3")
    return out


_TEMPLATES = {
    "compare": _compare_templates,
    "tor-les": _tor_les_templates,
    "orbit": _orbit_templates,
    "session": _session_templates,
}

# Each session query is asked this many times, by value.
SESSION_REPEATS = 2


def templates(workload: str) -> List[List[dict]]:
    if workload not in _TEMPLATES:
        raise ValueError(f"unknown workload {workload!r}")
    return _TEMPLATES[workload]()


def generate(workload: str, seed: int) -> List[dict]:
    """The job list of a workload for a seed."""
    rng = random.Random(f"{workload}:{seed}")
    jobs = [rng.choice(variants) for variants in templates(workload)]
    if workload == "session":
        jobs = jobs * SESSION_REPEATS
        rng.shuffle(jobs)
    return jobs


def distinct_jobs(workload: str) -> List[dict]:
    """Every job document any seed can produce for the workload."""
    return [doc for variants in templates(workload) for doc in variants]
