"""Batch front end: parse a computation job from JSON, dispatch to the
kernel, and emit a fixed-width table or a machine-readable document.

Exit codes: 0 success, 2 validation error, 3 budget exhaustion, 4 a
verification command found a failure (an inexact sequence slot or an
oracle mismatch).
"""

from __future__ import annotations

import json
import os
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

from . import __version__
from .errors import BudgetError, RelhomError, TruncationError, ValidationError
from .exactla import IntMatrix, _is_int, smith_invariants
from .groups import (
    FiniteGroup,
    Subgroup,
    family_generated,
    family_gh,
    is_good_triple,
    is_malnormal,
    make_group,
)
from .modres import DEFAULT_RANK_CAP, GModule
from .bredon import GCWData, bredon_complex
from .pairhom import (
    adamson_homology,
    comparison,
    j_module,
    normal_quotient_oracle,
    takasu_homology,
    verify_takasu_les,
)

DEFAULT_DEGREE_CAP = 6

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_BUDGET = 3
EXIT_VERIFICATION = 4

COMMANDS = (
    "adamson",
    "takasu",
    "compare",
    "verify-les",
    "malnormal",
    "family",
    "jmodule",
    "good-triple",
    "bredon",
    "oracle-normal",
)


class JobError(ValidationError):
    """Validation error located at a job field."""

    def __init__(self, path: str, reason: str):
        super().__init__(f"{path}: {reason}")
        self.path = path
        self.reason = reason


def _expect(doc: dict, path: str, key: str, types, required: bool = True, default=None):
    if key not in doc:
        if required:
            raise JobError(f"{path}.{key}", "missing field")
        return default
    val = doc[key]
    if types is not None and not (_is_int(val) if types is int else isinstance(val, types)):
        raise JobError(f"{path}.{key}", f"expected {types}, got {type(val).__name__}")
    return val


def parse_group(doc: dict, path: str) -> FiniteGroup:
    kind = _expect(doc, path, "kind", str)
    try:
        if kind == "cyclic":
            return make_group("cyclic", int(_expect(doc, path, "n", int)))
        if kind == "dihedral":
            return make_group("dihedral", int(_expect(doc, path, "n", int)))
        if kind == "symmetric":
            return make_group("symmetric", int(_expect(doc, path, "n", int)))
        if kind == "direct_product":
            factors = _expect(doc, path, "factors", list)
            if len(factors) < 2:
                raise JobError(f"{path}.factors", "need at least two factors")
            groups = [
                parse_group(f, f"{path}.factors[{i}]") for i, f in enumerate(factors)
            ]
            out = groups[0]
            for g in groups[1:]:
                out = make_group("direct_product", out, g)
            return out
        if kind == "from_permutations":
            gens = _expect(doc, path, "generators", list)
            degree = _expect(doc, path, "degree", int, required=False)
            return make_group("from_permutations", gens, degree)
    except JobError:
        raise
    except (ValidationError, TypeError, ValueError) as exc:
        raise JobError(path, str(exc))
    raise JobError(f"{path}.kind", f"unknown group kind {kind!r}")


def parse_subgroup(group: FiniteGroup, doc: Optional[dict], path: str) -> Subgroup:
    if doc is None:
        raise JobError(path, "missing field")
    gens = _expect(doc, path, "generators", list)
    if not all(_is_int(g) for g in gens):
        raise JobError(f"{path}.generators", "expected integers")
    try:
        return group.subgroup_generated(gens)
    except (ValidationError, TypeError, ValueError) as exc:
        raise JobError(f"{path}.generators", str(exc))


def parse_coefficients(group: FiniteGroup, doc: Optional[dict], path: str) -> GModule:
    if doc is None:
        doc = {"kind": "trivial_Z"}
    kind = _expect(doc, path, "kind", str)
    try:
        if kind == "trivial_Z":
            return GModule.trivial(group)
        if kind == "trivial_Zmod":
            return GModule.trivial_mod(group, int(_expect(doc, path, "k", int)))
        if kind == "perm":
            k_sub = parse_subgroup(group, doc, path)
            return GModule.permutation(k_sub)
        if kind == "regular":
            return GModule.regular(group)
        if kind == "custom":
            mats = _expect(doc, path, "matrices", list)
            for i, mat in enumerate(mats):
                if not isinstance(mat, list) or not all(
                    isinstance(row, list) and all(_is_int(x) for x in row) for row in mat
                ):
                    raise JobError(f"{path}.matrices[{i}]", "expected a matrix of integers")
            return GModule.from_action_matrices(
                group, [IntMatrix(m) for m in mats], label="custom"
            )
    except JobError:
        raise
    except (ValidationError, TypeError, ValueError) as exc:
        raise JobError(path, str(exc))
    raise JobError(f"{path}.kind", f"unknown coefficient kind {kind!r}")


def parse_degrees(spec, path: str, default: Tuple[int, int]) -> Tuple[int, int]:
    if spec is None:
        return default
    if isinstance(spec, str):
        parts = spec.split("..")
        if len(parts) != 2:
            raise JobError(path, "expected the form A..B")
        try:
            lo, hi = int(parts[0]), int(parts[1])
        except ValueError:
            raise JobError(path, "expected integers in A..B")
    elif isinstance(spec, list) and len(spec) == 2:
        if not all(_is_int(x) for x in spec):
            raise JobError(path, "expected integers in [A, B]")
        lo, hi = spec
    else:
        raise JobError(path, "expected 'A..B' or [A, B]")
    if lo > hi or lo < 0:
        raise JobError(path, f"bad degree range {lo}..{hi}")
    return lo, hi


def _parse_cap(value, path: str, least: int) -> int:
    """A budget cap: an integer, or a string of one, at least `least`."""
    cap = value
    if isinstance(value, str):
        try:
            cap = int(value)
        except ValueError:
            pass
    if isinstance(cap, bool) or not isinstance(cap, int):
        raise JobError(path, f"expected an integer, got {value!r}")
    if cap < least:
        raise JobError(path, f"must be at least {least}, got {cap}")
    return cap


class Job:
    """A validated computation job."""

    def __init__(self, doc: dict, overrides: Optional[dict] = None):
        overrides = overrides or {}
        if not isinstance(doc, dict):
            raise JobError("job", "job document must be an object")
        self.echo = doc
        self.command = _expect(doc, "job", "command", str)
        if self.command not in COMMANDS:
            raise JobError("job.command", f"unknown command {self.command!r}")
        self.group = parse_group(_expect(doc, "job", "group", dict), "job.group")
        self.output = overrides.get("output") or doc.get("output", "table")
        if self.output not in ("table", "json"):
            raise JobError("job.output", f"unknown output format {self.output!r}")
        budget_doc = doc.get("budget", {})
        if not isinstance(budget_doc, dict):
            raise JobError("job.budget", "expected an object")
        env_cap = os.environ.get("RELHOM_BUDGET")
        if overrides.get("budget") is not None:
            self.rank_cap = _parse_cap(overrides["budget"], "--budget", 1)
        elif budget_doc.get("rank_cap") is not None:
            self.rank_cap = _parse_cap(budget_doc["rank_cap"], "job.budget.rank_cap", 1)
        elif env_cap:
            self.rank_cap = _parse_cap(env_cap, "RELHOM_BUDGET", 1)
        else:
            self.rank_cap = DEFAULT_RANK_CAP
        self.degree_cap = _parse_cap(
            budget_doc.get("degree_cap", DEFAULT_DEGREE_CAP), "job.budget.degree_cap", 0
        )
        degree_spec = overrides.get("degrees") or doc.get("degrees")
        needs_subgroup = self.command not in ("bredon",)
        self.subgroup = (
            parse_subgroup(self.group, doc.get("subgroup"), "job.subgroup")
            if needs_subgroup
            else None
        )
        self.subgroup2 = (
            parse_subgroup(self.group, doc.get("subgroup2"), "job.subgroup2")
            if self.command == "good-triple"
            else None
        )
        needs_coeffs = self.command in (
            "adamson",
            "takasu",
            "compare",
            "verify-les",
            "bredon",
            "oracle-normal",
        )
        self.coefficients = (
            parse_coefficients(self.group, doc.get("coefficients"), "job.coefficients")
            if needs_coeffs
            else None
        )
        defaults = {
            "adamson": (0, 4),
            "takasu": (1, 4),
            "compare": (1, 4),
            "verify-les": (0, 3),
            "bredon": (0, 2),
            "oracle-normal": (0, 4),
        }
        if self.command in defaults:
            self.degrees = parse_degrees(
                degree_spec, "job.degrees", defaults[self.command]
            )
            if self.degrees[1] > self.degree_cap:
                raise BudgetError(
                    "requested degree range", self.degrees[1], self.degree_cap
                )
        else:
            self.degrees = None
        if self.command == "bredon":
            cx_doc = _expect(doc, "job", "complex", dict)
            try:
                self.complex = GCWData.from_json(self.group, cx_doc)
            except (ValidationError, KeyError, TypeError) as exc:
                raise JobError("job.complex", str(exc))
        else:
            self.complex = None


def _phi_description(entry) -> str:
    if entry.is_zero:
        return "zero"
    if entry.is_iso:
        return "iso"
    inv = smith_invariants(entry.matrix)
    return "diag(" + ",".join(str(d) for d in inv) + ")"


def _one_complex(ask, lo: int, hi: int) -> list:
    """`ask(n, truncation)` for the degrees n = lo..hi, all read from one
    coset-tuple complex truncated at hi + 1, so that a job enumerates and
    tensors it once.  Over budget, the degrees are asked again in
    ascending order, each at truncation n + 1, so that the job fails with
    the error of the first degree over budget, as degree-by-degree calls
    do."""
    try:
        return [ask(n, hi + 1) for n in range(lo, hi + 1)]
    except BudgetError:
        return [ask(n, n + 1) for n in range(lo, hi + 1)]


def run(job: Job) -> Dict[str, Any]:
    """Execute the job and return the result document."""
    t0 = time.time()
    results: Dict[str, Any] = {}
    ok = True
    cmd = job.command
    if cmd == "adamson":
        lo, hi = job.degrees
        groups = _one_complex(
            lambda n, top: adamson_homology(job.subgroup, job.coefficients, n, job.rank_cap, top),
            lo, hi,
        )
        results["rows"] = [
            {"degree": n, "group": str(g)} for n, g in zip(range(lo, hi + 1), groups)
        ]
    elif cmd == "takasu":
        lo, hi = job.degrees
        results["rows"] = [
            {"degree": n, "group": str(takasu_homology(job.subgroup, job.coefficients, n, rank_cap=job.rank_cap))}
            for n in range(lo, hi + 1)
        ]
    elif cmd == "compare":
        lo, hi = job.degrees
        data = comparison(job.subgroup, job.coefficients, range(lo, hi + 1), job.rank_cap)
        rows = []
        for n in range(lo, hi + 1):
            d = data.phi(n)
            rows.append(
                {
                    "degree": n,
                    "takasu": str(d.takasu),
                    "adamson": str(d.adamson),
                    "phi": _phi_description(d),
                    "matrix": d.matrix.to_rows(),
                    "kernel": str(d.kernel),
                    "cokernel": str(d.cokernel),
                }
            )
        results["rows"] = rows
    elif cmd == "verify-les":
        lo, hi = job.degrees
        cert = verify_takasu_les(job.subgroup, job.coefficients, hi, job.rank_cap)
        results["slots"] = [
            {"slot": s.label, "exact": s.exact, "detail": s.detail}
            for s in cert.slots
        ]
        results["groups"] = {k: str(v) for k, v in sorted(cert.groups.items())}
        results["shapiro_identification"] = cert.shapiro_ok
        results["all_exact"] = cert.all_exact
        ok = cert.all_exact
    elif cmd == "malnormal":
        results["malnormal"] = is_malnormal(job.subgroup)
    elif cmd == "family":
        fam = family_generated(job.subgroup)
        gh = family_gh(job.subgroup)
        results["family_generated"] = [
            list(k.elements) for k in fam.sorted_members()
        ]
        results["family_two_coset"] = [list(k.elements) for k in gh.sorted_members()]
    elif cmd == "jmodule":
        rep = j_module(job.subgroup)
        results["entries"] = [
            {
                "subgroup": list(e.subgroup.elements),
                "class_size": e.class_size,
                "fixed_cosets": e.fixed_count,
                "value": str(e.value),
                "in_two_coset_family": e.in_gh_family,
            }
            for e in rep.entries
        ]
        results["all_trivial"] = rep.all_trivial()
    elif cmd == "good-triple":
        if not job.subgroup.contains_subgroup(job.subgroup2):
            raise JobError("job.subgroup2", "second subgroup must lie in the first")
        good, witness = is_good_triple(job.subgroup, job.subgroup2)
        results["good_triple"] = good
        if witness is not None:
            results["witness"] = witness
    elif cmd == "bredon":
        lo, hi = job.degrees
        cx = bredon_complex(job.complex, job.coefficients, job.rank_cap)
        results["rows"] = [
            {"degree": n, "group": str(cx.homology(n))} for n in range(lo, hi + 1)
        ]
    elif cmd == "oracle-normal":
        lo, hi = job.degrees
        rows = []
        all_match = True
        reports = _one_complex(
            lambda n, top: normal_quotient_oracle(job.subgroup, job.coefficients, n, job.rank_cap, top),
            lo, hi,
        )
        for n, rep in zip(range(lo, hi + 1), reports):
            rows.append(
                {
                    "degree": n,
                    "adamson": str(rep.adamson),
                    "quotient": str(rep.quotient_value),
                    "match": rep.match,
                }
            )
            all_match = all_match and rep.match
        results["rows"] = rows
        results["all_match"] = all_match
        ok = all_match
    document = {
        "toolkit": "relhom",
        "version": __version__,
        "command": cmd,
        "job": job.echo,
        "results": results,
        "ok": ok,
        "elapsed_seconds": round(time.time() - t0, 6),
    }
    return document


def _format_cell(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _table(headers: List[str], rows: List[List[Any]]) -> str:
    cells = [[_format_cell(v) for v in row] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
        for i, h in enumerate(headers)
    ]
    lines = [" | ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()]
    lines.append("-+-".join("-" * w for w in widths))
    for row in cells:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines)


def print_table(document: Dict[str, Any]) -> str:
    """Fixed-width rendering of a result document; byte-stable for a fixed
    document."""
    cmd = document["command"]
    results = document["results"]
    if cmd in ("adamson", "takasu", "bredon"):
        return _table(
            ["degree", "group"],
            [[r["degree"], r["group"]] for r in results["rows"]],
        )
    if cmd == "compare":
        return _table(
            ["degree", "takasu", "adamson", "phi"],
            [
                [r["degree"], r["takasu"], r["adamson"], r["phi"]]
                for r in results["rows"]
            ],
        )
    if cmd == "verify-les":
        body = _table(
            ["slot", "exact"],
            [[s["slot"], s["exact"]] for s in results["slots"]],
        )
        return body + "\nall exact: " + _format_cell(results["all_exact"])
    if cmd == "malnormal":
        return "malnormal: " + _format_cell(results["malnormal"])
    if cmd == "family":
        lines = ["family generated by H:"]
        lines += ["  " + str(k) for k in results["family_generated"]]
        lines.append("two-coset stabilizer family:")
        lines += ["  " + str(k) for k in results["family_two_coset"]]
        return "\n".join(lines)
    if cmd == "jmodule":
        body = _table(
            ["subgroup", "class", "fixed", "J", "in_family"],
            [
                [
                    str(e["subgroup"]),
                    e["class_size"],
                    e["fixed_cosets"],
                    e["value"],
                    e["in_two_coset_family"],
                ]
                for e in results["entries"]
            ],
        )
        return body + "\nall trivial: " + _format_cell(results["all_trivial"])
    if cmd == "good-triple":
        line = "good triple: " + _format_cell(results["good_triple"])
        if "witness" in results:
            line += f"\nwitness: {results['witness']}"
        return line
    if cmd == "oracle-normal":
        body = _table(
            ["degree", "adamson", "quotient", "match"],
            [
                [r["degree"], r["adamson"], r["quotient"], r["match"]]
                for r in results["rows"]
            ],
        )
        return body + "\nall match: " + _format_cell(results["all_match"])
    raise ValidationError(f"no table renderer for command {cmd!r}")


def print_json(document: Dict[str, Any]) -> str:
    return json.dumps(document, indent=2, sort_keys=True)


def main(argv: Optional[List[str]] = None) -> int:
    import argparse  # only the command line needs it; library imports stay light

    parser = argparse.ArgumentParser(
        prog="relhom",
        description="Exact relative group homology computations for pairs of finite groups.",
    )
    parser.add_argument("--job", required=True, help="path to a JSON job file")
    parser.add_argument(
        "--output", choices=("table", "json"), default=None, help="output format"
    )
    parser.add_argument("--degrees", default=None, help="degree range A..B")
    parser.add_argument(
        "--budget", type=int, default=None, help="rank cap per chain degree"
    )
    args = parser.parse_args(argv)
    try:
        with open(args.job, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        print(f"error: cannot read job file: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except json.JSONDecodeError as exc:
        print(f"error: job file is not valid JSON: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    overrides = {
        "output": args.output,
        "degrees": args.degrees,
        "budget": args.budget,
    }
    # the format errors are reported in; a document that is not an object
    # is refused by Job and names none
    output = args.output or (doc.get("output", "table") if isinstance(doc, dict) else "table")
    try:
        job = Job(doc, overrides)
        document = run(job)
    except BudgetError as exc:
        _emit_error(output, "budget", str(exc))
        return EXIT_BUDGET
    except (ValidationError, TruncationError) as exc:
        _emit_error(output, "validation", str(exc))
        return EXIT_VALIDATION
    except RelhomError as exc:
        _emit_error(output, "error", str(exc))
        return EXIT_VALIDATION
    if job.output == "json":
        print(print_json(document))
    else:
        print(print_table(document))
    return EXIT_OK if document["ok"] else EXIT_VERIFICATION


def _emit_error(output: str, kind: str, message: str):
    if output == "json":
        print(json.dumps({"error": {"kind": kind, "message": message}}, sort_keys=True))
    else:
        print(f"error ({kind}): {message}", file=sys.stderr)


if __name__ == "__main__":
    raise SystemExit(main())
