"""relhom benchmark: CLI job lists run in fresh worker interpreters.

    python3 perfbench/run.py --workload compare --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 28 --trace 1
    python3 perfbench/run.py --refs

A run repeats *passes* until `--seconds` have gone by.  A pass spawns one
worker interpreter, which imports relhom.cli from `src/`, generates the
workload's job list from the seed and runs the jobs one after another with
cold caches.  Answers are checked against `refs.json` after the pass, out
of the timed region.  Times are reported at a reference machine speed,
scaled by calibration samples taken alongside the jobs (`speed.py`).  With
`--trace 1` the passes alternate between untraced and traced, and the run
reports the per-layer metrics of the traced passes and the tracing
overhead instead of the end-to-end metrics.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  `--refs` regenerates the
bredon cell data and the reference answers, one fresh interpreter per job.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

import speed
import tracer
import workloads
from speed import now

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKER = BENCH / "worker.py"
REFS = BENCH / "refs.json"
RESULTS = BENCH / "results"

# Set-up samples per run, each from a set-up-only worker.
SETUP_SAMPLES = 11
# Calibration samples the parent takes before and after each of them.
SETUP_CAL = 3
# A run gives up (and fails) rather than outlive this many seconds.
RUN_LIMIT_S = 170.0

END_TO_END = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("job_p50_ms", "ms"),
    ("job_p95_ms", "ms"),
]


class BenchError(Exception):
    pass


def spawn(spec: dict, t_begin: float) -> dict:
    """Run one worker; return its document with `t_spawn` added."""
    spec = dict(spec, src=str(SRC))
    env = {k: v for k, v in os.environ.items() if k != "RELHOM_BUDGET"}
    left = RUN_LIMIT_S - (now() - t_begin)
    if left <= 0:
        raise BenchError(f"run exceeded {RUN_LIMIT_S} s")
    t_spawn = now()
    try:
        proc = subprocess.run(
            [sys.executable, "-I", str(WORKER)], input=json.dumps(spec),
            capture_output=True, text=True, env=env, cwd=ROOT, timeout=left,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker outlived the run limit of {RUN_LIMIT_S} s")
    if proc.returncode != 0:
        raise BenchError(f"worker failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["t_spawn"] = t_spawn
    return out


def canon(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def check_pass(out: dict, refs: Dict[str, dict]) -> List[str]:
    """Failure kind of each job of a pass, or "" for a correct answer."""
    kinds = []
    for key, rec in zip(out["keys"], out["jobs"]):
        if rec["status"] == "deadline":
            kinds.append("deadline")
        elif rec["status"] != "ok":
            kinds.append("exception")
        elif key not in refs:
            kinds.append("no_reference")
        elif canon(rec["answer"]) != canon(refs[key]):
            kinds.append("wrong")
        else:
            kinds.append("")
    return kinds


def scaled_ms(out: dict) -> List[float]:
    """Each job's latency in a pass, in ms at the reference speed."""
    jobs = [(r["t0"], r["t1"]) for r in out["jobs"]]
    return [t * 1e3 for t in speed.scaled_times(jobs, out["samples"])]


def job_medians(passes: List[dict]) -> List[float]:
    """Each job's median scaled latency in ms over the passes.  Every pass
    runs the same list, so a burst of load on the machine that slows part
    of one pass moves none of these medians."""
    return [statistics.median(ms) for ms in zip(*(scaled_ms(o) for o in passes))]


def setup_sample(spec: dict, t_begin: float) -> float:
    """One set-up time at the reference speed, scaled by calibration
    samples the parent takes just before and after the spawn."""
    cal = []

    def sample():
        for _ in range(SETUP_CAL):
            t0 = now()
            speed.calibrate()
            cal.append(now() - t0)

    sample()
    o = spawn(dict(spec, setup_only=True), t_begin)
    sample()
    return (o["t_setup"] - o["t_spawn"]) * speed.CAL_REF_S / statistics.median(cal)


def quantile(values: List[float], q: int) -> float:
    """The q-th percentile, interpolated between the values around it.  A
    workload of few jobs has its p95 between its two largest jobs; the
    default method of statistics.quantiles would extrapolate past the
    largest and magnify their noise."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_record(workload: str, seed: int, seconds: float, trace: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "deadline_s": workloads.DEADLINE_S,
        "commit": git_commit(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
    }


def git_commit():
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def run_workload(workload: str, seed: int, seconds: float, trace: int):
    """Run one workload; return (result object, human-readable lines)."""
    if not (SRC / "relhom" / "cli.py").is_file():
        raise BenchError(f"no relhom sources under {SRC}")
    with open(REFS, encoding="utf-8") as fh:
        refs = json.load(fh)
    RESULTS.mkdir(exist_ok=True)
    spec = {"workload": workload, "seed": seed, "deadline": workloads.DEADLINE_S}
    t_begin = now()
    plain, traced = [], []
    step = 0.0
    # Start another pass while its first half still fits in `seconds`, so
    # that a run lasts `seconds` on average, whatever the pass length.
    while not plain or now() - t_begin + step / 2 < seconds:
        t_step = now()
        plain.append(spawn(spec, t_begin))
        if trace:
            traced.append(spawn(dict(spec, trace=True, spans=str(span_path(workload, seed))), t_begin))
        step = now() - t_step
    setup = [setup_sample(spec, t_begin) for _ in range(SETUP_SAMPLES)]

    kinds = [k for o in plain + traced for k in check_pass(o, refs)]
    failures = {k: kinds.count(k) for k in sorted(set(kinds)) if k}
    attempted, failed = len(kinds), sum(failures.values())
    walls = [o["t_last"] - o["t_first"] for o in plain]
    cal_ms = [statistics.median(e - b for b, e in o["samples"]) * 1e3 for o in plain]
    per_job = job_medians(plain)
    e2e = {
        "wall_s": sum(per_job) / 1e3,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(o["rss_mb"] for o in plain),
        "job_p50_ms": statistics.median(per_job),
        "job_p95_ms": quantile(per_job, 95),
    }
    lines = [
        f"workload {workload}: seed {seed}, {len(plain)} untraced and {len(traced)} traced "
        f"passes of {len(plain[0]['jobs'])} jobs in {now() - t_begin:.1f} s",
        f"fail_ratio = {failed / attempted:.6g} ({failed} of {attempted} jobs attempted"
        + "".join(f", {n} {k}" for k, n in failures.items()) + ")",
    ]
    units = dict(END_TO_END)
    for name, value in e2e.items():
        lines.append(f"{name} = {value:.6g} {units[name]}")
    lines.append(f"  raw wall_s per pass: {', '.join(f'{w:.4g}' for w in walls)}; "
                 f"calibration ms per pass: {', '.join(f'{c:.4g}' for c in cal_ms)} "
                 f"(reference {speed.CAL_REF_S * 1e3:g}); setup_s over {len(setup)} spawns; "
                 f"job percentiles over {len(per_job)} jobs x {len(plain)} passes")
    record = run_record(workload, seed, seconds, trace)
    record.update(end_to_end=e2e, walls=walls, cal_ms=cal_ms, setup=setup, failures=failures,
                  attempted=attempted, job_ms=[[r["ms"] for r in o["jobs"]] for o in plain],
                  job_scaled_ms=per_job, job_spans=[[(r["t0"], r["t1"]) for r in o["jobs"]] for o in plain],
                  speed_samples=[o["samples"] for o in plain])
    if trace:
        t_walls = [o["t_last"] - o["t_first"] for o in traced]
        t_wall = sum(job_medians(traced)) / 1e3
        layers = {
            name: statistics.median_low(o["layers"][name] for o in traced)
            for name, _u, _b in tracer.PER_LAYER if name != "tracer.overhead_ratio"
        }
        layers["tracer.overhead_ratio"] = t_wall / e2e["wall_s"]
        fired = sorted(set.intersection(*(set(o["fired"]) for o in traced)))
        lines.append(f"traced wall_s = {t_wall:.6g} s against untraced "
                     f"{e2e['wall_s']:.6g} s; layers fired: {' '.join(fired)}")
        for name, unit, _better in tracer.PER_LAYER:
            lines.append(f"{name} = {layers[name]:.6g} {unit}")
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit, _b in tracer.PER_LAYER}
        record.update(per_layer=layers, traced_walls=t_walls, fired=fired)
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
    record_path = RESULTS / f"run-{workload}-seed{seed}-trace{trace}.json"
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    lines.append(f"run record: {record_path.relative_to(ROOT)}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, lines


def span_path(workload: str, seed: int) -> Path:
    return RESULTS / f"spans-{workload}-seed{seed}.json"


def make_refs(names: List[str]):
    """Regenerate the bredon cell data and the reference answers, each job
    alone in a fresh interpreter."""
    sys.path.insert(0, str(SRC))
    from relhom.bredon import takasu_pair_complex
    from relhom.cli import parse_group

    cells = {}
    for group, gens in workloads.BREDON_PAIRS:
        g = parse_group(group, "group")
        for sub in workloads.subgroup_variants(group, gens):
            cx = takasu_pair_complex(g.subgroup_generated(sub), workloads.BREDON_LENGTH)
            cells[workloads.cells_key(group, sub)] = cx.to_json()
    workloads.CELLS_PATH.parent.mkdir(exist_ok=True)
    with open(workloads.CELLS_PATH, "w", encoding="utf-8") as fh:
        json.dump(cells, fh, sort_keys=True)
    workloads._bredon_cells.cache_clear()

    refs = {}
    if REFS.is_file():
        with open(REFS, encoding="utf-8") as fh:
            refs = json.load(fh)
    bad = 0
    t_begin = now()
    for name in names:
        docs = {workloads.job_key(d): d for d in workloads.distinct_jobs(name)}
        print(f"{name}: {len(docs)} distinct jobs", file=sys.stderr)
        for key, doc in docs.items():
            out = spawn({"jobs": [doc], "deadline": workloads.DEADLINE_S}, now())
            rec = out["jobs"][0]
            if rec["status"] != "ok":
                bad += 1
                print(f"  {key} {doc['command']}: {rec['status']}", file=sys.stderr)
                continue
            refs[key] = rec["answer"]
    with open(REFS, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, sort_keys=True, indent=0)
    print(f"{len(refs)} references in {now() - t_begin:.0f} s; {bad} jobs failed", file=sys.stderr)
    return 1 if bad else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=28)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--refs", action="store_true", help="regenerate the reference answers")
    args = ap.parse_args(argv)
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        if args.refs:
            return make_refs(names)
        results = {}
        for name in names:
            results[name], lines = run_workload(name, args.seed, args.seconds, args.trace)
            print("\n".join(lines), flush=True)
    except (BenchError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(names) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
