"""One fresh interpreter that runs a job list through the CLI front end.

Started by `run.py` with a JSON spec on its standard input; prints one JSON
document on the last line of its standard output.  Timestamps are
CLOCK_MONOTONIC readings, which the parent shares, so the parent can time
the set-up from the moment it spawned this process.  While the jobs run, a
`speed.Probe` samples the machine's speed.
"""

from __future__ import annotations

import json
import resource
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from speed import Probe, now  # noqa: E402


class JobDeadline(Exception):
    """Raised in a job that runs past its deadline."""


def _on_alarm(signum, frame):
    raise JobDeadline()


def import_cli(src: Path):
    """Import relhom.cli from `src` and nowhere else."""
    sys.path.insert(0, str(src))
    import relhom.cli as cli

    if Path(cli.__file__).resolve().parent.parent != src.resolve():
        raise ImportError(f"relhom was imported from {cli.__file__}, not from {src}")
    return cli


def run_jobs(cli, jobs, deadline: float, tracer=None):
    """Run the jobs one after another; return (first start, last end,
    per-job records, speed samples).  A job that raises or misses the
    deadline is recorded with its kind of failure, and the list goes on."""
    signal.signal(signal.SIGALRM, _on_alarm)
    probe = Probe(on_sample=tracer.pause if tracer is not None else None)
    probe.start()
    records = []
    t_first = now()
    for i, doc in enumerate(jobs):
        if tracer is not None:
            tracer.job = i
        answer, status = None, "ok"
        t0 = now()
        signal.setitimer(signal.ITIMER_REAL, deadline)
        try:
            document = cli.run(cli.Job(doc))
            answer = {"results": document["results"], "ok": document["ok"]}
        except JobDeadline:
            status = "deadline"
        except Exception as exc:  # a failing job is reported, not fatal
            status = f"exception: {type(exc).__name__}: {exc}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        t1 = now()
        records.append({"command": doc["command"], "ms": (t1 - t0) * 1e3, "t0": t0, "t1": t1,
                        "status": status, "answer": answer})
    t_last = now()
    probe.stop()
    return t_first, t_last, records, probe.samples


def main(spec: dict) -> dict:
    import workloads

    cli = import_cli(Path(spec["src"]))
    jobs = spec.get("jobs") or workloads.generate(spec["workload"], spec["seed"])
    out = {"t_setup": now()}
    if spec.get("setup_only"):
        return out
    tracer = None
    if spec.get("trace"):
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    t_first, t_last, records, samples = run_jobs(cli, jobs, spec["deadline"], tracer)
    out.update(
        t_first=t_first,
        t_last=t_last,
        samples=samples,
        rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        keys=[workloads.job_key(doc) for doc in jobs],
        jobs=records,
    )
    if tracer is not None:
        out["layers"] = tracer.summary()
        out["fired"] = sorted(tracer.fired())
        if spec.get("spans"):
            tracer.write(spec["spans"])
    return out


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.stdin.read()))))
