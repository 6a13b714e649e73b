"""Every benchmark job against its stored reference answer.

`perfbench/refs.json` holds the answer to each distinct job of the four
workloads (`workloads.distinct_jobs`), each computed alone in a fresh
interpreter.  Here they all run through the public batch front end in one
process, so an answer must also not depend on what ran before it.  The
file is only read."""

import json
import sys
from pathlib import Path

from relhom import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))
import workloads  # noqa: E402

with open(PERFBENCH / "refs.json", encoding="utf-8") as fh:
    REFS = json.load(fh)


def _canon(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def test_every_workload_job_matches_its_reference():
    wrong = []
    count = 0
    for workload in workloads.WORKLOADS:
        for doc in workloads.distinct_jobs(workload):
            count += 1
            document = cli.run(cli.Job(doc))
            answer = {"results": document["results"], "ok": document["ok"]}
            if _canon(answer) != _canon(REFS[workloads.job_key(doc)]):
                wrong.append((workload, doc["command"], workloads.job_key(doc)))
    assert count == 517
    assert wrong == []
