"""The per-job deadline stops a job that runs into a cliff, and the worker
goes on with the next job."""

import json

import run
import workloads


def test_deadline_miss_is_reported_and_the_list_goes_on():
    small = workloads.distinct_jobs("compare")[3]  # C4 > C2, about 10 ms
    out = run.spawn({"jobs": [workloads.CLIFF_JOBS[0], small], "deadline": 1.0}, run.now())
    cliff, after = out["jobs"]
    assert cliff["status"] == "deadline"
    assert 1000 <= cliff["ms"] < 2000
    with open(run.REFS, encoding="utf-8") as fh:
        refs = json.load(fh)
    assert run.check_pass(out, refs) == ["deadline", ""]


def test_failure_kinds():
    refs = {"a": {"results": {}, "ok": True}}
    out = {"keys": ["a", "a", "b", "a", "a"],
           "jobs": [{"status": "ok", "answer": {"results": {}, "ok": True}},
                    {"status": "ok", "answer": {"results": {"x": 1}, "ok": True}},
                    {"status": "ok", "answer": {"results": {}, "ok": True}},
                    {"status": "deadline", "answer": None},
                    {"status": "exception: ValueError: x", "answer": None}]}
    assert run.check_pass(out, refs) == ["", "wrong", "no_reference", "deadline", "exception"]
