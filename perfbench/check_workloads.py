"""Generator determinism and consistency of BENCHMARK.json with the code."""

import collections
import json
import os
import subprocess
import sys

import pytest

import run
import tracer
import workloads

PRINT_JOBS = (
    "import json, sys, workloads; "
    "sys.stdout.write(json.dumps(workloads.generate(sys.argv[1], int(sys.argv[2]))))"
)


def jobs_bytes(workload, seed, hashseed):
    env = dict(os.environ, PYTHONHASHSEED=str(hashseed))
    return subprocess.run(
        [sys.executable, "-c", PRINT_JOBS, workload, str(seed)],
        cwd=run.BENCH, env=env, capture_output=True, check=True,
    ).stdout


def mix(jobs):
    return collections.Counter(
        (j["command"], json.dumps(j["group"], sort_keys=True),
         j.get("coefficients", {}).get("kind"), j.get("degrees"))
        for j in jobs
    )


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_byte_identical_list(workload):
    assert jobs_bytes(workload, 11, 1) == jobs_bytes(workload, 11, 2)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_other_seed_gives_other_list_with_same_mix(workload):
    a, b = workloads.generate(workload, 1), workloads.generate(workload, 2)
    assert a != b
    assert mix(a) == mix(b)


def test_session_is_a_stream_of_repeated_queries():
    jobs = workloads.generate("session", 3)
    counts = collections.Counter(workloads.job_key(j) for j in jobs)
    assert len(jobs) >= 200
    assert set(counts.values()) == {workloads.SESSION_REPEATS}


def test_every_job_of_every_seed_has_a_reference():
    with open(run.REFS, encoding="utf-8") as fh:
        refs = json.load(fh)
    for workload in workloads.WORKLOADS:
        for doc in workloads.distinct_jobs(workload):
            assert workloads.job_key(doc) in refs, (workload, doc["command"])


def test_cliff_jobs_are_left_out():
    cliffs = {workloads.job_key(j) for j in workloads.CLIFF_JOBS}
    for workload in workloads.WORKLOADS:
        assert not cliffs & {workloads.job_key(j) for j in workloads.distinct_jobs(workload)}


def test_benchmark_json_matches_the_code():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == tracer.PER_LAYER
