"""The benchmark harness's answer gates, run end to end from tier-1.

`perfbench/run.py` runs a workload's job list in worker processes and
checks each answer against `perfbench/refs.json`; its last line reports
`correct` and the number of failed jobs.  These are the gates of the CI
steps "Benchmark answers against the references" and "Orbit answers
against the references", run here as well so that they hold whatever the
state of the benchmark's own test suite.  Every workload runs here, so
each CLI command (takasu, verify-les, oracle-normal and jmodule among them)
runs through a worker process, and so does the Tor side of tor-les."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["compare", "tor-les", "orbit", "session"])
def test_benchmark_run_answers_match_the_references(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "2", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert summary["attempted"] > 0
    assert summary["correct"] is True and summary["failed"] == 0
