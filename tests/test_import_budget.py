"""What a fresh interpreter pays to start relhom.

Every CLI job and every benchmark pass starts a new process, so the
package keeps its import light: `import relhom.cli` must not load
`dataclasses` (which loads `inspect`) or `argparse`, which only
`cli.main` needs.  Each check runs in its own `python -I` subprocess, with
`src` put on `sys.path` by hand, so no environment variable or earlier
import can hide a heavy module.
"""

import json
import subprocess
import sys
from pathlib import Path

from relhom import cli

SRC = Path(__file__).resolve().parent.parent / "src"

HEAVY = ("dataclasses", "inspect", "argparse")

JOB = {
    "command": "compare",
    "group": {"kind": "cyclic", "n": 4},
    "subgroup": {"generators": [2]},
    "coefficients": {"kind": "trivial_Z"},
    "degrees": "1..3",
}


def _isolated(code: str, *args: str) -> subprocess.CompletedProcess:
    prelude = f"import sys; sys.path.insert(0, {str(SRC)!r}); "
    return subprocess.run(
        [sys.executable, "-I", "-c", prelude + code, *args],
        capture_output=True, text=True, timeout=60,
    )


def _run_cli_module(*args: str) -> subprocess.CompletedProcess:
    # what `python -m relhom.cli` does, with `src` on the path
    return _isolated(
        "import runpy; runpy.run_module('relhom.cli', run_name='__main__', alter_sys=True)",
        *args,
    )


def test_importing_the_cli_loads_no_heavy_module():
    proc = _isolated(
        f"import relhom.cli; print([m for m in {HEAVY!r} if m in sys.modules])"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_help_exits_zero():
    proc = _run_cli_module("--help")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: relhom")


def _without_elapsed(document: dict) -> dict:
    assert isinstance(document.pop("elapsed_seconds"), float)
    return document


def test_cli_process_prints_the_in_process_document(tmp_path, capsys):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(JOB))
    proc = _run_cli_module("--job", str(path), "--output", "json")
    assert proc.returncode == cli.EXIT_OK, proc.stderr
    assert cli.main(["--job", str(path), "--output", "json"]) == cli.EXIT_OK
    in_process = json.loads(capsys.readouterr().out)
    assert _without_elapsed(json.loads(proc.stdout)) == _without_elapsed(in_process)
