import json

import pytest

from relhom import cli


def run_cli(tmp_path, job, argv_extra=(), name="job.json"):
    path = tmp_path / name
    path.write_text(json.dumps(job))
    return cli.main(["--job", str(path), *argv_extra])


def run_capture(tmp_path, capsys, job, argv_extra=(), name="job.json"):
    code = run_cli(tmp_path, job, argv_extra, name)
    out = capsys.readouterr().out
    return code, out


COMPARE_JOB = {
    "command": "compare",
    "group": {"kind": "cyclic", "n": 4},
    "subgroup": {"generators": [2]},
    "coefficients": {"kind": "trivial_Z"},
    "degrees": "1..4",
}

COMPARE_TABLE = """\
degree | takasu | adamson | phi
-------+--------+---------+-----
1      | Z/2    | Z/2     | iso
2      | 0      | 0       | zero
3      | Z/2    | Z/2     | zero
4      | 0      | 0       | zero
"""


def test_compare_table_golden(tmp_path, capsys):
    code, out = run_capture(tmp_path, capsys, COMPARE_JOB)
    assert code == 0
    assert out == COMPARE_TABLE


def test_json_output_and_determinism(tmp_path, capsys):
    code, out1 = run_capture(tmp_path, capsys, COMPARE_JOB, ("--output", "json"))
    assert code == 0
    doc1 = json.loads(out1)
    code, out2 = run_capture(tmp_path, capsys, COMPARE_JOB, ("--output", "json"))
    doc2 = json.loads(out2)
    doc1.pop("elapsed_seconds")
    doc2.pop("elapsed_seconds")
    assert doc1 == doc2
    assert doc1["results"]["rows"][0]["phi"] == "iso"
    # round trip: encoding the parsed document reproduces the bytes
    assert json.loads(json.dumps(doc2)) == doc2


def test_malnormal_command(tmp_path, capsys):
    job = {
        "command": "malnormal",
        "group": {"kind": "symmetric", "n": 3},
        "subgroup": {"generators": [1]},
    }
    code, out = run_capture(tmp_path, capsys, job)
    assert code == 0
    assert out.strip() == "malnormal: true"


def test_verify_les_command(tmp_path, capsys):
    job = {
        "command": "verify-les",
        "group": {"kind": "cyclic", "n": 4},
        "subgroup": {"generators": [2]},
        "coefficients": {"kind": "trivial_Z"},
        "degrees": "0..3",
    }
    code, out = run_capture(tmp_path, capsys, job)
    assert code == 0
    assert "all exact: true" in out


def test_family_and_jmodule_commands(tmp_path, capsys):
    fam = {
        "command": "family",
        "group": {"kind": "cyclic", "n": 4},
        "subgroup": {"generators": [2]},
    }
    code, out = run_capture(tmp_path, capsys, fam)
    assert code == 0
    assert "[0, 2]" in out
    jm = dict(fam, command="jmodule")
    code, out = run_capture(tmp_path, capsys, jm)
    assert code == 0
    assert "all trivial: false" in out


def test_good_triple_command(tmp_path, capsys):
    job = {
        "command": "good-triple",
        "group": {"kind": "cyclic", "n": 4},
        "subgroup": {"generators": [2]},
        "subgroup2": {"generators": []},
    }
    code, out = run_capture(tmp_path, capsys, job)
    assert code == 0
    assert "good triple: false" in out
    assert "witness:" in out


def test_oracle_normal_command(tmp_path, capsys):
    job = {
        "command": "oracle-normal",
        "group": {"kind": "symmetric", "n": 3},
        "subgroup": {"generators": [3]},
        "coefficients": {"kind": "trivial_Z"},
        "degrees": "0..3",
    }
    # element 3 of S3 in lexicographic indexing is a 3-cycle
    code, out = run_capture(tmp_path, capsys, job)
    assert code == 0
    assert "all match: true" in out


BREDON_JOB = {
    "command": "bredon",
    "group": {"kind": "cyclic", "n": 2},
    "coefficients": {"kind": "trivial_Z"},
    "degrees": "0..1",
    "complex": {
        "format_version": 1,
        "dimensions": [
            [{"stabilizer": [1], "boundary": []}, {"stabilizer": [1], "boundary": []}],
            [{"stabilizer": [], "boundary": [
                {"cell": 1, "a": 0, "coeff": 1},
                {"cell": 0, "a": 0, "coeff": -1},
            ]}],
        ],
    },
}


def test_bredon_command(tmp_path, capsys):
    code, out = run_capture(tmp_path, capsys, BREDON_JOB)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-2].startswith("0      | Z")
    assert lines[-1].startswith("1      | 0")


def test_validation_exit_code(tmp_path, capsys):
    job = dict(COMPARE_JOB, coefficients={"kind": "regular"}, degrees="1..2")
    code = run_cli(tmp_path, job)
    captured = capsys.readouterr()
    assert code == cli.EXIT_VALIDATION
    assert "constant coefficients" in captured.err


def test_unknown_command_exit_code(tmp_path, capsys):
    job = dict(COMPARE_JOB, command="frobnicate")
    code = run_cli(tmp_path, job)
    capsys.readouterr()
    assert code == cli.EXIT_VALIDATION


def test_budget_exit_code(tmp_path, capsys):
    job = {
        "command": "takasu",
        "group": {"kind": "symmetric", "n": 3},
        "subgroup": {"generators": [1]},
        "coefficients": {"kind": "trivial_Z"},
        "degrees": "1..2",
        "budget": {"rank_cap": 4},
    }
    code = run_cli(tmp_path, job)
    capsys.readouterr()
    assert code == cli.EXIT_BUDGET


def test_degree_cap(tmp_path, capsys):
    job = dict(COMPARE_JOB, degrees="1..9")
    code = run_cli(tmp_path, job)
    capsys.readouterr()
    assert code == cli.EXIT_BUDGET


def test_budget_env_override(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("RELHOM_BUDGET", "4")
    job = {
        "command": "takasu",
        "group": {"kind": "symmetric", "n": 3},
        "subgroup": {"generators": [1]},
        "coefficients": {"kind": "trivial_Z"},
        "degrees": "1..1",
    }
    code = run_cli(tmp_path, job)
    capsys.readouterr()
    assert code == cli.EXIT_BUDGET


S3_TAKASU_JOB = {
    "command": "takasu",
    "group": {"kind": "symmetric", "n": 3},
    "subgroup": {"generators": [1]},
    "coefficients": {"kind": "trivial_Z"},
    "degrees": "1..1",
}


@pytest.mark.parametrize(
    "budget,env,argv,path",
    [
        ({"rank_cap": "abc"}, None, (), "job.budget.rank_cap"),
        ({"rank_cap": 0}, None, (), "job.budget.rank_cap"),
        ({"rank_cap": 2.5}, None, (), "job.budget.rank_cap"),
        ({"degree_cap": "x"}, None, (), "job.budget.degree_cap"),
        ({"degree_cap": -1}, None, (), "job.budget.degree_cap"),
        ({}, "abc", (), "RELHOM_BUDGET"),
        ({}, "0", (), "RELHOM_BUDGET"),
        ({}, None, ("--budget", "0"), "--budget"),
        ({}, None, ("--budget", "-5"), "--budget"),
    ],
    ids=["rank_cap-text", "rank_cap-zero", "rank_cap-float", "degree_cap-text",
         "degree_cap-negative", "env-text", "env-zero", "option-zero", "option-negative"],
)
def test_bad_budget_field_is_named(tmp_path, capsys, monkeypatch, budget, env, argv, path):
    if env is None:
        monkeypatch.delenv("RELHOM_BUDGET", raising=False)
    else:
        monkeypatch.setenv("RELHOM_BUDGET", env)
    code = run_cli(tmp_path, dict(S3_TAKASU_JOB, budget=budget), argv)
    assert code == cli.EXIT_VALIDATION
    assert f"error (validation): {path}: " in capsys.readouterr().err


def test_budget_precedence(tmp_path, capsys, monkeypatch):
    # --budget over the job's rank_cap over RELHOM_BUDGET; the S3 job fits
    # in 100 and not in 4
    monkeypatch.setenv("RELHOM_BUDGET", "4")
    small = dict(S3_TAKASU_JOB, budget={"rank_cap": 4})
    large = dict(S3_TAKASU_JOB, budget={"rank_cap": 100})
    assert run_cli(tmp_path, small, ("--budget", "100")) == cli.EXIT_OK
    assert run_cli(tmp_path, large) == cli.EXIT_OK
    assert run_cli(tmp_path, large, ("--budget", "4")) == cli.EXIT_BUDGET
    capsys.readouterr()


def test_missing_field_path_in_error(tmp_path, capsys):
    job = {"command": "compare", "group": {"kind": "cyclic", "n": 4}}
    code = run_cli(tmp_path, job)
    captured = capsys.readouterr()
    assert code == cli.EXIT_VALIDATION
    assert "job.subgroup" in captured.err


def test_bad_json_file(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert cli.main(["--job", str(path)]) == cli.EXIT_VALIDATION
    capsys.readouterr()


def test_takasu_cli_degrees_override(tmp_path, capsys):
    job = {
        "command": "takasu",
        "group": {"kind": "cyclic", "n": 4},
        "subgroup": {"generators": [2]},
        "coefficients": {"kind": "trivial_Z"},
    }
    code, out = run_capture(tmp_path, capsys, job, ("--degrees", "1..2"))
    assert code == 0
    assert "1      | Z/2" in out
    assert "2      | 0" in out


def test_custom_coefficients(tmp_path, capsys):
    job = {
        "command": "adamson",
        "group": {"kind": "cyclic", "n": 4},
        "subgroup": {"generators": [2]},
        "coefficients": {
            "kind": "custom",
            "matrices": [[[1]], [[-1]], [[1]], [[-1]]],
        },
        "degrees": "0..2",
    }
    code, out = run_capture(tmp_path, capsys, job)
    assert code == 0
    assert "degree | group" in out


@pytest.mark.parametrize(
    "command,degrees,message",
    [
        # the tensored rank is over the cap from degree 2, the tuple count
        # from degree 3: a job fails on the first degree over budget, in
        # ascending order, as when each degree was asked on its own
        ("adamson", "0..3", "tensored pair complex degree 2 needs rank 16, exceeding the budget cap 10"),
        ("adamson", "2..3", "standard pair complex degree 3 for C4 needs rank 16, exceeding the budget cap 10"),
        ("oracle-normal", "0..3", "tensored pair complex degree 2 needs rank 16, exceeding the budget cap 10"),
    ],
)
def test_budget_error_names_the_first_degree_over(tmp_path, capsys, command, degrees, message):
    job = {
        "command": command,
        "group": {"kind": "cyclic", "n": 4},
        "subgroup": {"generators": [2]},
        "coefficients": {"kind": "regular"},
        "degrees": degrees,
        "budget": {"rank_cap": 10},
    }
    for _ in range(2):  # cold, then on the complex the first run cached
        code, out = run_capture(tmp_path, capsys, job, ("--output", "json"))
        assert code == cli.EXIT_BUDGET
        assert json.loads(out) == {"error": {"kind": "budget", "message": message}}


def test_job_that_is_not_an_object_is_refused(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    assert cli.main(["--job", str(path)]) == cli.EXIT_VALIDATION
    assert "job document must be an object" in capsys.readouterr().err


@pytest.mark.parametrize(
    "change,field",
    [
        ({"degrees": ["x", 2]}, "job.degrees"),
        ({"degrees": [1.7, 3]}, "job.degrees"),
        ({"degrees": [True, 3]}, "job.degrees"),
        ({"coefficients": {"kind": "custom", "matrices": [[[1]], [[1.5]]]}}, "job.coefficients"),
        ({"coefficients": {"kind": "custom", "matrices": [[[1]], [["-1"]]]}}, "job.coefficients"),
        ({"coefficients": {"kind": "custom", "matrices": [[[1]], [[True]]]}}, "job.coefficients"),
        ({"group": {"kind": "cyclic", "n": True}}, "job.group.n"),
        ({"subgroup": {"generators": [True]}}, "job.subgroup.generators"),
        ({"subgroup": {"generators": [1.0]}}, "job.subgroup.generators"),
        ({"group": {"kind": "from_permutations", "generators": [[1.5, 0]]}}, "job.group"),
    ],
)
def test_job_numbers_must_be_integers(tmp_path, capsys, change, field):
    job = {**COMPARE_JOB, "group": {"kind": "cyclic", "n": 2}, "subgroup": {"generators": []}}
    job.update(change)
    code, out = run_capture(tmp_path, capsys, job, ("--output", "json"))
    assert code == cli.EXIT_VALIDATION
    error = json.loads(out)["error"]
    assert error["kind"] == "validation"
    assert error["message"].startswith(field)


@pytest.mark.parametrize("gen", [-1, 4, 7])
def test_subgroup_generators_must_be_group_elements(tmp_path, capsys, gen):
    # on C4, -1 used to wrap to element 3 and 7 to end in an IndexError
    job = dict(COMPARE_JOB, subgroup={"generators": [gen]})
    code, out = run_capture(tmp_path, capsys, job, ("--output", "json"))
    assert code == cli.EXIT_VALIDATION
    error = json.loads(out)["error"]
    assert error["kind"] == "validation"
    assert error["message"].startswith("job.subgroup.generators")


def _bredon_job(stabilizer=(1,), **entry):
    job = json.loads(json.dumps(BREDON_JOB))
    job["complex"]["dimensions"][0][0]["stabilizer"] = list(stabilizer)
    job["complex"]["dimensions"][1][0]["boundary"][0].update(entry)
    return job


@pytest.mark.parametrize(
    "job",
    [
        _bredon_job(coeff=1.9),
        _bredon_job(coeff=1.0),
        _bredon_job(coeff=True),
        _bredon_job(coeff="1"),
        _bredon_job(cell=1.0),
        _bredon_job(cell=True),
        _bredon_job(a=0.0),
        _bredon_job(a=False),
        _bredon_job(a=-1),
        _bredon_job(a=5),
        _bredon_job(stabilizer=[2]),
        _bredon_job(stabilizer=[-1]),
        _bredon_job(stabilizer=[True]),
    ],
)
def test_bredon_cell_data_must_be_integers_in_range(tmp_path, capsys, job):
    code, out = run_capture(tmp_path, capsys, job, ("--output", "json"))
    assert code == cli.EXIT_VALIDATION
    error = json.loads(out)["error"]
    assert error["kind"] == "validation"
    assert error["message"].startswith("job.complex: ")
