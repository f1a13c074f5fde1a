"""Instance/solution files and the three subcommands."""
import dataclasses
import json

import pytest

from robust_makespan import (
    Scenario,
    Schedule,
    candidate_scenario,
    evaluate,
    extreme_scenarios,
    normalize_u1,
    regret_of,
    solve_robust_absolute,
    solve_robust_regret,
    worst_case_scenario_absolute,
)
from robust_makespan.core import MAX_TIME
from robust_makespan import cli
from robust_makespan.cli import (
    EXIT_COUNTEREXAMPLE,
    EXIT_OK,
    EXIT_USAGE,
    dump_instance,
    load_instance,
    main,
)

from conftest import make_instance

TWO_JOB = {
    "version": 1,
    "uncertainty": {"kind": "U2", "gamma": 1},
    "jobs": [
        {"id": 1, "p": 2, "r_lo": 0, "r_hi": 4},
        {"id": 2, "p": 3, "r_lo": 0, "r_hi": 0},
    ],
}


def write(tmp_path, doc, name="inst.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc) if isinstance(doc, dict) else doc)
    return str(path)


# ---------------------------------------------------------------------------
# parsing


def test_round_trip(tmp_path):
    inst = make_instance([(2, 0, 4), (3, 1, 5), (1, 2, 2)], kind="U1", gamma=3)
    path = tmp_path / "x.json"
    path.write_text(dump_instance(inst))
    assert load_instance(path) == inst
    assert dump_instance(load_instance(path)) == path.read_text()


def test_parse_accepts_unordered_ids(tmp_path):
    doc = dict(TWO_JOB)
    doc["jobs"] = list(reversed(TWO_JOB["jobs"]))
    inst = load_instance(write(tmp_path, doc))
    assert [j.id for j in inst.jobs] == [1, 2]


def test_parse_error_names_offending_job(tmp_path):
    doc = json.loads(json.dumps(TWO_JOB))
    doc["jobs"][1]["p"] = 0
    with pytest.raises(cli.CliError, match="job 2"):
        load_instance(write(tmp_path, doc))
    doc = json.loads(json.dumps(TWO_JOB))
    doc["jobs"][1]["id"] = 1
    with pytest.raises(cli.CliError, match="duplicate job id 1"):
        load_instance(write(tmp_path, doc))
    doc = json.loads(json.dumps(TWO_JOB))
    doc["jobs"][0]["r_lo"] = 9
    with pytest.raises(cli.CliError, match="job 1"):
        load_instance(write(tmp_path, doc))


def test_parse_error_reports_json_position(tmp_path):
    with pytest.raises(cli.CliError, match=r":\d+:\d+: invalid JSON"):
        load_instance(write(tmp_path, '{"version": 1,,}'))


def test_parse_rejects_empty_jobs(tmp_path):
    doc = dict(TWO_JOB)
    doc["jobs"] = []
    with pytest.raises(cli.CliError, match="non-empty"):
        load_instance(write(tmp_path, doc))


def test_parse_rejects_non_integer_fields(tmp_path):
    doc = json.loads(json.dumps(TWO_JOB))
    doc["jobs"][0]["p"] = 2.5
    with pytest.raises(cli.CliError, match="integer"):
        load_instance(write(tmp_path, doc))


def test_parse_rejects_bool_fields(tmp_path):
    for field in ("id", "p", "r_lo", "r_hi"):
        doc = json.loads(json.dumps(TWO_JOB))
        doc["jobs"][1][field] = True
        with pytest.raises(cli.CliError, match=rf"jobs\[1\]: field '{field}' must be an integer"):
            load_instance(write(tmp_path, doc))


def test_parse_missing_field_names_its_job(tmp_path):
    doc = json.loads(json.dumps(TWO_JOB))
    del doc["jobs"][1]["r_hi"]
    with pytest.raises(cli.CliError, match=r"jobs\[1\]: missing field 'r_hi'"):
        load_instance(write(tmp_path, doc))
    doc["jobs"][1] = [2, 3, 0, 0]
    with pytest.raises(cli.CliError, match=r"jobs\[1\]: must be an object"):
        load_instance(write(tmp_path, doc))


def test_parse_id_gap_names_position(tmp_path):
    doc = json.loads(json.dumps(TWO_JOB))
    doc["jobs"][1]["id"] = 3
    with pytest.raises(cli.CliError, match="position 2 holds id 3"):
        load_instance(write(tmp_path, doc))


def test_parse_out_of_range_integers_are_cli_errors(tmp_path, capsys):
    for field, value in (("p", 2**70), ("r_hi", 2**64), ("id", 2**63)):
        doc = json.loads(json.dumps(TWO_JOB))
        doc["jobs"][0][field] = value
        path = write(tmp_path, doc)
        with pytest.raises(cli.CliError):
            load_instance(path)
        assert main(["solve", "--criterion", "absolute", "--input", path]) == EXIT_USAGE
    assert "error:" in capsys.readouterr().err


def test_parse_checks_worst_case_bound_in_python_integers(tmp_path):
    # 4 * 2**62 wraps to 0 as an int64 sum
    doc = {"version": 1, "uncertainty": {"kind": "U2", "gamma": 1},
           "jobs": [{"id": i, "p": 2**62, "r_lo": 0, "r_hi": 0} for i in range(1, 5)]}
    with pytest.raises(cli.CliError, match="64-bit"):
        load_instance(write(tmp_path, doc))
    # exactly at the limit is accepted, one past it is not
    doc["jobs"] = [{"id": 1, "p": 2**62, "r_lo": 0, "r_hi": 1},
                   {"id": 2, "p": 2**62 - 2, "r_lo": 0, "r_hi": 0}]
    assert load_instance(write(tmp_path, doc)).n == 2
    doc["jobs"][0]["r_hi"] = 2
    with pytest.raises(cli.CliError, match="64-bit"):
        load_instance(write(tmp_path, doc))


def test_release_near_int64_limit_round_trips_and_solves(tmp_path):
    inst = make_instance([(1, 0, MAX_TIME - 2), (1, 5, 5)], kind="U1", gamma=2**63)
    path = tmp_path / "edge.json"
    path.write_text(dump_instance(inst))
    loaded = load_instance(path)
    assert loaded == inst
    assert loaded.columns[2].tolist() == [MAX_TIME - 2, 5]
    assert dump_instance(loaded) == path.read_text()
    out = tmp_path / "sol.json"
    assert main(["solve", "--criterion", "absolute", "--input", str(path),
                 "--output", str(out)]) == EXIT_OK
    assert json.loads(out.read_text())["objective"] == MAX_TIME - 1
    assert main(["solve", "--criterion", "regret", "--input", str(path),
                 "--output", str(out)]) == EXIT_OK
    assert json.loads(out.read_text())["objective"] == solve_robust_regret(inst).regret


# ---------------------------------------------------------------------------
# solve


def test_solve_regret_two_job(tmp_path):
    inst = write(tmp_path, TWO_JOB)
    out = str(tmp_path / "sol.json")
    assert main(["solve", "--criterion", "regret", "--input", inst, "--output", out]) == EXIT_OK
    sol = json.loads(open(out).read())
    assert sol["criterion"] == "regret"
    assert sol["permutation"] == [2, 1]
    assert sol["objective"] == 0
    assert sol["per_candidate"] == [0, 0]


def test_solve_absolute_two_job(tmp_path):
    inst = write(tmp_path, TWO_JOB)
    out = str(tmp_path / "sol.json")
    assert main(["solve", "--criterion", "absolute", "--input", inst, "--output", out]) == EXIT_OK
    sol = json.loads(open(out).read())
    assert sol["permutation"] == [2, 1]
    assert sol["objective"] == 6


def test_solution_reevaluates_to_objective(tmp_path):
    doc = {
        "version": 1,
        "uncertainty": {"kind": "U1", "gamma": 7},
        "jobs": [
            {"id": 1, "p": 4, "r_lo": 2, "r_hi": 30},
            {"id": 2, "p": 1, "r_lo": 0, "r_hi": 3},
            {"id": 3, "p": 6, "r_lo": 5, "r_hi": 5},
            {"id": 4, "p": 2, "r_lo": 1, "r_hi": 9},
        ],
    }
    path = write(tmp_path, doc)
    instance = normalize_u1(load_instance(path))
    for criterion in ("absolute", "regret"):
        out = str(tmp_path / f"{criterion}.json")
        assert main(["solve", "--criterion", criterion, "--input", path, "--output", out]) == EXIT_OK
        sol = json.loads(open(out).read())
        sched = Schedule(tuple(sol["permutation"]))
        scenario = Scenario(tuple(sol["worst_case_scenario"]["releases"]))
        if criterion == "absolute":
            assert evaluate(sched, scenario, instance).makespan == sol["objective"]
        else:
            assert regret_of(sched, scenario, instance) == sol["objective"]


def test_solution_files_match_library_payload(tmp_path):
    # above the small-n cutoff, with U1 intervals that trimming shortens
    path = str(tmp_path / "big.json")
    assert main(["generate", "--n", "3000", "--seed", "4", "--model", "U1", "--gamma", "30",
                 "--r-range", "0", "6000", "--width-range", "0", "80", "--output", path]) == EXIT_OK
    inst = load_instance(path)
    trimmed = normalize_u1(inst)
    assert trimmed != inst
    report = solve_robust_regret(inst)
    sched, cost = solve_robust_absolute(inst)
    _, upper = extreme_scenarios(trimmed)
    crit = evaluate(sched, upper, trimmed).critical_position
    expected = {
        "regret": {
            "criterion": "regret",
            "permutation": list(report.schedule.perm),
            "objective": report.regret,
            "worst_case_scenario": {
                "releases": list(candidate_scenario(trimmed, report.worst_job).releases),
                "candidate_job": report.worst_job,
            },
            "per_candidate": list(report.per_candidate),
        },
        "absolute": {
            "criterion": "absolute",
            "permutation": list(sched.perm),
            "objective": cost,
            "worst_case_scenario": {
                "releases": list(worst_case_scenario_absolute(sched, inst).releases),
                "candidate_job": sched.perm[crit - 1],
            },
        },
    }
    for criterion, want in expected.items():
        out = tmp_path / f"{criterion}.json"
        assert main(["solve", "--criterion", criterion, "--input", path,
                     "--output", str(out)]) == EXIT_OK
        text = out.read_text()
        assert text.count("\n") == 1 and text.endswith("\n")  # one line
        assert json.loads(text) == want


def test_payload_self_check_rejects_wrong_objective(monkeypatch):
    inst = make_instance([(2, 0, 4), (3, 0, 0)])
    solve_absolute, solve_regret = cli.solve_robust_absolute, cli.solve_robust_regret

    def off_by_one_absolute(instance):
        schedule, cost = solve_absolute(instance)
        return schedule, cost + 1

    def off_by_one_regret(instance):
        report = solve_regret(instance)
        return dataclasses.replace(report, regret=report.regret + 1)

    monkeypatch.setattr(cli, "solve_robust_absolute", off_by_one_absolute)
    monkeypatch.setattr(cli, "solve_robust_regret", off_by_one_regret)
    for criterion in ("absolute", "regret"):
        with pytest.raises(AssertionError, match="self-check"):
            cli.solve_to_payload(criterion, inst)


def test_solve_parse_failure_exits_one(tmp_path, capsys):
    path = write(tmp_path, '{"version": 1')
    assert main(["solve", "--criterion", "regret", "--input", path]) == EXIT_USAGE
    assert "invalid JSON" in capsys.readouterr().err


def test_solve_missing_file_exits_one(tmp_path):
    assert main(["solve", "--criterion", "regret", "--input", str(tmp_path / "no.json")]) == EXIT_USAGE


def test_usage_error_exits_one(capsys):
    assert main(["solve", "--criterion", "nope", "--input", "x"]) == EXIT_USAGE
    assert main(["frobnicate"]) == EXIT_USAGE


READERS = (["solve", "--criterion", "regret"], ["verify", "--trials", "0"])


@pytest.mark.parametrize("command", READERS)
def test_undecodable_input_exits_one(tmp_path, capsys, command):
    path = tmp_path / "inst.json"
    path.write_bytes(b'{"version": 1, "jobs": "\xff"}')
    assert main([*command, "--input", str(path)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {path}:") and "Traceback" not in err


@pytest.mark.parametrize("command", READERS)
def test_deeply_nested_input_exits_one(tmp_path, capsys, command):
    path = write(tmp_path, "[" * 100_000 + "]" * 100_000)
    assert main([*command, "--input", path]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: invalid JSON") and "Traceback" not in err


def test_solve_output_to_missing_directory_exits_one(tmp_path, capsys):
    path = write(tmp_path, TWO_JOB)
    out = tmp_path / "missing" / "sol.json"
    assert main(["solve", "--criterion", "regret", "--input", path,
                 "--output", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out}:") and "Traceback" not in err


# ---------------------------------------------------------------------------
# generate


def test_generate_is_deterministic(tmp_path):
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    args = ["generate", "--n", "40", "--seed", "11", "--gamma", "2"]
    assert main(args + ["--output", a]) == EXIT_OK
    assert main(args + ["--output", b]) == EXIT_OK
    assert open(a, "rb").read() == open(b, "rb").read()
    inst = load_instance(a)
    assert inst.n == 40


def test_generate_zero_width_gives_degenerate_intervals(tmp_path):
    path = str(tmp_path / "d.json")
    assert (
        main(
            ["generate", "--n", "12", "--seed", "0", "--gamma", "1",
             "--width-range", "0", "0", "--output", path]
        )
        == EXIT_OK
    )
    inst = load_instance(path)
    assert all(job.r_lo == job.r_hi for job in inst.jobs)


def test_generate_large_file_round_trips(tmp_path):
    # the line-per-job writer must stay parseable and exact at bulk sizes
    path = str(tmp_path / "big.json")
    args = ["generate", "--n", "100000", "--seed", "3", "--gamma", "100",
            "--r-range", "0", "200000", "--width-range", "0", "100", "--output", path]
    assert main(args) == EXIT_OK
    inst = load_instance(path)
    assert inst.n == 100000
    assert open(path).read() == dump_instance(inst)


def test_generate_rejects_bad_ranges(tmp_path, capsys):
    path = str(tmp_path / "x.json")
    assert main(["generate", "--n", "5", "--gamma", "1", "--p-range", "0", "4",
                 "--output", path]) == EXIT_USAGE
    assert main(["generate", "--n", "5", "--gamma", "1", "--width-range", "4", "1",
                 "--output", path]) == EXIT_USAGE
    assert main(["generate", "--n", "0", "--gamma", "1", "--output", path]) == EXIT_USAGE
    assert main(["generate", "--n", "5", "--gamma", "1", "--seed", "-1",
                 "--output", path]) == EXIT_USAGE
    assert "--seed" in capsys.readouterr().err.splitlines()[-1]


def test_generate_output_to_missing_directory_exits_one(tmp_path, capsys):
    out = tmp_path / "missing" / "inst.json"
    assert main(["generate", "--n", "5", "--gamma", "1", "--output", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out}:") and "Traceback" not in err


def test_generate_refuses_ranges_past_int64(tmp_path, capsys):
    path = tmp_path / "x.json"
    cases = [
        # r_lo + width = 2**63 used to wrap to r_hi = -2**63 and exit 0
        (["--r-range", str(2**62), str(2**62), "--width-range", str(2**62), str(2**62)],
         "--r-range and --width-range"),
        # an upper end of 2**63 used to crash in numpy
        (["--r-range", "0", str(2**63)], "--r-range"),
        (["--p-range", "1", str(2**63)], "--p-range"),
        (["--width-range", "0", str(2**64)], "--width-range"),
        # every range fits, but the worst-case completion does not
        (["--p-range", str(2**62), str(2**62)], "--p-range"),
    ]
    for extra, option in cases:
        argv = ["generate", "--n", "3", "--gamma", "1", "--output", str(path)] + extra
        assert main(argv) == EXIT_USAGE, extra
        assert option in capsys.readouterr().err, extra
        assert not path.exists()
    # the widest ranges that fit still generate a loadable instance
    edge = ["generate", "--n", "1", "--gamma", "1", "--p-range", "1", "1",
            "--r-range", str(2**62), str(2**62), "--width-range", str(2**62 - 2),
            str(2**62 - 2), "--output", str(path)]
    assert main(edge) == EXIT_OK
    assert load_instance(path).columns[2].tolist() == [MAX_TIME - 1]


# ---------------------------------------------------------------------------
# verify


def test_verify_degenerate_instance_passes(tmp_path, capsys):
    doc = {
        "version": 1,
        "uncertainty": {"kind": "U2", "gamma": 1},
        "jobs": [
            {"id": 1, "p": 2, "r_lo": 3, "r_hi": 3},
            {"id": 2, "p": 1, "r_lo": 0, "r_hi": 0},
        ],
    }
    path = write(tmp_path, doc)
    assert main(["verify", "--input", path, "--trials", "0"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "ok regret-solver-optimality" in out


def test_verify_random_trials_pass(capsys):
    assert main(["verify", "--trials", "40", "--seed", "5"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "verified 40 instances" in out


def test_verify_catches_broken_fast_path(monkeypatch, capsys):
    # negative control: a corrupted fast path must surface as a counterexample
    def broken(instance):
        good = list(cli.all_optimal_makespans_naive(instance))
        good[0] += 1
        return tuple(good)

    monkeypatch.setattr(cli, "all_optimal_makespans_fast", broken)
    assert main(["verify", "--trials", "3", "--seed", "5"]) == EXIT_COUNTEREXAMPLE
    err = capsys.readouterr().err
    assert "FAIL fast-vs-naive-optima" in err
    assert "counterexample instance" in err


def test_verify_catches_wrong_solver_order(monkeypatch, capsys):
    # negative control: an intentionally bad solver must be flagged
    def bad_solver(instance):
        ids = tuple(range(1, instance.n + 1))
        worst = max(ids, key=lambda j: instance.jobs[j - 1].r_hi)
        perm = (worst,) + tuple(j for j in ids if j != worst)
        from robust_makespan.absolute import robust_absolute_cost

        return Schedule(perm), robust_absolute_cost(Schedule(perm), normalize_u1(instance))

    monkeypatch.setattr(cli, "solve_robust_absolute", bad_solver)
    assert main(["verify", "--trials", "60", "--seed", "1"]) == EXIT_COUNTEREXAMPLE
    assert "FAIL absolute-solver-optimality" in capsys.readouterr().err


def test_verify_catches_solver_inexact_at_large_magnitude(monkeypatch, capsys):
    # negative control: a cost rounded through float64 is exact on the small
    # draws and off by up to 512 once every release is shifted by 2**62
    exact = cli.solve_robust_absolute

    def rounding_solver(instance):
        schedule, cost = exact(instance)
        return schedule, int(float(cost))

    monkeypatch.setattr(cli, "solve_robust_absolute", rounding_solver)
    assert main(["verify", "--trials", "20", "--seed", "5"]) == EXIT_COUNTEREXAMPLE
    err = capsys.readouterr().err
    assert "FAIL shifted-magnitude" in err
    assert "absolute cost" in err


def test_verify_without_work_is_usage_error(capsys):
    assert main(["verify", "--trials", "0"]) == EXIT_USAGE
