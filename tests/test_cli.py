"""End-to-end CLI behavior: commands, files, exit codes."""

import functools
import io
import json
import re
import sys
from pathlib import Path

import pytest

from cli_cases import CASES, check, run
from thermosched import (
    N3DMInstance,
    RandomModel,
    Schedule,
    ThreePartitionInstance,
    gen_from_3partition,
    gen_from_n3dm,
    parse_instance,
    parse_schedule,
    ratio_experiment,
    serialize_instance,
    serialize_report,
    serialize_schedule,
    serialize_trace,
    simulate,
)
from thermosched.cli import main
from thermosched.serialization import serialize_reduction_meta

OPTIMAL = Schedule((1, None, 3, 2, 4, None))


@pytest.mark.parametrize("case", CASES, ids=[case.name for case in CASES])
def test_cli_case(case, capsysbinary, monkeypatch):
    """Each case of tests/cli_cases.py, run in-process through cli.main."""

    def in_process(argv, stdin):
        # Under a C or POSIX locale, Python's UTF-8 mode reads stdin with surrogateescape.
        text = io.TextIOWrapper(io.BytesIO(stdin), encoding="utf-8", errors="surrogateescape")
        monkeypatch.setattr(sys, "stdin", text)
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
        return (code, *capsysbinary.readouterr())

    assert check(case, in_process) == []


def test_module_entry_point(monkeypatch):
    """`python -m thermosched.cli` runs as a process, through the runner's own invoker."""
    monkeypatch.setenv("PYTHONPATH", str(Path(__file__).parents[1] / "src"))
    (case,) = [case for case in CASES if case.name == "opt"]
    assert check(case, functools.partial(run, [sys.executable, "-m", "thermosched.cli"])) == []


@pytest.fixture
def instance_file(tmp_path, four_job_example):
    path = tmp_path / "instance.json"
    path.write_text(serialize_instance(four_job_example))
    return str(path)


def write_schedule(tmp_path, schedule, name="schedule.json"):
    path = tmp_path / name
    path.write_text(serialize_schedule(schedule))
    return str(path)


class TestValidate:
    def test_parse_error(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["validate", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_non_utf8_file(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"threshold": "1/1", "jobs": []} \xe9'.encode("latin-1"))
        assert main(["validate", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_deeply_nested_json(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000 + "]" * 200_000)
        assert main(["validate", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_integer_of_5000_digits(self, tmp_path, capsys):
        path = tmp_path / "long_int.json"
        release = "1" * 5000
        path.write_text(
            '{"threshold": "1/1", "cooling_factor": "2/1", "jobs": '
            f'[{{"id": 1, "release": {release}, "deadline": 1, "heat": "1/2"}}]}}'
        )
        assert main(["validate", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_missing_file(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path / "absent.json")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_stdin(self, four_job_example, capsys, monkeypatch):
        stdin = io.TextIOWrapper(io.BytesIO(serialize_instance(four_job_example).encode()))
        monkeypatch.setattr(sys, "stdin", stdin)
        assert main(["validate", "-"]) == 0
        assert "ok: 4 job(s)" in capsys.readouterr().out


class TestSimulate:
    def test_writes_trace_file(self, tmp_path, instance_file, four_job_example):
        schedule_file = write_schedule(tmp_path, OPTIMAL)
        out = tmp_path / "trace.json"
        code = main(["simulate", instance_file, schedule_file, "-o", str(out)])
        assert code == 0
        assert out.read_text() == serialize_trace(simulate(four_job_example, OPTIMAL))

    def test_trace_to_stdout(self, tmp_path, instance_file, four_job_example, capsys):
        schedule_file = write_schedule(tmp_path, OPTIMAL)
        assert main(["simulate", instance_file, schedule_file]) == 0
        out = capsys.readouterr().out
        assert out == serialize_trace(simulate(four_job_example, OPTIMAL))


@pytest.mark.parametrize("command", ["simulate", "render"])
def test_schedule_commands_reject_invalid_instance(command, tmp_path, capsys):
    path = tmp_path / "invalid.json"
    jobs = [
        {"id": 1, "release": 0, "deadline": 2, "heat": "1/2"},
        {"id": 1, "release": 0, "deadline": 2, "heat": "1/2"},
        {"id": 2, "release": 3, "deadline": 1, "heat": "1/2"},
        {"id": 3, "release": 0, "deadline": 2, "heat": "-1/2"},
    ]
    path.write_text(json.dumps({"threshold": "1/1", "cooling_factor": "2/1", "jobs": jobs}))
    schedule_file = write_schedule(tmp_path, Schedule((1,)))
    assert main([command, str(path), schedule_file]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: job 1: duplicate id; "
        "job 2: execution window is empty (release=3, deadline=1); "
        "job 3: heat must be non-negative\n"
    )


class TestOpt:
    def test_result_document(self, tmp_path, instance_file, four_job_example, capsys):
        witness_out = tmp_path / "witness.json"
        code = main(["opt", instance_file, "--witness-out", str(witness_out)])
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        assert document["best_throughput"] == 4
        assert document["proven_optimal"] is True
        assert document["explored"] > 0
        witness = parse_schedule(witness_out.read_text())
        assert list(witness.slots) == document["witness"]
        trace = simulate(four_job_example, witness)
        assert trace.throughput == 4 and not trace.violations

    @pytest.mark.parametrize("budget", ["-5", "many", "١٠٠"])
    def test_bad_budget_is_a_usage_error(self, instance_file, budget, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["opt", instance_file, "--budget", budget])
        assert excinfo.value.code == 2
        assert "--budget" in capsys.readouterr().err


class TestOnline:
    def test_policy_flag_is_required(self, instance_file):
        with pytest.raises(SystemExit) as excinfo:
            main(["online", instance_file])
        assert excinfo.value.code == 2

    def test_unknown_policy_rejected(self, instance_file):
        with pytest.raises(SystemExit) as excinfo:
            main(["online", instance_file, "--policy", "fifo"])
        assert excinfo.value.code == 2


class TestReduce:
    def test_3part_writes_instance_and_sidecar(self, tmp_path):
        source = tmp_path / "source.txt"
        source.write_text("3 3 3 3 3 3\n")
        out = tmp_path / "gen.json"
        assert main(["reduce", "3part", str(source), "-o", str(out)]) == 0
        src = ThreePartitionInstance.from_values((3,) * 6)
        expected_instance, expected_meta = gen_from_3partition(src)
        instance = parse_instance(out.read_text())
        assert instance == expected_instance
        sidecar = tmp_path / "gen.json.meta"
        assert sidecar.read_text() == serialize_reduction_meta(expected_meta)

    def test_explicit_meta_path(self, tmp_path):
        source = tmp_path / "source.txt"
        source.write_text("12\n0 8\n8 0\n4 4\n")
        out = tmp_path / "gen.json"
        meta_out = tmp_path / "meta.json"
        code = main(["reduce", "n3dm", str(source), "-o", str(out), "-m", str(meta_out)])
        assert code == 0
        src = N3DMInstance(a=(0, 8), b=(8, 0), c=(4, 4), beta=12)
        expected_instance, expected_meta = gen_from_n3dm(src)
        instance = parse_instance(out.read_text())
        assert instance == expected_instance
        assert meta_out.read_text() == serialize_reduction_meta(expected_meta)
        assert not (tmp_path / "gen.json.meta").exists()

    def test_stdout_skips_sidecar(self, tmp_path, capsys):
        source = tmp_path / "source.txt"
        source.write_text("3 3 3\n")
        assert main(["reduce", "3part", str(source)]) == 0
        instance = parse_instance(capsys.readouterr().out)
        assert len(instance.jobs) == 4

    def test_infeasible_source_exits_one(self, tmp_path, capsys):
        source = tmp_path / "source.txt"
        source.write_text("2 2 3 3 3 5\n")
        assert main(["reduce", "3part", str(source)]) == 1
        assert "window" in capsys.readouterr().err

    def test_source_syntax_error_exits_two(self, tmp_path, capsys):
        source = tmp_path / "source.txt"
        source.write_text("3 x 3\n")
        assert main(["reduce", "3part", str(source)]) == 2
        assert "line 1" in capsys.readouterr().err

    @pytest.mark.parametrize("token", ["4_4", "٤"])
    def test_non_ascii_digit_token_exits_two(self, tmp_path, capsys, token):
        source = tmp_path / "source.txt"
        source.write_text(f"{token} 4 4 4 4 6\n")
        assert main(["reduce", "3part", str(source)]) == 2
        assert f"line 1: {token!r} is not an integer" in capsys.readouterr().err

    def test_non_ascii_blank_exits_two(self, tmp_path, capsys):
        """A no-break space does not separate tokens, so "4\u00a04" is one bad token."""
        source = tmp_path / "source.txt"
        source.write_text("4\u00a04 4 4 4 6\n", encoding="utf-8")
        assert main(["reduce", "3part", str(source)]) == 2
        assert "line 1: '4\\xa04' is not an integer" in capsys.readouterr().err


class TestAdversary:
    def test_builtin_policy_transcript(self, capsys):
        assert main(["adversary", "--policy", "edf"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["branch"] == "execute"
        assert document["alg_throughput"] == 1
        assert document["adv_throughput"] == 2


class TestExperiment:
    def test_report_file_and_summary(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(
            [
                "experiment",
                "--n", "4",
                "--count", "10",
                "--seed", "3",
                "--policy", "coolest",
                "--policy", "edf",
                "-o", str(out),
            ]
        )
        assert code == 0
        expected = ratio_experiment(
            RandomModel(n=4, seed=3), ("coolest", "edf"), 10
        )
        assert out.read_text() == serialize_report(expected)
        stdout = capsys.readouterr().out
        assert "instances: 10" in stdout
        assert "coolest" in stdout and "edf" in stdout
        assert "ok" in stdout

    @pytest.mark.parametrize(
        "argv",
        [
            # The coolest row's mean ratio, 228883/192192 (1.191), is 21 characters.
            ["--n", "16", "--count", "32", "--seed", "7919", "--release-span", "16"]
            + ["--max-window", "10", "--policy", "coolest", "--policy", "edf"],
            # The only policy name is shorter than the header "policy".
            ["--n", "2", "--count", "2", "--policy", "edf"],
        ],
    )
    def test_summary_columns_fit_their_widest_cell(self, argv, capsys):
        assert main(["experiment", *argv]) == 0
        lines = capsys.readouterr().out.splitlines()[1:]
        bound = lines[0].index("bound")
        for line in lines:
            assert len(re.split(" {2,}", line)) == 4
            assert line[bound - 2 : bound] == "  "

    def test_repeated_policy_exits_two(self, capsys):
        argv = ["experiment", "--n", "2", "--count", "2", "--policy", "coolest"]
        assert main([*argv, "--policy", "edf", "--policy", "coolest"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: policy names must be distinct, got ('coolest', 'edf', 'coolest')\n"
        )

    def test_counterexamples_exit_one(self, capsys):
        code = main(
            ["experiment", "--n", "3", "--count", "5", "--policy", "idle"]
        )
        assert code == 1
        assert "counterexample" in capsys.readouterr().out

    def test_unproven_optimum_exits_one(self, capsys):
        code = main(
            ["experiment", "--n", "3", "--count", "2", "--policy", "coolest", "--budget", "1"]
        )
        assert code == 1
        assert "unproven optimum: 2 instance(s)" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "option, value",
        [
            ("--budget", "-5"),
            ("--max-window", "0"),
            ("--release-span", "-1"),
            ("--n", "-1"),
            ("--count", "-1"),
        ],
    )
    def test_out_of_range_option_is_a_usage_error(self, option, value, capsys):
        argv = ["experiment", "--n", "3", "--count", "2", "--policy", "coolest"]
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, option, value])
        assert excinfo.value.code == 2
        assert option in capsys.readouterr().err

    def test_smallest_options_run(self, capsys):
        code = main(
            [
                "experiment", "--n", "0", "--count", "0", "--policy", "coolest",
                "--release-span", "0", "--max-window", "1", "--budget", "0",
            ]
        )
        assert code == 0
        assert "instances: 0" in capsys.readouterr().out


class TestRender:
    def test_text_output(self, tmp_path, instance_file, capsys):
        schedule_file = write_schedule(tmp_path, OPTIMAL)
        assert main(["render", instance_file, schedule_file]) == 0
        out = capsys.readouterr().out
        assert out.startswith("T = 1/1, R = 2/1")
        assert "1/10" in out

    def test_svg_output(self, tmp_path, instance_file, capsys):
        schedule_file = write_schedule(tmp_path, OPTIMAL)
        code = main(["render", instance_file, schedule_file, "--format", "svg"])
        assert code == 0
        assert capsys.readouterr().out.startswith("<svg ")

    def test_huge_heat(self, tmp_path, capsys):
        instance = tmp_path / "huge.json"
        instance.write_text(
            json.dumps(
                {
                    "threshold": "1/1",
                    "cooling_factor": "2/1",
                    "jobs": [{"id": 1, "release": 0, "deadline": 1, "heat": f"{10**400}/1"}],
                }
            )
        )
        schedule_file = write_schedule(tmp_path, Schedule((1,)))
        assert main(["render", str(instance), schedule_file]) == 0
        assert "5.000e+399" in capsys.readouterr().out

    def test_unknown_format_is_a_usage_error(self, tmp_path, instance_file):
        schedule_file = write_schedule(tmp_path, OPTIMAL)
        with pytest.raises(SystemExit) as excinfo:
            main(["render", instance_file, schedule_file, "--format", "png"])
        assert excinfo.value.code == 2
