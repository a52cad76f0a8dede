"""Canonical text formats: exactness, strictness, round trips."""

import json
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strategies import configs, instance_with_feasible_schedule, instances, mixed_heats
from thermosched import (
    Instance,
    Job,
    RandomModel,
    Schedule,
    ThreePartitionInstance,
    always_idle,
    coolest_first_decide,
    edf_decide,
    format_rational,
    gen_from_3partition,
    gen_from_n3dm,
    parse_instance,
    parse_rational,
    parse_schedule,
    ratio_experiment,
    run_lower_bound_game,
    run_online,
    serialize_instance,
    serialize_report,
    serialize_schedule,
    serialize_trace,
    simulate,
)
from thermosched.serialization import (
    ParseError,
    parse_n3dm_source,
    parse_three_partition_source,
    serialize_reduction_meta,
    serialize_run,
    serialize_transcript,
)
from thermosched.cli import main
from thermosched.reductions import InvalidSourceError, N3DMInstance

GOLDEN = Path(__file__).parent / "golden"
TIGHT_CUT = Path(__file__).parent / "data" / "tight_cut.json"
STREAM = Path(__file__).parent / "data" / "stream.json"


def _opt_document(instance, tmp_path, capsys):
    path = tmp_path / "instance.json"
    path.write_text(serialize_instance(instance))
    main(["opt", str(path)])
    return capsys.readouterr().out


def _online_tight_cut_document(_, tmp_path, capsys):
    main(["online", str(TIGHT_CUT), "--policy", "coolest", "--trace"])
    return capsys.readouterr().out


def _online_stream_document(_, tmp_path, capsys):
    main(["online", str(STREAM), "--policy", "edf", "--trace"])
    return capsys.readouterr().out


GOLDEN_DOCUMENTS = {
    "instance": lambda inst, *_: serialize_instance(inst),
    "schedule": lambda *_: serialize_schedule(Schedule((1, None, 3, 2, 4, None))),
    "trace": lambda inst, *_: serialize_trace(simulate(inst, Schedule((1, 2, 3, None, 4, None)))),
    "run": lambda inst, *_: serialize_run(run_online(inst, coolest_first_decide), trace=True),
    "run_edf": lambda inst, *_: serialize_run(run_online(inst, edf_decide), trace=True),
    "run_notrace": lambda inst, *_: serialize_run(run_online(inst, coolest_first_decide)),
    "transcript": lambda *_: serialize_transcript(run_lower_bound_game(always_idle)),
    "report": lambda *_: serialize_report(
        ratio_experiment(RandomModel(n=2, seed=4), ("coolest", "idle"), 2)
    ),
    # The benchmark's ratio_random model: 32 exact optima at n = 16.
    "report_n16": lambda *_: serialize_report(
        ratio_experiment(
            RandomModel(n=16, release_span=16, max_window=10, seed=7919), ("coolest", "edf"), 32
        )
    ),
    "meta": lambda *_: serialize_reduction_meta(
        gen_from_n3dm(N3DMInstance(a=(0, 8), b=(8, 0), c=(4, 4), beta=12))[1]
    ),
    "opt": _opt_document,
    # T = 5/3, R = 3/2: CoolestFirst on the data file, through the CLI.
    "run_tight_cut": _online_tight_cut_document,
    # 64 jobs over 72 slots: most slots see an arrival, an expiry or both.
    "run_stream": _online_stream_document,
}


@pytest.mark.parametrize("kind", sorted(GOLDEN_DOCUMENTS))
def test_golden_bytes(kind, four_job_example, tmp_path, capsys):
    """Every document kind keeps its exact canonical bytes."""
    text = GOLDEN_DOCUMENTS[kind](four_job_example, tmp_path, capsys)
    assert text == (GOLDEN / f"{kind}.json").read_text()


class TestRationals:
    def test_format_always_spells_denominator(self):
        assert format_rational(Fraction(7, 4)) == "7/4"
        assert format_rational(Fraction(2)) == "2/1"
        assert format_rational(Fraction(-1, 2)) == "-1/2"
        assert format_rational(Fraction(0)) == "0/1"

    def test_parse_fraction_forms(self):
        assert parse_rational("7/4") == Fraction(7, 4)
        assert parse_rational(" 7/4 ") == Fraction(7, 4)
        assert parse_rational("\t7/4\r\n") == Fraction(7, 4)
        assert parse_rational("+2/6") == Fraction(1, 3)
        assert parse_rational("-3/2") == Fraction(-3, 2)

    def test_parse_decimal_forms(self):
        assert parse_rational("1.9") == Fraction(19, 10)
        assert parse_rational("-0.25") == Fraction(-1, 4)
        assert parse_rational("3") == 3

    @pytest.mark.parametrize(
        "bad", ["1e3", ".5", "1/2/3", "0x10", "nan", "Infinity", "1 / 2", ""]
    )
    def test_parse_rejects_non_canonical(self, bad):
        with pytest.raises(ParseError):
            parse_rational(bad)

    def test_parse_rejects_zero_denominator(self):
        with pytest.raises(ParseError, match="zero denominator"):
            parse_rational("1/0")

    @pytest.mark.parametrize("bad", ["١/٢", "٣", "1/٢", "٣.5", "1_0/3", "1.2_5"])
    def test_parse_accepts_ascii_digits_only(self, bad):
        """Other scripts' digits and digit-group underscores are not rationals,
        though int() would read them ("١/٢" as 1/2, "٣" as 3)."""
        with pytest.raises(ParseError, match=re.escape(repr(bad))):
            parse_rational(bad, where="heat")

    @pytest.mark.parametrize("bad", ["\u00a07/4", "7/4\u2003", "\u30007/4"])
    def test_parse_strips_ascii_blanks_only(self, bad):
        """str.strip() would drop a no-break space, an em space or an
        ideographic space and read 7/4."""
        with pytest.raises(ParseError, match=re.escape(repr(bad))):
            parse_rational(bad, where="heat")

    def test_parse_rejects_non_strings(self):
        with pytest.raises(ParseError, match="rational string"):
            parse_rational(1.75, where="heat")

    def test_same_text_fails_at_each_path(self):
        assert parse_rational("3/4", where="a") == Fraction(3, 4)
        for where in ("a", "b"):
            with pytest.raises(ParseError, match=rf"^{where}: zero denominator in '3/0'$"):
                parse_rational("3/0", where=where)
        assert parse_rational("3/4", where="b") == Fraction(3, 4)

    def test_round_trip_past_the_int_digit_limit(self):
        """Python's int <-> str conversions stop at 4,300 digits by default;
        a rational of any length still round-trips exactly."""
        value = Fraction(1, (10**5000 - 1) // 9 * 7)
        text = "1/" + "7" * 5000
        assert parse_rational(text) == value
        assert format_rational(value) == text
        assert parse_rational("0." + "0" * 4999 + "1") == Fraction(1, 10**5000)


_JOB = {"id": 1, "release": 0, "deadline": 2, "heat": "1/2"}


def _instance_document(*jobs):
    return json.dumps({"threshold": "1/1", "cooling_factor": "2/1", "jobs": list(jobs)})


class TestInstanceFormat:
    def test_round_trip(self, four_job_example):
        text = serialize_instance(four_job_example)
        assert parse_instance(text) == four_job_example
        assert serialize_instance(parse_instance(text)) == text

    def test_heats_stay_exact(self, four_job_example):
        text = serialize_instance(four_job_example)
        assert '"heat": "2/5"' in text
        assert '"heat": "19/10"' in text
        assert "0.4" not in text

    def test_trailing_newline_and_indent(self, four_job_example):
        text = serialize_instance(four_job_example)
        assert text.endswith("}\n")
        assert '\n  "threshold": "1/1",\n' in text

    def test_decimal_heats_accepted_and_canonicalized(self):
        text = json.dumps(
            {
                "threshold": "1",
                "cooling_factor": "2.0",
                "jobs": [{"id": 1, "release": 0, "deadline": 3, "heat": "1.9"}],
            }
        )
        instance = parse_instance(text)
        assert instance.jobs[0].heat == Fraction(19, 10)
        assert instance.config.cooling_factor == 2
        assert '"heat": "19/10"' in serialize_instance(instance)

    def test_jobs_sorted_by_id_on_parse(self):
        text = json.dumps(
            {
                "threshold": "1/1",
                "cooling_factor": "2/1",
                "jobs": [
                    {"id": 2, "release": 0, "deadline": 2, "heat": "0/1"},
                    {"id": 1, "release": 0, "deadline": 2, "heat": "0/1"},
                ],
            }
        )
        assert [j.id for j in parse_instance(text).jobs] == [1, 2]

    def test_empty_instance(self):
        instance = Instance(jobs=())
        assert parse_instance(serialize_instance(instance)) == instance

    def test_missing_field(self):
        with pytest.raises(ParseError, match="missing field.*jobs"):
            parse_instance('{"threshold": "1/1", "cooling_factor": "2/1"}')

    def test_unknown_field(self):
        text = json.dumps(
            {"threshold": "1/1", "cooling_factor": "2/1", "jobs": [], "note": "hi"}
        )
        with pytest.raises(ParseError, match="unknown field.*note"):
            parse_instance(text)

    def test_field_paths_in_errors(self):
        text = json.dumps(
            {
                "threshold": "1/1",
                "cooling_factor": "2/1",
                "jobs": [{"id": 1, "release": 0, "deadline": 2, "heat": 0.4}],
            }
        )
        with pytest.raises(ParseError, match=r"jobs\[0\].heat"):
            parse_instance(text)

    def test_boolean_is_not_an_integer(self):
        text = json.dumps(
            {
                "threshold": "1/1",
                "cooling_factor": "2/1",
                "jobs": [{"id": True, "release": 0, "deadline": 2, "heat": "0/1"}],
            }
        )
        with pytest.raises(ParseError, match=r"jobs\[0\].id"):
            parse_instance(text)

    def test_malformed_json_reports_line(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_instance('{\n  "threshold": ,\n}')

    def test_repeated_job_field(self):
        """json.loads alone would keep the last heat, 1/2, without a word."""
        text = (
            '{"threshold": "1/1", "cooling_factor": "2/1", "jobs": '
            '[{"id": 1, "release": 0, "deadline": 2, "heat": "9/1", "heat": "1/2"}]}'
        )
        with pytest.raises(ParseError, match=r"^instance\.jobs\[0\]: repeated key 'heat'$"):
            parse_instance(text)

    def test_repeated_top_level_key(self):
        text = '{"threshold": "1/1", "cooling_factor": "2/1", "jobs": [], "threshold": "2/1"}'
        with pytest.raises(ParseError, match=r"^instance: repeated key 'threshold'$"):
            parse_instance(text)

    @pytest.mark.parametrize(
        "job, message",
        [
            ({"id": 2, "release": 0, "deadline": 2}, "missing field(s) heat"),
            ({**_JOB, "note": 1}, "unknown field(s) note"),
            ({"id": 2, "release": 0, "deadline": 2, "hot": "1/2"}, "missing field(s) heat"),
            ([2, 0, 2, "1/2"], "expected an object, got list"),
            (None, "expected an object, got NoneType"),
        ],
        ids=["missing", "unknown", "renamed", "list", "null"],
    )
    def test_job_object_errors(self, job, message):
        with pytest.raises(ParseError) as excinfo:
            parse_instance(_instance_document(_JOB, job))
        assert str(excinfo.value) == f"instance.jobs[1]: {message}"

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"threshold": "1/0"}, "instance.threshold: zero denominator in '1/0'"),
            ({"cooling_factor": 2}, "instance.cooling_factor: expected a rational string, got 2"),
            ({"jobs": {"1": _JOB}}, "instance.jobs: expected an array, got dict"),
            (
                {"jobs": [_JOB, {**_JOB, "id": True}]},
                "instance.jobs[1].id: expected an integer, got True",
            ),
            (
                {"jobs": [_JOB, {**_JOB, "release": True}]},
                "instance.jobs[1].release: expected an integer, got True",
            ),
            (
                {"jobs": [_JOB, {**_JOB, "release": 1.0}]},
                "instance.jobs[1].release: expected an integer, got 1.0",
            ),
            (
                {"jobs": [_JOB, {**_JOB, "deadline": True}]},
                "instance.jobs[1].deadline: expected an integer, got True",
            ),
            (
                {"jobs": [_JOB, {**_JOB, "heat": [1, 2]}]},
                "instance.jobs[1].heat: expected a rational string, got [1, 2]",
            ),
            (
                {"jobs": [_JOB, {**_JOB, "heat": {"p": 1}}]},
                "instance.jobs[1].heat: expected a rational string, got {'p': 1}",
            ),
            (
                {"jobs": [_JOB, {**_JOB, "heat": 0.5}]},
                "instance.jobs[1].heat: expected a rational string, got 0.5",
            ),
        ],
        ids=[
            "threshold", "cooling_factor", "jobs", "id", "release", "release-float", "deadline",
            "heat-array", "heat-object", "heat-float",
        ],
    )
    def test_field_errors(self, fields, message):
        document = {"threshold": "1/1", "cooling_factor": "2/1", "jobs": [_JOB], **fields}
        with pytest.raises(ParseError) as excinfo:
            parse_instance(json.dumps(document))
        assert str(excinfo.value) == message

    def test_bad_heat_fails_at_its_path_every_time(self):
        bad = {**_JOB, "id": 2, "heat": "1/0"}
        for _ in range(2):
            assert parse_instance(_instance_document(_JOB)).jobs[0].heat == Fraction(1, 2)
            for pos, jobs in enumerate([(bad, _JOB), (_JOB, bad)]):
                where = re.escape(f"instance.jobs[{pos}].heat")
                with pytest.raises(ParseError, match=rf"^{where}: zero denominator in '1/0'$"):
                    parse_instance(_instance_document(*jobs))

    def test_non_object_top_level(self):
        with pytest.raises(ParseError, match="expected an object"):
            parse_instance("[1, 2]")


class TestScheduleFormat:
    def test_round_trip(self):
        schedule = Schedule((1, None, 3, None))
        text = serialize_schedule(schedule)
        assert text == "[\n  1,\n  null,\n  3,\n  null\n]\n"
        assert parse_schedule(text) == schedule

    def test_empty(self):
        assert parse_schedule("[]") == Schedule(())

    def test_rejects_non_integers(self):
        with pytest.raises(ParseError, match=r"^slot\[1\]: expected an integer, got 'x'$"):
            parse_schedule('[1, "x"]')

    def test_rejects_non_arrays(self):
        with pytest.raises(ParseError, match="^slot: expected an array, got dict$"):
            parse_schedule("{}")


@pytest.mark.parametrize(
    "parse, text",
    [
        (
            parse_instance,
            '{"threshold": "1/1", "cooling_factor": "2/1", "jobs": [], "note": {"a": 1, "a": 2}}',
        ),
        (parse_instance, '{"threshold": {"a": 1, "a": 2}, "cooling_factor": "2/1", "jobs": []}'),
        (parse_instance, '{"threshold": "1/1", "cooling_factor": "2/1", "jobs": {"a": 1, "a": 2}}'),
        (parse_schedule, '[1, {"a": 1, "a": 2}]'),
        (parse_schedule, '{"a": 1, "a": 2}'),
    ],
    ids=["unknown-field", "threshold", "jobs", "slot", "schedule"],
)
def test_repeated_key_where_no_object_is_expected(parse, text):
    """No parser reads these objects' keys; each still fails the check made there."""
    with pytest.raises(ParseError) as excinfo:
        parse(text)
    assert "_Repeated" not in str(excinfo.value)


def _assert_trace_written(text, trace):
    """The document holds the trace's values; each temperature reads back exactly."""
    document = json.loads(text)
    assert [parse_rational(t) for t in document["temperatures"]] == list(trace.temperatures)
    assert document["completed"] == sorted(trace.completed)
    assert document["throughput"] == trace.throughput
    assert document["violations"] == [
        {"time": v.time, "kind": v.kind, "job": v.job} for v in trace.violations
    ]


class TestTraceFormat:
    def test_round_trip_clean(self, four_job_example):
        trace = simulate(four_job_example, Schedule((1, 2, None, None, 4, None)))
        assert not trace.violations
        _assert_trace_written(serialize_trace(trace), trace)

    def test_round_trip_at_horizon_15001(self):
        """Past slot 14,284 the denominators 2^t have more than 4,300 digits,
        which format_rational writes and parse_rational reads through Decimal."""
        instance = parse_instance((Path(__file__).parent / "data" / "long_gap.json").read_text())
        assert instance.horizon == 15_001
        trace = simulate(instance, Schedule((1,)))
        assert trace.throughput == 1
        _assert_trace_written(serialize_trace(trace), trace)

    def test_round_trip_with_violations(self, four_job_example):
        trace = simulate(four_job_example, Schedule((1, 2, 3, None, 4, None)))
        assert trace.violations
        _assert_trace_written(serialize_trace(trace), trace)

    def test_temperatures_are_rational_strings(self, four_job_example):
        trace = simulate(four_job_example, Schedule((1, 2, None, None, 4, None)))
        document = json.loads(serialize_trace(trace))
        assert document["temperatures"][0] == "0/1"
        assert all("/" in t for t in document["temperatures"])


def _stream(jobs):
    """Job i released at i // 2 with window 5 and heat 1/4."""
    return Instance(tuple(Job(i, i // 2, i // 2 + 5, Fraction(1, 4)) for i in range(jobs)))


class TestRunAndTranscriptDocuments:
    def test_run_document_shape(self, four_job_example):
        run = run_online(four_job_example, coolest_first_decide)
        document = json.loads(serialize_run(run))
        assert set(document) == {"schedule", "pending"}
        assert document["schedule"] == [1, 2, None, None, 4, None]
        assert document["pending"] == [[1, 2], [2], [3], [], [4], []]
        traced = json.loads(serialize_run(run, trace=True))
        assert set(traced) == {"schedule", "trace", "pending"}
        assert {k: traced[k] for k in document} == document
        trace = simulate(four_job_example, run.schedule)
        assert traced["trace"] == json.loads(serialize_trace(trace))

    def test_run_document_grows_linearly(self):
        """Without the exact temperatures, whose digits grow with the slot,
        twice the jobs on a stream write at most 2.1 times the bytes."""
        small, large = (
            len(serialize_run(run_online(_stream(n), coolest_first_decide))) for n in (2000, 4000)
        )
        assert large <= 2.1 * small

    def test_transcript_document_shape(self):
        transcript = run_lower_bound_game(always_idle)
        document = json.loads(serialize_transcript(transcript))
        assert document["branch"] == "idle"
        assert document["adv_throughput"] == 2
        assert document["adversary_schedule"] == [1, None, 3]
        assert document["adversary_trace"]["temperatures"][-1] == "19/20"

    def test_transcript_serialization_is_deterministic(self):
        a = serialize_transcript(run_lower_bound_game(coolest_first_decide))
        b = serialize_transcript(run_lower_bound_game(coolest_first_decide))
        assert a == b


def _rationals(obj):
    """A document's {name: "p/q" or null} object with its rationals read back."""
    return {name: None if text is None else parse_rational(text) for name, text in obj.items()}


class TestReportFormat:
    def test_round_trip(self):
        report = ratio_experiment(RandomModel(n=3, seed=5), ("coolest", "edf"), 6)
        document = json.loads(serialize_report(report))
        names = report.policies
        assert document["policies"] == list(names)
        assert document["count"] == report.count == 6
        for entry, record in zip(document["records"], report.records, strict=True):
            assert entry["seed"] == record.seed and entry["opt"] == record.opt
            assert entry["throughputs"] == dict(zip(names, record.throughputs))
            assert _rationals(entry["ratios"]) == dict(zip(names, record.ratios))
        assert _rationals(document["max_ratios"]) == dict(zip(names, report.max_ratios))
        assert _rationals(document["mean_ratios"]) == dict(zip(names, report.mean_ratios))

    def test_round_trip_with_undefined_ratios(self):
        report = ratio_experiment(RandomModel(n=2, seed=11), ("coolest", "idle"), 5)
        assert any(r.ratios[1] is None for r in report.records)
        document = json.loads(serialize_report(report))
        for entry, record in zip(document["records"], report.records, strict=True):
            assert _rationals(entry["ratios"]) == dict(zip(report.policies, record.ratios))
        assert document["counterexamples"] == [
            {"seed": c.seed, "policy": c.policy, "opt": c.opt, "throughput": c.throughput}
            for c in report.counterexamples
        ]

    def test_ratios_serialized_as_strings_or_null(self):
        report = ratio_experiment(RandomModel(n=3, seed=5), ("coolest",), 4)
        document = json.loads(serialize_report(report))
        for entry in document["records"]:
            value = entry["ratios"]["coolest"]
            assert value is None or "/" in value


class TestReductionMetaFormat:
    def test_sidecar_never_embeds_the_instance(self):
        _, meta = gen_from_3partition(ThreePartitionInstance.from_values((3, 3, 3)))
        document = json.loads(serialize_reduction_meta(meta))
        assert set(document) == {"kind", "n", "beta", "origins", "intervals"}


class TestSourceFiles:
    def test_three_partition_with_comments(self):
        text = "# toy source\n3 3 3  # one triple\n"
        src = parse_three_partition_source(text)
        assert src.values == (3, 3, 3)
        assert src.beta == 9

    def test_three_partition_bad_token_line(self):
        with pytest.raises(ParseError, match="line 2: 'x'"):
            parse_three_partition_source("3 3\nx 3")
        with pytest.raises(ParseError, match="line 3: 'x'"):
            parse_three_partition_source("3 3\r3\r\nx 3")

    @pytest.mark.parametrize("token", ["4_4", "٤", "4٤"])
    def test_three_partition_takes_ascii_digits_only(self, token):
        """int() would read "4_4" as 44 and "٤" as 4."""
        with pytest.raises(ParseError, match=re.escape(f"line 1: {token!r} is not an integer")):
            parse_three_partition_source(f"{token} 4 4 4 4 6\n")

    @pytest.mark.parametrize("token", ["1_2", "١٢"])
    def test_n3dm_takes_ascii_digits_only(self, token):
        with pytest.raises(ParseError, match=re.escape(f"line 2: {token!r} is not an integer")):
            parse_n3dm_source(f"12\n0 8 8 0 4 {token}\n")

    @pytest.mark.parametrize("text, token", [("1\u00a02 3", "1\u00a02"), ("4 4\u2003", "4\u2003")])
    def test_tokens_split_on_ascii_blanks_only(self, text, token):
        """str.split() would read "1\u00a02 3" as the three tokens 1, 2, 3."""
        with pytest.raises(ParseError, match=re.escape(f"line 1: {token!r} is not an integer")):
            parse_three_partition_source(text)

    def test_integer_past_the_digit_limit(self):
        with pytest.raises(ParseError, match="line 2: an integer has too many digits"):
            parse_three_partition_source("4 4\n" + "1" * 5000 + " 4\n")

    def test_three_partition_empty(self):
        with pytest.raises(ParseError, match="no values"):
            parse_three_partition_source("# nothing\n")

    def test_n3dm_empty(self):
        with pytest.raises(ParseError, match="^matching source: no values found$"):
            parse_n3dm_source("# nothing\n")

    def test_three_partition_semantic_errors_are_source_errors(self):
        with pytest.raises(InvalidSourceError, match="3n values"):
            parse_three_partition_source("3 3 3 3")

    def test_n3dm_layout(self):
        text = "12\n0 8\n8 0\n4 4\n"
        src = parse_n3dm_source(text)
        assert src == N3DMInstance(a=(0, 8), b=(8, 0), c=(4, 4), beta=12)

    def test_n3dm_ignores_line_breaks(self):
        assert parse_n3dm_source("12 0 8 8 0 4 4") == parse_n3dm_source(
            "12\n0 8\n8 0\n4 4\n"
        )
        assert parse_n3dm_source("12\t0 8\r\n8\v0\f4 4\n") == parse_n3dm_source(
            "12\n0 8\n8 0\n4 4\n"
        )

    def test_n3dm_token_count(self):
        with pytest.raises(ParseError, match="beta plus 3n"):
            parse_n3dm_source("12 1 2")


@settings(max_examples=200, deadline=None)
@given(st.one_of(instances(), instances(config=configs(), heat=mixed_heats())))
def test_instance_round_trip_property(instance):
    text = serialize_instance(instance)
    assert parse_instance(text) == instance
    assert serialize_instance(parse_instance(text)) == text


@settings(max_examples=200, deadline=None)
@given(instance_with_feasible_schedule())
def test_trace_round_trip_property(pair):
    instance, schedule = pair
    assert parse_schedule(serialize_schedule(schedule)) == schedule
    trace = simulate(instance, schedule)
    _assert_trace_written(serialize_trace(trace), trace)
