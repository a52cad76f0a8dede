"""Canonical text formats: exactness, strictness, round trips."""

import collections
import dataclasses
import json
import pickle
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cli_cases import CASES
from strategies import configs, instance_with_feasible_schedule, instances, mixed_heats
from thermosched import (
    Instance,
    InvalidInstanceError,
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
DATA = Path(__file__).parent / "data"

GOLDEN_DOCUMENTS = {
    "instance": serialize_instance,
    "schedule": lambda _: serialize_schedule(Schedule((1, None, 3, 2, 4, None))),
    "trace": lambda inst: serialize_trace(simulate(inst, Schedule((1, 2, 3, None, 4, None)))),
    "run": lambda inst: serialize_run(run_online(inst, coolest_first_decide), trace=True),
    "run_edf": lambda inst: serialize_run(run_online(inst, edf_decide), trace=True),
    "run_notrace": lambda inst: serialize_run(run_online(inst, coolest_first_decide)),
    "transcript": lambda _: serialize_transcript(run_lower_bound_game(always_idle)),
    "report": lambda _: serialize_report(
        ratio_experiment(RandomModel(n=2, seed=4), ("coolest", "idle"), 2)
    ),
    # The benchmark's ratio_random model: 32 exact optima at n = 16.
    "report_n16": lambda _: serialize_report(
        ratio_experiment(
            RandomModel(n=16, release_span=16, max_window=10, seed=7919), ("coolest", "edf"), 32
        )
    ),
    "meta": lambda _: serialize_reduction_meta(
        gen_from_n3dm(N3DMInstance(a=(0, 8), b=(8, 0), c=(4, 4), beta=12))[1]
    ),
}


@pytest.mark.parametrize("kind", sorted(GOLDEN_DOCUMENTS))
def test_golden_bytes(kind, four_job_example):
    """Every document kind keeps its exact canonical bytes."""
    text = GOLDEN_DOCUMENTS[kind](four_job_example)
    assert text == (GOLDEN / f"{kind}.json").read_text()


def test_every_golden_is_checked():
    """Each golden file is a library writer's above or a CLI case's expectation,
    so none is left that nothing compares against."""
    checked = {f"{kind}.json" for kind in GOLDEN_DOCUMENTS}
    for step in [*CASES, *(case.then for case in CASES if case.then)]:
        expects = (step.stdout, step.stderr, *(expect for _, expect in step.files))
        checked.update(expect.name for expect in expects if isinstance(expect, Path))
    assert {path.name for path in GOLDEN.iterdir()} - checked == set()


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

    @pytest.mark.parametrize(
        "job, message",
        [
            ({"id": 2, "release": 0, "deadline": 2}, "missing field(s) heat"),
            ({**_JOB, "note": 1}, "unknown field(s) note"),
            ([2, 0, 2, "1/2"], "expected an object, got list"),
        ],
        ids=["missing", "unknown", "list"],
    )
    def test_job_object_errors(self, job, message):
        with pytest.raises(ParseError) as excinfo:
            parse_instance(_instance_document(_JOB, job))
        assert str(excinfo.value) == f"instance.jobs[1]: {message}"

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"jobs": {"1": _JOB}}, "instance.jobs: expected an array, got dict"),
            (
                {"jobs": [_JOB, {**_JOB, "id": True}]},
                "instance.jobs[1].id: expected an integer, got True",
            ),
            (
                {"jobs": [_JOB, {**_JOB, "release": 1.0}]},
                "instance.jobs[1].release: expected an integer, got 1.0",
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
        ids=["jobs", "id", "release-float", "heat-array", "heat-object", "heat-float"],
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


_GOLDEN_INSTANCE = (GOLDEN / "instance.json").read_text()
_GOLDEN_JOBS = _GOLDEN_INSTANCE[_GOLDEN_INSTANCE.index("[") : _GOLDEN_INSTANCE.rindex("]") + 1]
_FIRST_JOB = _GOLDEN_INSTANCE[_GOLDEN_INSTANCE.index("{", 1) : _GOLDEN_INSTANCE.index("}") + 1]
# The worked example that tests/golden/instance.json holds.
_WORKED = Instance(
    (
        Job(1, 0, 2, Fraction(2, 5)),
        Job(2, 0, 4, Fraction(3, 5)),
        Job(3, 2, 3, Fraction(19, 10)),
        Job(4, 4, 6, Fraction(4, 5)),
    )
)


def _reversed_job_keys(text):
    document = json.loads(text)
    document["jobs"] = [dict(reversed(job.items())) for job in document["jobs"]]
    return json.dumps(document, indent=2)


# One edit of the golden instance each: the text replaced, its replacement,
# and the Instance or the (exception type, message) that parse_instance gives.
_ONE_EDIT = {
    "job-keys-reordered": ('"id": 1,\n      "release": 0,', '"release": 0,\n      "id": 1,', _WORKED),
    "top-keys-reordered": (
        '"threshold": "1/1",\n  "cooling_factor": "2/1",',
        '"cooling_factor": "2/1",\n  "threshold": "1/1",',
        _WORKED,
    ),
    "repeated-key": (
        '"heat": "3/5"',
        '"heat": "3/5",\n      "heat": "3/5"',
        (ParseError, "instance.jobs[1]: repeated key 'heat'"),
    ),
    "renamed-key": (
        '"heat": "3/5"',
        '"hot": "3/5"',
        (ParseError, "instance.jobs[1]: missing field(s) heat"),
    ),
    "extra-key": (
        '"heat": "3/5"',
        '"heat": "3/5",\n      "note": 1',
        (ParseError, "instance.jobs[1]: unknown field(s) note"),
    ),
    "missing-key": (
        ',\n      "heat": "3/5"',
        "",
        (ParseError, "instance.jobs[1]: missing field(s) heat"),
    ),
    "true-id": (
        '"id": 1,',
        '"id": true,',
        (ParseError, "instance.jobs[0].id: expected an integer, got True"),
    ),
    "true-release": (
        '"release": 2,',
        '"release": true,',
        (ParseError, "instance.jobs[2].release: expected an integer, got True"),
    ),
    "float-release": (
        '"release": 2,',
        '"release": 1.0,',
        (ParseError, "instance.jobs[2].release: expected an integer, got 1.0"),
    ),
    "true-deadline": (
        '"deadline": 3,',
        '"deadline": true,',
        (ParseError, "instance.jobs[2].deadline: expected an integer, got True"),
    ),
    "number-heat": (
        '"2/5"',
        "0.4",
        (ParseError, "instance.jobs[0].heat: expected a rational string, got 0.4"),
    ),
    "array-heat": (
        '"2/5"',
        "[2, 5]",
        (ParseError, "instance.jobs[0].heat: expected a rational string, got [2, 5]"),
    ),
    "object-heat": (
        '"2/5"',
        '{"p": 2}',
        (ParseError, "instance.jobs[0].heat: expected a rational string, got {'p': 2}"),
    ),
    "zero-denominator": (
        '"2/5"',
        '"2/0"',
        (ParseError, "instance.jobs[0].heat: zero denominator in '2/0'"),
    ),
    "decimal-heat": ('"19/10"', '"1.9"', _WORKED),
    "padded-heat": ('"2/5"', '" 2/5\\t"', _WORKED),
    "number-threshold": (
        '"threshold": "1/1"',
        '"threshold": 1',
        (ParseError, "instance.threshold: expected a rational string, got 1"),
    ),
    "zero-denominator-threshold": (
        '"threshold": "1/1"',
        '"threshold": "1/0"',
        (ParseError, "instance.threshold: zero denominator in '1/0'"),
    ),
    "number-cooling-factor": (
        '"cooling_factor": "2/1"',
        '"cooling_factor": 2',
        (ParseError, "instance.cooling_factor: expected a rational string, got 2"),
    ),
    "top-key-missing": (
        ',\n  "jobs": ' + _GOLDEN_JOBS, "", (ParseError, "instance: missing field(s) jobs")
    ),
    "top-key-unknown": (
        '"cooling_factor": "2/1",',
        '"cooling_factor": "2/1",\n  "note": "hi",',
        (ParseError, "instance: unknown field(s) note"),
    ),
    "top-key-repeated": (
        '"cooling_factor": "2/1",',
        '"cooling_factor": "2/1",\n  "threshold": "2/1",',
        (ParseError, "instance: repeated key 'threshold'"),
    ),
    "not-an-object": (
        _GOLDEN_INSTANCE, "[1, 2]", (ParseError, "instance: expected an object, got list")
    ),
    "jobs-object": (_GOLDEN_JOBS, "{}", (ParseError, "instance.jobs: expected an array, got dict")),
    "jobs-empty": (_GOLDEN_JOBS, "[]", Instance(())),
    "jobs-out-of-id-order": (
        '"id": 1,',
        '"id": 5,',
        Instance((Job(5, 0, 2, Fraction(2, 5)),) + _WORKED.jobs[1:]),
    ),
    "digit-limit": (
        '"deadline": 6',
        '"deadline": 6' + "0" * 5000,
        (ParseError, "an integer has too many digits"),
    ),
    "malformed": ('"id": 1,', '"id": 1', (ParseError, "line 7: Expecting ',' delimiter")),
    "empty-window": (
        '"deadline": 3,',
        '"deadline": 2,',
        (InvalidInstanceError, "job 3: execution window is empty (release=2, deadline=2)"),
    ),
    "duplicate-id": ('"id": 2,', '"id": 1,', (InvalidInstanceError, "job 1: duplicate id")),
    # The writer's four pairs in order, but not in an object.
    "job-as-pairs": (
        _FIRST_JOB,
        '[["id", 1], ["release", 0], ["deadline", 2], ["heat", "2/5"]]',
        (ParseError, "instance.jobs[0]: expected an object, got list"),
    ),
    "job-null": (
        _FIRST_JOB, "null", (ParseError, "instance.jobs[0]: expected an object, got NoneType")
    ),
    "job-empty": (
        _FIRST_JOB, "{}", (ParseError, "instance.jobs[0]: missing field(s) id, release, deadline, heat")
    ),
    # The writer's four keys in order, then a fifth that json.loads would let win.
    "job-fifth-key-repeated": (
        '"heat": "2/5"',
        '"heat": "2/5",\n      "heat": "9/1"',
        (ParseError, "instance.jobs[0]: repeated key 'heat'"),
    ),
}


@pytest.mark.parametrize("old, new, expected", _ONE_EDIT.values(), ids=_ONE_EDIT)
def test_one_edit_of_the_golden_instance(old, new, expected):
    assert _GOLDEN_INSTANCE.count(old) == 1
    text = _GOLDEN_INSTANCE.replace(old, new)
    if isinstance(expected, Instance):
        assert parse_instance(text) == expected
    else:
        kind, message = expected
        with pytest.raises(kind) as excinfo:
            parse_instance(text)
        assert type(excinfo.value) is kind and str(excinfo.value) == message


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
    "parse, text, message",
    [
        (
            parse_instance,
            '{"threshold": "1/1", "cooling_factor": "2/1", "jobs": [], "note": {"a": 1, "a": 2}}',
            "instance: unknown field(s) note",
        ),
        (
            parse_instance,
            '{"threshold": {"a": 1, "a": 2}, "cooling_factor": "2/1", "jobs": []}',
            "instance.threshold: expected a rational string, got {'a': 2}",
        ),
        (
            parse_instance,
            '{"threshold": "1/1", "cooling_factor": "2/1", "jobs": {"a": 1, "a": 2}}',
            "instance.jobs: expected an array, got dict",
        ),
        (parse_schedule, '[1, {"a": 1, "a": 2}]', "slot[1]: expected an integer, got {'a': 2}"),
        (parse_schedule, '{"a": 1, "a": 2}', "slot: expected an array, got dict"),
    ],
    ids=["unknown-field", "threshold", "jobs", "slot", "schedule"],
)
def test_repeated_key_where_no_object_is_expected(parse, text, message):
    """No parser reads these objects' keys; each fails the check made there
    and shows the object as json.loads gives it, its last value kept."""
    with pytest.raises(ParseError) as excinfo:
        parse(text)
    assert str(excinfo.value) == message


def _nested(kind, depth):
    """An empty array, or an object of one key, nested depth levels deep."""
    if kind == "array":
        return "[" * depth + "]" * depth
    return '{"a": ' * (depth - 1) + "{}" + "}" * (depth - 1)


_DEPTHS = (*range(1, 40), *range(40, 900, 37), *range(900, 991))


@pytest.mark.parametrize("kind", ["array", "object"])
def test_deep_nesting_is_a_parse_error(kind, tmp_path, capsys):
    """At any depth the decoder takes, the error message shows the value;
    past it, the error says so. Neither raises RecursionError."""
    for depth in _DEPTHS:
        value = _nested(kind, depth)
        for parse, text, where in [
            (parse_instance, _GOLDEN_INSTANCE.replace('"2/5"', value), "instance.jobs[0].heat"),
            (parse_instance, _GOLDEN_INSTANCE.replace('"1/1"', value), "instance.threshold"),
            (parse_schedule, f"[1, {value}]", "slot[1]"),
        ]:
            with pytest.raises(ParseError) as excinfo:
                parse(text)
            message = str(excinfo.value)
            assert message.startswith(f"{where}: expected a") or message == (
                "arrays or objects are nested too deep"
            ), (depth, message[:80])
    path = tmp_path / "deep.json"
    path.write_text(_GOLDEN_INSTANCE.replace('"2/5"', _nested(kind, _DEPTHS[-1])))
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def _fuzzed(rng, text):
    """One random edit of an instance document: of a byte or a line of its
    text, or of one object of its decoded tree."""
    edit = rng.randrange(8)
    if edit < 3:
        data = bytearray(text.encode())
        if edit == 0:
            data[rng.randrange(len(data))] = rng.randrange(256)
        elif edit == 1:
            data.insert(rng.randrange(len(data)), rng.choice(b'{}[],:"-0.\\ '))
        else:
            digits = [pos for pos, byte in enumerate(data) if 48 <= byte <= 57]
            data[rng.choice(digits)] = rng.randrange(48, 58)
        return data.decode("utf-8", errors="replace")
    if edit == 3:
        lines = text.splitlines(keepends=True)
        lines.insert(rng.randrange(len(lines)), rng.choice(lines))  # maybe a repeated key
        return "".join(lines)
    document = json.loads(text)
    if edit == 7:  # every object's keys in a random order
        jobs = [dict(rng.sample(list(job.items()), len(job))) for job in document["jobs"]]
        document = dict(rng.sample(list({**document, "jobs": jobs}.items()), len(document)))
        return json.dumps(document, indent=rng.choice([None, 2]))
    owner = rng.choice([document, *document["jobs"]])
    key = rng.choice(list(owner))
    if edit == 4:
        del owner[key]
    elif edit == 5:
        owner[key] = rng.choice(
            [None, True, 0, 3, -1, 2**70, 1.5, "", "3/7", "0.25", "1/0", " 7/4 ", "1e3", [], {}]
        )
    else:
        owner[rng.choice(["note", key + "s", key.upper()])] = owner.pop(key)
    return json.dumps(document, indent=rng.choice([None, 2]))


def test_seeded_parse_fuzz():
    """Edits of committed instance files raise ParseError or
    InvalidInstanceError, or parse to an instance that round-trips."""
    rng = random.Random(20081)
    sources = [_GOLDEN_INSTANCE] + [path.read_text() for path in sorted(DATA.glob("*.json"))]
    outcomes = collections.Counter()
    for _ in range(1000):
        text = _fuzzed(rng, rng.choice(sources))
        try:
            instance = parse_instance(text)
        except (ParseError, InvalidInstanceError) as exc:
            outcomes[type(exc).__name__] += 1
            continue
        outcomes["parsed"] += 1
        assert parse_instance(serialize_instance(instance)) == instance
    # Each outcome is reached: at this seed 703 parse errors, 46 invalid, 251 parsed.
    assert len(outcomes) == 3 and min(outcomes.values()) >= 25, outcomes


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
@given(st.one_of(instances(), instances(config=configs(), heat=mixed_heats())))
def test_reversed_job_keys_parse_to_the_same_instance(instance):
    """The parser reads what the writer wrote, in another key order."""
    assert parse_instance(_reversed_job_keys(serialize_instance(instance))) == instance


@settings(max_examples=100, deadline=None)
@given(instances(min_jobs=1, config=configs(), heat=mixed_heats()))
def test_parsed_jobs_are_real_jobs(instance):
    """A job the parser builds cannot be told from Job(...) with the same fields."""
    text = serialize_instance(instance)
    for parsed in (parse_instance(text), parse_instance(_reversed_job_keys(text))):
        for job in parsed.jobs:
            built = Job(job.id, job.release, job.deadline, job.heat)
            assert job == built and hash(job) == hash(built) and repr(job) == repr(built)
            assert vars(job) == vars(built)
            assert [type(value) for value in vars(job).values()] == [int, int, int, Fraction]
            assert pickle.loads(pickle.dumps(job)) == built
            cooler = dataclasses.replace(job, heat=Fraction(0))
            assert cooler == Job(job.id, job.release, job.deadline, Fraction(0))
            with pytest.raises(dataclasses.FrozenInstanceError):
                job.heat = Fraction(0)


@settings(max_examples=200, deadline=None)
@given(instance_with_feasible_schedule())
def test_trace_round_trip_property(pair):
    instance, schedule = pair
    assert parse_schedule(serialize_schedule(schedule)) == schedule
    trace = simulate(instance, schedule)
    _assert_trace_written(serialize_trace(trace), trace)
