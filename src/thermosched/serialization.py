"""Canonical text formats for instances, schedules and results.

All structured documents are JSON with two-space indent, a trailing
newline and fixed key order; rationals appear as lowest-terms "p/q"
strings (a "7/4" heat is emitted verbatim, never as a float). Parsing
is strict: unknown, missing or repeated fields are rejected, rationals
must be "p/q" or a finite decimal, and every diagnostic names the
offending field path, as in "instance.jobs[0]: repeated key 'heat'".
The point of one canonical byte form is that round-trip and
determinism tests can compare serialized documents directly.

The program parses only its inputs: an instance, a schedule and a
reduction source file. Each JSON input has a plain writer and a direct
parser, kept in agreement by the golden bytes under tests/golden and by
test_instance_round_trip_property, which acceptance criterion 7 runs
at 200 cases with non-default configs.

parse_instance has two routes. A document in the writer's exact shape
(its key order, exact ints, heat texts that parse) is decoded in one
pass with no Python call per object, and its jobs are built without
repeating Job's type checks. Any other document, malformed or only in
another key order, takes the general route, which checks each field
and words every error; both give the same Instance or the same error.

Every other document is a function of what its writer was given (a
trace of instance and schedule, a ratio report of model, policies and
seeds, and so on), so it is written and never parsed. A run document
holds the schedule and the pending ids of each slot. Its trace, which
simulate(instance, schedule) gives exactly and whose exact
temperatures grow the document with the square of the horizon, is
written only by serialize_run(run, trace=True), as in a transcript's
algorithm block. A sidecar holds ReductionMeta(source).

Reduction source files are plain integer tokens with '#' comments;
see parse_three_partition_source and parse_n3dm_source.
"""

from __future__ import annotations

import json
import re
from dataclasses import asdict
from decimal import Decimal
from fractions import Fraction
from typing import Any, KeysView, Optional, Sequence

from .adversary import AdversaryTranscript, RatioReport
from .model import Instance, Job, Schedule, SimulationTrace, ThermalConfig, _unchecked_job
from .policies import OnlineRun
from .reductions import N3DMInstance, ReductionMeta, ThreePartitionInstance
from .solver import OptResult

# ASCII digits only: \d and int() would also take other scripts' digits
# ("١/٢" as 1/2), and int() digit-group underscores ("4_4" as 44).
_FRACTION_RE = re.compile(r"[+-]?[0-9]+/[0-9]+\Z")
_DECIMAL_RE = re.compile(r"[+-]?[0-9]+(\.[0-9]+)?\Z")
_INTEGER_RE = re.compile(r"[+-]?[0-9]+\Z")
# ASCII blanks only: str.strip() and str.split() would also drop a no-break
# space (U+00A0) or an em space, which the formats do not allow.
_BLANKS = " \t\n\r\f\v"
_TOKEN_RE = re.compile(f"[^{_BLANKS}]+")
_LINE_BREAK_RE = re.compile(r"\r\n?|\n")


class ParseError(ValueError):
    """Input text does not conform to a canonical format."""


# Python refuses int <-> str conversions past sys.get_int_max_str_digits()
# (4,300 digits by default) with ValueError. A rational gets that long (a
# temperature after thousands of slots), so format_rational and
# parse_rational fall back on that error to Decimal, which converts exactly
# with no such limit; the common path stays a plain str() or int(). An
# integer that long (a JSON number, a source token) is refused with ParseError.


def format_rational(value: Fraction) -> str:
    """Lowest-terms "p/q" form, denominator always spelled out, at any length."""
    try:
        return f"{value.numerator}/{value.denominator}"
    except ValueError:
        return f"{Decimal(value.numerator)}/{Decimal(value.denominator)}"


def parse_rational(text: Any, where: str = "value") -> Fraction:
    """Exact rational from "p/q" or a finite decimal string, at any length."""
    if not isinstance(text, str):
        raise ParseError(f"{where}: expected a rational string, got {text!r}")
    token = text.strip(_BLANKS)
    if _FRACTION_RE.fullmatch(token):
        try:
            numerator, denominator = map(int, token.split("/"))
        except ValueError:
            numerator, denominator = (int(Decimal(part)) for part in token.split("/"))
        if denominator == 0:
            raise ParseError(f"{where}: zero denominator in {token!r}")
        return Fraction(numerator, denominator)
    if _DECIMAL_RE.fullmatch(token):
        try:
            return Fraction(token)
        except ValueError:
            return Fraction(Decimal(token))
    raise ParseError(f"{where}: {token!r} is not 'p/q' or a finite decimal")


def parse_integer(token: str, where: str = "value") -> int:
    """Exact int from ASCII digits with an optional sign, under the digit limit.

    A blank, an underscore or another script's digit is refused, though
    int() would take it.
    """
    if not _INTEGER_RE.fullmatch(token):
        raise ParseError(f"{where}: {token!r} is not an integer")
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"{where}: an integer has too many digits") from None


class _Repeated(dict):
    """A JSON object that repeats self.key; _require_object reports it at its path."""


def _object(pairs: list) -> dict:
    """A JSON object's dict; one that repeats a key is a _Repeated, never overwritten."""
    value = dict(pairs)
    if len(value) != len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                break
            seen.add(key)
        value = _Repeated(value)
        value.key = key
    return value


def _loads(text: str) -> Any:
    try:
        return json.loads(text, object_pairs_hook=_object)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}: {exc.msg}") from None
    except RecursionError:
        raise ParseError("arrays or objects are nested too deep") from None
    except ValueError:
        # The one other ValueError: an integer past the digit limit above.
        raise ParseError("an integer has too many digits") from None


def _dumps(document: Any) -> str:
    # Every document is a fresh tree of dicts, lists and tuples, so it holds no cycle.
    return json.dumps(document, indent=2, check_circular=False) + "\n"


def _require_object(value: Any, where: str, fields: KeysView[str]) -> dict:
    if type(value) is dict and value.keys() == fields:
        return value
    if not isinstance(value, dict):
        raise ParseError(f"{where}: expected an object, got {type(value).__name__}")
    if type(value) is _Repeated:
        raise ParseError(f"{where}: repeated key {value.key!r}")
    missing = [f for f in fields if f not in value]
    if missing:
        raise ParseError(f"{where}: missing field(s) {', '.join(missing)}")
    unknown = [k for k in value if k not in fields]
    raise ParseError(f"{where}: unknown field(s) {', '.join(unknown)}")


def _require_array(value: Any, where: str) -> list:
    if not isinstance(value, list):
        kind = "dict" if isinstance(value, dict) else type(value).__name__  # a _Repeated too
        raise ParseError(f"{where}: expected an array, got {kind}")
    return value


def _integer(value: Any, where: str) -> int:
    # The exact type test keeps a bool, which is an int subclass, out.
    if type(value) is not int:
        raise ParseError(f"{where}: expected an integer, got {value!r}")
    return value


# -- documents -----------------------------------------------------------

# Key views: in order for error messages, set-like for the one-step key check.
_INSTANCE_FIELDS = dict.fromkeys(("threshold", "cooling_factor", "jobs")).keys()
_JOB_FIELDS = dict.fromkeys(("id", "release", "deadline", "heat")).keys()


def _instance(instance: Instance) -> dict:
    config = instance.config
    jobs = [
        {"id": j.id, "release": j.release, "deadline": j.deadline, "heat": format_rational(j.heat)}
        for j in instance.jobs
    ]
    return {
        "threshold": format_rational(config.threshold),
        "cooling_factor": format_rational(config.cooling_factor),
        "jobs": jobs,
    }


def _trace(trace: SimulationTrace) -> dict:
    return {
        "temperatures": [format_rational(t) for t in trace.temperatures],
        "completed": sorted(trace.completed),
        "throughput": trace.throughput,
        "violations": [asdict(v) for v in trace.violations],
    }


def _run(run: OnlineRun, trace: bool) -> dict:
    # json writes a tuple as an array, so the slots and pending ids go in uncopied.
    traced = {"trace": _trace(run.trace)} if trace else {}
    return {"schedule": run.schedule.slots, **traced, "pending": run.pending}


def serialize_instance(instance: Instance) -> str:
    return _dumps(_instance(instance))


def _job(value: Any, where: str) -> Job:
    """One job checked field by field, in order, so an error names the first bad field."""
    job = _require_object(value, where, _JOB_FIELDS)
    return Job(
        _integer(job["id"], f"{where}.id"),
        _integer(job["release"], f"{where}.release"),
        _integer(job["deadline"], f"{where}.deadline"),
        parse_rational(job["heat"], f"{where}.heat"),
    )


# The writer's key orders, which the canonical route requires.
_INSTANCE_KEYS = tuple(_INSTANCE_FIELDS)
_JOB_KEYS = tuple(_JOB_FIELDS)


def _canonical_instance(text: str) -> Optional[Instance]:
    """The instance of a document in serialize_instance's exact shape, or None.

    Objects decode as tuples of pairs, with no Python call per object. Any
    other shape, or a decode error, gives None, so that the general route
    words the error; the only error raised here is Instance's own. A
    document repeats a few dozen heats hundreds of times, so each distinct
    heat text is parsed once.
    """
    try:
        document = json.loads(text, object_pairs_hook=tuple)
    except (ValueError, RecursionError):
        return None
    if type(document) is not tuple or len(document) != 3:
        return None
    (key_t, threshold), (key_r, cooling_factor), (key_j, items) = document
    if (key_t, key_r, key_j) != _INSTANCE_KEYS or type(items) is not list:
        return None
    heats: dict[str, Fraction] = {}
    jobs: list[Job] = []
    try:
        config = ThermalConfig(parse_rational(threshold), parse_rational(cooling_factor))
        for job in items:
            if type(job) is not tuple or len(job) != 4:
                return None
            (key_i, id_), (key_s, release), (key_d, deadline), (key_h, heat) = job
            if (key_i, key_s, key_d, key_h) != _JOB_KEYS:
                return None
            if not type(id_) is type(release) is type(deadline) is int or type(heat) is not str:
                return None
            value = heats.get(heat)
            if value is None:
                value = heats[heat] = parse_rational(heat)
            jobs.append(_unchecked_job(id_, release, deadline, value))
    except ParseError:
        return None
    return Instance(tuple(jobs), config)


def parse_instance(text: str) -> Instance:
    """An instance from its JSON document, by one of two routes.

    A document in the writer's exact shape (key order, exact ints, heat
    texts that parse) takes the canonical route, _canonical_instance. Any
    other takes the general route: _object keeps a repeated key, and
    _require_object, _integer and parse_rational check each field and name
    its path in a ParseError. Both routes give the same Instance, or raise
    the same error, for the same document.
    """
    instance = _canonical_instance(text)
    if instance is not None:
        return instance
    document = _require_object(_loads(text), "instance", _INSTANCE_FIELDS)
    config = ThermalConfig(
        parse_rational(document["threshold"], "instance.threshold"),
        parse_rational(document["cooling_factor"], "instance.cooling_factor"),
    )
    items = _require_array(document["jobs"], "instance.jobs")
    return Instance(
        tuple(_job(job, f"instance.jobs[{pos}]") for pos, job in enumerate(items)), config
    )


def serialize_schedule(schedule: Schedule) -> str:
    return _dumps(list(schedule))


def parse_schedule(text: str) -> Schedule:
    """Errors name the slot, as in "slot[3]: expected an integer"."""
    slots = _require_array(_loads(text), "slot")
    return Schedule(
        tuple(None if x is None else _integer(x, f"slot[{pos}]") for pos, x in enumerate(slots))
    )


def serialize_trace(trace: SimulationTrace) -> str:
    return _dumps(_trace(trace))


def serialize_run(run: OnlineRun, trace: bool = False) -> str:
    """Schedule and pending ids; trace=True also writes the run's trace,
    which simulate(run.instance, run.schedule) gives exactly."""
    return _dumps(_run(run, trace))


def serialize_transcript(transcript: AdversaryTranscript) -> str:
    document = {
        "branch": transcript.branch,
        "instance": _instance(transcript.instance),
        "algorithm": _run(transcript.run, trace=True),
        "adversary_schedule": list(transcript.adversary_schedule),
        "adversary_trace": _trace(transcript.adversary_trace),
        "alg_throughput": transcript.alg_throughput,
        "adv_throughput": transcript.adv_throughput,
    }
    return _dumps(document)


def serialize_opt_result(result: OptResult) -> str:
    document = {
        "best_throughput": result.best_throughput,
        "proven_optimal": result.proven_optimal,
        "explored": result.explored,
        "witness": list(result.witness),
    }
    return _dumps(document)


def serialize_report(report: RatioReport) -> str:
    names = report.policies

    def ratios(values: Sequence[Optional[Fraction]]) -> dict:
        return {n: None if v is None else format_rational(v) for n, v in zip(names, values)}

    document = {
        "model": asdict(report.model),
        "count": report.count,
        "policies": list(names),
        "records": [
            {
                "seed": r.seed,
                "opt": r.opt,
                "proven_optimal": r.proven_optimal,
                "throughputs": dict(zip(names, r.throughputs)),
                "ratios": ratios(r.ratios),
            }
            for r in report.records
        ],
        "skipped_zero_opt": report.skipped_zero_opt,
        "max_ratios": ratios(report.max_ratios),
        "mean_ratios": ratios(report.mean_ratios),
        "counterexamples": [asdict(c) for c in report.counterexamples],
    }
    return _dumps(document)


def serialize_reduction_meta(meta: ReductionMeta) -> str:
    """Sidecar document: origins and interval geometry, not the instance."""
    document = {
        "kind": meta.kind,
        "n": meta.n,
        "beta": meta.beta,
        "origins": [
            {"job": o.job_id, "role": o.role, "index": o.index, "value": o.value}
            for o in meta.origins
        ],
        "intervals": [list(interval) for interval in meta.intervals],
    }
    return _dumps(document)


# -- reduction source files -----------------------------------------------

def _int_tokens(text: str, what: str) -> list[int]:
    tokens: list[int] = []
    for lineno, line in enumerate(_LINE_BREAK_RE.split(text), start=1):
        body, where = line.split("#", 1)[0], f"{what} line {lineno}"
        tokens += (parse_integer(token, where) for token in _TOKEN_RE.findall(body))
    return tokens


def parse_three_partition_source(text: str) -> ThreePartitionInstance:
    """3-Partition source file: 3n positive integers separated by ASCII blanks.

    '#' starts a comment. beta is derived as sum/n.
    """
    tokens = _int_tokens(text, "3-partition source")
    if not tokens:
        raise ParseError("3-partition source: no values found")
    return ThreePartitionInstance.from_values(tokens)


def parse_n3dm_source(text: str) -> N3DMInstance:
    """Matching source file: beta, then row a, row b, row c (n each).

    '#' starts a comment; line breaks are not significant, only the
    token count is: 1 + 3n integers.
    """
    tokens = _int_tokens(text, "matching source")
    if not tokens:
        raise ParseError("matching source: no values found")
    beta, rest = tokens[0], tokens[1:]
    if not rest or len(rest) % 3:
        raise ParseError(
            f"matching source: need beta plus 3n values, got {len(tokens)} tokens"
        )
    n = len(rest) // 3
    return N3DMInstance(
        a=tuple(rest[:n]), b=tuple(rest[n : 2 * n]), c=tuple(rest[2 * n :]), beta=beta
    )
