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

Each JSON input is decoded once, with every object kept as a tuple of
its (key, value) pairs, so no Python code runs per object and a
repeated key is still there to be reported. One walker then checks the
pairs and words every error.

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


def _loads(text: str) -> Any:
    try:
        return json.loads(text, object_pairs_hook=tuple)
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
    """The dict of a decoded object, a tuple of pairs, whose keys are fields."""
    if type(value) is not tuple:
        raise ParseError(f"{where}: expected an object, got {type(value).__name__}")
    document = dict(value)
    if len(document) < len(value):
        seen = set()
        for key, _ in value:
            if key in seen:
                raise ParseError(f"{where}: repeated key {key!r}")
            seen.add(key)
    if document.keys() == fields:
        return document
    missing = [f for f in fields if f not in document]
    if missing:
        raise ParseError(f"{where}: missing field(s) {', '.join(missing)}")
    unknown = [k for k in document if k not in fields]
    raise ParseError(f"{where}: unknown field(s) {', '.join(unknown)}")


def _require_array(value: Any, where: str) -> list:
    if type(value) is not list:
        kind = "dict" if type(value) is tuple else type(value).__name__
        raise ParseError(f"{where}: expected an array, got {kind}")
    return value


def _plain(value: Any) -> Any:
    """A decoded value as json.loads gives it, for an error message.

    Each tuple of pairs becomes a dict, in which a repeated key keeps its
    last value. The walk keeps its own stack, so a value nested as deep as
    the decoder allows never raises RecursionError here.
    """
    root = [value]
    stack = [(root, 0)]
    while stack:
        parent, slot = stack.pop()
        item = parent[slot]
        if type(item) is list:
            parent[slot] = copy = list(item)
            stack += ((copy, pos) for pos in range(len(copy)))
        elif type(item) is tuple:
            parent[slot] = copy = dict(item)
            stack += ((copy, key) for key in copy)
    return root[0]


def _integer(value: Any, where: str) -> int:
    # The exact type test keeps a bool, which is an int subclass, out.
    if type(value) is not int:
        raise ParseError(f"{where}: expected an integer, got {_plain(value)!r}")
    return value


def _rational(value: Any, where: str) -> Fraction:
    """parse_rational of a decoded value; a non-string shows as json.loads gives it."""
    return parse_rational(value if type(value) is str else _plain(value), where)


# -- documents -----------------------------------------------------------

# Key views: in order for error messages, set-like for the one-step key check.
_INSTANCE_FIELDS = dict.fromkeys(("threshold", "cooling_factor", "jobs")).keys()
_JOB_FIELDS = dict.fromkeys(("id", "release", "deadline", "heat")).keys()
# The writer's job key order, in which parse_instance reads a job's pairs by position.
_JOB_KEYS = tuple(_JOB_FIELDS)


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


def parse_instance(text: str) -> Instance:
    """An instance from its JSON document; a ParseError names the bad field's path.

    Each job's fields are checked in order, so an error names the first bad
    one. A document repeats a few dozen heats hundreds of times, so each
    distinct heat text is parsed once.
    """
    document = _require_object(_loads(text), "instance", _INSTANCE_FIELDS)
    config = ThermalConfig(
        _rational(document["threshold"], "instance.threshold"),
        _rational(document["cooling_factor"], "instance.cooling_factor"),
    )
    heats: dict[str, Fraction] = {}
    jobs: list[Job] = []
    for item in _require_array(document["jobs"], "instance.jobs"):
        # Each earlier item gave one job, so len(jobs) is this item's position.
        if type(item) is tuple and len(item) == 4:
            (key_i, id_), (key_s, release), (key_d, deadline), (key_h, heat) = item
            keys = (key_i, key_s, key_d, key_h)
        else:
            keys = None
        if keys != _JOB_KEYS:
            job = _require_object(item, f"instance.jobs[{len(jobs)}]", _JOB_FIELDS)
            id_, release, deadline, heat = (job[key] for key in _JOB_KEYS)
        if not type(id_) is type(release) is type(deadline) is int:
            for field, number in zip(_JOB_KEYS, (id_, release, deadline)):
                _integer(number, f"instance.jobs[{len(jobs)}].{field}")
        fraction = heats.get(heat) if type(heat) is str else None
        if fraction is None:
            fraction = heats[heat] = _rational(heat, f"instance.jobs[{len(jobs)}].heat")
        jobs.append(_unchecked_job(id_, release, deadline, fraction))
    return Instance(tuple(jobs), config)


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
    adversary_trace = transcript.adversary_trace
    document = {
        "branch": transcript.branch,
        "instance": _instance(transcript.instance),
        "algorithm": _run(transcript.run, trace=True),
        "adversary_schedule": list(transcript.adversary_schedule),
        "adversary_trace": _trace(adversary_trace),
        "alg_throughput": transcript.alg_throughput,
        "adv_throughput": adversary_trace.throughput,
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
