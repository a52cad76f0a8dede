"""Canonical text formats for instances, schedules and results.

All structured documents are JSON with two-space indent, a trailing
newline and fixed key order; rationals appear as lowest-terms "p/q"
strings (a "7/4" heat is emitted verbatim, never as a float). Parsing
is strict: unknown or repeated fields are rejected, rationals must be
"p/q" or a finite decimal, and every diagnostic names the offending
field path. The point of one canonical byte form is that round-trip
and determinism tests can compare serialized documents directly.

The program's inputs are parsed, and every output is written, never
parsed. The inputs are an instance, a schedule and a reduction source
file. Each of the two JSON inputs is one table of (key, codec) rows
that both its writer and its parser read, so the two directions cannot
drift apart.

Every other document is a function of what its writer was given: a
trace of (instance, schedule), a ratio report of (model, policies,
seeds), an online run, a traced run, an adversary transcript, an opt
result and a reduction sidecar. A trace's throughput and a report's
ratios, totals and counterexamples are written as the objects compute
them. A violation's job is always an integer, never null. A run
document holds the schedule and the pending ids of each slot; its
trace, which simulate(instance, schedule) gives exactly and whose
exact temperatures would make the document grow with the square of
the horizon, is written only by serialize_run(run, trace=True). A
transcript's algorithm block is such a traced run. A sidecar holds
ReductionMeta(source), so the meta of a source file is
ReductionMeta(parse_*_source(text)).

Reduction source files are plain integer tokens with '#' comments;
see parse_three_partition_source and parse_n3dm_source.
"""

from __future__ import annotations

import json
import re
from dataclasses import asdict
from decimal import Decimal
from fractions import Fraction
from operator import attrgetter
from typing import Any, Callable, NamedTuple, Sequence

from .adversary import AdversaryTranscript, RatioReport
from .model import Instance, Job, Schedule, SimulationTrace, ThermalConfig
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


# A document repeats a few dozen distinct heats hundreds of times, so
# parse_rational keeps the value of each short text that parsed. It is
# emptied when full, so it never holds more than _MEMO_SIZE entries.
_MEMO_SIZE = 1024
_MEMO_KEY_LENGTH = 64
_memo: dict[str, Fraction] = {}


def parse_rational(text: Any, where: str = "value") -> Fraction:
    """Exact rational from "p/q" or a finite decimal string, at any length."""
    if not isinstance(text, str):
        raise ParseError(f"{where}: expected a rational string, got {text!r}")
    value = _memo.get(text)
    if value is None:
        value = _parse_rational(text.strip(_BLANKS), where)
        if len(text) <= _MEMO_KEY_LENGTH:
            if len(_memo) >= _MEMO_SIZE:
                _memo.clear()
            _memo[text] = value
    return value


def _parse_rational(token: str, where: str) -> Fraction:
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


def _object(pairs: list) -> dict:
    """A JSON object's dict; a repeated key is an error, not a silent overwrite."""
    value = dict(pairs)
    if len(value) != len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ParseError(f"repeated key {key!r}")
            seen.add(key)
    return value


def _loads(text: str) -> Any:
    try:
        return json.loads(text, object_pairs_hook=_object)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}: {exc.msg}") from None
    except ParseError:
        raise
    except RecursionError:
        raise ParseError("arrays or objects are nested too deep") from None
    except ValueError:
        # The one other ValueError: an integer past the digit limit above.
        raise ParseError("an integer has too many digits") from None


def _dumps(document: Any) -> str:
    return json.dumps(document, indent=2) + "\n"


def _require_object(value: Any, where: str, fields: Sequence[str]) -> dict:
    if not isinstance(value, dict):
        raise ParseError(f"{where}: expected an object, got {type(value).__name__}")
    missing = [f for f in fields if f not in value]
    if missing:
        raise ParseError(f"{where}: missing field(s) {', '.join(missing)}")
    unknown = [k for k in value if k not in fields]
    if unknown:
        raise ParseError(f"{where}: unknown field(s) {', '.join(unknown)}")
    return value


# -- codecs ------------------------------------------------------------

class _Codec(NamedTuple):
    """Python value to JSON value and back; decode gets the field path its errors name.

    An array or object decodes its items under its own path first and
    builds the items' paths only when one of them raises ParseError: it
    then decodes them again under their paths, so the error names the
    failing field, and a valid document builds no path strings at all.
    """

    encode: Callable[[Any], Any]
    decode: Callable[[Any, str], Any]


def _same(value: Any) -> Any:
    return value


def _leaf(what: str, kind: type) -> _Codec:
    """A JSON scalar kept as is; the exact type test keeps a bool out of integers."""

    def decode(value: Any, where: str) -> Any:
        if type(value) is not kind:
            raise ParseError(f"{where}: expected {what}, got {value!r}")
        return value

    return _Codec(_same, decode)


_INT = _leaf("an integer", int)
_RATIONAL = _Codec(format_rational, parse_rational)


def _optional(codec: _Codec) -> _Codec:
    return _Codec(
        lambda v: None if v is None else codec.encode(v),
        lambda v, where: None if v is None else codec.decode(v, where),
    )


def _items(encode: Callable[[Any], Any]) -> Callable[[Any], list]:
    """Encoder of a JSON array; a set is written sorted, so its bytes are canonical."""

    def write(value: Any) -> list:
        items = sorted(value) if isinstance(value, frozenset) else value
        return list(items) if encode is _same else [encode(x) for x in items]

    return write


def _array(item: _Codec, container: Callable = tuple) -> _Codec:
    """JSON array of items, decoded into container."""

    def decode(value: Any, where: str) -> Any:
        if not isinstance(value, list):
            raise ParseError(f"{where}: expected an array, got {type(value).__name__}")
        try:
            return container([item.decode(x, where) for x in value])
        except ParseError:
            for pos, x in enumerate(value):
                item.decode(x, f"{where}[{pos}]")
            raise

    return _Codec(_items(item.encode), decode)


def _writer(*rows: tuple) -> Callable[[Any], dict]:
    """Encoder of a JSON object from (key, encode[, attribute path]) rows, in row order.

    Each value is encode applied to the attribute path (the key by
    default), read with getattr.
    """
    table = [(key, encode, attrgetter(path[0] if path else key)) for key, encode, *path in rows]
    return lambda value: {key: encode(get(value)) for key, encode, get in table}


def _record(build: Callable, *rows: tuple) -> _Codec:
    """JSON object from (key, codec[, attribute path]) rows, in row order.

    Encoding is _writer's. Decoding checks the exact key set and calls
    build with one keyword per row, named by the last component of its
    path.
    """
    keys = tuple(row[0] for row in rows)
    key_set = frozenset(keys)
    table = [
        (key, codec, (path[0] if path else key).rpartition(".")[2]) for key, codec, *path in rows
    ]

    def decode(value: Any, where: str) -> Any:
        # A dict with exactly the row keys needs no check; _require_object
        # names what is wrong with anything else.
        if type(value) is not dict or value.keys() != key_set:
            _require_object(value, where, keys)
        try:
            kwargs = {name: codec.decode(value[key], where) for key, codec, name in table}
        except ParseError:
            for key, codec, _ in table:
                codec.decode(value[key], f"{where}.{key}")
            raise
        return build(**kwargs)

    return _Codec(_writer(*((key, codec.encode, *path) for key, codec, *path in rows)), decode)


def _named(names: Sequence[str], encode: Callable[[Any], Any]) -> Callable[[tuple], dict]:
    """Encoder of an object with one key per name, from a tuple aligned with names."""
    return lambda values: {n: encode(v) for n, v in zip(names, values)}


# The two parsed documents.
_SCHEDULE = _array(_optional(_INT), container=Schedule)
_INSTANCE = _record(
    lambda threshold, cooling_factor, jobs: Instance(
        jobs, ThermalConfig(threshold, cooling_factor)
    ),
    ("threshold", _RATIONAL, "config.threshold"),
    ("cooling_factor", _RATIONAL, "config.cooling_factor"),
    ("jobs", _array(_record(
        Job, ("id", _INT), ("release", _INT), ("deadline", _INT), ("heat", _RATIONAL)
    ))),
)
# Written, never parsed (see the module docstring). An OnlineRun needs its
# instance, which the run document leaves out. A run's trace is
# simulate(run.instance, run.schedule), so only the traced form writes it;
# the transcript's algorithm block is a traced run.
_TRACE = _writer(
    ("temperatures", _items(format_rational)),
    ("completed", _items(_same)),
    ("throughput", _same),
    ("violations", _items(asdict)),
)
_PENDING = _items(_items(_same))
_RUN = _writer(("schedule", _SCHEDULE.encode), ("pending", _PENDING))
_TRACED_RUN = _writer(("schedule", _SCHEDULE.encode), ("trace", _TRACE), ("pending", _PENDING))
_TRANSCRIPT = _writer(
    ("branch", _same),
    ("instance", _INSTANCE.encode),
    ("algorithm", _TRACED_RUN, "run"),
    ("adversary_schedule", _SCHEDULE.encode),
    ("adversary_trace", _TRACE),
    ("alg_throughput", _same),
    ("adv_throughput", _same),
)
_OPT_RESULT = _writer(
    ("best_throughput", _same),
    ("proven_optimal", _same),
    ("explored", _same),
    ("witness", _SCHEDULE.encode),
)
_ORIGIN = _writer(("job", _same, "job_id"), ("role", _same), ("index", _same), ("value", _same))
_REDUCTION_META = _writer(
    ("kind", _same),
    ("n", _same),
    ("beta", _same),
    ("origins", _items(_ORIGIN)),
    ("intervals", _items(_items(_same))),
)


def _report(names: Sequence[str]) -> Callable[[RatioReport], dict]:
    ratios = _named(names, _optional(_RATIONAL).encode)
    return _writer(
        ("model", asdict),
        ("count", _same),
        ("policies", list),
        ("records", _items(_writer(
            ("seed", _same), ("opt", _same), ("proven_optimal", _same),
            ("throughputs", _named(names, _same)), ("ratios", ratios),
        ))),
        ("skipped_zero_opt", _same),
        ("max_ratios", ratios),
        ("mean_ratios", ratios),
        ("counterexamples", _items(asdict)),
    )


# -- documents -----------------------------------------------------------

def serialize_instance(instance: Instance) -> str:
    return _dumps(_INSTANCE.encode(instance))


def parse_instance(text: str) -> Instance:
    return _INSTANCE.decode(_loads(text), "instance")


def serialize_schedule(schedule: Schedule) -> str:
    return _dumps(_SCHEDULE.encode(schedule))


def parse_schedule(text: str) -> Schedule:
    """Errors name the slot, as in "slot[3]: expected an integer"."""
    return _SCHEDULE.decode(_loads(text), "slot")


def serialize_trace(trace: SimulationTrace) -> str:
    return _dumps(_TRACE(trace))


def serialize_run(run: OnlineRun, trace: bool = False) -> str:
    """Schedule and pending ids; trace=True also writes the run's trace,
    which simulate(run.instance, run.schedule) gives exactly."""
    return _dumps((_TRACED_RUN if trace else _RUN)(run))


def serialize_transcript(transcript: AdversaryTranscript) -> str:
    return _dumps(_TRANSCRIPT(transcript))


def serialize_opt_result(result: OptResult) -> str:
    return _dumps(_OPT_RESULT(result))


def serialize_report(report: RatioReport) -> str:
    return _dumps(_report(report.policies)(report))


def serialize_reduction_meta(meta: ReductionMeta) -> str:
    """Sidecar document: origins and interval geometry, not the instance."""
    return _dumps(_REDUCTION_META(meta))


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
