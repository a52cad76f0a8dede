"""The benchmark's three workloads: seeded corpora, ops and output checks.

Each workload is a closed loop with one client: one op after another
in one thread, because the library is single-threaded, pure-CPU batch
code. An op calls the same library functions as one CLI command, each
through the layer wrappers of ``layer_api``, and returns the list of
its failed checks (empty when every output is correct).
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable

from thermosched import (
    Instance,
    MatchingCertificate,
    N3DMInstance,
    PartitionCertificate,
    RandomModel,
    ThreePartitionInstance,
    brute_3partition,
    brute_n3dm,
    canonical_schedule_3partition,
    canonical_schedule_n3dm,
    check_reasonable,
    coolest_first_decide,
    edf_decide,
    extract_3partition,
    extract_n3dm_matching,
    gen_from_3partition,
    gen_from_n3dm,
    parse_instance,
    random_instance,
    render_gantt,
    run_online,
    serialize_instance,
    simulate,
    solve_optimal,
    validate_instance,
)
from thermosched.serialization import (
    parse_n3dm_source,
    parse_three_partition_source,
    serialize_run,
)

from spans import Tracer


def _utf8_len(text: str) -> int:
    return len(text.encode("utf-8"))


# Public library functions the ops call, by attribute name: the span
# (layer.group) each call is recorded under, the function, and the
# counters one call adds, computed from its result and arguments.
LAYER_FUNCTIONS: dict[str, tuple[str, Callable, Callable | None]] = {
    "solve_optimal": (
        "solver.solve_optimal",
        solve_optimal,
        lambda r, a: {"solver.nodes": r.explored, "solver.unproven": int(not r.proven_optimal)},
    ),
    "run_online": (
        "policies.run_online",
        run_online,
        lambda r, a: {"policies.slots": len(r.schedule)},
    ),
    "check_reasonable": (
        "policies.check_reasonable",
        check_reasonable,
        lambda r, a: {"policies.unreasonable": len(r)},
    ),
    "simulate": (
        "model.simulate",
        simulate,
        lambda r, a: {"model.slots": len(r.temperatures) - 1},
    ),
    "validate_instance": ("model.validate_instance", validate_instance, None),
    "gen_from_3partition": ("reductions.gen", gen_from_3partition, None),
    "gen_from_n3dm": ("reductions.gen", gen_from_n3dm, None),
    "brute_3partition": (
        "reductions.decide",
        brute_3partition,
        lambda r, a: {"reductions.yes" if r is not None else "reductions.no": 1},
    ),
    "brute_n3dm": (
        "reductions.decide",
        brute_n3dm,
        lambda r, a: {"reductions.yes" if r is not None else "reductions.no": 1},
    ),
    "extract_3partition": ("reductions.extract", extract_3partition, None),
    "extract_n3dm_matching": ("reductions.extract", extract_n3dm_matching, None),
    "canonical_schedule_3partition": (
        "reductions.canonical",
        canonical_schedule_3partition,
        None,
    ),
    "canonical_schedule_n3dm": ("reductions.canonical", canonical_schedule_n3dm, None),
    "random_instance": ("adversary.random_instance", random_instance, None),
    "parse_instance": (
        "serialization.parse",
        parse_instance,
        lambda r, a: {"serialization.bytes_in": _utf8_len(a[0])},
    ),
    "parse_three_partition_source": (
        "serialization.parse",
        parse_three_partition_source,
        lambda r, a: {"serialization.bytes_in": _utf8_len(a[0])},
    ),
    "parse_n3dm_source": (
        "serialization.parse",
        parse_n3dm_source,
        lambda r, a: {"serialization.bytes_in": _utf8_len(a[0])},
    ),
    "serialize_instance": (
        "serialization.serialize",
        serialize_instance,
        lambda r, a: {"serialization.bytes_out": _utf8_len(r)},
    ),
    "serialize_run": (
        "serialization.serialize",
        serialize_run,
        lambda r, a: {"serialization.bytes_out": _utf8_len(r)},
    ),
    "render_gantt": (
        "gantt.render_gantt",
        render_gantt,
        lambda r, a: {"gantt.bytes_out": _utf8_len(r)},
    ),
}


def layer_api(tracer: Tracer) -> SimpleNamespace:
    """The library functions of LAYER_FUNCTIONS, each wrapped by tracer."""
    return SimpleNamespace(
        **{
            attr: tracer.wrap(span, fn, counts)
            for attr, (span, fn, counts) in LAYER_FUNCTIONS.items()
        }
    )


# -- checks shared by the workloads ------------------------------------


def _check_valid(api: SimpleNamespace, instance: Instance, failures: list[str]) -> None:
    issues = api.validate_instance(instance)
    if issues:
        failures.append(f"instance invalid: {issues[0].message}")


def _solve_and_check(api: SimpleNamespace, instance: Instance, failures: list[str]):
    """Solve exactly; the witness must re-simulate violation-free with
    exactly best_throughput completions, and optimality must be proven."""
    result = api.solve_optimal(instance)
    if not result.proven_optimal:
        failures.append("solver did not prove optimality")
    trace = api.simulate(instance, result.witness)
    if trace.violations or trace.throughput != result.best_throughput:
        failures.append(
            f"witness completes {trace.throughput} with {len(trace.violations)} "
            f"violation(s), solver claimed {result.best_throughput}"
        )
    return result


def partition_certifies(src: ThreePartitionInstance, cert: PartitionCertificate) -> bool:
    """True iff cert splits the value indices into triples summing to beta."""
    used = sorted(i for triple in cert.triples for i in triple)
    return used == list(range(len(src.values))) and all(
        len(t) == 3 and sum(src.values[i] for i in t) == src.beta for t in cert.triples
    )


def matching_certifies(src: N3DMInstance, cert: MatchingCertificate) -> bool:
    """True iff cert matches every a, b and c index once, each triple summing to beta."""
    rows_ok = all(
        sorted(t[pos] for t in cert.triples) == list(range(src.n)) for pos in range(3)
    )
    return rows_ok and all(
        src.a[i] + src.b[j] + src.c[k] == src.beta for i, j, k in cert.triples
    )


# -- ratio_random ------------------------------------------------------

RATIO_MODEL = {"n": 16, "release_span": 16, "max_window": 10}


def setup_ratio_random(seed: int) -> SimpleNamespace:
    """Op i draws RandomModel(seed=first + i); the instances are made inside the op."""
    return SimpleNamespace(first=random.Random(seed).getrandbits(48))


def op_ratio_random(api: SimpleNamespace, corpus: SimpleNamespace, i: int) -> list[str]:
    """CLI `experiment` for one seed: OPT, then CoolestFirst and EDF against ceil(OPT/2)."""
    failures: list[str] = []
    instance = api.random_instance(RandomModel(seed=corpus.first + i, **RATIO_MODEL))
    _check_valid(api, instance, failures)
    opt = _solve_and_check(api, instance, failures).best_throughput
    need = -(-opt // 2)
    for policy in (coolest_first_decide, edf_decide):
        run = api.run_online(instance, policy)
        if run.trace.violations or run.trace.throughput < need:
            failures.append(
                f"{policy.__name__} completed {run.trace.throughput} < ceil({opt}/2)"
            )
    return failures


# -- reduction_proofs --------------------------------------------------

# One round of sources as (kind, n, has a solution, beta). The pool
# repeats the round with fresh draws, so every run sees the same mix of
# classes and horizons and only the drawn values change with the seed.
# Op cost grows by tiers: 3-Partition n=2 "yes" (a few ms), n=2 "no"
# (about 45 ms), n=3 "yes" (about 100 ms), N3DM (about 220 ms) and n=3
# "no" (about 0.9 s). The counts put the median op inside the n=2 "no"
# tier and the 90th percentile inside the N3DM tier, so neither sits on
# the edge between two tiers. 3-Partition n <= 3 has "no" instances
# only for beta 13 and 15 in this range; the n=3 tiers use betas whose
# search size does not depend on the drawn values.
SOURCE_ROUND = (
    *(("3partition", 2, True, beta) for beta in (*range(10, 16), *range(10, 16))),
    *(("3partition", 2, False, beta) for beta in (13, 15) * 5),
    *(("3partition", 3, True, beta) for beta in (10, 13) * 2),
    *(("n3dm", 2, True, beta) for beta in (10, 11, 12, 13, 14)),
    *(("n3dm", 2, False, beta) for beta in (11, 12, 13, 14, 15)),
    *(("3partition", 3, False, beta) for beta in (13, 13)),
)
SOURCE_ROUNDS = 8


@dataclass(frozen=True)
class Source:
    kind: str
    text: str
    has_solution: bool


def _three_partition_values(rng: random.Random, n: int, beta: int, yes: bool) -> list[int] | None:
    # beta/4 < a < beta/2, with integer a
    window = range(beta // 4 + 1, (beta - 1) // 2 + 1)
    if yes:
        triples = [
            t for t in itertools.combinations_with_replacement(window, 3) if sum(t) == beta
        ]
        if not triples:
            return None
        values = [v for _ in range(n) for v in rng.choice(triples)]
    else:
        values = [rng.choice(window) for _ in range(3 * n - 1)]
        values.append(n * beta - sum(values))
        if values[-1] not in window:
            return None
    rng.shuffle(values)
    return values


def _n3dm_rows(rng: random.Random, n: int, beta: int, yes: bool) -> list[int] | None:
    if yes:
        triples = []
        for _ in range(n):
            a = rng.randint(0, beta)
            b = rng.randint(0, beta - a)
            triples.append((a, b, beta - a - b))
        rows = [[t[pos] for t in triples] for pos in range(3)]
        for row in rows:
            rng.shuffle(row)
        return [v for row in rows for v in row]
    values = [rng.randint(0, beta) for _ in range(3 * n - 1)]
    values.append(n * beta - sum(values))
    if not 0 <= values[-1] <= beta:
        return None
    rng.shuffle(values)
    return values


def make_source(rng: random.Random, kind: str, n: int, yes: bool, beta: int) -> Source:
    """Draw sources of one class until the brute-force decider confirms its answer."""
    while True:
        if kind == "3partition":
            values = _three_partition_values(rng, n, beta, yes)
            if values is None:
                continue
            decided = brute_3partition(ThreePartitionInstance(tuple(values), beta))
            text = f"# 3-Partition n={n} beta={beta}\n" + " ".join(map(str, values)) + "\n"
        else:
            values = _n3dm_rows(rng, n, beta, yes)
            if values is None:
                continue
            decided = brute_n3dm(
                N3DMInstance(tuple(values[:n]), tuple(values[n : 2 * n]), tuple(values[2 * n :]), beta)
            )
            rows = "\n".join(" ".join(map(str, values[r * n : (r + 1) * n])) for r in range(3))
            text = f"# N3DM n={n}: beta, then rows a, b, c\n{beta}\n{rows}\n"
        if (decided is not None) == yes:
            return Source(kind, text, yes)


def setup_reduction_proofs(seed: int) -> list[Source]:
    rng = random.Random(seed)
    round_order = list(SOURCE_ROUND)
    random.Random(0).shuffle(round_order)
    return [make_source(rng, *cls) for _ in range(SOURCE_ROUNDS) for cls in round_order]


def op_reduction_proofs(api: SimpleNamespace, corpus: list[Source], i: int) -> list[str]:
    """CLI `reduce` + `opt` for one source, plus both directions of the equivalence."""
    failures: list[str] = []
    source = corpus[i % len(corpus)]
    if source.kind == "3partition":
        src = api.parse_three_partition_source(source.text)
        instance, meta = api.gen_from_3partition(src)
        decide, extract, canonical = (
            api.brute_3partition,
            api.extract_3partition,
            api.canonical_schedule_3partition,
        )
        certifies = partition_certifies
    else:
        src = api.parse_n3dm_source(source.text)
        instance, meta = api.gen_from_n3dm(src)
        decide, extract, canonical = (
            api.brute_n3dm,
            api.extract_n3dm_matching,
            api.canonical_schedule_n3dm,
        )
        certifies = matching_certifies
    parsed = api.parse_instance(api.serialize_instance(instance))
    if parsed != instance:
        failures.append("instance does not survive a serialize/parse round trip")
    _check_valid(api, parsed, failures)
    result = _solve_and_check(api, parsed, failures)
    full = result.best_throughput == len(instance.jobs)
    cert = decide(src)
    if (cert is not None) != source.has_solution:
        failures.append("brute-force decider changed its answer since set-up")
    if full != (cert is not None):
        failures.append(f"full throughput is {full} but the source answer is {cert is not None}")
    if full and not certifies(src, extract(meta, result.witness)):
        failures.append("certificate extracted from the witness does not certify the source")
    if cert is not None:
        trace = api.simulate(instance, canonical(src, meta, cert))
        if trace.violations or trace.throughput != len(instance.jobs):
            failures.append("canonical schedule is not a violation-free full schedule")
    svg = api.render_gantt(parsed, result.witness, "svg")
    if not (svg.startswith("<svg") and svg.endswith("</svg>\n")):
        failures.append("witness chart is not an SVG document")
    return failures


# -- online_stream -----------------------------------------------------

ONLINE_MODEL = {"n": 500, "release_span": 500, "max_window": 8}
ONLINE_INSTANCES = 16


def setup_online_stream(seed: int) -> list[str]:
    """The JSON documents of ONLINE_INSTANCES seeded 500-job instances."""
    rng = random.Random(seed)
    return [
        serialize_instance(random_instance(RandomModel(seed=rng.getrandbits(48), **ONLINE_MODEL)))
        for _ in range(ONLINE_INSTANCES)
    ]


def op_online_stream(api: SimpleNamespace, corpus: list[str], i: int) -> list[str]:
    """CLI `online` on one instance document, CoolestFirst and EDF on alternate ops."""
    failures: list[str] = []
    instance = api.parse_instance(corpus[i % len(corpus)])
    _check_valid(api, instance, failures)
    run = api.run_online(instance, coolest_first_decide if i % 2 == 0 else edf_decide)
    trace = api.simulate(instance, run.schedule)
    if trace != run.trace:
        failures.append("the schedule re-simulates to a different trace")
    if trace.violations:
        failures.append(f"online schedule has {len(trace.violations)} violation(s)")
    if api.check_reasonable(run):
        failures.append("built-in policy behaved unreasonably")
    document = json.loads(api.serialize_run(run))
    if document["schedule"] != list(run.schedule.slots):
        failures.append("serialized run does not hold the schedule")
    return failures


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int], object]
    op: Callable[[SimpleNamespace, object, int], list[str]]
    # Ops of the traced run: 20 to 30 s of paired untraced and traced
    # ops on a 2-core x86-64 VM with CPython 3.11.
    traced_ops: int
    # An untraced run stops only after a whole number of cycles of ops,
    # so that every run holds the same mix of op kinds.
    cycle: int = 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "ratio_random",
            setup_ratio_random,
            op_ratio_random,
            traced_ops=256,
        ),
        Workload(
            "reduction_proofs",
            setup_reduction_proofs,
            op_reduction_proofs,
            traced_ops=2 * len(SOURCE_ROUND),
            cycle=len(SOURCE_ROUND),
        ),
        Workload(
            "online_stream",
            setup_online_stream,
            op_online_stream,
            traced_ops=80,
            cycle=2,
        ),
    )
}
