"""Hardness reduction constructions for the thermal scheduling model.

Two source problems embed into unit-job thermal scheduling so that a
full-throughput schedule exists exactly when the source instance is a
yes-instance:

* 3-Partition: 3n positive integers a_1..a_3n with sum n*beta and
  beta/4 < a_i < beta/2 are mapped to element jobs of heat
  2 - 2^(1-a_i) plus n tight gadget jobs (one of heat 2 at time 0,
  then heat 1 every beta+1 slots). The gadgets pin the temperature to
  1 at interval boundaries, and an element job of value a fits in an
  interval only after a-1 idle slots, so an interval of length beta
  holds exactly a triple summing to beta.

* Numerical 3-Dimensional Matching: rows A, B, C of n non-negative
  integers with x <= beta and total sum n*beta are mapped through
  f(x) = (1 + x/(8*beta))/25 to jobs of heat 8f(a), 4f(b), 2f(c),
  plus one gadget of heat 2 and n gadgets of heat 7/4. All 4n+1 jobs
  share the window [0, 4n+1], so full throughput leaves no idle slot
  and forces the block structure gadget, A, B, C, gadget, ...

Each direction of the equivalence is executable: generators build the
scheduling instance, canonical-schedule builders turn a certificate
into a feasible full-throughput schedule, extractors recover a
certificate from any full-throughput schedule, and tiny brute-force
oracles decide the source problems directly so the equivalence can be
cross-checked end to end.

A source checks the rules above, with every number an exact int, when
it is constructed and raises InvalidSourceError, so the source parsers
raise it too. A ReductionMeta is computed from its source alone, so its
fields cannot disagree; the 3-Partition construction caps element
values at 64. Generators and canonical-schedule builders refuse the
other construction's source with TypeError, the builders also refuse a
meta whose source is not theirs, and extractors check their
certificate against it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .model import Instance, Job, Schedule, simulate

BRUTE_3PARTITION_MAX_VALUES = 12
BRUTE_N3DM_MAX_N = 6

# Element values are capped so heat denominators 2^(a-1) stay manageable.
MAX_ELEMENT = 64

ROLE_ELEMENT = "element"
ROLE_A = "a"
ROLE_B = "b"
ROLE_C = "c"
ROLE_GADGET = "gadget"


class InstanceTooLargeError(ValueError):
    """Input exceeds a brute-force guard."""


class InvalidSourceError(ValueError):
    """Source numbers violate the reduction's preconditions."""


class InvalidCertificateError(ValueError):
    """Certificate does not certify the source instance."""


class NotFullThroughputError(ValueError):
    """Extraction needs a violation-free schedule completing every job."""


@dataclass(frozen=True)
class ThreePartitionInstance:
    """3-Partition source: 3n positive integers summing to n * beta,
    each strictly between beta/4 and beta/2; construction checks it."""

    values: tuple[int, ...]
    beta: int

    def __post_init__(self) -> None:
        values = tuple(self.values)
        object.__setattr__(self, "values", values)
        beta = self.beta
        if not values or len(values) % 3:
            raise InvalidSourceError(f"need 3n values for some n >= 1, got {len(values)}")
        for i, value in enumerate(values):
            if type(value) is not int or value <= 0:
                raise InvalidSourceError(f"value #{i} must be a positive integer, got {value!r}")
        if type(beta) is not int or beta <= 0:
            raise InvalidSourceError(f"beta must be a positive integer, got {beta!r}")
        if sum(values) != self.n * beta:
            raise InvalidSourceError(
                f"values sum to {sum(values)}, expected n*beta = {self.n * beta}"
            )
        for i, value in enumerate(values):
            # beta/4 < a_i < beta/2, compared exactly as 4a > beta and 2a < beta
            if not (4 * value > beta and 2 * value < beta):
                raise InvalidSourceError(
                    f"value #{i} = {value} is outside the open window "
                    f"(beta/4, beta/2) = ({beta}/4, {beta}/2)"
                )

    @property
    def n(self) -> int:
        return len(self.values) // 3

    @classmethod
    def from_values(cls, values: Sequence[int]) -> "ThreePartitionInstance":
        """beta is sum/n; construction rejects a count that is not 3n."""
        values = tuple(values)
        n = max(len(values) // 3, 1)
        total = sum(values)
        if total % n and len(values) % 3 == 0:
            raise InvalidSourceError(
                f"sum {total} is not divisible by n={n}; no integer beta exists"
            )
        return cls(values, total // n)


@dataclass(frozen=True)
class N3DMInstance:
    """Numerical 3-D Matching source: rows a, b, c of n >= 1 integers
    in [0, beta] summing to n * beta; construction checks it."""

    a: tuple[int, ...]
    b: tuple[int, ...]
    c: tuple[int, ...]
    beta: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", tuple(self.a))
        object.__setattr__(self, "b", tuple(self.b))
        object.__setattr__(self, "c", tuple(self.c))
        beta = self.beta
        if not (len(self.a) == len(self.b) == len(self.c)):
            raise InvalidSourceError(
                f"rows must have equal length, got {len(self.a)}/{len(self.b)}/{len(self.c)}"
            )
        if self.n < 1:
            raise InvalidSourceError("need at least one triple")
        if type(beta) is not int or beta <= 0:
            raise InvalidSourceError(f"beta must be a positive integer, got {beta!r}")
        total = 0
        for name, row in (("a", self.a), ("b", self.b), ("c", self.c)):
            for i, value in enumerate(row):
                if type(value) is not int or value < 0:
                    raise InvalidSourceError(
                        f"{name}[{i}] must be a non-negative integer, got {value!r}"
                    )
                if value > beta:
                    raise InvalidSourceError(f"{name}[{i}] = {value} exceeds beta = {beta}")
                total += value
        if total != self.n * beta:
            raise InvalidSourceError(f"rows sum to {total}, expected n*beta = {self.n * beta}")

    @property
    def n(self) -> int:
        return len(self.a)


@dataclass(frozen=True)
class PartitionCertificate:
    """n disjoint index triples into values, each triple summing to beta.

    Triples are normalized (sorted within and across triples) so equal
    partitions compare equal.
    """

    triples: tuple[tuple[int, int, int], ...]

    def __post_init__(self) -> None:
        normalized = tuple(sorted(tuple(sorted(t)) for t in self.triples))
        object.__setattr__(self, "triples", normalized)


@dataclass(frozen=True)
class MatchingCertificate:
    """n triples of indices (into a, b, c); each index used exactly once.

    Triples keep their (a, b, c) role order and are normalized by the
    a index, which appears once per triple.
    """

    triples: tuple[tuple[int, int, int], ...]

    def __post_init__(self) -> None:
        normalized = tuple(sorted(tuple(t) for t in self.triples))
        object.__setattr__(self, "triples", normalized)


@dataclass(frozen=True)
class JobOrigin:
    """Where a generated job came from.

    role is one of the ROLE_* constants. index is the position in the
    source row for element/a/b/c jobs and the time-order ordinal for
    gadget jobs; value is the source number (None for gadgets).
    """

    job_id: int
    role: str
    index: int
    value: Optional[int]


@dataclass(frozen=True)
class ReductionMeta:
    """Sidecar emitted with a generated instance, computed from its source alone.

    Every other field is derived. origins map every job id, in id order
    and so each role by index, back to its source number and job class;
    intervals are the slot ranges [start, end) holding element jobs: the
    inter-gadget intervals of 3-Partition or the 3-slot blocks of the
    matching. Raises InvalidSourceError for a 3-Partition value above 64.
    """

    source: ThreePartitionInstance | N3DMInstance
    kind: str = field(init=False)
    n: int = field(init=False)
    beta: int = field(init=False)
    instance: Instance = field(init=False)
    origins: tuple[JobOrigin, ...] = field(init=False)
    intervals: tuple[tuple[int, int], ...] = field(init=False)

    def __post_init__(self) -> None:
        src = self.source
        if isinstance(src, ThreePartitionInstance):
            kind, rows, intervals = _3partition_rows(src)
        elif isinstance(src, N3DMInstance):
            kind, rows, intervals = _n3dm_rows(src)
        else:
            raise TypeError(f"not a reduction source: {src!r}")
        # The job of row k has id k + 1.
        jobs = tuple(Job(k, *row[3:]) for k, row in enumerate(rows, 1))
        origins = tuple(JobOrigin(k, *row[:3]) for k, row in enumerate(rows, 1))
        for name, value in zip(
            ("kind", "n", "beta", "instance", "origins", "intervals"),
            (kind, src.n, src.beta, Instance(jobs), origins, tuple(intervals)),
        ):
            object.__setattr__(self, name, value)

    def ids_with_role(self, role: str) -> tuple[int, ...]:
        return tuple(o.job_id for o in self.origins if o.role == role)


def _require_source(src: object, kind: type) -> None:
    """Raise TypeError unless src is a source of type kind."""
    if not isinstance(src, kind):
        raise TypeError(f"expected source type {kind.__name__}, got {type(src).__name__}")


def _require_full(meta: ReductionMeta, kind: str, name: str, schedule: Schedule) -> None:
    """Raise unless meta is a kind reduction and schedule runs all its
    jobs without violations."""
    if meta.kind != kind:
        raise ValueError(f"meta is not a {name} reduction")
    trace = simulate(meta.instance, schedule)
    want = len(meta.instance.jobs)
    if trace.violations or trace.throughput != want:
        raise NotFullThroughputError(
            f"need a violation-free schedule completing all {want} jobs, "
            f"got throughput {trace.throughput} with {len(trace.violations)} violation(s)"
        )


def element_heat(value: int) -> Fraction:
    """Heat 2 - 2^(1-a) of an element job, exactly (2^a - 1) / 2^(a-1)."""
    return Fraction(2**value - 1, 2 ** (value - 1))


def _3partition_rows(src: ThreePartitionInstance) -> tuple[str, list[tuple], list]:
    """Kind, (role, index, value, release, deadline, heat) rows and intervals."""
    if max(src.values) > MAX_ELEMENT:
        raise InvalidSourceError(
            f"largest value {max(src.values)} exceeds the supported cap {MAX_ELEMENT}"
        )
    n, beta = src.n, src.beta
    rows = [
        (ROLE_ELEMENT, i, value, 1, n * (beta + 1), element_heat(value))
        for i, value in enumerate(src.values)
    ]
    rows += [
        (ROLE_GADGET, j, None, j * (beta + 1), j * (beta + 1) + 1, Fraction(1 if j else 2))
        for j in range(n)
    ]
    intervals = [(j * (beta + 1) + 1, j * (beta + 1) + 1 + beta) for j in range(n)]
    return "3partition", rows, intervals


def gen_from_3partition(src: ThreePartitionInstance) -> tuple[Instance, ReductionMeta]:
    """Scheduling instance with 4n jobs that is fully schedulable iff
    the source has a 3-partition.

    Element job i (ids 1..3n) has heat 2 - 2^(1-a_i), release 1 and
    deadline n(beta+1). Gadget jobs (ids 3n+1..4n) are tight: the
    first has heat 2 at time 0, the rest heat 1 at times j(beta+1).
    Values above MAX_ELEMENT (64) raise InvalidSourceError, and
    a source of another type TypeError.
    """
    _require_source(src, ThreePartitionInstance)
    meta = ReductionMeta(src)
    return meta.instance, meta


def _check_partition_certificate(
    src: ThreePartitionInstance, cert: PartitionCertificate
) -> None:
    used = [i for t in cert.triples for i in t]
    if sorted(used) != list(range(len(src.values))):
        raise InvalidCertificateError(
            "triples must partition the value indices exactly once each"
        )
    for t in cert.triples:
        total = sum(src.values[i] for i in t)
        if total != src.beta:
            raise InvalidCertificateError(
                f"triple {t} sums to {total}, expected beta = {src.beta}"
            )


def canonical_schedule_3partition(
    src: ThreePartitionInstance, meta: ReductionMeta, cert: PartitionCertificate
) -> Schedule:
    """The full-throughput schedule a 3-partition induces.

    Gadgets run at their release times; the i-th triple fills the i-th
    interval with each element job preceded by value-1 idle slots. The
    temperature is exactly 1 at every interval boundary. Raises
    TypeError for a source of another type and ValueError unless meta
    was generated from src.
    """
    _require_source(src, ThreePartitionInstance)
    if meta.source != src:
        raise ValueError("meta does not belong to this source instance")
    _check_partition_certificate(src, cert)
    gadget_ids, element_ids = map(meta.ids_with_role, (ROLE_GADGET, ROLE_ELEMENT))
    slots: list[Optional[int]] = [None] * meta.instance.horizon
    for gadget, (start, _end), triple in zip(gadget_ids, meta.intervals, cert.triples):
        slots[start - 1] = gadget
        t = start
        for index in triple:
            t += src.values[index]
            slots[t - 1] = element_ids[index]
    return Schedule(tuple(slots))


def extract_3partition(meta: ReductionMeta, schedule: Schedule) -> PartitionCertificate:
    """Read a 3-partition off a full-throughput schedule.

    Element jobs grouped by the inter-gadget interval containing their
    execution slot form the triples; under full throughput the tight
    gadgets hold slots j(beta+1), so every element slot lies in one.
    Raises NotFullThroughputError unless the schedule completes all 4n
    jobs without violations.
    """
    _require_full(meta, "3partition", "3-Partition", schedule)
    index_of = {o.job_id: o.index for o in meta.origins if o.role == ROLE_ELEMENT}
    triples = []
    for start, end in meta.intervals:
        bucket = tuple(index_of[j] for j in schedule.slots[start:end] if j in index_of)
        if len(bucket) != 3:
            raise InvalidCertificateError(
                f"interval [{start}, {end}) holds {len(bucket)} element jobs, expected 3"
            )
        triples.append(bucket)
    cert = PartitionCertificate(tuple(triples))
    _check_partition_certificate(meta.source, cert)
    return cert


def f_scaled(x: int, beta: int) -> Fraction:
    """The matching construction's f(x) = (1 + x/(8 beta)) / 25."""
    return Fraction(8 * beta + x, 200 * beta)


def _n3dm_rows(src: N3DMInstance) -> tuple[str, list[tuple], list]:
    """Kind, (role, index, value, release, deadline, heat) rows and blocks."""
    n, beta = src.n, src.beta
    deadline = 4 * n + 1
    rows = [
        (role, i, value, 0, deadline, factor * f_scaled(value, beta))
        for role, row, factor in ((ROLE_A, src.a, 8), (ROLE_B, src.b, 4), (ROLE_C, src.c, 2))
        for i, value in enumerate(row)
    ]
    rows += [
        (ROLE_GADGET, i, None, 0, deadline, Fraction(7, 4) if i else Fraction(2))
        for i in range(n + 1)
    ]
    blocks = [(4 * i - 3, 4 * i) for i in range(1, n + 1)]
    return "n3dm", rows, blocks


def gen_from_n3dm(src: N3DMInstance) -> tuple[Instance, ReductionMeta]:
    """Scheduling instance with 4n+1 jobs that is fully schedulable iff
    the source rows admit a numerical 3-D matching.

    Jobs for row values a, b, c carry heats 8f(a), 4f(b), 2f(c); one
    gadget has heat 2 and n gadgets heat 7/4. Every job has release 0
    and deadline 4n+1, so full throughput fills every slot. A source of
    another type raises TypeError.
    """
    _require_source(src, N3DMInstance)
    meta = ReductionMeta(src)
    return meta.instance, meta


def _check_matching_certificate(src: N3DMInstance, cert: MatchingCertificate) -> None:
    n = src.n
    if len(cert.triples) != n:
        raise InvalidCertificateError(f"need {n} triples, got {len(cert.triples)}")
    for pos, row_name in enumerate(("a", "b", "c")):
        indices = sorted(t[pos] for t in cert.triples)
        if indices != list(range(n)):
            raise InvalidCertificateError(
                f"{row_name} indices must each be matched exactly once, got {indices}"
            )
    for i, j, k in cert.triples:
        total = src.a[i] + src.b[j] + src.c[k]
        if total != src.beta:
            raise InvalidCertificateError(
                f"triple ({i}, {j}, {k}) sums to {total}, expected beta = {src.beta}"
            )


def canonical_schedule_n3dm(
    src: N3DMInstance, meta: ReductionMeta, cert: MatchingCertificate
) -> Schedule:
    """The full-throughput schedule a matching induces.

    The heat-2 gadget runs at slot 0 and the 7/4 gadgets at slots 4i;
    block i holds the i-th matched triple in the order a, b, c. The
    temperature is exactly 1 after every gadget and exactly 1/4 when
    each 7/4 gadget starts. Raises TypeError for a source of another
    type and ValueError unless meta was generated from src.
    """
    _require_source(src, N3DMInstance)
    if meta.source != src:
        raise ValueError("meta does not belong to this source instance")
    _check_matching_certificate(src, cert)
    gadget_ids = meta.ids_with_role(ROLE_GADGET)
    a_ids, b_ids, c_ids = map(meta.ids_with_role, (ROLE_A, ROLE_B, ROLE_C))
    slots: list[Optional[int]] = [None] * meta.instance.horizon
    slots[0] = gadget_ids[0]
    for (start, end), gadget, (i, j, k) in zip(meta.intervals, gadget_ids[1:], cert.triples):
        slots[start:end] = a_ids[i], b_ids[j], c_ids[k]
        slots[end] = gadget
    return Schedule(tuple(slots))


def extract_n3dm_matching(meta: ReductionMeta, schedule: Schedule) -> MatchingCertificate:
    """Read a matching off a full-throughput schedule.

    Full throughput fills all 4n+1 slots, pinning gadgets to slots 0,
    4, 8, ...; the three jobs of each block between gadgets are one
    a-, one b- and one c-job, and their source values sum to beta.
    """
    _require_full(meta, "n3dm", "matching", schedule)
    role_of = {o.job_id: o for o in meta.origins}
    for slot in range(0, 4 * meta.n + 1, 4):
        occupant = schedule[slot]
        if occupant is None or role_of[occupant].role != ROLE_GADGET:
            raise InvalidCertificateError(
                f"slot {slot} must hold a gadget job, found {occupant}"
            )
    triples = []
    for start, end in meta.intervals:
        by_role: dict[str, int] = {}
        for slot in range(start, end):
            origin = role_of[schedule[slot]]
            by_role[origin.role] = origin.index
        if sorted(by_role) != [ROLE_A, ROLE_B, ROLE_C]:
            raise InvalidCertificateError(
                f"block [{start}, {end}) must hold one a-, b- and c-job, "
                f"found roles {sorted(by_role)}"
            )
        triples.append((by_role[ROLE_A], by_role[ROLE_B], by_role[ROLE_C]))
    cert = MatchingCertificate(tuple(triples))
    _check_matching_certificate(meta.source, cert)
    return cert


def brute_3partition(src: ThreePartitionInstance) -> Optional[PartitionCertificate]:
    """Decide 3-Partition by trying every partition into triples.

    Works on the source numbers directly, independent of any
    scheduling machinery. Limited to 12 values.
    """
    if len(src.values) > BRUTE_3PARTITION_MAX_VALUES:
        raise InstanceTooLargeError(
            f"brute force limited to {BRUTE_3PARTITION_MAX_VALUES} values, "
            f"got {len(src.values)}"
        )
    values = src.values
    beta = src.beta

    def search(remaining: tuple[int, ...]) -> Optional[list[tuple[int, int, int]]]:
        if not remaining:
            return []
        first, rest = remaining[0], remaining[1:]
        for j, k in itertools.combinations(range(len(rest)), 2):
            if values[first] + values[rest[j]] + values[rest[k]] != beta:
                continue
            left = tuple(x for idx, x in enumerate(rest) if idx not in (j, k))
            tail = search(left)
            if tail is not None:
                return [(first, rest[j], rest[k])] + tail
        return None

    found = search(tuple(range(len(values))))
    if found is None:
        return None
    return PartitionCertificate(tuple(found))


def brute_n3dm(src: N3DMInstance) -> Optional[MatchingCertificate]:
    """Decide numerical 3-D matching by trying all permutation pairs.

    Works on the source numbers directly, independent of any
    scheduling machinery. Limited to n = 6.
    """
    n = src.n
    if n > BRUTE_N3DM_MAX_N:
        raise InstanceTooLargeError(f"brute force limited to n = {BRUTE_N3DM_MAX_N}, got {n}")
    for sigma in itertools.permutations(range(n)):
        partial_ok = all(src.a[i] + src.b[sigma[i]] <= src.beta for i in range(n))
        if not partial_ok:
            continue
        for pi in itertools.permutations(range(n)):
            if all(src.a[i] + src.b[sigma[i]] + src.c[pi[i]] == src.beta for i in range(n)):
                return MatchingCertificate(
                    tuple((i, sigma[i], pi[i]) for i in range(n))
                )
    return None
