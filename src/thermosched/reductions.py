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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .model import Instance, Job, Schedule, simulate
from .solver import InstanceTooLargeError

BRUTE_3PARTITION_MAX_VALUES = 12
BRUTE_N3DM_MAX_N = 6

# Element values are capped so heat denominators 2^(a-1) stay manageable.
DEFAULT_MAX_ELEMENT = 64

ROLE_ELEMENT = "element"
ROLE_A = "a"
ROLE_B = "b"
ROLE_C = "c"
ROLE_GADGET = "gadget"


class InvalidSourceError(ValueError):
    """Source numbers violate the reduction's preconditions."""


class InvalidCertificateError(ValueError):
    """Certificate does not certify the source instance."""


class NotFullThroughputError(ValueError):
    """Extraction needs a violation-free schedule completing every job."""


@dataclass(frozen=True)
class ThreePartitionInstance:
    """3-Partition source: 3n positive integers summing to n * beta."""

    values: tuple[int, ...]
    beta: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(self.values))

    @property
    def n(self) -> int:
        return len(self.values) // 3

    @classmethod
    def from_values(cls, values: Sequence[int]) -> "ThreePartitionInstance":
        values = tuple(values)
        if not values or len(values) % 3:
            raise InvalidSourceError(
                f"need 3n values for some n >= 1, got {len(values)}"
            )
        n = len(values) // 3
        total = sum(values)
        if total % n:
            raise InvalidSourceError(
                f"sum {total} is not divisible by n={n}; no integer beta exists"
            )
        return cls(values, total // n)


@dataclass(frozen=True)
class N3DMInstance:
    """Numerical 3-D Matching source: rows a, b, c and target beta."""

    a: tuple[int, ...]
    b: tuple[int, ...]
    c: tuple[int, ...]
    beta: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", tuple(self.a))
        object.__setattr__(self, "b", tuple(self.b))
        object.__setattr__(self, "c", tuple(self.c))

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

    def value_triples(self, src: ThreePartitionInstance) -> tuple[tuple[int, int, int], ...]:
        return tuple(
            tuple(sorted(src.values[i] for i in t)) for t in self.triples
        )


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

    def value_triples(self, src: N3DMInstance) -> tuple[tuple[int, int, int], ...]:
        return tuple(
            (src.a[i], src.b[j], src.c[k]) for i, j, k in self.triples
        )


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
    """Sidecar emitted with a generated instance.

    origins map every job id back to its source number and job class
    (a bijection on non-gadget jobs), and intervals give the slot
    ranges [start, end) holding element jobs: the inter-gadget
    intervals of the 3-Partition construction or the 3-slot blocks of
    the matching construction. The generated instance rides along so
    extractors can re-simulate schedules without extra arguments.
    """

    kind: str
    n: int
    beta: int
    instance: Instance
    origins: tuple[JobOrigin, ...]
    intervals: tuple[tuple[int, int], ...]

    def ids_with_role(self, role: str) -> tuple[int, ...]:
        picked = [o for o in self.origins if o.role == role]
        picked.sort(key=lambda o: o.index)
        return tuple(o.job_id for o in picked)


ThreePartitionSource = Union[ThreePartitionInstance, Sequence[int]]


def _as_3partition(src: ThreePartitionSource) -> ThreePartitionInstance:
    if isinstance(src, ThreePartitionInstance):
        return src
    return ThreePartitionInstance.from_values(src)


def validate_3partition_source(src: ThreePartitionInstance) -> None:
    """Raise InvalidSourceError unless all 3-Partition invariants hold."""
    values = src.values
    if not values or len(values) % 3:
        raise InvalidSourceError(f"need 3n values for some n >= 1, got {len(values)}")
    for i, value in enumerate(values):
        if not isinstance(value, int) or isinstance(value, bool) or value <= 0:
            raise InvalidSourceError(f"value #{i} must be a positive integer, got {value!r}")
    n = src.n
    if not isinstance(src.beta, int) or src.beta <= 0:
        raise InvalidSourceError(f"beta must be a positive integer, got {src.beta!r}")
    if sum(values) != n * src.beta:
        raise InvalidSourceError(
            f"values sum to {sum(values)}, expected n*beta = {n * src.beta}"
        )
    for i, value in enumerate(values):
        # beta/4 < a_i < beta/2, compared exactly as 4a > beta and 2a < beta
        if not (4 * value > src.beta and 2 * value < src.beta):
            raise InvalidSourceError(
                f"value #{i} = {value} is outside the open window "
                f"(beta/4, beta/2) = ({src.beta}/4, {src.beta}/2)"
            )


def validate_n3dm_source(src: N3DMInstance) -> None:
    """Raise InvalidSourceError unless all matching invariants hold."""
    if not (len(src.a) == len(src.b) == len(src.c)):
        raise InvalidSourceError(
            f"rows must have equal length, got {len(src.a)}/{len(src.b)}/{len(src.c)}"
        )
    if src.n < 1:
        raise InvalidSourceError("need at least one triple")
    if not isinstance(src.beta, int) or isinstance(src.beta, bool) or src.beta <= 0:
        raise InvalidSourceError(f"beta must be a positive integer, got {src.beta!r}")
    total = 0
    for row_name, row in (("a", src.a), ("b", src.b), ("c", src.c)):
        for i, value in enumerate(row):
            if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                raise InvalidSourceError(
                    f"{row_name}[{i}] must be a non-negative integer, got {value!r}"
                )
            if value > src.beta:
                raise InvalidSourceError(
                    f"{row_name}[{i}] = {value} exceeds beta = {src.beta}"
                )
            total += value
    if total != src.n * src.beta:
        raise InvalidSourceError(
            f"rows sum to {total}, expected n*beta = {src.n * src.beta}"
        )


def element_heat(value: int) -> Fraction:
    """Heat 2 - 2^(1-a) of an element job, exactly (2^a - 1) / 2^(a-1)."""
    return Fraction(2**value - 1, 2 ** (value - 1))


def gen_from_3partition(
    src: ThreePartitionSource, max_value: int = DEFAULT_MAX_ELEMENT
) -> tuple[Instance, ReductionMeta]:
    """Scheduling instance with 4n jobs that is fully schedulable iff
    the source has a 3-partition.

    Element job i (ids 1..3n) has heat 2 - 2^(1-a_i), release 1 and
    deadline n(beta+1). Gadget jobs (ids 3n+1..4n) are tight: the
    first has heat 2 at time 0, the rest heat 1 at times j(beta+1).
    """
    src = _as_3partition(src)
    validate_3partition_source(src)
    if max(src.values) > max_value:
        raise InvalidSourceError(
            f"largest value {max(src.values)} exceeds the supported cap {max_value}"
        )
    n, beta = src.n, src.beta
    horizon = n * (beta + 1)
    jobs = [
        Job(id=i + 1, release=1, deadline=horizon, heat=element_heat(value))
        for i, value in enumerate(src.values)
    ]
    origins = [
        JobOrigin(job_id=i + 1, role=ROLE_ELEMENT, index=i, value=value)
        for i, value in enumerate(src.values)
    ]
    jobs.append(Job(id=3 * n + 1, release=0, deadline=1, heat=Fraction(2)))
    origins.append(JobOrigin(job_id=3 * n + 1, role=ROLE_GADGET, index=0, value=None))
    for j in range(1, n):
        release = j * (beta + 1)
        jobs.append(
            Job(id=3 * n + 1 + j, release=release, deadline=release + 1, heat=Fraction(1))
        )
        origins.append(
            JobOrigin(job_id=3 * n + 1 + j, role=ROLE_GADGET, index=j, value=None)
        )
    intervals = tuple(
        ((j - 1) * (beta + 1) + 1, (j - 1) * (beta + 1) + 1 + beta) for j in range(1, n + 1)
    )
    instance = Instance(jobs=tuple(jobs))
    meta = ReductionMeta(
        kind="3partition",
        n=n,
        beta=beta,
        instance=instance,
        origins=tuple(origins),
        intervals=intervals,
    )
    return instance, meta


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
    src: ThreePartitionSource, meta: ReductionMeta, cert: PartitionCertificate
) -> Schedule:
    """The full-throughput schedule a 3-partition induces.

    Gadgets run at their release times; the i-th triple fills the i-th
    interval with each element job preceded by value-1 idle slots. The
    temperature is exactly 1 at every interval boundary.
    """
    src = _as_3partition(src)
    if meta.kind != "3partition" or meta.n != src.n or meta.beta != src.beta:
        raise ValueError("meta does not belong to this source instance")
    _check_partition_certificate(src, cert)
    gadget_ids = meta.ids_with_role(ROLE_GADGET)
    element_ids = meta.ids_with_role(ROLE_ELEMENT)
    slots: list[Optional[int]] = [None] * (src.n * (src.beta + 1))
    slots[0] = gadget_ids[0]
    for j in range(1, src.n):
        slots[j * (src.beta + 1)] = gadget_ids[j]
    for (start, _end), triple in zip(meta.intervals, cert.triples):
        t = start
        for index in triple:
            t += src.values[index] - 1
            slots[t] = element_ids[index]
            t += 1
    return Schedule(tuple(slots))


def extract_3partition(meta: ReductionMeta, schedule: Schedule) -> PartitionCertificate:
    """Read a 3-partition off a full-throughput schedule.

    Element jobs grouped by the inter-gadget interval containing their
    execution slot form the triples. Raises NotFullThroughputError
    unless the schedule completes all 4n jobs without violations.
    """
    if meta.kind != "3partition":
        raise ValueError("meta is not a 3-Partition reduction")
    trace = simulate(meta.instance, schedule)
    if trace.violations or trace.throughput != 4 * meta.n:
        raise NotFullThroughputError(
            f"need a violation-free schedule completing all {4 * meta.n} jobs, "
            f"got throughput {trace.throughput} with {len(trace.violations)} violation(s)"
        )
    slot_of = {job_id: t for t, job_id in enumerate(schedule) if job_id is not None}
    buckets: list[list[int]] = [[] for _ in meta.intervals]
    for origin in meta.origins:
        if origin.role != ROLE_ELEMENT:
            continue
        slot = slot_of[origin.job_id]
        for bucket, (start, end) in zip(buckets, meta.intervals):
            if start <= slot < end:
                bucket.append(origin.index)
                break
        else:
            raise InvalidCertificateError(
                f"element job {origin.job_id} ran at slot {slot}, outside every interval"
            )
    triples = []
    for bucket, (start, end) in zip(buckets, meta.intervals):
        if len(bucket) != 3:
            raise InvalidCertificateError(
                f"interval [{start}, {end}) holds {len(bucket)} element jobs, expected 3"
            )
        triples.append(tuple(sorted(bucket)))
    cert = PartitionCertificate(tuple(triples))
    src = ThreePartitionInstance(
        tuple(o.value for o in meta.origins if o.role == ROLE_ELEMENT), meta.beta
    )
    _check_partition_certificate(src, cert)
    return cert


def f_scaled(x: int, beta: int) -> Fraction:
    """The matching construction's f(x) = (1 + x/(8 beta)) / 25."""
    return Fraction(8 * beta + x, 200 * beta)


def gen_from_n3dm(src: N3DMInstance) -> tuple[Instance, ReductionMeta]:
    """Scheduling instance with 4n+1 jobs that is fully schedulable iff
    the source rows admit a numerical 3-D matching.

    Jobs for row values a, b, c carry heats 8f(a), 4f(b), 2f(c); one
    gadget has heat 2 and n gadgets heat 7/4. Every job has release 0
    and deadline 4n+1, so full throughput fills every slot.
    """
    validate_n3dm_source(src)
    n, beta = src.n, src.beta
    deadline = 4 * n + 1
    jobs: list[Job] = []
    origins: list[JobOrigin] = []
    rows = ((ROLE_A, src.a, 8), (ROLE_B, src.b, 4), (ROLE_C, src.c, 2))
    next_id = 1
    for role, row, factor in rows:
        for i, value in enumerate(row):
            jobs.append(
                Job(
                    id=next_id,
                    release=0,
                    deadline=deadline,
                    heat=factor * f_scaled(value, beta),
                )
            )
            origins.append(JobOrigin(job_id=next_id, role=role, index=i, value=value))
            next_id += 1
    jobs.append(Job(id=next_id, release=0, deadline=deadline, heat=Fraction(2)))
    origins.append(JobOrigin(job_id=next_id, role=ROLE_GADGET, index=0, value=None))
    next_id += 1
    for i in range(1, n + 1):
        jobs.append(Job(id=next_id, release=0, deadline=deadline, heat=Fraction(7, 4)))
        origins.append(JobOrigin(job_id=next_id, role=ROLE_GADGET, index=i, value=None))
        next_id += 1
    blocks = tuple((4 * i - 3, 4 * i) for i in range(1, n + 1))
    instance = Instance(jobs=tuple(jobs))
    meta = ReductionMeta(
        kind="n3dm",
        n=n,
        beta=beta,
        instance=instance,
        origins=tuple(origins),
        intervals=blocks,
    )
    return instance, meta


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
    each 7/4 gadget starts.
    """
    if meta.kind != "n3dm" or meta.n != src.n or meta.beta != src.beta:
        raise ValueError("meta does not belong to this source instance")
    _check_matching_certificate(src, cert)
    gadget_ids = meta.ids_with_role(ROLE_GADGET)
    a_ids = meta.ids_with_role(ROLE_A)
    b_ids = meta.ids_with_role(ROLE_B)
    c_ids = meta.ids_with_role(ROLE_C)
    slots: list[Optional[int]] = [None] * (4 * src.n + 1)
    slots[0] = gadget_ids[0]
    for block, (i, j, k) in enumerate(cert.triples, start=1):
        slots[4 * block - 3] = a_ids[i]
        slots[4 * block - 2] = b_ids[j]
        slots[4 * block - 1] = c_ids[k]
        slots[4 * block] = gadget_ids[block]
    return Schedule(tuple(slots))


def extract_n3dm_matching(meta: ReductionMeta, schedule: Schedule) -> MatchingCertificate:
    """Read a matching off a full-throughput schedule.

    Full throughput fills all 4n+1 slots, pinning gadgets to slots 0,
    4, 8, ...; the three jobs of each block between gadgets are one
    a-, one b- and one c-job, and their source values sum to beta.
    """
    if meta.kind != "n3dm":
        raise ValueError("meta is not a matching reduction")
    trace = simulate(meta.instance, schedule)
    want = 4 * meta.n + 1
    if trace.violations or trace.throughput != want:
        raise NotFullThroughputError(
            f"need a violation-free schedule completing all {want} jobs, "
            f"got throughput {trace.throughput} with {len(trace.violations)} violation(s)"
        )
    role_of = {o.job_id: o for o in meta.origins}
    gadget_slots = [0] + [4 * i for i in range(1, meta.n + 1)]
    for slot in gadget_slots:
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
    values = {role: [0] * meta.n for role in (ROLE_A, ROLE_B, ROLE_C)}
    for origin in meta.origins:
        if origin.role in values:
            values[origin.role][origin.index] = origin.value
    src = N3DMInstance(
        tuple(values[ROLE_A]), tuple(values[ROLE_B]), tuple(values[ROLE_C]), meta.beta
    )
    _check_matching_certificate(src, cert)
    return cert


def brute_3partition(src: ThreePartitionSource) -> Optional[PartitionCertificate]:
    """Decide 3-Partition by trying every partition into triples.

    Works on the source numbers directly, independent of any
    scheduling machinery. Limited to 12 values.
    """
    src = _as_3partition(src)
    validate_3partition_source(src)
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
    validate_n3dm_source(src)
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
