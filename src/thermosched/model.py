"""Exact thermal model for unit-length jobs on a single processor.

Time is divided into unit slots. A job j is a triple (release r_j,
deadline d_j, heat contribution h_j) and may start in any slot t with
r_j <= t <= d_j - 1. Executing a job while the processor sits at
temperature tau leaves it at (tau + h_j) / R one slot later; an idle
slot is the h = 0 case, so idling halves the temperature when R = 2.
The temperature starts at 0 and may never exceed the threshold T
(T = 1 and R = 2 by default).

Everything here is exact: temperatures and heats are
``fractions.Fraction`` values and no operation rounds. Feasibility of
several constructions in :mod:`thermosched.reductions` hinges on the
temperature landing on the threshold *exactly*, so comparisons against
T are exact as well (<= T passes, > T violates).

A job of heat h is admissible at temperature tau iff (tau + h)/R <= T,
that is h <= R·T - tau. admission_room forms that room from the
config's R·T as integers n/m with m > 0, so a heat c/d is admissible
iff c·m <= n·d. Every per-slot comparison of two rationals, here and
in the policies, is such a product comparison and never one of
Fraction's operators, which dispatch on types in Python code: a/b < c/d
iff a·d < c·b, exact because both denominators are positive.

step_temperature, the one kernel of the recurrence, steps a temperature
with a small denominator as one normalizing Fraction(n, d), which skips
the type dispatch of two Fraction operators, and a larger one by those
operators, whose gcds of smaller parts cost less than the constructor's
one gcd of the full products, which grows with the square of their size.
A rational has one lowest-terms form, so both routes give the same
Fraction.

All types are immutable after construction and every function is a
pure function of its inputs. An Instance checks its own values when it
is built, so every function here takes a valid one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from operator import attrgetter
from typing import Iterator, Optional, Union

# Violation kinds recorded by simulate().
THERMAL = "thermal"
OUT_OF_WINDOW = "window"
UNKNOWN_JOB = "unknown-job"
REPEATED_JOB = "repeated-job"


def _as_fraction(field: str, value: object) -> Fraction:
    # Fraction(0.1) would keep the float's binary expansion, Fraction(True)
    # would be 1 and Fraction("١/٢") would read text by a rule of its own.
    if type(value) is Fraction:
        return value
    if type(value) is int:
        return Fraction(value)
    raise TypeError(f"{field}: {value!r} is a {type(value).__name__}; pass a Fraction or an int")


@dataclass(frozen=True)
class Job:
    """Unit-length job: executable in any slot t with release <= t < deadline.

    id, release and deadline are exact ints and heat is a Fraction or an
    int; any other type (a bool, a float, a str) raises TypeError naming
    the field. Text becomes a rational through serialization.parse_rational.
    """

    id: int
    release: int
    deadline: int
    heat: Fraction

    def __post_init__(self) -> None:
        if not type(self.id) is type(self.release) is type(self.deadline) is int:
            for field in ("id", "release", "deadline"):
                value = getattr(self, field)
                if type(value) is not int:
                    raise TypeError(f"{field}: {value!r} is a {type(value).__name__}; pass an int")
        if type(self.heat) is not Fraction:
            object.__setattr__(self, "heat", _as_fraction("heat", self.heat))

    def pending_at(self, time: int) -> bool:
        return self.release <= time < self.deadline


def _unchecked_job(id: int, release: int, deadline: int, heat: Fraction) -> Job:
    """Job(id, release, deadline, heat) without __post_init__, for a caller
    that has already found three exact ints and a Fraction.

    The fields go into the instance dict as the generated __init__ would put
    them, so the job is equal to, hashes and prints as Job(...) does, pickles,
    works with dataclasses.replace and stays frozen.
    """
    job = object.__new__(Job)
    job.__dict__.update(id=id, release=release, deadline=deadline, heat=heat)
    return job


@dataclass(frozen=True)
class ThermalConfig:
    """Threshold T and cooling factor R of (tau + h) / R, each a Fraction or an int.

    admission_limit is R·T as (numerator, denominator) in lowest terms,
    derived from the two fields: it is no argument and takes no part in
    equality, hashing or repr.
    """

    threshold: Fraction = Fraction(1)
    cooling_factor: Fraction = Fraction(2)
    admission_limit: tuple[int, int] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        for name in ("threshold", "cooling_factor"):
            object.__setattr__(self, name, _as_fraction(name, getattr(self, name)))
        limit = self.cooling_factor * self.threshold
        object.__setattr__(self, "admission_limit", (limit.numerator, limit.denominator))


DEFAULT_CONFIG = ThermalConfig()


@dataclass(frozen=True)
class Instance:
    """A job set plus its thermal configuration.

    Jobs are normalized to a tuple sorted by id, which makes equality,
    iteration order and serialization canonical. The scheduling horizon
    is the largest deadline; no job can run at or after it. An item of
    jobs that is not a Job, or a config that is not a ThermalConfig,
    raises TypeError naming it (jobs[i] counts the jobs as given). Values
    that validate_instance finds issues in raise InvalidInstanceError.
    """

    jobs: tuple[Job, ...]
    config: ThermalConfig = DEFAULT_CONFIG

    def __post_init__(self) -> None:
        jobs = tuple(self.jobs)
        for index, job in enumerate(jobs):
            if not isinstance(job, Job):
                raise TypeError(f"jobs[{index}]: {job!r} is a {type(job).__name__}; pass a Job")
        if not isinstance(self.config, ThermalConfig):
            raise TypeError(
                f"config: {self.config!r} is a {type(self.config).__name__}; "
                "pass a ThermalConfig"
            )
        object.__setattr__(self, "jobs", tuple(sorted(jobs, key=attrgetter("id"))))
        issues = validate_instance(self)
        if issues:
            raise InvalidInstanceError(issues)

    @property
    def horizon(self) -> int:
        return max((j.deadline for j in self.jobs), default=0)

    def job_map(self) -> dict[int, Job]:
        return {j.id: j for j in self.jobs}


@dataclass(frozen=True)
class Schedule:
    """Per-slot assignment: a job id or None for idle.

    An entry that is neither None nor an exact int (a float such as 1.0,
    a bool, a string) raises TypeError, since it would compare equal to
    a job id without being one. The wrapper deliberately does not reject
    duplicate ids or foreign ids; simulate() reports those as violations
    so broken schedules can be inspected rather than refused.
    """

    slots: tuple[Optional[int], ...]

    def __post_init__(self) -> None:
        slots = tuple(self.slots)
        for time, entry in enumerate(slots):
            if entry is not None and type(entry) is not int:
                raise TypeError(
                    f"slot {time}: {entry!r} is a {type(entry).__name__}; "
                    "pass a job id (int) or None"
                )
        object.__setattr__(self, "slots", slots)

    def __len__(self) -> int:
        return len(self.slots)

    def __iter__(self) -> Iterator[Optional[int]]:
        return iter(self.slots)

    def __getitem__(self, index: int) -> Optional[int]:
        return self.slots[index]


@dataclass(frozen=True)
class Violation:
    """One rule breach observed during simulation.

    kind is one of THERMAL, OUT_OF_WINDOW, UNKNOWN_JOB, REPEATED_JOB;
    job is the id the slot names, always an int, which for UNKNOWN_JOB
    is an id that no job of the instance has.
    """

    time: int
    kind: str
    job: int


@dataclass(frozen=True)
class SimulationTrace:
    """Slot-by-slot outcome of running a schedule on an instance.

    temperatures has one entry per slot boundary (length horizon + 1,
    starting at 0). completed holds the ids executed without any
    violation of their own; throughput is len(completed), and equals the
    schedule's true throughput when violations is empty.
    """

    temperatures: tuple[Fraction, ...]
    completed: frozenset[int]
    violations: tuple[Violation, ...]

    @property
    def throughput(self) -> int:
        return len(self.completed)


@dataclass(frozen=True)
class ValidationIssue:
    """Structural problem in an instance; job_id is None for config issues."""

    job_id: Optional[int]
    field: str
    message: str


def validate_instance(instance: Instance) -> list[ValidationIssue]:
    """Check the instance's values; Instance calls this when it is built.

    Checked per job: non-negative id, non-negative release, a non-empty
    execution window (release < deadline) and non-negative heat. Job ids
    must be unique across the instance, and the configuration needs
    threshold > 0 and cooling factor > 1. Types need no check here: Job
    and ThermalConfig refuse a value of the wrong type when built.
    """
    issues: list[ValidationIssue] = []
    cfg = instance.config
    R = cfg.cooling_factor
    if cfg.threshold.numerator <= 0:
        issues.append(ValidationIssue(None, "threshold", "threshold must be positive"))
    if R.numerator <= R.denominator:
        issues.append(
            ValidationIssue(None, "cooling_factor", "cooling factor must exceed 1")
        )
    seen: set[int] = set()
    for job in instance.jobs:
        if job.id < 0:
            issues.append(ValidationIssue(job.id, "id", f"job {job.id}: id must be non-negative"))
        if job.id in seen:
            issues.append(ValidationIssue(job.id, "id", f"job {job.id}: duplicate id"))
        seen.add(job.id)
        if job.release < 0:
            issues.append(
                ValidationIssue(job.id, "release", f"job {job.id}: release must be non-negative")
            )
        if job.release >= job.deadline:
            issues.append(
                ValidationIssue(
                    job.id,
                    "deadline",
                    f"job {job.id}: execution window is empty "
                    f"(release={job.release}, deadline={job.deadline})",
                )
            )
        if job.heat.numerator < 0:
            issues.append(
                ValidationIssue(job.id, "heat", f"job {job.id}: heat must be non-negative")
            )
    return issues


class InvalidInstanceError(ValueError):
    """An instance fails validate_instance: .issues lists them, the message joins them."""

    def __init__(self, issues: list[ValidationIssue]) -> None:
        super().__init__("; ".join(issue.message for issue in issues))
        self.issues = issues

    def __reduce__(self) -> tuple[type, tuple[list[ValidationIssue]]]:
        # A pickled exception is rebuilt from its args, which hold the message.
        return type(self), (self.issues,)


# Where step_temperature switches routes. Per step at R = 2 the constructor
# breaks even with the operators near 2**340 when busy and near 2**50 when
# idle; a run with as many busy slots as idle ones breaks even near 2**190.
_CONSTRUCTOR_BELOW = 2**192


def step_temperature(
    tau: Fraction, heat: Union[Fraction, int], config: ThermalConfig = DEFAULT_CONFIG
) -> Fraction:
    """One slot of the thermal recurrence: (tau + heat) / R, exactly.

    Write tau = n/d, heat = c/e (e = 1 for an int) and R = p/q. While d
    is below _CONSTRUCTOR_BELOW, idle slots (heat 0) and busy ones alike
    step as one Fraction((n·e + c·d)·q, d·e·p); from there on a slot
    steps as (tau + heat) / R, or tau / R when idle. The switch is on
    size: on small values a step costs the Python-level type dispatch of
    two Fraction operators, which the constructor skips; on large ones
    it costs gcds, and the constructor's one gcd of the full products
    grows with the square of their size, where the operators reduce
    smaller parts first. Both routes give the same Fraction, since a
    rational has one lowest-terms form and the public constructor
    reduces to it as the operators do.
    """
    R = config.cooling_factor
    d = tau.denominator
    if d < _CONSTRUCTOR_BELOW:
        e = heat.denominator
        n = (tau.numerator * e + heat.numerator * d) * R.denominator
        return Fraction(n, d * e * R.numerator)
    if heat:
        return (tau + heat) / R
    return tau / R


def admission_room(tau: Fraction, config: ThermalConfig = DEFAULT_CONFIG) -> tuple[int, int]:
    """The room R·T - tau as integers (n, m) with m > 0, not in lowest terms.

    A heat c/d is admissible at tau iff c·m <= n·d; n < 0 when tau > R·T.
    """
    u, v = config.admission_limit
    b = tau.denominator
    return u * b - tau.numerator * v, v * b


def simulate(instance: Instance, schedule: Schedule) -> SimulationTrace:
    """Run a schedule slot by slot and report exact temperatures and violations.

    Schedules shorter than the horizon are padded with idle slots;
    longer ones are simulated to their full length. Simulation is
    diagnostic: a violating execution is recorded but its heat is still
    applied (unknown ids contribute no heat), so temperatures keep
    being meaningful past the first problem. A job counts as completed
    only if its own execution slot is violation-free.
    """
    cfg = instance.config
    t_num, t_den = cfg.threshold.numerator, cfg.threshold.denominator
    jobs = instance.job_map()
    padding = (None,) * (instance.horizon - len(schedule.slots))
    violations: list[Violation] = []
    completed: set[int] = set()
    executed: set[int] = set()
    tau = Fraction(0)
    temperatures = [tau]
    for time, entry in enumerate(schedule.slots + padding):
        job = None if entry is None else jobs.get(entry)
        tau = step_temperature(tau, 0 if job is None else job.heat, cfg)
        temperatures.append(tau)
        if job is not None:
            ok = True
            if entry in executed:
                violations.append(Violation(time, REPEATED_JOB, entry))
                ok = False
            executed.add(entry)
            if not job.pending_at(time):
                violations.append(Violation(time, OUT_OF_WINDOW, entry))
                ok = False
            if tau.numerator * t_den > t_num * tau.denominator:
                violations.append(Violation(time, THERMAL, entry))
                ok = False
            if ok:
                completed.add(entry)
        elif entry is not None:
            violations.append(Violation(time, UNKNOWN_JOB, entry))
    return SimulationTrace(tuple(temperatures), frozenset(completed), tuple(violations))
