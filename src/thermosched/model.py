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

All types are immutable after construction and every function is a
pure function of its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Union

RationalLike = Union[Fraction, int, str]

# Violation kinds recorded by simulate().
THERMAL = "thermal"
OUT_OF_WINDOW = "window"
UNKNOWN_JOB = "unknown-job"
REPEATED_JOB = "repeated-job"


def _as_fraction(value: RationalLike) -> Fraction:
    if isinstance(value, Fraction):
        return value
    # Fraction(0.1) would silently keep the binary expansion of the float.
    if isinstance(value, float):
        raise TypeError(f"{value!r} is a float; pass a Fraction, int or decimal string")
    return Fraction(value)


@dataclass(frozen=True)
class Job:
    """Unit-length job: executable in any slot t with release <= t < deadline."""

    id: int
    release: int
    deadline: int
    heat: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "heat", _as_fraction(self.heat))

    def pending_at(self, time: int) -> bool:
        return self.release <= time < self.deadline


@dataclass(frozen=True)
class ThermalConfig:
    """Thermal threshold T and cooling factor R of the recurrence (tau + h) / R."""

    threshold: Fraction = Fraction(1)
    cooling_factor: Fraction = Fraction(2)

    def __post_init__(self) -> None:
        object.__setattr__(self, "threshold", _as_fraction(self.threshold))
        object.__setattr__(self, "cooling_factor", _as_fraction(self.cooling_factor))


DEFAULT_CONFIG = ThermalConfig()


@dataclass(frozen=True)
class Instance:
    """A job set plus its thermal configuration.

    Jobs are normalized to a tuple sorted by id, which makes equality,
    iteration order and serialization canonical. The scheduling horizon
    is the largest deadline; no job can run at or after it.
    """

    jobs: tuple[Job, ...]
    config: ThermalConfig = DEFAULT_CONFIG

    def __post_init__(self) -> None:
        ordered = tuple(sorted(self.jobs, key=lambda j: j.id))
        object.__setattr__(self, "jobs", ordered)

    @property
    def horizon(self) -> int:
        return max((j.deadline for j in self.jobs), default=0)

    def job_map(self) -> dict[int, Job]:
        return {j.id: j for j in self.jobs}


@dataclass(frozen=True)
class Schedule:
    """Per-slot assignment: a job id or None for idle.

    The wrapper deliberately does not reject duplicate ids or foreign
    ids; simulate() reports those as violations so broken schedules can
    be inspected rather than refused.
    """

    slots: tuple[Optional[int], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "slots", tuple(self.slots))

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
    job is the offending id (None only for slots naming an id that does
    not exist in the instance, where the id is kept in the message).
    """

    time: int
    kind: str
    job: Optional[int]


@dataclass(frozen=True)
class SimulationTrace:
    """Slot-by-slot outcome of running a schedule on an instance.

    temperatures has one entry per slot boundary (length horizon + 1,
    starting at 0). completed holds the ids executed without any
    violation of their own; throughput == len(completed) always, and
    equals the schedule's true throughput when violations is empty.
    """

    temperatures: tuple[Fraction, ...]
    completed: frozenset[int]
    throughput: int
    violations: tuple[Violation, ...]


@dataclass(frozen=True)
class ValidationIssue:
    """Structural problem in an instance; job_id is None for config issues."""

    job_id: Optional[int]
    field: str
    message: str


def validate_instance(instance: Instance) -> list[ValidationIssue]:
    """Check all structural invariants; an empty list means the instance is valid.

    Checked per job: integer id, release and deadline (a bool is not
    an integer), non-negative id, non-negative release, a non-empty
    execution window (release < deadline), and non-negative heat. Job
    ids must be unique across the instance, and the configuration needs
    threshold > 0 and cooling factor > 1.
    """
    issues: list[ValidationIssue] = []
    cfg = instance.config
    if cfg.threshold <= 0:
        issues.append(ValidationIssue(None, "threshold", "threshold must be positive"))
    if cfg.cooling_factor <= 1:
        issues.append(
            ValidationIssue(None, "cooling_factor", "cooling factor must exceed 1")
        )
    seen: set[int] = set()
    for job in instance.jobs:
        for field in ("id", "release", "deadline"):
            value = getattr(job, field)
            if isinstance(value, bool) or not isinstance(value, int):
                issues.append(
                    ValidationIssue(job.id, field, f"job {job.id}: {field} must be an integer")
                )
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
        if job.heat < 0:
            issues.append(
                ValidationIssue(job.id, "heat", f"job {job.id}: heat must be non-negative")
            )
    return issues


def step_temperature(
    tau: Fraction, heat: Fraction, config: ThermalConfig = DEFAULT_CONFIG
) -> Fraction:
    """One slot of the thermal recurrence: (tau + heat) / R, exactly."""
    return (tau + heat) / config.cooling_factor


def is_admissible(
    tau: Fraction, job: Job, config: ThermalConfig = DEFAULT_CONFIG
) -> bool:
    """True iff executing the job now keeps the post-step temperature <= T."""
    return step_temperature(tau, job.heat, config) <= config.threshold


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
    jobs = instance.job_map()
    length = max(instance.horizon, len(schedule))
    violations: list[Violation] = []
    completed: set[int] = set()
    executed: set[int] = set()
    tau = Fraction(0)
    temperatures = [tau]
    for time in range(length):
        entry = schedule[time] if time < len(schedule) else None
        job = None if entry is None else jobs.get(entry)
        tau = step_temperature(tau, Fraction(0) if job is None else job.heat, cfg)
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
            if tau > cfg.threshold:
                violations.append(Violation(time, THERMAL, entry))
                ok = False
            if ok:
                completed.add(entry)
        elif entry is not None:
            violations.append(Violation(time, UNKNOWN_JOB, entry))
    return SimulationTrace(
        temperatures=tuple(temperatures),
        completed=frozenset(completed),
        throughput=len(completed),
        violations=tuple(violations),
    )
