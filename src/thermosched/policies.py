"""Online execution harness and the class of reasonable policies.

A policy is any deterministic callable

    policy(time, temperature, pending, config) -> job id or None

where ``pending`` is the tuple of currently pending jobs (released, not
expired, not yet scheduled) sorted by id. The harness never shows a
policy a job before its release time, which is what makes a run
online. Returning None means stay idle for one slot.

A job of heat h is *admissible* at temperature tau iff
tau + h <= R·T, which is (tau + h)/R <= T; the ThermalConfig holds R·T
once, as a lowest-terms integer pair. A policy is *reasonable* if it
(i) never idles while some pending job is admissible and (ii) never
executes a job that is strictly dominated by another pending job, where
j dominates k when h_j <= h_k and d_j <= d_k (strictly if at least one
inequality is strict). Reasonable policies are 2-competitive for
throughput; CoolestFirst and EarliestDeadlineFirst below are the two
canonical members. Only the harness derives what is pending: it files
each job under its release slot and counts it under its deadline slot,
so a slot merges its arrivals into the live list in id order, filters
that list only when some job not yet run expires there, and rebuilds
the pending tuple only when the list changed. ``check_reasonable``
reads the pending ids the run recorded. The harness admits a choice by
the post-step test that simulate applies, tau' = step_temperature(tau, h)
<= T, and does not repeat the policy's own room test.

Heats are tested against the room model.admission_room and against
each other as integer products, never with Fraction's operators; the
model module's docstring gives the argument. Each decision forms the
room once, and check_reasonable reads each job's deadline and heat
once per run.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import attrgetter
from typing import Callable, Optional

from .model import (
    DEFAULT_CONFIG,
    Instance,
    Job,
    Schedule,
    SimulationTrace,
    ThermalConfig,
    admission_room,
    step_temperature,
)

# Reasonableness violation kinds.
NON_WAITING = "idle-despite-admissible"
DOMINANCE = "dominated-choice"


@dataclass(frozen=True)
class OnlineRun:
    """Schedule, trace and per-slot pending ids of one online execution.

    pending[t] holds the ids the policy was shown at slot t, sorted;
    schedule[t] is what it chose and trace.temperatures[t] the
    temperature it saw.
    """

    instance: Instance
    schedule: Schedule
    trace: SimulationTrace
    pending: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class ReasonablenessViolation:
    time: int
    kind: str
    executed: Optional[int]
    witness: Optional[int]


Policy = Callable[[int, Fraction, tuple[Job, ...], ThermalConfig], Optional[int]]


class PolicyViolationError(ValueError):
    """A policy returned a job that is not pending or not admissible."""


def run_online(instance: Instance, policy: Policy) -> OnlineRun:
    """Drive a policy over the instance, one slot at a time.

    Jobs are pending from release until they run or expire. Each slot
    the policy sees them and its decision is applied and recorded. The
    schedule re-simulates to exactly the trace returned here. Raises
    PolicyViolationError when the policy returns anything but None or
    the int id of a pending, admissible job.
    """
    cfg = instance.config
    t_num, t_den = cfg.threshold.numerator, cfg.threshold.denominator
    horizon = instance.horizon
    # Jobs are id-sorted, so each slot's arrivals are too. ending[t] counts
    # the jobs that expire at t and have not run, so only those slots filter.
    arriving: list[list[Job]] = [[] for _ in range(horizon)]
    ending = [0] * (horizon + 1)
    for job in instance.jobs:
        arriving[job.release].append(job)
        ending[job.deadline] += 1
    job_id = attrgetter("id")
    live: list[Job] = []
    pending: tuple[Job, ...] = ()
    ids: tuple[int, ...] = ()
    changed = False
    slots: list[Optional[int]] = []
    shown: list[tuple[int, ...]] = []
    tau = Fraction(0)
    temperatures = [tau]
    for time in range(horizon):
        if arriving[time]:
            live += arriving[time]
            live.sort(key=job_id)
            changed = True
        if ending[time]:
            live = [j for j in live if time < j.deadline]
            changed = True
        if changed:
            pending = tuple(live)
            ids = tuple(map(job_id, pending))
            changed = False
        choice = policy(time, tau, pending, cfg)
        if choice is None:
            tau = step_temperature(tau, 0, cfg)
        else:
            # 1.0 == 1 and True == 1, so only an exact int may name a job.
            if type(choice) is not int or choice not in ids:
                raise PolicyViolationError(
                    f"policy returned job {choice} at time {time}, which is not pending"
                )
            job = live.pop(ids.index(choice))
            ending[job.deadline] -= 1
            changed = True
            tau = step_temperature(tau, job.heat, cfg)
            # simulate's threshold test, tau <= T after the step, is admissibility.
            if tau.numerator * t_den > t_num * tau.denominator:
                raise PolicyViolationError(
                    f"policy returned job {choice} at time {time}, which is not admissible"
                )
        shown.append(ids)
        slots.append(choice)
        temperatures.append(tau)
    # Every choice above was pending and admissible, so no slot violates a rule.
    ran = frozenset(job_id for job_id in slots if job_id is not None)
    return OnlineRun(
        instance=instance,
        schedule=Schedule(tuple(slots)),
        trace=SimulationTrace(tuple(temperatures), ran, ()),
        pending=tuple(shown),
    )


def coolest_first_decide(
    time: int,
    temperature: Fraction,
    pending: tuple[Job, ...],
    config: ThermalConfig = DEFAULT_CONFIG,
) -> Optional[int]:
    """Pick the coolest admissible pending job.

    Ties go to the earlier deadline, then to the smaller id. Admissibility is
    monotone in heat, so only the coolest job is tested, against the room
    formed once: if it fails, all fail.
    """
    if not pending:
        return None
    coolest = pending[0]
    # The coolest heat so far is c/d; job.heat < c/d iff its num·d < c·its den.
    c, d = coolest.heat.numerator, coolest.heat.denominator
    for job in pending:
        heat = job.heat
        left, right = heat.numerator * d, c * heat.denominator
        if left < right or (
            left == right and (job.deadline, job.id) < (coolest.deadline, coolest.id)
        ):
            coolest, c, d = job, heat.numerator, heat.denominator
    n, m = admission_room(temperature, config)
    return coolest.id if c * m <= n * d else None


def edf_decide(
    time: int,
    temperature: Fraction,
    pending: tuple[Job, ...],
    config: ThermalConfig = DEFAULT_CONFIG,
) -> Optional[int]:
    """Pick the admissible pending job with the earliest deadline.

    Ties go to the cooler job, then to the smaller id. The first admissible
    job in that order wins; the policy idles only when none is. One scan
    keeps the best admissible job so far and tests a job for admissibility
    only if it would come before that one, against the room formed once.
    """
    if not pending:
        return None
    n, m = admission_room(temperature, config)
    best = None
    for job in pending:
        heat = job.heat
        if best is not None:
            if job.deadline > best.deadline:
                continue
            if job.deadline == best.deadline:
                left = heat.numerator * best.heat.denominator
                right = best.heat.numerator * heat.denominator
                if left > right or left == right and job.id > best.id:
                    continue
        if heat.numerator * m <= n * heat.denominator:
            best = job
    return None if best is None else best.id


def always_idle(
    time: int,
    temperature: Fraction,
    pending: tuple[Job, ...],
    config: ThermalConfig = DEFAULT_CONFIG,
) -> Optional[int]:
    """Never execute anything; the canonical unreasonable policy."""
    return None


#: Built-in policies by CLI name.
POLICIES: dict[str, Policy] = {
    "coolest": coolest_first_decide,
    "edf": edf_decide,
    "idle": always_idle,
}


def check_reasonable(run: OnlineRun) -> list[ReasonablenessViolation]:
    """Report every slot where a run behaved unreasonably.

    The check is behavioral: it reads the run's pending ids and the
    trace's temperatures, which are what the policy was shown, so it
    applies to any policy. A NON_WAITING violation is an idle slot with an
    admissible pending job, a DOMINANCE violation an executed job
    strictly dominated by a pending one; the witness is the first such
    pending job in id order.
    """
    config = run.instance.config
    # Each job's deadline and heat as integers, read once per run, by id.
    fields = {j.id: (j.deadline, j.heat.numerator, j.heat.denominator) for j in run.instance.jobs}
    violations: list[ReasonablenessViolation] = []
    slots = zip(run.schedule, run.pending, run.trace.temperatures)
    for time, (choice, shown, tau) in enumerate(slots):
        witness = None
        if choice is None:
            kind = NON_WAITING
            if shown:
                n, m = admission_room(tau, config)
                for k in shown:
                    _, c, e = fields[k]
                    if c * m <= n * e:
                        witness = k
                        break
        else:
            kind = DOMINANCE
            # A pending k is a witness when it is no hotter and no later-due than
            # the choice, strictly in one of the two; compared as integers.
            d, c, e = fields[choice]
            for k in shown:
                deadline, num, den = fields[k]
                if deadline > d:
                    continue
                left, right = num * e, c * den
                if left < right or left == right and deadline < d:
                    witness = k
                    break
        if witness is not None:
            violations.append(ReasonablenessViolation(time, kind, choice, witness))
    return violations
