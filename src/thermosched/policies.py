"""Online execution harness and the class of reasonable policies.

A policy is any deterministic callable

    policy(time, temperature, pending, config) -> job id or None

where ``pending`` is the tuple of currently pending jobs (released, not
expired, not yet scheduled) sorted by id. The harness never shows a
policy a job before its release time, which is what makes a run
online. Returning None means stay idle for one slot.

A policy is *reasonable* if it (i) never idles while some pending job
is admissible and (ii) never executes a job that is strictly dominated
by another pending job, where j dominates k when h_j <= h_k and
d_j <= d_k (strictly if at least one inequality is strict). Reasonable
policies are 2-competitive for throughput; CoolestFirst and
EarliestDeadlineFirst below are the two canonical members.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .model import (
    DEFAULT_CONFIG,
    Instance,
    Job,
    Schedule,
    SimulationTrace,
    ThermalConfig,
    is_admissible,
    simulate,
    step_temperature,
)

# Reasonableness violation kinds.
NON_WAITING = "idle-despite-admissible"
DOMINANCE = "dominated-choice"


@dataclass(frozen=True)
class DecisionRecord:
    """One slot of an online run: what was pending and what the policy chose."""

    time: int
    temperature: Fraction
    pending: tuple[int, ...]
    decision: Optional[int]


@dataclass(frozen=True)
class OnlineRun:
    """Schedule, trace and per-slot decision log of one online execution."""

    instance: Instance
    schedule: Schedule
    trace: SimulationTrace
    decisions: tuple[DecisionRecord, ...]


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

    The harness reveals each job at its release time, asks the policy
    for a decision, applies it, and records it. The resulting schedule
    re-simulates to exactly the trace returned here.
    """
    cfg = instance.config
    horizon = instance.horizon
    done: set[int] = set()
    slots: list[Optional[int]] = []
    decisions: list[DecisionRecord] = []
    tau = Fraction(0)
    for time in range(horizon):
        pending = tuple(
            j for j in instance.jobs if j.pending_at(time) and j.id not in done
        )
        choice = policy(time, tau, pending, cfg)
        heat = Fraction(0)
        if choice is not None:
            chosen = next((j for j in pending if j.id == choice), None)
            if chosen is None:
                raise PolicyViolationError(
                    f"policy returned job {choice} at time {time}, which is not pending"
                )
            if not is_admissible(tau, chosen, cfg):
                raise PolicyViolationError(
                    f"policy returned job {choice} at time {time}, which is not admissible"
                )
            done.add(choice)
            heat = chosen.heat
        decisions.append(DecisionRecord(time, tau, tuple(j.id for j in pending), choice))
        slots.append(choice)
        tau = step_temperature(tau, heat, cfg)
    schedule = Schedule(tuple(slots))
    return OnlineRun(
        instance=instance,
        schedule=schedule,
        trace=simulate(instance, schedule),
        decisions=tuple(decisions),
    )


def coolest_first_decide(
    time: int,
    temperature: Fraction,
    pending: tuple[Job, ...],
    config: ThermalConfig = DEFAULT_CONFIG,
) -> Optional[int]:
    """Pick the coolest admissible pending job.

    Ties go to the earlier deadline, then to the smaller id. Idles only
    when no pending job is admissible.
    """
    admissible = [j for j in pending if is_admissible(temperature, j, config)]
    if not admissible:
        return None
    return min(admissible, key=lambda j: (j.heat, j.deadline, j.id)).id


def edf_decide(
    time: int,
    temperature: Fraction,
    pending: tuple[Job, ...],
    config: ThermalConfig = DEFAULT_CONFIG,
) -> Optional[int]:
    """Pick the admissible pending job with the earliest deadline.

    Ties go to the cooler job, then to the smaller id. Idles only when
    no pending job is admissible.
    """
    admissible = [j for j in pending if is_admissible(temperature, j, config)]
    if not admissible:
        return None
    return min(admissible, key=lambda j: (j.deadline, j.heat, j.id)).id


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


def strictly_dominates(j: Job, k: Job) -> bool:
    """True iff j is no hotter and no later-due than k, strictly in one of the two."""
    return j.heat <= k.heat and j.deadline <= k.deadline and (
        j.heat < k.heat or j.deadline < k.deadline
    )


def check_reasonable(run: OnlineRun) -> list[ReasonablenessViolation]:
    """Report every slot where a run behaved unreasonably.

    The check is behavioral: it replays the recorded schedule against
    the instance, so it applies to any policy, not just the built-ins.
    A NON_WAITING violation is an idle slot with some admissible
    pending job; a DOMINANCE violation is an executed job strictly
    dominated by another pending job at that slot.
    """
    instance = run.instance
    cfg = instance.config
    jobs = instance.job_map()
    violations: list[ReasonablenessViolation] = []
    done: set[int] = set()
    for time in range(instance.horizon):
        tau = run.trace.temperatures[time]
        pending = [j for j in instance.jobs if j.pending_at(time) and j.id not in done]
        choice = run.schedule[time] if time < len(run.schedule) else None
        if choice is None:
            admissible = [j for j in pending if is_admissible(tau, j, cfg)]
            if admissible:
                violations.append(
                    ReasonablenessViolation(time, NON_WAITING, None, admissible[0].id)
                )
        else:
            executed = jobs[choice]
            done.add(choice)
            for other in pending:
                if other.id != choice and strictly_dominates(other, executed):
                    violations.append(
                        ReasonablenessViolation(time, DOMINANCE, choice, other.id)
                    )
                    break
    return violations
