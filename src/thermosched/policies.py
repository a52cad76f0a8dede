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
EarliestDeadlineFirst below are the two canonical members. Only the
harness derives what is pending; ``check_reasonable`` reads its log.
"""

from __future__ import annotations

from bisect import insort
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
    require_valid,
    simulate,
    step_temperature,
)

# Reasonableness violation kinds.
NON_WAITING = "idle-despite-admissible"
DOMINANCE = "dominated-choice"


@dataclass(frozen=True)
class DecisionRecord:
    """One slot of an online run: what was pending and what the policy chose.

    The temperature the policy saw is run.trace.temperatures[time].
    """

    time: int
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

    Jobs are pending from release until they run or expire. Each slot
    the policy sees them and its decision is applied and recorded. The
    schedule re-simulates to exactly the trace returned here.
    Raises InvalidInstanceError on an invalid instance.
    """
    require_valid(instance)
    cfg = instance.config
    arrivals = sorted(instance.jobs, key=lambda j: j.release, reverse=True)
    live: list[Job] = []
    slots: list[Optional[int]] = []
    decisions: list[DecisionRecord] = []
    tau = Fraction(0)
    for time in range(instance.horizon):
        while arrivals and arrivals[-1].release <= time:
            insort(live, arrivals.pop(), key=lambda j: j.id)
        live = [j for j in live if time < j.deadline]
        pending = tuple(live)
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
            live.remove(chosen)
            heat = chosen.heat
        decisions.append(DecisionRecord(time, tuple(j.id for j in pending), choice))
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

    Ties go to the earlier deadline, then to the smaller id. Admissibility is
    monotone in heat, so only the coolest job is tested: if it fails, all fail.
    """
    coolest = min(pending, key=lambda j: (j.heat, j.deadline, j.id), default=None)
    return coolest.id if coolest and is_admissible(temperature, coolest, config) else None


def edf_decide(
    time: int,
    temperature: Fraction,
    pending: tuple[Job, ...],
    config: ThermalConfig = DEFAULT_CONFIG,
) -> Optional[int]:
    """Pick the admissible pending job with the earliest deadline.

    Ties go to the cooler job, then to the smaller id. The first admissible
    job in that order wins; the policy idles only when none is.
    """
    by_deadline = sorted(pending, key=lambda j: (j.deadline, j.heat, j.id))
    return next((j.id for j in by_deadline if is_admissible(temperature, j, config)), None)


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

    The check is behavioral: it reads the decision log and the trace's
    temperatures, which are what the policy was shown, so it applies to
    any policy. A NON_WAITING violation is an idle slot with an
    admissible pending job, a DOMINANCE violation an executed job
    strictly dominated by a pending one; the witness is the first such
    pending job in id order.
    """
    cfg = run.instance.config
    jobs = run.instance.job_map()
    temperatures = run.trace.temperatures
    violations: list[ReasonablenessViolation] = []
    for record in run.decisions:
        pending = (jobs[job_id] for job_id in record.pending)
        if record.decision is None:
            kind = NON_WAITING
            tau = temperatures[record.time]
            witness = next((j for j in pending if is_admissible(tau, j, cfg)), None)
        else:
            kind = DOMINANCE
            executed = jobs[record.decision]
            witness = next((j for j in pending if strictly_dominates(j, executed)), None)
        if witness is not None:
            violations.append(
                ReasonablenessViolation(record.time, kind, record.decision, witness.id)
            )
    return violations
