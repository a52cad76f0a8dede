"""Lower-bound adversary game and randomized competitive-ratio runs.

The deterministic game shows that no online policy beats ratio 2 on
this model. The adversary first releases job 1 = (0, 3, 6/5) and then
reacts to the policy's slot-0 decision:

* if the policy executes job 1, a tight job 2 = (1, 2, 8/5) appears;
  the policy is now too hot to run it, while the adversary idles
  first, runs job 2 at slot 1 and job 1 at slot 2, finishing both.
* if the policy idles, a tight job 3 = (2, 3, 8/5) appears instead;
  at most one of jobs 1 and 3 still fits (running job 1 at slot 1
  leaves slot 2 too hot for job 3, and slot 2 can hold only one of
  them), while the adversary runs job 1 at once, cools for a slot and
  finishes job 3.

Either way the adversary completes 2 jobs and the policy at most 1.

ratio_experiment() complements the fixed game with seeded random
instances: each policy's online throughput is compared against the
exact optimum, and any instance where a policy drops below the
guaranteed ceil(OPT/2) is flagged as a counterexample.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Mapping, Optional, Sequence, Union

from .model import (
    DEFAULT_CONFIG,
    Instance,
    Job,
    Schedule,
    SimulationTrace,
    is_admissible,
    simulate,
)
from .policies import POLICIES, OnlineRun, Policy, run_online
from .solver import solve_optimal

BRANCH_EXECUTE = "execute"
BRANCH_IDLE = "idle"

_JOB_1 = Job(id=1, release=0, deadline=3, heat=Fraction(6, 5))
_JOB_2 = Job(id=2, release=1, deadline=2, heat=Fraction(8, 5))
_JOB_3 = Job(id=3, release=2, deadline=3, heat=Fraction(8, 5))


@dataclass(frozen=True)
class AdversaryTranscript:
    """Full record of one lower-bound game.

    instance is the final revealed instance of the chosen branch; the
    reveal order is visible in the run's per-slot pending snapshots.
    branch is BRANCH_EXECUTE when the policy ran job 1 at slot 0 and
    BRANCH_IDLE otherwise.
    """

    branch: str
    instance: Instance
    run: OnlineRun
    adversary_schedule: Schedule
    adversary_trace: SimulationTrace
    alg_throughput: int
    adv_throughput: int


def run_lower_bound_game(policy: Policy) -> AdversaryTranscript:
    """Play the two-branch adversary game against an online policy.

    The branch trigger is precisely whether the policy executes job 1
    at time 0; any other decision (only idling is possible without a
    policy violation) takes the second branch. PolicyViolationError
    propagates from the underlying online run.
    """
    probe = policy(0, Fraction(0), (_JOB_1,), DEFAULT_CONFIG)
    if probe == _JOB_1.id:
        branch = BRANCH_EXECUTE
        instance = Instance(jobs=(_JOB_1, _JOB_2))
        adversary_schedule = Schedule((None, _JOB_2.id, _JOB_1.id))
    else:
        branch = BRANCH_IDLE
        instance = Instance(jobs=(_JOB_1, _JOB_3))
        adversary_schedule = Schedule((_JOB_1.id, None, _JOB_3.id))
    run = run_online(instance, policy)
    adversary_trace = simulate(instance, adversary_schedule)
    return AdversaryTranscript(
        branch=branch,
        instance=instance,
        run=run,
        adversary_schedule=adversary_schedule,
        adversary_trace=adversary_trace,
        alg_throughput=run.trace.throughput,
        adv_throughput=adversary_trace.throughput,
    )


def scripted_policy(intents: Sequence[Optional[int]]) -> Policy:
    """Policy that tries a fixed job id per slot, idling when it cannot.

    intents[t] is attempted at slot t; attempts at jobs that are not
    pending or not admissible fall back to idle, as do slots past the
    end of the script. Enumerating scripts enumerates every decision
    behavior reachable on a short horizon.
    """
    script = tuple(intents)

    def decide(time, temperature, pending, config):
        if time >= len(script) or script[time] is None:
            return None
        for job in pending:
            if job.id == script[time] and is_admissible(temperature, job, config):
                return job.id
        return None

    return decide


@dataclass(frozen=True)
class RandomModel:
    """Seeded generator parameters for random instances.

    Releases are uniform on 0..release_span, window lengths uniform on
    1..max_window, heats uniform on the grid k/heat_denominator with
    0 <= k <= heat_numerator_max (defaults span 0..2, crossing every
    admissibility regime). Generation is a pure function of the seed.
    """

    n: int
    release_span: int = 4
    max_window: int = 4
    heat_denominator: int = 16
    heat_numerator_max: int = 32
    seed: int = 0


def random_instance(model: RandomModel) -> Instance:
    """Draw the instance the model and its seed determine."""
    rng = random.Random(model.seed)
    jobs = []
    for i in range(1, model.n + 1):
        release = rng.randint(0, model.release_span)
        window = rng.randint(1, model.max_window)
        heat = Fraction(rng.randint(0, model.heat_numerator_max), model.heat_denominator)
        jobs.append(Job(id=i, release=release, deadline=release + window, heat=heat))
    return Instance(jobs=tuple(jobs))


@dataclass(frozen=True)
class RatioRecord:
    """One instance of an experiment: seed, optimum and policy results.

    throughputs and ratios align with the report's policy order; a
    ratio is None when OPT = 0 or the policy completed nothing.
    proven_optimal is False when the solver hit its node budget, in
    which case opt is only a lower bound.
    """

    seed: int
    opt: int
    proven_optimal: bool
    throughputs: tuple[int, ...]
    ratios: tuple[Optional[Fraction], ...]


@dataclass(frozen=True)
class BoundCounterexample:
    """A policy that fell below the guaranteed ceil(OPT/2) throughput."""

    seed: int
    policy: str
    opt: int
    throughput: int


@dataclass(frozen=True)
class RatioReport:
    """Aggregated outcome of ratio_experiment.

    Aggregates skip records with OPT = 0 (ratio undefined; counted in
    skipped_zero_opt). max_ratios and mean_ratios align with policies
    and are None when no record contributed.
    """

    model: RandomModel
    count: int
    policies: tuple[str, ...]
    records: tuple[RatioRecord, ...]
    skipped_zero_opt: int
    max_ratios: tuple[Optional[Fraction], ...]
    mean_ratios: tuple[Optional[Fraction], ...]
    counterexamples: tuple[BoundCounterexample, ...]


PolicySpec = Union[Sequence[str], Mapping[str, Policy]]


def _resolve_policies(policies: PolicySpec) -> dict[str, Policy]:
    if isinstance(policies, Mapping):
        return dict(policies)
    return {name: POLICIES[name] for name in policies}


def ratio_experiment(
    model: RandomModel,
    policies: PolicySpec,
    count: int,
    budget: Optional[int] = None,
) -> RatioReport:
    """Compare online policies against the exact optimum on seeded instances.

    Instance i uses seed model.seed + i, so reports are reproducible
    and records arrive sorted by seed. policies may be registry names
    or a mapping of names to custom policies; budget is passed through
    to the solver and budget-capped optima are recorded per instance.
    """
    named = _resolve_policies(policies)
    names = tuple(named)
    records = []
    counterexamples = []
    skipped = 0
    for index in range(count):
        seed = model.seed + index
        instance = random_instance(replace(model, seed=seed))
        result = solve_optimal(instance, budget=budget)
        opt = result.best_throughput
        throughputs = []
        ratios: list[Optional[Fraction]] = []
        for name in names:
            alg = run_online(instance, named[name]).trace.throughput
            throughputs.append(alg)
            if opt > 0 and alg > 0:
                ratios.append(Fraction(opt, alg))
            else:
                ratios.append(None)
            if alg < (opt + 1) // 2:
                counterexamples.append(BoundCounterexample(seed, name, opt, alg))
        if opt == 0:
            skipped += 1
        records.append(
            RatioRecord(
                seed=seed,
                opt=opt,
                proven_optimal=result.proven_optimal,
                throughputs=tuple(throughputs),
                ratios=tuple(ratios),
            )
        )
    max_ratios: list[Optional[Fraction]] = []
    mean_ratios: list[Optional[Fraction]] = []
    for pos in range(len(names)):
        defined = [r.ratios[pos] for r in records if r.opt > 0 and r.ratios[pos] is not None]
        if defined:
            max_ratios.append(max(defined))
            mean_ratios.append(sum(defined, Fraction(0)) / len(defined))
        else:
            max_ratios.append(None)
            mean_ratios.append(None)
    return RatioReport(
        model=model,
        count=count,
        policies=names,
        records=tuple(records),
        skipped_zero_opt=skipped,
        max_ratios=tuple(max_ratios),
        mean_ratios=tuple(mean_ratios),
        counterexamples=tuple(counterexamples),
    )
