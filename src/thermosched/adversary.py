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
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from typing import Optional, Sequence

from .model import (
    DEFAULT_CONFIG,
    Instance,
    Job,
    Schedule,
    SimulationTrace,
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

    instance is run.instance, the final revealed instance of the chosen
    branch; the reveal order is visible in run.pending, the ids shown at
    each slot.
    branch is BRANCH_EXECUTE when the policy ran job 1 at slot 0 and
    BRANCH_IDLE otherwise. adversary_trace simulates adversary_schedule
    on the instance; alg_throughput and adv_throughput are the two
    traces' throughputs.
    """

    branch: str
    run: OnlineRun
    adversary_schedule: Schedule

    @property
    def instance(self) -> Instance:
        return self.run.instance

    @property
    def adversary_trace(self) -> SimulationTrace:
        return simulate(self.instance, self.adversary_schedule)

    @property
    def alg_throughput(self) -> int:
        return self.run.trace.throughput

    @property
    def adv_throughput(self) -> int:
        return self.adversary_trace.throughput


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
    return AdversaryTranscript(branch, run_online(instance, policy), adversary_schedule)


def _require_int(name: str, value: object) -> None:
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, got {value!r}")


# The least value of each RandomModel field that random_instance can draw from.
_MODEL_MINIMA = (("n", 0), ("release_span", 0), ("max_window", 1))


@dataclass(frozen=True)
class RandomModel:
    """Seeded generator parameters for random instances.

    Releases are uniform on 0..release_span, window lengths uniform on
    1..max_window, heats uniform on the grid k/16 with 0 <= k <= 32
    (0..2, crossing every admissibility regime of the default config).
    Generation is a pure function of the seed. Raises ValueError naming
    the field when a field is not an int (a bool is not), when n or
    release_span is negative, or when max_window is below 1.
    """

    n: int
    release_span: int = 4
    max_window: int = 4
    seed: int = 0

    def __post_init__(self) -> None:
        for spec in fields(self):
            _require_int(spec.name, getattr(self, spec.name))
        for field, low in _MODEL_MINIMA:
            value = getattr(self, field)
            if value < low:
                raise ValueError(f"{field} must be at least {low}, got {value}")


def random_instance(model: RandomModel) -> Instance:
    """Draw the instance the model and its seed determine."""
    rng = random.Random(model.seed)
    jobs = []
    for i in range(1, model.n + 1):
        release = rng.randint(0, model.release_span)
        window = rng.randint(1, model.max_window)
        heat = Fraction(rng.randint(0, 32), 16)
        jobs.append(Job(id=i, release=release, deadline=release + window, heat=heat))
    return Instance(jobs=tuple(jobs))


@dataclass(frozen=True)
class RatioRecord:
    """One instance of an experiment: seed, optimum and policy results.

    throughputs and ratios align with the report's policy order; a
    ratio is OPT over the throughput, and None when OPT = 0 or the
    policy completed nothing. proven_optimal is False when the solver
    hit its node budget, in which case opt is only a lower bound.
    """

    seed: int
    opt: int
    proven_optimal: bool
    throughputs: tuple[int, ...]

    @property
    def ratios(self) -> tuple[Optional[Fraction], ...]:
        opt = self.opt
        return tuple(
            Fraction(opt, alg) if opt > 0 and alg > 0 else None for alg in self.throughputs
        )


@dataclass(frozen=True)
class BoundCounterexample:
    """A policy that fell below the guaranteed ceil(OPT/2) throughput."""

    seed: int
    policy: str
    opt: int
    throughput: int


@dataclass(frozen=True)
class RatioReport:
    """Outcome of ratio_experiment; every aggregate is computed from records.

    count is the number of records. Aggregates skip records with OPT = 0
    (ratio undefined; counted in skipped_zero_opt). max_ratios and
    mean_ratios align with policies and are None when no record
    contributed. counterexamples lists, in record then policy order,
    each throughput below ceil(OPT/2). Construction raises ValueError
    when a policy name repeats or a record's throughputs do not align
    with policies.
    """

    model: RandomModel
    policies: tuple[str, ...]
    records: tuple[RatioRecord, ...]

    def __post_init__(self) -> None:
        if len(set(self.policies)) != len(self.policies):
            raise ValueError(f"policy names must be distinct, got {self.policies!r}")
        for record in self.records:
            if len(record.throughputs) != len(self.policies):
                raise ValueError(
                    f"record with seed {record.seed} has {len(record.throughputs)} "
                    f"throughput(s) for {len(self.policies)} policies"
                )

    @property
    def count(self) -> int:
        return len(self.records)

    @property
    def skipped_zero_opt(self) -> int:
        return sum(1 for r in self.records if r.opt == 0)

    def _defined_ratios(self) -> list[list[Fraction]]:
        """Per policy, the ratios that are not None."""
        rows = [r.ratios for r in self.records]
        return [
            [row[pos] for row in rows if row[pos] is not None] for pos in range(len(self.policies))
        ]

    @property
    def max_ratios(self) -> tuple[Optional[Fraction], ...]:
        return tuple(max(d) if d else None for d in self._defined_ratios())

    @property
    def mean_ratios(self) -> tuple[Optional[Fraction], ...]:
        return tuple(sum(d, Fraction(0)) / len(d) if d else None for d in self._defined_ratios())

    @property
    def counterexamples(self) -> tuple[BoundCounterexample, ...]:
        return tuple(
            BoundCounterexample(r.seed, name, r.opt, alg)
            for r in self.records
            for name, alg in zip(self.policies, r.throughputs)
            if alg < (r.opt + 1) // 2
        )


def ratio_experiment(
    model: RandomModel,
    policies: Sequence[str],
    count: int,
    budget: Optional[int] = None,
) -> RatioReport:
    """Compare online policies against the exact optimum on seeded instances.

    Instance i uses seed model.seed + i, so reports are reproducible
    and records arrive sorted by seed. policies are names in the
    POLICIES registry (an unknown name raises KeyError); budget is
    passed through to the solver and budget-capped optima are recorded
    per instance. Raises ValueError when count is not an int or is
    negative, or when a policy name repeats.
    """
    _require_int("count", count)
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    chosen = [POLICIES[name] for name in policies]
    # The empty report checks the names before any instance is solved.
    report = RatioReport(model, tuple(policies), ())
    records = []
    for seed in range(model.seed, model.seed + count):
        instance = random_instance(replace(model, seed=seed))
        result = solve_optimal(instance, budget=budget)
        throughputs = tuple(run_online(instance, p).trace.throughput for p in chosen)
        opt = result.best_throughput
        records.append(RatioRecord(seed, opt, result.proven_optimal, throughputs))
    return replace(report, records=tuple(records))
