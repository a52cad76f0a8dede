"""Exact maximum-throughput solvers.

solve_optimal() is a depth-first branch-and-bound over the slots: at
each slot it tries every admissible pending job and then idling, keeps
the best complete schedule found, and prunes with

  * an upper bound (completions so far plus jobs still alive can never
    beat the incumbent), and
  * state dominance: two search states at the same slot with the same
    set of completed still-alive jobs are comparable, and the one with
    at least as many completions and a temperature at most as high can
    only do better from here on (cooler is never worse, since lowering
    the temperature preserves every later admissibility check).

Expired jobs drop out of the dominance key because they cannot affect
the future; their count is kept in the Pareto value instead.

enumerate_optimal_bruteforce() is the deliberately dumb cross-check:
plain recursion over every violation-free schedule with no memoization
and no bounds. It exists so the clever solver has something independent
to agree with.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .model import Instance, Schedule, require_valid, step_temperature

BRUTE_FORCE_MAX_JOBS = 10
BRUTE_FORCE_MAX_HORIZON = 16


@dataclass(frozen=True)
class OptResult:
    """Outcome of solve_optimal.

    witness re-simulates violation-free with exactly best_throughput
    completions. proven_optimal is False only when a node budget was
    hit, in which case best_throughput is a lower bound.
    """

    best_throughput: int
    witness: Schedule
    explored: int
    proven_optimal: bool


class InstanceTooLargeError(ValueError):
    """Input exceeds a brute-force guard."""


class _BudgetExhausted(Exception):
    pass


def solve_optimal(instance: Instance, budget: Optional[int] = None) -> OptResult:
    """Exact maximum throughput and a witness schedule.

    budget caps the number of search nodes; when it is hit the best
    schedule found so far is returned with proven_optimal=False.
    Raises InvalidInstanceError on an invalid instance.
    """
    require_valid(instance)
    cfg = instance.config
    jobs = instance.jobs
    n = len(jobs)
    horizon = instance.horizon
    # Branch earliest-deadline-first: good incumbents early mean more pruning.
    order = sorted(range(n), key=lambda i: (jobs[i].deadline, jobs[i].heat, jobs[i].id))
    best = 0
    best_slots: list[Optional[int]] = [None] * horizon
    current: list[Optional[int]] = [None] * horizon
    # memo[(time, frozen unexpired done-mask)] -> Pareto set of (count, temperature)
    memo: dict[tuple[int, int], list[tuple[int, Fraction]]] = {}
    explored = 0

    def alive_mask(time: int) -> int:
        mask = 0
        for i, job in enumerate(jobs):
            if job.deadline > time:
                mask |= 1 << i
        return mask

    alive = [alive_mask(t) for t in range(horizon + 1)]

    def dfs(time: int, tau: Fraction, done: int, count: int) -> None:
        nonlocal best, explored
        explored += 1
        if budget is not None and explored > budget:
            raise _BudgetExhausted
        if time == horizon:
            if count > best:
                best = count
                best_slots[:] = current
            return
        remaining = bin(alive[time] & ~done).count("1")
        if count + min(remaining, horizon - time) <= best:
            return
        key = (time, done & alive[time])
        pareto = memo.setdefault(key, [])
        for seen_count, seen_tau in pareto:
            if seen_count >= count and seen_tau <= tau:
                return
        pareto[:] = [
            (c, t) for c, t in pareto if not (count >= c and tau <= t)
        ]
        pareto.append((count, tau))
        for i in order:
            job = jobs[i]
            bit = 1 << i
            if done & bit or not job.pending_at(time):
                continue
            after = step_temperature(tau, job.heat, cfg)
            if after > cfg.threshold:
                continue
            current[time] = job.id
            dfs(time + 1, after, done | bit, count + 1)
            current[time] = None
        dfs(time + 1, step_temperature(tau, Fraction(0), cfg), done, count)

    proven = True
    try:
        dfs(0, Fraction(0), 0, 0)
    except _BudgetExhausted:
        proven = False
    return OptResult(
        best_throughput=best,
        witness=Schedule(tuple(best_slots)),
        explored=explored,
        proven_optimal=proven,
    )


def enumerate_optimal_bruteforce(instance: Instance) -> int:
    """Maximum throughput by exhausting every violation-free schedule.

    Recurses slot by slot over idle plus each unused, in-window,
    admissible job; no memoization, no bounds, no dominance. Guarded to
    at most 10 jobs and horizon 16 because the search space is raw
    exponential.
    """
    require_valid(instance)
    n = len(instance.jobs)
    horizon = instance.horizon
    if n > BRUTE_FORCE_MAX_JOBS or horizon > BRUTE_FORCE_MAX_HORIZON:
        raise InstanceTooLargeError(
            f"brute force limited to {BRUTE_FORCE_MAX_JOBS} jobs and "
            f"horizon {BRUTE_FORCE_MAX_HORIZON} (got {n} jobs, horizon {horizon})"
        )
    cfg = instance.config
    jobs = instance.jobs
    best = 0

    def recurse(time: int, tau: Fraction, used: int, count: int) -> None:
        nonlocal best
        if time == horizon:
            best = max(best, count)
            return
        recurse(time + 1, step_temperature(tau, Fraction(0), cfg), used, count)
        for i, job in enumerate(jobs):
            if used & (1 << i) or not job.pending_at(time):
                continue
            after = step_temperature(tau, job.heat, cfg)
            if after <= cfg.threshold:
                recurse(time + 1, after, used | (1 << i), count + 1)

    recurse(0, Fraction(0), 0, 0)
    return best
