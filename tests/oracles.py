"""Test-only oracles: the two predicates, a brute-force optimum and a
scripted online policy.

admissible and dominates are the references for the integer product
tests that the policies and check_reasonable run: admissible steps the
recurrence and compares the result with T, and dominates compares with
Fraction's operators.
enumerate_optimal_bruteforce is the deliberately dumb cross-check of
solve_optimal: plain recursion over every violation-free schedule with
no memoization and no bounds. It stays on Fraction and
step_temperature, so it is independent of the scaled integers the
solver runs on. scripted_policy replays a fixed decision per slot, so
enumerating scripts enumerates every online behaviour on a short
horizon.
"""

from fractions import Fraction
from typing import Optional, Sequence

from thermosched import InstanceTooLargeError, step_temperature
from thermosched.policies import Policy

BRUTE_FORCE_MAX_JOBS = 10
BRUTE_FORCE_MAX_HORIZON = 16


def admissible(tau, job, config):
    """True iff running the job at temperature tau keeps the next one <= T."""
    return step_temperature(tau, job.heat, config) <= config.threshold


def dominates(j, k):
    """True iff j is no hotter and no later-due than k, strictly in one of the two."""
    return j.heat <= k.heat and j.deadline <= k.deadline and (
        j.heat < k.heat or j.deadline < k.deadline
    )


def enumerate_optimal_bruteforce(instance):
    """Maximum throughput by exhausting every violation-free schedule.

    Recurses slot by slot over idle plus each unused, in-window,
    admissible job; no memoization, no bounds, no dominance. Guarded to
    at most 10 jobs and horizon 16 because the search space is raw
    exponential.
    """
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
        recurse(time + 1, step_temperature(tau, 0, cfg), used, count)
        for i, job in enumerate(jobs):
            if used & (1 << i) or not job.pending_at(time):
                continue
            after = step_temperature(tau, job.heat, cfg)
            if after <= cfg.threshold:
                recurse(time + 1, after, used | (1 << i), count + 1)

    recurse(0, Fraction(0), 0, 0)
    return best


def scripted_policy(intents: Sequence[Optional[int]]) -> Policy:
    """Policy that tries a fixed job id per slot, idling when it cannot.

    intents[t] is attempted at slot t; attempts at jobs that are not
    pending or not admissible fall back to idle, as do slots past the
    end of the script.
    """
    script = tuple(intents)

    def decide(time, temperature, pending, config):
        if time >= len(script) or script[time] is None:
            return None
        for job in pending:
            if job.id == script[time] and admissible(temperature, job, config):
                return job.id
        return None

    return decide
