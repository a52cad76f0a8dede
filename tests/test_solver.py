"""Exact optimizer vs the independent brute-force enumerator."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strategies import instances
from thermosched import (
    Instance,
    InstanceTooLargeError,
    Job,
    Schedule,
    enumerate_optimal_bruteforce,
    simulate,
    solve_optimal,
    step_temperature,
)


class TestSolveOptimal:
    def test_worked_example(self, four_job_example):
        result = solve_optimal(four_job_example)
        assert result.best_throughput == 4
        assert result.proven_optimal

    def test_branch1_instance(self, branch1_instance):
        assert solve_optimal(branch1_instance).best_throughput == 2

    def test_never_admissible_job(self):
        instance = Instance(jobs=(Job(1, 0, 5, Fraction(5, 2)),))
        assert solve_optimal(instance).best_throughput == 0

    def test_empty_instance(self):
        result = solve_optimal(Instance(jobs=()))
        assert result.best_throughput == 0
        assert result.witness.slots == ()

    def test_witness_resimulates(self, four_job_example):
        result = solve_optimal(four_job_example)
        trace = simulate(four_job_example, result.witness)
        assert trace.violations == ()
        assert trace.throughput == result.best_throughput

    def test_budget_gives_lower_bound(self, four_job_example):
        capped = solve_optimal(four_job_example, budget=3)
        assert not capped.proven_optimal
        assert 0 <= capped.best_throughput <= 4
        trace = simulate(four_job_example, capped.witness)
        assert trace.violations == ()
        assert trace.throughput == capped.best_throughput

    def test_generous_budget_still_proves(self, four_job_example):
        result = solve_optimal(four_job_example, budget=10_000_000)
        assert result.proven_optimal
        assert result.best_throughput == 4


class TestBruteForce:
    def test_worked_example(self, four_job_example):
        assert enumerate_optimal_bruteforce(four_job_example) == 4

    def test_empty_instance(self):
        assert enumerate_optimal_bruteforce(Instance(jobs=())) == 0

    def test_two_jobs_one_slot(self):
        instance = Instance(
            jobs=(Job(1, 0, 1, Fraction(1, 2)), Job(2, 0, 1, Fraction(1, 2)))
        )
        assert enumerate_optimal_bruteforce(instance) == 1

    def test_job_count_guard(self):
        jobs = tuple(Job(i, 0, 2, Fraction(0)) for i in range(1, 12))
        with pytest.raises(InstanceTooLargeError):
            enumerate_optimal_bruteforce(Instance(jobs=jobs))

    def test_horizon_guard(self):
        instance = Instance(jobs=(Job(1, 0, 17, Fraction(0)),))
        with pytest.raises(InstanceTooLargeError):
            enumerate_optimal_bruteforce(instance)


@settings(max_examples=150, deadline=None)
@given(instances(max_jobs=5, release_span=3, max_window=3))
def test_oracle_agreement(instance):
    assert solve_optimal(instance).best_throughput == enumerate_optimal_bruteforce(instance)


@settings(max_examples=100, deadline=None)
@given(instances(max_jobs=5, release_span=3, max_window=3))
def test_witness_always_valid(instance):
    result = solve_optimal(instance)
    trace = simulate(instance, result.witness)
    assert trace.violations == ()
    assert trace.throughput == result.best_throughput


@settings(max_examples=100, deadline=None)
@given(instances(min_jobs=1, max_jobs=5, release_span=3, max_window=3), st.data())
def test_opt_monotone_under_job_removal(instance, data):
    base = solve_optimal(instance).best_throughput
    victim = data.draw(st.sampled_from([j.id for j in instance.jobs]))
    reduced = Instance(jobs=tuple(j for j in instance.jobs if j.id != victim))
    assert solve_optimal(reduced).best_throughput <= base


@settings(max_examples=100, deadline=None)
@given(instances(min_jobs=1, max_jobs=5, release_span=3, max_window=3), st.data())
def test_opt_monotone_under_deadline_relaxation(instance, data):
    base = solve_optimal(instance).best_throughput
    lucky = data.draw(st.sampled_from([j.id for j in instance.jobs]))
    relaxed = Instance(
        jobs=tuple(
            Job(j.id, j.release, j.deadline + (1 if j.id == lucky else 0), j.heat)
            for j in instance.jobs
        )
    )
    assert solve_optimal(relaxed).best_throughput >= base


@settings(max_examples=100, deadline=None)
@given(instances(max_jobs=5, release_span=3, max_window=3), st.integers(0, 10**6))
def test_opt_invariant_under_renumbering(instance, shift):
    renumbered = Instance(
        jobs=tuple(
            Job(j.id + shift, j.release, j.deadline, j.heat) for j in instance.jobs
        ),
        config=instance.config,
    )
    assert (
        solve_optimal(renumbered).best_throughput
        == solve_optimal(instance).best_throughput
    )


@settings(max_examples=50, deadline=None)
@given(
    instances(max_jobs=4, release_span=2, max_window=3),
    st.integers(0, 32),
    st.integers(0, 8),
)
def test_cooler_state_never_completes_fewer(instance, k, start):
    """The dominance lemma behind the solver's memo table: from the
    same slot with the same jobs left, a cooler temperature can only
    help. Checked by exhausting both futures."""
    tau_cool = Fraction(k, 32)
    tau_hot = tau_cool + Fraction(1, 16)
    time0 = min(start, instance.horizon)
    cfg = instance.config

    def explore(time, tau, used):
        if time == instance.horizon:
            return 0
        result = explore(time + 1, step_temperature(tau, Fraction(0), cfg), used)
        for idx, job in enumerate(instance.jobs):
            bit = 1 << idx
            if used & bit or not job.pending_at(time):
                continue
            after = step_temperature(tau, job.heat, cfg)
            if after <= cfg.threshold:
                result = max(result, 1 + explore(time + 1, after, used | bit))
        return result

    assert explore(time0, tau_cool, 0) >= explore(time0, tau_hot, 0)
