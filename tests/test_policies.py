"""Online harness, CoolestFirst/EDF and the reasonableness checker."""

from fractions import Fraction

import pytest
from hypothesis import given, settings

from strategies import instances
from thermosched import (
    Instance,
    Job,
    PolicyViolationError,
    check_reasonable,
    always_idle,
    coolest_first_decide,
    edf_decide,
    run_online,
    scripted_policy,
    strictly_dominates,
)
from thermosched.policies import DOMINANCE, NON_WAITING
from thermosched.serialization import serialize_run


class TestDecisionRules:
    def test_coolest_prefers_lower_heat(self):
        pending = (Job(1, 0, 3, Fraction(2, 5)), Job(2, 0, 2, Fraction(4, 5)))
        assert coolest_first_decide(0, Fraction(0), pending) == 1

    def test_edf_prefers_earlier_deadline(self):
        pending = (Job(1, 0, 3, Fraction(2, 5)), Job(2, 0, 2, Fraction(4, 5)))
        assert edf_decide(0, Fraction(0), pending) == 2

    def test_both_idle_on_empty_pending(self):
        assert coolest_first_decide(0, Fraction(0), ()) is None
        assert edf_decide(0, Fraction(0), ()) is None

    def test_both_idle_when_nothing_admissible(self):
        pending = (Job(3, 2, 3, Fraction(19, 10)),)
        assert coolest_first_decide(2, Fraction(2, 5), pending) is None
        assert edf_decide(2, Fraction(2, 5), pending) is None

    def test_coolest_tie_breaks_deadline_then_id(self):
        by_deadline = (Job(1, 0, 4, Fraction(1, 2)), Job(2, 0, 3, Fraction(1, 2)))
        assert coolest_first_decide(0, Fraction(0), by_deadline) == 2
        by_id = (Job(2, 0, 3, Fraction(1, 2)), Job(1, 0, 3, Fraction(1, 2)))
        assert coolest_first_decide(0, Fraction(0), by_id) == 1

    def test_edf_tie_breaks_heat_then_id(self):
        by_heat = (Job(1, 0, 3, Fraction(3, 4)), Job(2, 0, 3, Fraction(1, 2)))
        assert edf_decide(0, Fraction(0), by_heat) == 2
        by_id = (Job(2, 0, 2, Fraction(2, 5)), Job(1, 0, 2, Fraction(2, 5)))
        assert edf_decide(0, Fraction(0), by_id) == 1


class TestRunOnline:
    def test_coolest_on_worked_example(self, four_job_example):
        run = run_online(four_job_example, coolest_first_decide)
        assert run.schedule.slots == (1, 2, None, None, 4, None)
        assert run.trace.throughput == 3
        assert run.trace.violations == ()

    def test_edf_on_worked_example(self, four_job_example):
        run = run_online(four_job_example, edf_decide)
        assert run.trace.throughput == 3

    def test_single_job_completes(self):
        instance = Instance(jobs=(Job(1, 0, 1, Fraction(1)),))
        for policy in (coolest_first_decide, edf_decide):
            assert run_online(instance, policy).trace.throughput == 1

    def test_branch1_instance_coolest_gets_one(self, branch1_instance):
        run = run_online(branch1_instance, coolest_first_decide)
        assert run.trace.throughput == 1

    def test_unreleased_jobs_never_shown(self, four_job_example):
        run = run_online(four_job_example, coolest_first_decide)
        for record in run.decisions:
            for job_id in record.pending:
                assert four_job_example.job_map()[job_id].release <= record.time

    def test_decision_log_matches_schedule(self, four_job_example):
        run = run_online(four_job_example, edf_decide)
        assert tuple(r.decision for r in run.decisions) == run.schedule.slots
        assert tuple(r.temperature for r in run.decisions) == run.trace.temperatures[:-1]

    def test_policy_returning_unknown_job_rejected(self, four_job_example):
        with pytest.raises(PolicyViolationError, match="not pending"):
            run_online(four_job_example, lambda *a: 99)

    def test_policy_returning_unreleased_job_rejected(self, four_job_example):
        with pytest.raises(PolicyViolationError, match="not pending"):
            run_online(four_job_example, lambda *a: 4)

    def test_policy_returning_inadmissible_job_rejected(self):
        instance = Instance(
            jobs=(Job(1, 0, 2, Fraction(2)), Job(2, 0, 2, Fraction(2)))
        )

        def hot_headed(time, tau, pending, config):
            return pending[0].id if pending else None

        with pytest.raises(PolicyViolationError, match="not admissible"):
            run_online(instance, hot_headed)


class TestStrictDominance:
    def test_strict_in_one_coordinate(self):
        j = Job(1, 0, 4, Fraction(1, 2))
        k = Job(2, 0, 5, Fraction(1))
        assert strictly_dominates(j, k)
        assert not strictly_dominates(k, j)

    def test_equal_jobs_do_not_strictly_dominate(self):
        j = Job(1, 0, 4, Fraction(1, 2))
        k = Job(2, 1, 4, Fraction(1, 2))
        assert not strictly_dominates(j, k)

    def test_incomparable(self):
        j = Job(1, 0, 3, Fraction(1))
        k = Job(2, 0, 4, Fraction(1, 2))
        assert not strictly_dominates(j, k)
        assert not strictly_dominates(k, j)


class TestCheckReasonable:
    def test_coolest_run_is_reasonable(self, four_job_example):
        assert check_reasonable(run_online(four_job_example, coolest_first_decide)) == []

    def test_idling_despite_admissible_job(self):
        instance = Instance(jobs=(Job(1, 0, 1, Fraction(1, 2)),))
        violations = check_reasonable(run_online(instance, always_idle))
        assert [(v.time, v.kind, v.witness) for v in violations] == [(0, NON_WAITING, 1)]

    def test_executing_dominated_job(self):
        instance = Instance(
            jobs=(Job(1, 0, 4, Fraction(1, 2)), Job(2, 0, 5, Fraction(1)))
        )
        run = run_online(instance, scripted_policy((2, 1)))
        violations = check_reasonable(run)
        assert any(v.kind == DOMINANCE and v.executed == 2 and v.witness == 1 for v in violations)

    def test_waiting_for_cooldown_is_not_idling(self):
        # no admissible pending job at t=1, so the idle slot is fine
        instance = Instance(
            jobs=(Job(1, 0, 2, Fraction(2)), Job(2, 0, 4, Fraction(2)))
        )
        run = run_online(instance, coolest_first_decide)
        assert run.schedule[0] == 1 and run.schedule[1] is None
        assert check_reasonable(run) == []


@settings(max_examples=200, deadline=None)
@given(instances())
def test_builtin_policies_always_reasonable(instance):
    for policy in (coolest_first_decide, edf_decide):
        run = run_online(instance, policy)
        assert check_reasonable(run) == []
        assert run.trace.violations == ()


@settings(max_examples=200, deadline=None)
@given(instances(max_jobs=5, release_span=3, max_window=3))
def test_online_causality(instance):
    """Jobs released after slot u cannot influence decisions up to u."""
    for policy in (coolest_first_decide, edf_decide):
        full = run_online(instance, policy)
        for u in range(instance.horizon):
            revealed = tuple(j for j in instance.jobs if j.release <= u)
            if not revealed:
                continue
            partial = run_online(Instance(jobs=revealed), policy)
            prefix = min(u + 1, len(partial.schedule), len(full.schedule))
            assert full.schedule.slots[:prefix] == partial.schedule.slots[:prefix]


@settings(max_examples=100, deadline=None)
@given(instances())
def test_online_runs_deterministic(instance):
    first = run_online(instance, coolest_first_decide)
    second = run_online(instance, coolest_first_decide)
    assert serialize_run(first) == serialize_run(second)
