"""Online harness, CoolestFirst/EDF and the reasonableness checker."""

from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import scripted_policy
from strategies import configs, heats, instances, mixed_heats, stepped_temperatures
from thermosched import (
    DEFAULT_CONFIG,
    Instance,
    Job,
    PolicyViolationError,
    ReasonablenessViolation,
    ThermalConfig,
    check_reasonable,
    always_idle,
    coolest_first_decide,
    edf_decide,
    is_admissible,
    parse_instance,
    run_online,
    simulate,
    step_temperature,
    strictly_dominates,
)
from thermosched.policies import DOMINANCE, NON_WAITING
from thermosched.serialization import serialize_run

TIGHT_CUT = Path(__file__).parent / "data" / "tight_cut.json"


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
        for time, shown in enumerate(run.pending):
            for job_id in shown:
                assert four_job_example.job_map()[job_id].release <= time

    def test_decision_log_matches_schedule(self, four_job_example):
        run = run_online(four_job_example, edf_decide)
        assert len(run.pending) == len(run.schedule) == four_job_example.horizon
        assert check_reasonable(run) == replay_reasonable(run)

    def test_policy_returning_unknown_job_rejected(self, four_job_example):
        with pytest.raises(PolicyViolationError, match="not pending"):
            run_online(four_job_example, lambda *a: 99)

    def test_policy_returning_unreleased_job_rejected(self, four_job_example):
        with pytest.raises(PolicyViolationError, match="not pending"):
            run_online(four_job_example, lambda *a: 4)

    @pytest.mark.parametrize("choice", [1.0, True])
    def test_policy_returning_non_int_id_rejected(self, choice):
        # 1.0 and True both equal job id 1, but neither is a job id.
        instance = Instance((Job(1, 0, 2, Fraction(1, 2)),))
        with pytest.raises(PolicyViolationError, match=rf"job {choice} at time 0, .* not pending"):
            run_online(instance, lambda t, tau, pending, config: choice if pending else None)

    def test_policy_returning_inadmissible_job_rejected(self):
        instance = Instance(
            jobs=(Job(1, 0, 2, Fraction(2)), Job(2, 0, 2, Fraction(2)))
        )

        def hot_headed(time, tau, pending, config):
            return pending[0].id if pending else None

        with pytest.raises(PolicyViolationError, match="not admissible"):
            run_online(instance, hot_headed)

    def test_job_landing_exactly_on_t_is_admitted(self):
        # T = 5/3, R = 3/2: job 1 leaves 3/2, two idle slots cool it to 2/3,
        # and job 2 (heat 11/6) then lands on (2/3 + 11/6)/(3/2) = 5/3 = T.
        instance = parse_instance(TIGHT_CUT.read_text())
        run = run_online(instance, _replay((1, None, None, 2, None)))
        assert run.schedule.slots == (1, None, None, 2, None)
        assert run.trace.temperatures[4] == instance.config.threshold

    def test_job_one_slot_early_is_not_admissible(self):
        # After one idle slot tau = 1, and (1 + 11/6)/(3/2) = 17/9 > 5/3.
        instance = parse_instance(TIGHT_CUT.read_text())
        with pytest.raises(
            PolicyViolationError, match=r"^policy returned job 2 at time 2, which is not admissible$"
        ):
            run_online(instance, _replay((1, None, 2, None, None)))


def _replay(script):
    """Policy that returns script[t] at slot t, admissible or not."""
    return lambda time, temperature, pending, config: script[time]


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

    @pytest.mark.parametrize(
        "heat, expected",
        [(Fraction(11, 6), [(3, NON_WAITING, None, 2)]), (Fraction(37, 20), [])],
        ids=["on-the-room", "above-the-room"],
    )
    def test_heat_equal_to_the_room_is_admissible(self, heat, expected):
        # T = 5/3, R = 3/2, so R·T = 5/2. Idling after job 1 leaves
        # tau = 3/2, 1, 2/3; at slot 3 the room 5/2 - 2/3 is exactly 11/6.
        config = ThermalConfig(Fraction(5, 3), Fraction(3, 2))
        instance = Instance((Job(1, 0, 1, Fraction(9, 4)), Job(2, 1, 4, heat)), config)
        run = run_online(instance, _replay((1, None, None, None)))
        assert run.trace.temperatures[3] == Fraction(2, 3)
        violations = check_reasonable(run)
        assert [(v.time, v.kind, v.executed, v.witness) for v in violations] == expected


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


# Instances under the default config and under drawn non-default ones, plus
# scripts that name ids from instances() (1..6), idle or miss.
any_config_instances = st.one_of(instances(), instances(config=configs()))
scripts = st.lists(st.one_of(st.none(), st.integers(1, 7)), max_size=10)


def recording(policy, seen):
    """The policy, with each pending tuple it is shown appended to seen."""

    def decide(time, temperature, pending, config):
        seen.append(pending)
        return policy(time, temperature, pending, config)

    return decide


@settings(max_examples=200, deadline=None)
@given(any_config_instances, scripts)
def test_decision_log_shows_exactly_the_pending_jobs(instance, script):
    """Each slot's entry lists the released, unexpired, not yet run jobs, by id,
    and the policy is shown a tuple of the instance's own Job objects with those ids."""
    jobs = instance.job_map()
    for policy in (coolest_first_decide, edf_decide, scripted_policy(script)):
        seen = []
        run = run_online(instance, recording(policy, seen))
        assert len(run.pending) == len(seen) == instance.horizon
        for time, (shown, pending) in enumerate(zip(run.pending, seen)):
            ran = set(run.schedule.slots[:time])
            expected = sorted(
                j.id
                for j in instance.jobs
                if j.release <= time < j.deadline and j.id not in ran
            )
            assert shown == tuple(expected)
            assert type(pending) is tuple
            assert all(jobs[job.id] is job for job in pending)
            assert tuple(job.id for job in pending) == shown


@settings(max_examples=200, deadline=None)
@given(instances(config=configs()), scripts)
def test_run_trace_is_the_simulated_schedule(instance, script):
    """The trace a run returns is exactly simulate of its schedule."""
    for policy in (coolest_first_decide, edf_decide, always_idle, scripted_policy(script)):
        run = run_online(instance, policy)
        assert run.trace == simulate(instance, run.schedule)


def replay_reasonable(run, admissible=is_admissible, dominates=strictly_dominates):
    """Reference oracle: re-derive the pending jobs from the instance and
    the schedule slot by slot, independently of run.pending."""
    instance = run.instance
    cfg = instance.config
    jobs = instance.job_map()
    violations = []
    done = set()
    for time in range(instance.horizon):
        tau = run.trace.temperatures[time]
        pending = [j for j in instance.jobs if j.pending_at(time) and j.id not in done]
        choice = run.schedule[time] if time < len(run.schedule) else None
        if choice is None:
            fitting = [j for j in pending if admissible(tau, j, cfg)]
            if fitting:
                violations.append(
                    ReasonablenessViolation(time, NON_WAITING, None, fitting[0].id)
                )
        else:
            executed = jobs[choice]
            done.add(choice)
            for other in pending:
                if other.id != choice and dominates(other, executed):
                    violations.append(
                        ReasonablenessViolation(time, DOMINANCE, choice, other.id)
                    )
                    break
    return violations


@settings(max_examples=300, deadline=None)
@given(any_config_instances, scripts)
def test_check_reasonable_matches_replay_oracle(instance, script):
    for policy in (always_idle, scripted_policy(script)):
        run = run_online(instance, policy)
        assert check_reasonable(run) == replay_reasonable(run)


def _old_admissible(pending, tau, config):
    """The admissible pending jobs, by the recurrence itself."""
    return [j for j in pending if step_temperature(tau, j.heat, config) <= config.threshold]


def coolest_first_reference(time, temperature, pending, config):
    """Reference oracle: CoolestFirst as "filter admissible, then min"."""
    admissible = _old_admissible(pending, temperature, config)
    return min(admissible, key=lambda j: (j.heat, j.deadline, j.id)).id if admissible else None


def edf_reference(time, temperature, pending, config):
    """Reference oracle: EDF as "filter admissible, then min"."""
    admissible = _old_admissible(pending, temperature, config)
    return min(admissible, key=lambda j: (j.deadline, j.heat, j.id)).id if admissible else None


@st.composite
def decision_slots(draw, heat=heats()):
    """A config, a stepped temperature and up to 8 pending jobs (distinct
    ids, few deadlines, so ties are common); hot jobs and high
    temperatures make slots with no admissible job common too."""
    cfg = draw(st.one_of(st.just(DEFAULT_CONFIG), configs()))
    tau = draw(stepped_temperatures(cfg, heat=heat))
    ids = draw(st.lists(st.integers(1, 20), unique=True, max_size=8))
    pending = tuple(
        Job(i, 0, draw(st.integers(1, 3)), draw(heat)) for i in sorted(ids)
    )
    return cfg, tau, pending


@settings(max_examples=500, deadline=None)
@given(decision_slots())
def test_decide_bodies_match_filter_then_min(slot):
    cfg, tau, pending = slot
    for policy, reference in (
        (coolest_first_decide, coolest_first_reference),
        (edf_decide, edf_reference),
    ):
        assert policy(0, tau, pending, cfg) == reference(0, tau, pending, cfg)


# -- mixed denominators ----------------------------------------------------
# The policies compare heats by cross-multiplication. On the k/16 grid
# every pair of heats shares a power-of-two denominator; mixed_heats()
# draws k/d with d in {1, 2, 3, 10, 16}, so the integer comparisons meet
# unequal denominators. The references below use Fraction's operators.


def dominates_reference(j, k):
    return j.heat <= k.heat and j.deadline <= k.deadline and (
        j.heat < k.heat or j.deadline < k.deadline
    )


def admissible_reference(tau, job, config):
    return step_temperature(tau, job.heat, config) <= config.threshold


@settings(max_examples=500, deadline=None)
@given(decision_slots(heat=mixed_heats()))
def test_decide_bodies_match_filter_then_min_on_mixed_denominators(slot):
    cfg, tau, pending = slot
    for policy, reference in (
        (coolest_first_decide, coolest_first_reference),
        (edf_decide, edf_reference),
    ):
        assert policy(0, tau, pending, cfg) == reference(0, tau, pending, cfg)


@settings(max_examples=500, deadline=None)
@given(mixed_heats(), mixed_heats(), st.integers(1, 3), st.integers(1, 3))
def test_strictly_dominates_matches_fraction_operators(h1, h2, d1, d2):
    j, k = Job(1, 0, d1, h1), Job(2, 0, d2, h2)
    assert strictly_dominates(j, k) == dominates_reference(j, k)
    assert strictly_dominates(k, j) == dominates_reference(k, j)


mixed_instances = instances(
    config=st.one_of(st.just(DEFAULT_CONFIG), configs()), heat=mixed_heats()
)


@settings(max_examples=300, deadline=None)
@given(mixed_instances, scripts)
def test_check_reasonable_matches_fraction_oracle_on_mixed_denominators(instance, script):
    for policy in (coolest_first_decide, edf_decide, always_idle, scripted_policy(script)):
        run = run_online(instance, policy)
        expected = replay_reasonable(run, admissible_reference, dominates_reference)
        assert check_reasonable(run) == expected
