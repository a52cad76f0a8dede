"""Lower-bound game and seeded ratio experiments."""

import itertools
import re
from dataclasses import replace
from enum import IntEnum
from fractions import Fraction

import pytest

from oracles import scripted_policy
from thermosched import (
    RandomModel,
    always_idle,
    coolest_first_decide,
    edf_decide,
    random_instance,
    ratio_experiment,
    run_lower_bound_game,
    run_online,
    solve_optimal,
)
from thermosched.adversary import BRANCH_EXECUTE, BRANCH_IDLE, RatioRecord, RatioReport

ALL_SCRIPTS = tuple(itertools.product((None, 1, 2, 3), repeat=3))


def assert_transcript_sound(transcript):
    """Invariants every game transcript must satisfy."""
    assert transcript.adv_throughput == 2
    assert transcript.adversary_trace.violations == ()
    assert transcript.alg_throughput == transcript.run.trace.throughput
    assert transcript.alg_throughput <= 1
    job_map = transcript.instance.job_map()
    for time, shown in enumerate(transcript.run.pending):
        for job_id in shown:
            job = job_map[job_id]
            assert job.release <= time < job.deadline
    revealed = {j.id for j in transcript.instance.jobs}
    if transcript.branch == BRANCH_EXECUTE:
        assert revealed == {1, 2}
        assert transcript.run.schedule[0] == 1
    else:
        assert revealed == {1, 3}
        assert transcript.run.schedule[0] is None


class TestLowerBoundGame:
    def test_coolest_first_loses_by_half(self):
        transcript = run_lower_bound_game(coolest_first_decide)
        assert transcript.branch == BRANCH_EXECUTE
        assert transcript.alg_throughput == 1
        assert transcript.adv_throughput == 2
        assert_transcript_sound(transcript)

    def test_edf_loses_by_half(self):
        transcript = run_lower_bound_game(edf_decide)
        assert transcript.branch == BRANCH_EXECUTE
        assert transcript.alg_throughput == 1

    def test_idling_policy_fares_worse(self):
        transcript = run_lower_bound_game(always_idle)
        assert transcript.branch == BRANCH_IDLE
        assert transcript.alg_throughput == 0
        assert_transcript_sound(transcript)

    def test_execute_branch_temperatures(self):
        transcript = run_lower_bound_game(coolest_first_decide)
        assert transcript.adversary_schedule.slots == (None, 2, 1)
        assert transcript.adversary_trace.temperatures == (
            0,
            0,
            Fraction(4, 5),
            1,
        )
        # after running job 1 the policy sits at 3/5 and job 2 would
        # overshoot: (3/5 + 8/5) / 2 = 11/10 > 1
        assert transcript.run.trace.temperatures[1] == Fraction(3, 5)

    def test_idle_branch_temperatures(self):
        transcript = run_lower_bound_game(always_idle)
        assert transcript.adversary_schedule.slots == (1, None, 3)
        assert transcript.adversary_trace.temperatures == (
            0,
            Fraction(3, 5),
            Fraction(3, 10),
            Fraction(19, 20),
        )

    def test_every_decision_behavior_stays_below_half(self):
        """Exhausting all 4^3 scripted behaviors shows no online policy
        can beat throughput 1 against the adversary's 2."""
        for script in ALL_SCRIPTS:
            transcript = run_lower_bound_game(scripted_policy(script))
            assert_transcript_sound(transcript)
            if script[0] == 1:
                assert transcript.branch == BRANCH_EXECUTE
                assert transcript.alg_throughput == 1
            else:
                assert transcript.branch == BRANCH_IDLE

    def test_some_script_reaches_one_in_idle_branch(self):
        transcript = run_lower_bound_game(scripted_policy((None, None, 3)))
        assert transcript.branch == BRANCH_IDLE
        assert transcript.alg_throughput == 1


class TestFixedInstancesAlone:
    """The revealed instances, played offline, do not witness the bound;
    adaptivity is essential."""

    def test_execute_branch_instance(self, branch1_instance):
        assert solve_optimal(branch1_instance).best_throughput == 2
        for policy in (coolest_first_decide, edf_decide):
            assert run_online(branch1_instance, policy).trace.throughput == 1

    def test_idle_branch_instance_is_harmless(self, branch2_instance):
        assert solve_optimal(branch2_instance).best_throughput == 2
        for policy in (coolest_first_decide, edf_decide):
            assert run_online(branch2_instance, policy).trace.throughput == 2


class TestRandomInstance:
    def test_empty_model(self):
        assert random_instance(RandomModel(n=0)).jobs == ()

    def test_deterministic_in_seed(self):
        model = RandomModel(n=6, seed=123)
        assert random_instance(model) == random_instance(model)
        assert random_instance(model) != random_instance(replace(model, seed=124))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("n", -1),
            ("release_span", -1),
            ("max_window", 0),
        ],
    )
    def test_out_of_range_field_is_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be at least {value + 1}"):
            RandomModel(**{"n": 2, field: value})

    @pytest.mark.parametrize(
        "field, value",
        [
            ("n", 2.5),
            ("max_window", 1.5),
            ("n", True),
            ("release_span", "4"),
            ("seed", 1.5),
            ("seed", IntEnum("Seeds", "ONE").ONE),
        ],
    )
    def test_non_integer_field_is_rejected(self, field, value):
        message = f"{field} must be an integer, got {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            RandomModel(**{"n": 2, field: value})

    def test_smallest_fields_are_accepted(self):
        (job,) = random_instance(RandomModel(n=1, release_span=0, max_window=1)).jobs
        assert (job.id, job.release, job.deadline) == (1, 0, 1)

    def test_draws_respect_model_bounds(self):
        for seed in range(30):
            model = RandomModel(n=5, release_span=3, max_window=2, seed=seed)
            instance = random_instance(model)
            assert [j.id for j in instance.jobs] == [1, 2, 3, 4, 5]
            for job in instance.jobs:
                assert 0 <= job.release <= 3
                assert 1 <= job.deadline - job.release <= 2
                assert 0 <= job.heat <= 2
                assert 16 % job.heat.denominator == 0


class TestRatioExperiment:
    def test_empty_run(self):
        report = ratio_experiment(RandomModel(n=3), ("coolest", "edf"), 0)
        assert report.records == ()
        assert report.max_ratios == (None, None)
        assert report.mean_ratios == (None, None)
        assert report.counterexamples == ()

    def test_negative_count_is_rejected(self):
        with pytest.raises(ValueError, match="count"):
            ratio_experiment(RandomModel(n=3), ("coolest",), -3)

    @pytest.mark.parametrize("count", [2.0, True])
    def test_non_integer_count_is_rejected(self, count):
        with pytest.raises(ValueError, match=f"^count must be an integer, got {count!r}$"):
            ratio_experiment(RandomModel(n=3), ("coolest",), count)

    def test_misaligned_record_is_rejected(self):
        record = RatioRecord(seed=0, opt=2, proven_optimal=True, throughputs=(0, 0))
        with pytest.raises(
            ValueError, match=r"^record with seed 0 has 2 throughput\(s\) for 1 policies$"
        ):
            RatioReport(RandomModel(n=1), ("coolest",), (record,))

    def test_repeated_policy_name_is_rejected(self):
        record = RatioRecord(seed=0, opt=2, proven_optimal=True, throughputs=(1, 2))
        with pytest.raises(
            ValueError, match=r"^policy names must be distinct, got \('coolest', 'coolest'\)$"
        ):
            RatioReport(RandomModel(n=1), ("coolest", "coolest"), (record,))

    def test_experiment_rejects_a_repeated_policy_name(self):
        """A repeated name would otherwise be dropped and the run go on."""
        with pytest.raises(
            ValueError,
            match=r"^policy names must be distinct, got \('coolest', 'edf', 'coolest'\)$",
        ):
            ratio_experiment(RandomModel(n=3), ["coolest", "edf", "coolest"], 2)

    def test_reproducible(self):
        model = RandomModel(n=4, seed=7)
        first = ratio_experiment(model, ("coolest", "edf"), 12)
        second = ratio_experiment(model, ("coolest", "edf"), 12)
        assert first == second

    def test_records_are_consecutively_seeded(self):
        model = RandomModel(n=3, seed=40)
        report = ratio_experiment(model, ("coolest",), 8)
        assert [r.seed for r in report.records] == list(range(40, 48))

    def test_ratio_bookkeeping(self):
        report = ratio_experiment(RandomModel(n=4, seed=7), ("coolest", "edf"), 25)
        assert report.counterexamples == ()
        assert report.max_ratios == (Fraction(3, 2), Fraction(3, 2))
        assert report.skipped_zero_opt == sum(1 for r in report.records if r.opt == 0)
        for record in report.records:
            assert record.proven_optimal
            for alg, ratio in zip(record.throughputs, record.ratios):
                assert alg <= record.opt
                if record.opt > 0 and alg > 0:
                    assert ratio == Fraction(record.opt, alg)
                    assert 1 <= ratio <= 2
                else:
                    assert ratio is None

    def test_budget_caps_are_recorded(self):
        report = ratio_experiment(RandomModel(n=4, seed=7), ("coolest",), 5, budget=1)
        assert all(not r.proven_optimal for r in report.records)
        assert report.counterexamples == ()

    def test_idling_policy_is_flagged(self):
        report = ratio_experiment(RandomModel(n=3, seed=0), ("idle",), 6)
        assert report.policies == ("idle",)
        assert report.counterexamples
        for ce in report.counterexamples:
            assert ce.policy == "idle"
            assert ce.throughput == 0
            assert ce.opt >= 1

    def test_unknown_policy_name(self):
        with pytest.raises(KeyError):
            ratio_experiment(RandomModel(n=2), ("fifo",), 1)
