"""Thermal recurrence, admissibility, validation and diagnostic simulation."""

from fractions import Fraction

import pytest
from hypothesis import given, settings

from strategies import instance_with_arbitrary_schedule, instance_with_feasible_schedule
from thermosched import (
    DEFAULT_CONFIG,
    Instance,
    Job,
    Schedule,
    ThermalConfig,
    is_admissible,
    simulate,
    step_temperature,
    validate_instance,
)
from thermosched.model import OUT_OF_WINDOW, REPEATED_JOB, THERMAL, UNKNOWN_JOB


class TestStepTemperature:
    def test_zero_fixed_point(self):
        assert step_temperature(Fraction(0), Fraction(0)) == 0

    def test_unit_fixed_point(self):
        assert step_temperature(Fraction(1), Fraction(1)) == 1

    def test_hot_job_after_idle_slot(self):
        assert step_temperature(Fraction(1, 10), Fraction(19, 10)) == 1

    def test_custom_cooling_factor(self):
        config = ThermalConfig(cooling_factor=Fraction(3))
        assert step_temperature(Fraction(1), Fraction(2), config) == 1


class TestAdmissibility:
    def test_too_hot_for_tight_job(self):
        job = Job(2, 1, 2, Fraction(8, 5))
        assert not is_admissible(Fraction(3, 5), job)

    def test_boundary_equality_is_admissible(self):
        assert is_admissible(Fraction(1), Job(1, 0, 1, Fraction(1)))

    def test_heat_two_only_from_zero(self):
        job = Job(1, 0, 1, Fraction(2))
        assert is_admissible(Fraction(0), job)
        assert not is_admissible(Fraction(1, 100), job)


class TestValidateInstance:
    def test_worked_example_is_valid(self, four_job_example):
        assert validate_instance(four_job_example) == []

    def test_empty_window(self):
        instance = Instance(jobs=(Job(1, 3, 3, Fraction(1)),))
        issues = validate_instance(instance)
        assert [i.field for i in issues] == ["deadline"]
        assert issues[0].job_id == 1

    def test_duplicate_ids(self):
        instance = Instance(
            jobs=(Job(1, 0, 2, Fraction(1)), Job(1, 1, 3, Fraction(1)))
        )
        assert any(i.field == "id" and "duplicate" in i.message for i in validate_instance(instance))

    def test_negative_heat_and_release(self):
        instance = Instance(jobs=(Job(2, -1, 2, Fraction(-1, 2)),))
        fields = {i.field for i in validate_instance(instance)}
        assert fields == {"release", "heat"}

    def test_bad_config(self):
        instance = Instance(
            jobs=(),
            config=ThermalConfig(threshold=Fraction(0), cooling_factor=Fraction(1)),
        )
        fields = {i.field for i in validate_instance(instance)}
        assert fields == {"threshold", "cooling_factor"}

    @pytest.mark.parametrize(
        "job, field",
        [
            (Job(1.0, 0, 2, "1/2"), "id"),
            (Job(1, 0.5, 2, "1/2"), "release"),
            (Job(1, 0, True, "1/2"), "deadline"),
        ],
    )
    def test_non_integer_fields(self, job, field):
        issues = validate_instance(Instance(jobs=(job,)))
        assert [(i.field, i.message) for i in issues] == [
            (field, f"job {job.id}: {field} must be an integer")
        ]


class TestSimulate:
    def test_second_schedule_of_worked_example(self, four_job_example):
        trace = simulate(four_job_example, Schedule((1, None, 3, 2, 4, None)))
        assert trace.temperatures == (
            Fraction(0),
            Fraction(1, 5),
            Fraction(1, 10),
            Fraction(1),
            Fraction(4, 5),
            Fraction(4, 5),
            Fraction(2, 5),
        )
        assert trace.violations == ()
        assert trace.throughput == 4
        assert trace.completed == frozenset({1, 2, 3, 4})

    def test_greedy_start_overheats_job_3(self, four_job_example):
        trace = simulate(four_job_example, Schedule((1, 2, 3, None, 4, None)))
        assert [(v.time, v.kind, v.job) for v in trace.violations] == [(2, THERMAL, 3)]
        assert trace.throughput == 3

    def test_all_idle(self, four_job_example):
        trace = simulate(four_job_example, Schedule((None,) * 6))
        assert set(trace.temperatures) == {Fraction(0)}
        assert trace.throughput == 0

    def test_short_schedule_padded_with_idle(self, four_job_example):
        padded = simulate(four_job_example, Schedule((1,)))
        assert len(padded.temperatures) == 7
        assert padded.throughput == 1

    def test_unknown_job_id(self, four_job_example):
        trace = simulate(four_job_example, Schedule((99, None, None, None, None, None)))
        assert [(v.kind, v.job) for v in trace.violations] == [(UNKNOWN_JOB, 99)]
        # unknown ids carry no heat
        assert trace.temperatures[1] == 0

    def test_repeated_job_id(self, four_job_example):
        trace = simulate(four_job_example, Schedule((1, 1, None, None, None, None)))
        assert [(v.time, v.kind, v.job) for v in trace.violations] == [(1, REPEATED_JOB, 1)]
        assert trace.completed == frozenset({1})

    def test_out_of_window_start(self, four_job_example):
        trace = simulate(four_job_example, Schedule((3, None, None, None, None, None)))
        assert [(v.kind, v.job) for v in trace.violations] == [(OUT_OF_WINDOW, 3)]
        # heat still applied in diagnostic mode
        assert trace.temperatures[1] == Fraction(19, 20)

    def test_heat_applied_even_past_thermal_violation(self, four_job_example):
        trace = simulate(four_job_example, Schedule((1, 2, 3, 4, None, None)))
        # job 3 violates at t=2 but its heat still enters the recurrence
        assert trace.temperatures[3] == Fraction(23, 20)


@settings(max_examples=200, deadline=None)
@given(instance_with_feasible_schedule())
def test_feasible_traces_stay_within_threshold(pair):
    instance, schedule = pair
    trace = simulate(instance, schedule)
    assert trace.violations == ()
    for tau in trace.temperatures:
        assert 0 <= tau <= instance.config.threshold


@settings(max_examples=200, deadline=None)
@given(instance_with_arbitrary_schedule())
def test_idle_monotonicity(pair):
    """Blanking any slot never increases any later temperature."""
    instance, schedule = pair
    base = simulate(instance, schedule)
    for slot in range(len(schedule)):
        if schedule[slot] is None:
            continue
        cooler = list(schedule.slots)
        cooler[slot] = None
        cooled = simulate(instance, Schedule(tuple(cooler)))
        for u in range(len(base.temperatures)):
            assert cooled.temperatures[u] <= base.temperatures[u]


@settings(max_examples=200, deadline=None)
@given(instance_with_arbitrary_schedule())
def test_closed_form_temperature(pair):
    """tau_u equals sum of executed heats h(i) / R^(u-i), exactly."""
    instance, schedule = pair
    trace = simulate(instance, schedule)
    jobs = instance.job_map()
    R = instance.config.cooling_factor
    applied = [
        jobs[entry].heat if entry in jobs else Fraction(0)
        for entry in ((schedule[t] if t < len(schedule) else None) for t in range(instance.horizon))
    ]
    for u in range(len(trace.temperatures)):
        closed = sum((h / R ** (u - i) for i, h in enumerate(applied[:u])), Fraction(0))
        assert trace.temperatures[u] == closed


@settings(max_examples=200, deadline=None)
@given(instance_with_arbitrary_schedule())
def test_simulation_deterministic(pair):
    instance, schedule = pair
    assert simulate(instance, schedule) == simulate(instance, schedule)


def test_jobs_normalized_sorted_by_id():
    instance = Instance(jobs=(Job(2, 0, 2, Fraction(1)), Job(1, 0, 2, Fraction(1))))
    assert [j.id for j in instance.jobs] == [1, 2]


def test_heat_accepts_decimal_strings_exactly():
    assert Job(1, 0, 1, "0.4").heat == Fraction(2, 5)
    assert Job(1, 0, 1, "1.9").heat == Fraction(19, 10)
    assert Job(1, 0, 1, "0.1").heat == Fraction(1, 10)


def test_float_heat_is_rejected():
    with pytest.raises(TypeError, match="float"):
        Job(1, 0, 1, 0.1)


@pytest.mark.parametrize("field", ["threshold", "cooling_factor"])
def test_float_config_is_rejected(field):
    with pytest.raises(TypeError, match="float"):
        ThermalConfig(**{field: 0.3})
    assert getattr(ThermalConfig(**{field: "0.3"}), field) == Fraction(3, 10)


def test_horizon_of_empty_instance():
    assert Instance(jobs=()).horizon == 0
    assert simulate(Instance(jobs=()), Schedule(())).temperatures == (Fraction(0),)


def test_default_config():
    assert DEFAULT_CONFIG.threshold == 1
    assert DEFAULT_CONFIG.cooling_factor == 2
