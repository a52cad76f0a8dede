"""Thermal recurrence, admissibility, validation and diagnostic simulation."""

import dataclasses
import pickle
import re
from decimal import Decimal
from enum import IntEnum
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import admissible
from strategies import (
    configs,
    heats,
    instance_with_arbitrary_schedule,
    instance_with_feasible_schedule,
    mixed_heats,
    stepped_temperatures,
)
from thermosched import (
    DEFAULT_CONFIG,
    Instance,
    InvalidInstanceError,
    Job,
    Schedule,
    ThermalConfig,
    coolest_first_decide,
    edf_decide,
    run_online,
    simulate,
    solve_optimal,
    step_temperature,
    validate_instance,
)
from thermosched.model import (
    _CONSTRUCTOR_BELOW,
    OUT_OF_WINDOW,
    REPEATED_JOB,
    THERMAL,
    UNKNOWN_JOB,
    Violation,
    admission_room,
)


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


def _denominators() -> st.SearchStrategy[int]:
    """Sizes up to about 2**600, and the neighbours of the kernel's switch."""
    return st.one_of(
        st.sampled_from([_CONSTRUCTOR_BELOW - 1, _CONSTRUCTOR_BELOW, _CONSTRUCTOR_BELOW + 1]),
        st.integers(0, 600).flatmap(lambda b: st.integers(2**b, 2 ** (b + 1) - 1)),
    )


@settings(max_examples=500, deadline=None)
@given(
    st.one_of(st.just(DEFAULT_CONFIG), configs()),
    st.one_of(mixed_heats(), st.sampled_from([0, 1])),
    _denominators().flatmap(lambda d: st.builds(Fraction, st.integers(0, 3 * d), st.just(d))),
)
def test_step_temperature_is_the_operator_recurrence(cfg, heat, tau):
    """Both routes of the kernel, below and from _CONSTRUCTOR_BELOW on, give
    the Fraction that Fraction's own operators give."""
    stepped = step_temperature(tau, heat, cfg)
    assert stepped == (tau + heat) / cfg.cooling_factor
    assert type(stepped) is Fraction


def _lone_job_choices(tau, job, config=DEFAULT_CONFIG):
    """What CoolestFirst and EDF each choose with the job alone pending at tau."""
    pending = (job,)
    return {coolest_first_decide(0, tau, pending, config), edf_decide(0, tau, pending, config)}


class TestAdmissibility:
    def test_too_hot_for_tight_job(self):
        job = Job(2, 1, 2, Fraction(8, 5))
        assert _lone_job_choices(Fraction(3, 5), job) == {None}

    def test_boundary_equality_is_admissible(self):
        assert _lone_job_choices(Fraction(1), Job(1, 0, 1, Fraction(1))) == {1}

    def test_heat_two_only_from_zero(self):
        job = Job(1, 0, 1, Fraction(2))
        assert _lone_job_choices(Fraction(0), job) == {1}
        assert _lone_job_choices(Fraction(1, 100), job) == {None}


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.just(DEFAULT_CONFIG), configs()), st.data())
def test_a_lone_job_runs_exactly_when_one_step_stays_within_t(cfg, data):
    """The policies' cross-multiplied room test equals step_temperature(...) <= T,
    on stepped temperatures and on exact boundaries tau + h == R·T."""
    tau = data.draw(stepped_temperatures(cfg))
    boundary = cfg.cooling_factor * cfg.threshold - tau
    candidates = [data.draw(heats()), boundary, boundary + Fraction(1, tau.denominator)]
    for heat in (h for h in candidates if h >= 0):
        job = Job(1, 0, 1, heat)
        expected = 1 if admissible(tau, job, cfg) else None
        assert _lone_job_choices(tau, job, cfg) == {expected}


@settings(max_examples=300, deadline=None)
@given(configs(), st.data())
def test_admission_room_is_r_times_t_minus_tau(cfg, data):
    """(n, m) is R·T - tau exactly with m > 0, also where tau exceeds R·T."""
    tau = data.draw(stepped_temperatures(cfg, heat=mixed_heats()))
    n, m = admission_room(tau, cfg)
    assert m > 0
    assert Fraction(n, m) == cfg.cooling_factor * cfg.threshold - tau


@settings(max_examples=300, deadline=None)
@given(configs(), st.lists(st.one_of(st.none(), heats()), max_size=12), st.booleans())
def test_simulate_thermal_test_is_the_threshold_test(cfg, prefix, above):
    """After a prefix of drawn slots (None idles), a last job whose step lands
    exactly on T completes, and one whose heat is one step of tau's
    denominator more records THERMAL."""
    tau = Fraction(0)
    for heat in prefix:
        tau = step_temperature(tau, heat or 0, cfg)
    boundary = cfg.cooling_factor * cfg.threshold - tau
    heat = boundary + Fraction(1, tau.denominator) if above else boundary
    assume(heat >= 0)
    m = len(prefix)
    jobs = [Job(i + 1, i, i + 1, h) for i, h in enumerate(prefix) if h is not None]
    last = Job(m + 1, m, m + 1, heat)
    slots = tuple(None if h is None else i + 1 for i, h in enumerate(prefix))
    schedule = Schedule(slots + (m + 1,))
    trace = simulate(Instance(tuple(jobs) + (last,), cfg), schedule)
    assert trace.temperatures[m] == tau
    assert (trace.temperatures[m + 1] > cfg.threshold) == above
    assert (Violation(m, THERMAL, m + 1) in trace.violations) == above
    assert (m + 1 in trace.completed) == (not above)


class _Ids(IntEnum):
    ONE = 1


def _issues(jobs, config=DEFAULT_CONFIG):
    """The issues of the InvalidInstanceError that building Instance(jobs, config) raises."""
    with pytest.raises(InvalidInstanceError) as excinfo:
        Instance(jobs, config)
    return excinfo.value.issues


class TestValidateInstance:
    def test_worked_example_is_valid(self, four_job_example):
        assert validate_instance(four_job_example) == []

    def test_empty_window(self):
        issues = _issues((Job(1, 3, 3, Fraction(1)),))
        assert [i.field for i in issues] == ["deadline"]
        assert issues[0].job_id == 1

    def test_duplicate_ids(self):
        issues = _issues((Job(1, 0, 2, Fraction(1)), Job(1, 1, 3, Fraction(1))))
        assert [(i.job_id, i.field, i.message) for i in issues] == [
            (1, "id", "job 1: duplicate id")
        ]

    def test_negative_id(self):
        issues = _issues((Job(-1, 0, 1, Fraction(1)),))
        assert [(i.job_id, i.field, i.message) for i in issues] == [
            (-1, "id", "job -1: id must be non-negative")
        ]

    def test_negative_heat_and_release(self):
        issues = _issues((Job(2, -1, 2, Fraction(-1, 2)),))
        assert {i.field for i in issues} == {"release", "heat"}

    def test_bad_config(self):
        issues = _issues((), ThermalConfig(threshold=Fraction(0), cooling_factor=Fraction(1)))
        assert {i.field for i in issues} == {"threshold", "cooling_factor"}

    # A field of another type never reaches validate_instance: Job refuses it.
    @pytest.mark.parametrize(
        "job, field",
        [
            ((1.0, 0, 2, Fraction(1, 2)), "id"),
            ((1, 0.5, 2, Fraction(1, 2)), "release"),
            ((1, 0, True, Fraction(1, 2)), "deadline"),
            (("1", 0, 2, Fraction(1, 2)), "id"),
            ((1, "0", 2, Fraction(1, 2)), "release"),
            ((1, 0, None, Fraction(1, 2)), "deadline"),
            ((_Ids.ONE, 0, 1, Fraction(1, 2)), "id"),
            (([1], 0, 1, Fraction(1, 2)), "id"),
        ],
    )
    def test_non_integer_fields(self, job, field):
        value = job[("id", "release", "deadline").index(field)]
        kind = type(value).__name__
        with pytest.raises(TypeError, match=rf"^{field}: {re.escape(repr(value))} is a {kind}; "):
            Job(*job)


class TestInvalidInstanceError:
    """An invalid instance is refused when it is built, so no entry point sees one."""

    def test_message_joins_every_issue(self):
        with pytest.raises(InvalidInstanceError) as excinfo:
            Instance(jobs=(Job(2, -1, 2, Fraction(-1, 2)),))
        assert str(excinfo.value) == (
            "job 2: release must be non-negative; job 2: heat must be non-negative"
        )

    def test_error_survives_pickling(self):
        # An error raised in a worker process reaches its parent pickled.
        with pytest.raises(InvalidInstanceError) as excinfo:
            Instance(jobs=(Job(1, 3, 3, Fraction(1)),))
        copy = pickle.loads(pickle.dumps(excinfo.value))
        assert copy.issues == excinfo.value.issues
        assert str(copy) == str(excinfo.value)

    # dataclasses.replace builds a new Instance, so it checks the new values too.
    @pytest.mark.parametrize(
        "changes, messages",
        [
            (
                {"jobs": (Job(1, 0, 2, Fraction(1)), Job(2, 0, 2, Fraction(-1, 2)))},
                ["job 2: heat must be non-negative"],
            ),
            ({"config": ThermalConfig(threshold=Fraction(0))}, ["threshold must be positive"]),
        ],
        ids=["negative_heat", "zero_threshold"],
    )
    def test_replace_is_refused(self, four_job_example, changes, messages):
        with pytest.raises(InvalidInstanceError) as excinfo:
            dataclasses.replace(four_job_example, **changes)
        assert [issue.message for issue in excinfo.value.issues] == messages
        assert str(excinfo.value) == "; ".join(messages)


# Past Job, a str or None id would fail in Instance's sort by id, a list in
# the duplicate-id check, and an int subclass in the solver's Schedule (and
# run_online would blame the policy for choosing it).
@pytest.mark.parametrize(
    "job_id", ["2", None, [2], _Ids.ONE], ids=["str", "None", "list", "IntEnum"]
)
def test_id_of_another_type_is_refused_next_to_an_int_id(job_id):
    kind = type(job_id).__name__
    with pytest.raises(TypeError, match=rf"^id: {re.escape(repr(job_id))} is a {kind}; "):
        Instance((Job(1, 0, 1, Fraction(1)), Job(job_id, 0, 1, Fraction(1))))


class TestSchedule:
    @pytest.mark.parametrize(
        "entry, kind", [(1.0, "float"), (True, "bool"), ("1", "str"), (Fraction(1), "Fraction")]
    )
    def test_entry_that_is_not_an_int_is_rejected(self, entry, kind):
        with pytest.raises(TypeError, match=rf"^slot 1: {re.escape(repr(entry))} is a {kind}; "):
            Schedule((None, entry))

    def test_float_and_bool_ids_never_reach_simulate(self):
        # 1.0 and True both compare equal to job id 1; neither may stand in for it.
        instance = Instance((Job(1, 0, 2, Fraction(1, 2)),))
        with pytest.raises(TypeError, match=r"^slot 0: 1\.0 is a float; "):
            simulate(instance, Schedule((1.0, True)))


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
@given(instance_with_arbitrary_schedule(config=configs()))
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


@pytest.mark.parametrize(
    "value",
    ["0.4", "١/٢", "1e-3", "1_0", Decimal("0.1"), _Ids.ONE],
    ids=["decimal", "arabic-indic", "exponent", "underscore", "Decimal", "IntEnum"],
)
def test_text_and_other_number_types_are_refused(value):
    # Text becomes a rational only through parse_rational, by the formats' rule.
    kind = type(value).__name__
    with pytest.raises(TypeError, match=rf"^heat: .* is a {kind}; pass a Fraction or an int$"):
        Job(1, 0, 1, value)
    for field in ("threshold", "cooling_factor"):
        with pytest.raises(TypeError, match=rf"^{field}: .* is a {kind}; "):
            ThermalConfig(**{field: value})


def test_float_heat_is_rejected():
    with pytest.raises(TypeError, match="float"):
        Job(1, 0, 1, 0.1)


@pytest.mark.parametrize("field", ["threshold", "cooling_factor"])
def test_float_config_is_rejected(field):
    with pytest.raises(TypeError, match="float"):
        ThermalConfig(**{field: 0.3})
    with pytest.raises(TypeError, match="is a str"):
        ThermalConfig(**{field: "0.3"})


@pytest.mark.parametrize("value", [True, False])
def test_bool_rational_is_rejected(value):
    # Fraction(True) is 1; a bool is no more a rational than a float is.
    with pytest.raises(TypeError, match="is a bool"):
        Job(1, 0, 2, value)
    for field in ("threshold", "cooling_factor"):
        with pytest.raises(TypeError, match="is a bool"):
            ThermalConfig(**{field: value})


def test_horizon_of_empty_instance():
    assert Instance(jobs=()).horizon == 0
    assert simulate(Instance(jobs=()), Schedule(())).temperatures == (Fraction(0),)


def test_default_config():
    assert DEFAULT_CONFIG.threshold == 1
    assert DEFAULT_CONFIG.cooling_factor == 2


class TestConfigValueSemantics:
    """The config holds R·T as a derived pair that is no field of its value:
    equality, hash and repr see T and R only."""

    def test_ints_and_fractions_give_one_value(self):
        from_ints = ThermalConfig(5, 3)
        from_fractions = ThermalConfig(Fraction(5), Fraction(3))
        assert from_ints == from_fractions
        assert hash(from_ints) == hash(from_fractions) == hash((Fraction(5), Fraction(3)))
        assert repr(from_ints) == repr(from_fractions) == (
            "ThermalConfig(threshold=Fraction(5, 1), cooling_factor=Fraction(3, 1))"
        )
        assert ThermalConfig(Fraction(5, 3), Fraction(3, 2)) != ThermalConfig(Fraction(5, 3), 2)

    def test_the_limit_is_no_argument(self):
        with pytest.raises(TypeError):
            ThermalConfig(1, 2, (2, 1))

    def test_replace_recomputes_the_limit(self):
        config = dataclasses.replace(ThermalConfig(Fraction(5, 3), Fraction(3, 2)), threshold=2)
        assert config == ThermalConfig(2, Fraction(3, 2))
        assert config.admission_limit == (3, 1)

    def test_pickle_keeps_the_limit(self):
        config = ThermalConfig(Fraction(5, 3), Fraction(3, 2))
        copy = pickle.loads(pickle.dumps(config))
        assert copy == config and hash(copy) == hash(config)
        assert copy.admission_limit == config.admission_limit == (5, 2)

    @given(configs())
    def test_the_limit_is_r_times_t_in_lowest_terms(self, config):
        limit = config.threshold * config.cooling_factor
        assert config.admission_limit == (limit.numerator, limit.denominator)


class TestInstanceTypes:
    """Instance refuses an item that is not a Job and a config that is not a
    ThermalConfig, naming it, as Job names a field of the wrong type."""

    def test_none_config_is_refused_before_the_solver(self):
        with pytest.raises(TypeError, match=r"^config: None is a NoneType; pass a ThermalConfig$"):
            solve_optimal(Instance((), config=None))

    def test_str_config_is_refused_before_run_online(self):
        with pytest.raises(TypeError, match=r"^config: 'x' is a str; pass a ThermalConfig$"):
            run_online(Instance((Job(1, 0, 1, Fraction(1)),), config="x"), coolest_first_decide)

    def test_tuple_job_is_refused_at_its_position(self):
        with pytest.raises(TypeError, match=r"^jobs\[1\]: \(1, 0, 1, Fraction\(1, 1\)\) is a tuple; "):
            Instance((Job(2, 0, 1, Fraction(1)), (1, 0, 1, Fraction(1))))
