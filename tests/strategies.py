"""Shared hypothesis strategies.

Instances stay small (the exact solver runs inside several properties)
and heats come from the k/16 grid so thermal boundary equalities are
actually exercised instead of almost never hit. mixed_heats() draws
from several denominators instead, for the comparisons that
cross-multiply two rationals.

Instances use the default config (T = 1, R = 2) unless a config
strategy such as configs() is passed: the 2-competitive properties of
the online policies hold only for the default.
"""

from fractions import Fraction

from hypothesis import strategies as st

from oracles import admissible
from thermosched import (
    DEFAULT_CONFIG,
    Instance,
    Job,
    Schedule,
    ThermalConfig,
    step_temperature,
)


def heats(max_sixteenths: int = 32) -> st.SearchStrategy[Fraction]:
    return st.integers(0, max_sixteenths).map(lambda k: Fraction(k, 16))


MIXED_DENOMINATORS = (1, 2, 3, 10, 16)


def mixed_heats(max_heat: int = 2) -> st.SearchStrategy[Fraction]:
    """k/d with d drawn from MIXED_DENOMINATORS and 0 <= k/d <= max_heat, so
    two heats compared by cross-multiplication often have unequal
    denominators (2/3 against 7/10), which the k/16 grid never gives."""
    return st.sampled_from(MIXED_DENOMINATORS).flatmap(
        lambda d: st.integers(0, max_heat * d).map(lambda k: Fraction(k, d))
    )


def configs() -> st.SearchStrategy[ThermalConfig]:
    return st.builds(
        ThermalConfig,
        threshold=st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(3, 2)]),
        cooling_factor=st.sampled_from([Fraction(3, 2), Fraction(2), Fraction(5, 2), Fraction(3)]),
    )


@st.composite
def stepped_temperatures(
    draw, config: ThermalConfig, max_slots: int = 40, heat: st.SearchStrategy = heats()
) -> Fraction:
    """A temperature reached from 0 by up to max_slots steps of drawn heats
    (0 is an idle slot), so its denominator is a large power of R's."""
    tau = Fraction(0)
    for _ in range(draw(st.integers(0, max_slots))):
        tau = step_temperature(tau, draw(heat), config)
    return tau


@st.composite
def instances(
    draw,
    min_jobs: int = 0,
    max_jobs: int = 6,
    release_span: int = 4,
    max_window: int = 4,
    config: st.SearchStrategy[ThermalConfig] = st.just(DEFAULT_CONFIG),
    heat: st.SearchStrategy[Fraction] = heats(),
) -> Instance:
    n = draw(st.integers(min_jobs, max_jobs))
    jobs = []
    for i in range(1, n + 1):
        release = draw(st.integers(0, release_span))
        window = draw(st.integers(1, max_window))
        jobs.append(
            Job(id=i, release=release, deadline=release + window, heat=draw(heat))
        )
    return Instance(jobs=tuple(jobs), config=draw(config))


@st.composite
def twin_instances(draw, **kwargs) -> Instance:
    """instances(**kwargs) where each job after the first copies the
    release, deadline and heat of an earlier job about 30% of the time,
    so identical twins, which instances() almost never draws, are common."""
    instance = draw(instances(**kwargs))
    jobs = list(instance.jobs)
    for i in range(1, len(jobs)):
        if draw(st.integers(0, 9)) < 3:
            model = jobs[draw(st.integers(0, i - 1))]
            jobs[i] = Job(jobs[i].id, model.release, model.deadline, model.heat)
    return Instance(jobs=tuple(jobs), config=instance.config)


@st.composite
def equal_heat_instances(draw, **kwargs) -> Instance:
    """instances(**kwargs) where each job after the first copies the heat
    of an earlier job about 30% of the time but keeps its own window, so
    equal heats with different windows are common."""
    instance = draw(instances(**kwargs))
    jobs = list(instance.jobs)
    for i in range(1, len(jobs)):
        if draw(st.integers(0, 9)) < 3:
            model = jobs[draw(st.integers(0, i - 1))]
            jobs[i] = Job(jobs[i].id, jobs[i].release, jobs[i].deadline, model.heat)
    return Instance(jobs=tuple(jobs), config=instance.config)


@st.composite
def arbitrary_schedules(draw, instance: Instance, allow_garbage: bool = True) -> Schedule:
    """Slot entries drawn freely: duplicates, out-of-window starts and
    (optionally) ids the instance does not know. For diagnostics tests."""
    ids = [j.id for j in instance.jobs]
    options: list = [None] + ids
    if allow_garbage:
        options.append(max(ids, default=0) + 99)
    slots = [draw(st.sampled_from(options)) for _ in range(instance.horizon)]
    return Schedule(tuple(slots))


@st.composite
def feasible_schedules(draw, instance: Instance) -> Schedule:
    """Violation-free by construction: each slot picks idle or some
    unused, pending, admissible job."""
    cfg = instance.config
    tau = Fraction(0)
    used: set[int] = set()
    slots = []
    for time in range(instance.horizon):
        choices = [
            j
            for j in instance.jobs
            if j.id not in used and j.pending_at(time) and admissible(tau, j, cfg)
        ]
        pick = draw(st.sampled_from([None] + choices))
        if pick is None:
            slots.append(None)
            heat = Fraction(0)
        else:
            slots.append(pick.id)
            used.add(pick.id)
            heat = pick.heat
        tau = step_temperature(tau, heat, cfg)
    return Schedule(tuple(slots))


@st.composite
def instance_with_arbitrary_schedule(draw, **kwargs) -> tuple[Instance, Schedule]:
    instance = draw(instances(**kwargs))
    return instance, draw(arbitrary_schedules(instance))


@st.composite
def instance_with_feasible_schedule(draw, **kwargs) -> tuple[Instance, Schedule]:
    instance = draw(instances(**kwargs))
    return instance, draw(feasible_schedules(instance))
