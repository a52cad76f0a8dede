"""Shared hypothesis strategies.

Instances stay small (the exact solver runs inside several properties)
and heats come from the k/16 grid so thermal boundary equalities are
actually exercised instead of almost never hit.
"""

from fractions import Fraction

from hypothesis import strategies as st

from thermosched import Instance, Job, Schedule, is_admissible, step_temperature


def heats(max_sixteenths: int = 32) -> st.SearchStrategy[Fraction]:
    return st.integers(0, max_sixteenths).map(lambda k: Fraction(k, 16))


@st.composite
def instances(
    draw,
    min_jobs: int = 0,
    max_jobs: int = 6,
    release_span: int = 4,
    max_window: int = 4,
) -> Instance:
    n = draw(st.integers(min_jobs, max_jobs))
    jobs = []
    for i in range(1, n + 1):
        release = draw(st.integers(0, release_span))
        window = draw(st.integers(1, max_window))
        jobs.append(
            Job(id=i, release=release, deadline=release + window, heat=draw(heats()))
        )
    return Instance(jobs=tuple(jobs))


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
            if j.id not in used and j.pending_at(time) and is_admissible(tau, j, cfg)
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
