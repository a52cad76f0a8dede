"""Acceptance gate: seven release criteria, one test each.

Every test prints a single "criterion N PASS/FAIL" line (repeated in
the terminal summary) and enforces its runtime budget with
time.perf_counter, so a slow pass fails loudly rather than silently.
"""

import itertools
import time
from contextlib import contextmanager
from fractions import Fraction

import test_model
import test_policies
import test_serialization
import test_solver
from oracles import enumerate_optimal_bruteforce, scripted_policy
from thermosched import (
    Instance,
    Job,
    N3DMInstance,
    RandomModel,
    Schedule,
    ThreePartitionInstance,
    always_idle,
    brute_3partition,
    brute_n3dm,
    canonical_schedule_3partition,
    canonical_schedule_n3dm,
    coolest_first_decide,
    edf_decide,
    extract_3partition,
    extract_n3dm_matching,
    gen_from_3partition,
    gen_from_n3dm,
    is_admissible,
    random_instance,
    ratio_experiment,
    run_lower_bound_game,
    run_online,
    simulate,
    solve_optimal,
    step_temperature,
)
from thermosched.reductions import ROLE_GADGET

CRITERION_RESULTS: dict[int, str] = {}


@contextmanager
def _criterion(number: int, description: str, budget: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        _record(number, False, description, elapsed)
        raise
    elapsed = time.perf_counter() - start
    within = elapsed <= budget
    _record(number, within, description, elapsed)
    assert within, (
        f"criterion {number} exceeded its {budget:.0f}s budget ({elapsed:.2f}s)"
    )


def _record(number: int, passed: bool, description: str, elapsed: float) -> None:
    verdict = "PASS" if passed else "FAIL"
    line = f"criterion {number} {verdict}: {description} ({elapsed:.2f}s)"
    CRITERION_RESULTS[number] = line
    print(line)


# -- criterion 1: the four-job walkthrough ------------------------------

WORKED_EXAMPLE = Instance(
    jobs=(
        Job(1, 0, 2, Fraction(2, 5)),
        Job(2, 0, 4, Fraction(3, 5)),
        Job(3, 2, 3, Fraction(19, 10)),
        Job(4, 4, 6, Fraction(4, 5)),
    )
)


def test_criterion_1():
    with _criterion(
        1, "worked example: OPT 4, greedy start loses job 3, CF/EDF get 3", budget=1.0
    ):
        result = solve_optimal(WORKED_EXAMPLE)
        assert result.best_throughput == 4
        witness_trace = simulate(WORKED_EXAMPLE, result.witness)
        assert witness_trace.throughput == 4 and not witness_trace.violations

        greedy_prefix = simulate(WORKED_EXAMPLE, Schedule((1, 2)))
        job3 = WORKED_EXAMPLE.job_map()[3]
        assert greedy_prefix.temperatures[2] == Fraction(2, 5)
        assert not is_admissible(greedy_prefix.temperatures[2], job3, WORKED_EXAMPLE.config)

        for policy in (coolest_first_decide, edf_decide):
            run = run_online(WORKED_EXAMPLE, policy)
            assert run.schedule.slots == (1, 2, None, None, 4, None)
            assert run.trace.throughput == 3


# -- criterion 2: two-competitiveness on random instances ----------------


def test_criterion_2():
    with _criterion(
        2,
        "CF and EDF stay within factor 2 of OPT on 1050 seeded instances",
        budget=120.0,
    ):
        total = 0
        for n in range(2, 9):
            report = ratio_experiment(
                RandomModel(n=n, seed=n * 1000), ("coolest", "edf"), 150
            )
            total += report.count
            assert report.counterexamples == ()
            assert all(record.proven_optimal for record in report.records)
            for value in report.max_ratios:
                assert value is None or value <= 2
            for record in report.records:
                for alg in record.throughputs:
                    assert alg >= (record.opt + 1) // 2
        assert total >= 1000


# -- criterion 3: the adversary lower bound ------------------------------


def test_criterion_3():
    with _criterion(
        3,
        "adversary game holds every policy to half of its own throughput",
        budget=1.0,
    ):
        execute_temps = (0, 0, Fraction(4, 5), 1)
        idle_temps = (0, Fraction(3, 5), Fraction(3, 10), Fraction(19, 20))

        for policy in (coolest_first_decide, edf_decide):
            transcript = run_lower_bound_game(policy)
            assert transcript.branch == "execute"
            assert transcript.alg_throughput == 1
            assert transcript.adv_throughput == 2
            assert transcript.adversary_trace.temperatures == execute_temps

        transcript = run_lower_bound_game(always_idle)
        assert transcript.branch == "idle"
        assert transcript.alg_throughput == 0
        assert transcript.adv_throughput == 2
        assert transcript.adversary_trace.temperatures == idle_temps

        for script in itertools.product((None, 1, 2, 3), repeat=3):
            transcript = run_lower_bound_game(scripted_policy(script))
            assert transcript.alg_throughput <= 1
            assert transcript.adv_throughput == 2
            assert not transcript.adversary_trace.violations
            expected = execute_temps if script[0] == 1 else idle_temps
            assert transcript.adversary_trace.temperatures == expected


# -- criteria 4 and 5: reduction equivalence at desk scale ---------------


def _all_two_triple_partition_sources():
    """Every 3-Partition source with n = 2 and 9 <= beta <= 16.

    Values must sit strictly inside (beta/4, beta/2) and sum to 2 beta;
    enumerating multisets keeps one representative per instance.
    """
    sources = []
    for beta in range(9, 17):
        window = [v for v in range(1, beta) if 4 * v > beta and 2 * v < beta]
        for values in itertools.combinations_with_replacement(window, 6):
            if sum(values) == 2 * beta:
                sources.append(ThreePartitionInstance(values, beta))
    return sources


def test_criterion_4():
    with _criterion(
        4,
        "3-Partition: full throughput iff a partition exists (20 sources)",
        budget=60.0,
    ):
        sources = _all_two_triple_partition_sources()
        assert len(sources) >= 20
        assert ThreePartitionInstance((3, 3, 3, 3, 3, 3), 9) in sources

        satisfiable = 0
        for src in sources:
            instance, meta = gen_from_3partition(src)
            assert len(instance.jobs) == 8
            full = solve_optimal(instance).best_throughput == 8
            cert = brute_3partition(src)
            assert full == (cert is not None)
            if cert is None:
                continue
            satisfiable += 1
            schedule = canonical_schedule_3partition(src, meta, cert)
            trace = simulate(instance, schedule)
            assert not trace.violations and trace.throughput == 8
            for _start, end in meta.intervals:
                assert trace.temperatures[end] == 1
            assert extract_3partition(meta, schedule) == cert
        assert 0 < satisfiable < len(sources)


MATCHABLE_N2 = (
    N3DMInstance((0, 8), (8, 0), (4, 4), 12),
    N3DMInstance((1, 2), (2, 1), (3, 3), 6),
    N3DMInstance((0, 0), (0, 0), (3, 3), 3),
    N3DMInstance((1, 1), (1, 1), (1, 1), 3),
    N3DMInstance((0, 1), (0, 1), (2, 2), 3),
    N3DMInstance((2, 4), (2, 0), (2, 2), 6),
    N3DMInstance((8, 0), (0, 8), (0, 0), 8),
)
UNMATCHABLE_N2 = (
    N3DMInstance((2, 0), (2, 0), (2, 0), 3),
    N3DMInstance((1, 1), (1, 1), (0, 2), 3),
    N3DMInstance((1, 1), (1, 1), (0, 4), 4),
    N3DMInstance((4, 0), (4, 0), (4, 0), 6),
)

GADGET_COOLDOWN_FLOOR = Fraction(364, 375)


def _full_throughput_schedules(instance):
    """Every violation-free schedule that completes all jobs.

    Only meaningful when the job count equals the horizon, as in the
    matching reduction; then full throughput leaves no idle slots and
    the search branches only on admissible unused jobs.
    """
    jobs = instance.jobs
    horizon = instance.horizon
    assert len(jobs) == horizon
    config = instance.config
    found = []
    slots = []

    def grow(time, tau, used):
        if time == horizon:
            found.append(Schedule(tuple(slots)))
            return
        for index, job in enumerate(jobs):
            bit = 1 << index
            if used & bit or not job.pending_at(time):
                continue
            after = step_temperature(tau, job.heat, config)
            if after > config.threshold:
                continue
            slots.append(job.id)
            grow(time + 1, after, used | bit)
            slots.pop()

    grow(0, Fraction(0), 0)
    return found


def _assert_matches(src, cert):
    """Checked here, not by the library: each row index is used once and
    each triple sums to beta."""
    assert len(cert.triples) == src.n
    for row in zip(*cert.triples):
        assert sorted(row) == list(range(src.n))
    for i, j, k in cert.triples:
        assert src.a[i] + src.b[j] + src.c[k] == src.beta


def _assert_matching_instance(src, expect_matchable):
    """Check one source end to end; return its number of full-throughput schedules."""
    instance, meta = gen_from_n3dm(src)
    want = 4 * meta.n + 1
    cert = brute_n3dm(src)
    assert (cert is not None) == expect_matchable
    assert (solve_optimal(instance).best_throughput == want) == expect_matchable

    gadget_ids = set(meta.ids_with_role(ROLE_GADGET))
    full_schedules = _full_throughput_schedules(instance)
    assert bool(full_schedules) == expect_matchable
    for schedule in full_schedules:
        trace = simulate(instance, schedule)
        assert not trace.violations and trace.throughput == want
        for t, job_id in enumerate(schedule):
            if job_id in gadget_ids:
                assert trace.temperatures[t + 1] >= GADGET_COOLDOWN_FLOOR
        _assert_matches(src, extract_n3dm_matching(meta, schedule))

    if not expect_matchable:
        return 0
    schedule = canonical_schedule_n3dm(src, meta, cert)
    trace = simulate(instance, schedule)
    assert not trace.violations and trace.throughput == want
    for block in range(meta.n + 1):
        assert trace.temperatures[4 * block + 1] == 1
    for block in range(1, meta.n + 1):
        assert trace.temperatures[4 * block] == Fraction(1, 4)
    assert extract_n3dm_matching(meta, schedule) == cert
    return len(full_schedules)


def test_criterion_5():
    with _criterion(
        5,
        "matching: full throughput iff a matching exists, gadgets pin the heat",
        budget=120.0,
    ):
        singles = 0
        extracted = 0
        for beta in range(1, 9):
            for a in range(beta + 1):
                for b in range(beta + 1 - a):
                    src = N3DMInstance((a,), (b,), (beta - a - b,), beta)
                    extracted += _assert_matching_instance(src, expect_matchable=True)
                    singles += 1
        assert singles == 164

        for src in MATCHABLE_N2:
            extracted += _assert_matching_instance(src, expect_matchable=True)
        assert extracted == 236
        for src in UNMATCHABLE_N2:
            _assert_matching_instance(src, expect_matchable=False)
        assert len(MATCHABLE_N2) + len(UNMATCHABLE_N2) >= 10


# -- criterion 6: solver vs independent enumeration ----------------------


def test_criterion_6():
    with _criterion(
        6, "solver matches brute-force enumeration on 500 random instances", budget=120.0
    ):
        checked = 0
        for n in range(1, 6):
            for seed in range(100):
                instance = random_instance(RandomModel(n=n, seed=1000 * n + seed))
                assert (
                    solve_optimal(instance).best_throughput
                    == enumerate_optimal_bruteforce(instance)
                )
                checked += 1
        assert checked >= 500


# -- criterion 7: randomized invariants ----------------------------------

# The suites live with the modules they check; importing the modules (not
# the functions) keeps pytest from collecting those tests here a second time.
INVARIANT_SUITES = (
    test_model.test_idle_monotonicity,
    test_model.test_closed_form_temperature,
    test_policies.test_builtin_policies_always_reasonable,
    test_solver.test_opt_monotone_under_job_removal,
    test_solver.test_opt_monotone_under_deadline_relaxation,
    test_serialization.test_instance_round_trip_property,
    test_serialization.test_trace_round_trip_property,
)


def test_criterion_7():
    with _criterion(
        7, "seven randomized invariant suites hold at 200 cases each", budget=120.0
    ):
        for suite in INVARIANT_SUITES:
            # The line above promises 200 cases; a suite lowered below that fails here.
            assert suite._hypothesis_internal_use_settings.max_examples >= 200, suite.__name__
            suite()
