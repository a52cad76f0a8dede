"""Exact optimizer vs the independent brute-force enumerator."""

import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import enumerate_optimal_bruteforce
from strategies import (
    configs,
    equal_heat_instances,
    heats,
    instances,
    mixed_heats,
    twin_instances,
)
from thermosched import (
    Instance,
    InstanceTooLargeError,
    Job,
    N3DMInstance,
    RandomModel,
    ThermalConfig,
    ThreePartitionInstance,
    gen_from_3partition,
    gen_from_n3dm,
    parse_instance,
    random_instance,
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
        result = solve_optimal(instance)
        # h > R·T is dropped before the search, so the root's bound proves OPT = 0.
        assert (result.best_throughput, result.explored) == (0, 1)

    def test_job_at_exactly_r_times_t_still_runs(self):
        instance = Instance(
            jobs=(Job(1, 0, 2, Fraction(9, 4)),),
            config=ThermalConfig(threshold=Fraction(3, 2), cooling_factor=Fraction(3, 2)),
        )
        result = solve_optimal(instance)
        assert result.best_throughput == 1
        assert simulate(instance, result.witness).violations == ()

    @pytest.mark.parametrize(
        "first, heat, best, witness",
        [
            (Fraction(1, 3), Fraction(236, 63), 2, (1, 2)),
            (Fraction(1, 3), Fraction(79, 21), 1, (1, None)),
            (2, 3, 2, (1, 2)),
        ],
        ids=["lands-on-T", "one-63rd-over", "integer-heats"],
    )
    def test_scale_with_odd_denominators(self, first, heat, best, witness):
        """T = 5/3, R = 7/3: job 1 of heat 1/3 leaves 1/7, after which job 2
        fits iff h <= 35/9 - 1/7 = 236/63, so at 236/63 it lands exactly on
        T and one 63rd more does not fit. D is 63 and 21, not a power of
        two. With integer heats only T's denominator makes D = 3."""
        instance = Instance(
            jobs=(Job(1, 0, 1, first), Job(2, 1, 2, heat)),
            config=ThermalConfig(threshold=Fraction(5, 3), cooling_factor=Fraction(7, 3)),
        )
        result = solve_optimal(instance)
        assert (result.best_throughput, result.witness.slots) == (best, witness)
        assert enumerate_optimal_bruteforce(instance) == best

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

    @pytest.mark.parametrize("budget, proven", [(11, False), (12, True)])
    def test_budget_counts_expanded_nodes(self, four_job_example, budget, proven):
        # The full search pops 12 nodes. A capped run pops budget + 1: the
        # last pop only detects the cap.
        result = solve_optimal(four_job_example, budget=budget)
        assert (result.best_throughput, result.explored) == (4, 12)
        assert result.proven_optimal is proven

    def test_zero_budget_proves_nothing(self, four_job_example):
        result = solve_optimal(four_job_example, budget=0)
        assert (result.best_throughput, result.proven_optimal) == (0, False)

    def test_negative_budget_is_rejected(self, four_job_example):
        with pytest.raises(ValueError, match="budget"):
            solve_optimal(four_job_example, budget=-5)

    @pytest.mark.parametrize("budget", [True, 2.5, "5"])
    def test_non_integer_budget_is_rejected(self, four_job_example, budget):
        with pytest.raises(ValueError, match="budget must be a non-negative int"):
            solve_optimal(four_job_example, budget=budget)

    def test_generous_budget_still_proves(self, four_job_example):
        result = solve_optimal(four_job_example, budget=10_000_000)
        assert result.proven_optimal
        assert result.best_throughput == 4

    def test_long_horizon_does_not_recurse(self):
        instance = Instance(
            jobs=(Job(1, 0, 1500, Fraction(1, 2)), Job(2, 0, 1500, Fraction(1, 2)))
        )
        result = solve_optimal(instance)
        assert result.best_throughput == 2
        assert result.proven_optimal


    def test_long_horizon_set_up_stays_small(self):
        """One job per slot over 1,000 slots at R = 7/3: set-up holds one
        reach cut per job, O((n + H)²) bits in all, and a one-node search
        peaks near 2.5 MB. A cut per job and slot would take hundreds."""
        n = 1000
        instance = Instance(
            jobs=tuple(Job(i, i, min(i + 5, n), Fraction(i % 16 + 1, 16)) for i in range(n)),
            config=ThermalConfig(cooling_factor=Fraction(7, 3)),
        )
        tracemalloc.start()
        try:
            result = solve_optimal(instance, budget=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not result.proven_optimal
        assert peak < 16 * 2**20


RATIO_RANDOM_MODELS = [
    RandomModel(n=16, release_span=16, max_window=10, seed=s) for s in range(32)
]


def _corpus_totals(models, config=ThermalConfig()):
    """Whether every search was proven, and the completions and pops summed."""
    results = [solve_optimal(Instance(random_instance(m).jobs, config)) for m in models]
    return (
        all(r.proven_optimal for r in results),
        sum(r.best_throughput for r in results),
        sum(r.explored for r in results),
    )


class TestNodeCounts:
    """explored is machine-independent; these pin the search order
    (hottest first among equal deadlines, equal heats in one fixed order) and
    pruning (children that cannot beat the incumbent are never pushed)
    on reduction instances and on one random instance that the
    budget-free solver proves."""

    def test_3partition_no_instance(self):
        instance, _ = gen_from_3partition(
            ThreePartitionInstance.from_values((4, 4, 4, 4, 4, 6))
        )
        result = solve_optimal(instance)
        assert (result.best_throughput, result.explored) == (7, 137)
        assert result.proven_optimal

    def test_n3dm_no_instance(self):
        instance, _ = gen_from_n3dm(N3DMInstance(a=(2, 0), b=(2, 0), c=(2, 0), beta=3))
        result = solve_optimal(instance)
        assert (result.best_throughput, result.explored) == (8, 132)
        assert result.proven_optimal

    def test_n3dm_n4_no_instance(self):
        instance, _ = gen_from_n3dm(
            N3DMInstance(a=(2, 0, 2, 0), b=(2, 0, 2, 0), c=(2, 0, 2, 0), beta=3)
        )
        result = solve_optimal(instance)
        assert (result.best_throughput, result.explored) == (16, 3928)
        assert result.proven_optimal

    def test_random_instance(self):
        model = RandomModel(n=16, release_span=16, max_window=10, seed=18)
        result = solve_optimal(random_instance(model))
        assert (result.best_throughput, result.explored) == (14, 60)
        assert result.proven_optimal

    def test_ratio_random_corpus(self):
        """The benchmark's ratio_random model, seeds 0 to 31."""
        assert _corpus_totals(RATIO_RANDOM_MODELS) == (True, 461, 7579)

    @pytest.mark.parametrize(
        "threshold, cooling_factor, completions, pops",
        [
            (Fraction(5, 4), Fraction(3, 2), 394, 9554),
            (Fraction(5, 3), Fraction(7, 5), 425, 15095),
        ],
    )
    def test_ratio_random_corpus_off_default_config(
        self, threshold, cooling_factor, completions, pops
    ):
        """The same 32 job sets away from T = 1, R = 2."""
        config = ThermalConfig(threshold, cooling_factor)
        assert _corpus_totals(RATIO_RANDOM_MODELS, config) == (True, completions, pops)

    def test_random_n32_corpus(self):
        """Seeds 0 to 9 at n = 32, where equal heats with different windows
        are common. Without the capacity cap: 201,603 nodes; without the
        equal-heat rule as well: 252,907."""
        models = [RandomModel(n=32, release_span=32, max_window=18, seed=s) for s in range(10)]
        assert _corpus_totals(models) == (True, 284, 122384)


TIGHT_CUT = Path(__file__).parent / "data" / "tight_cut.json"


class TestReachCut:
    """T = 5/3, R = 3/2. Job 1 (heat 9/4) runs at slot 0 and leaves 3/2.
    Job 2 (heat 11/6, window [1, 4)) fits only at slot 3, after exactly two
    idle slots cool 3/2 to 2/3: (2/3 + 11/6)/(3/2) = 5/3 = T. Idling
    leaves the scaled temperature V unchanged, so the idle nodes at slots
    2 and 3 hold V equal to job 2's cut c_2 exactly, and the job must stay
    in the bound there."""

    def test_job_on_its_cut_stays_in_reach(self):
        instance = parse_instance(TIGHT_CUT.read_text())
        result = solve_optimal(instance)
        assert result.best_throughput == enumerate_optimal_bruteforce(instance) == 3
        assert result.witness.slots == (1, None, None, 2, 3)
        trace = simulate(instance, result.witness)
        assert trace.temperatures[4] == instance.config.threshold
        # A looser cut (one idle slot too many, c_2·p/q) keeps the node
        # that this one prunes: 11 nodes, as count alone.
        assert (result.explored, result.proven_optimal) == (10, True)


CROWDED = Path(__file__).parent / "data" / "crowded.json"


class TestCapacityBound:
    """Of the jobs due by a deadline d, at most the d - c that fit in the
    slots before it complete from slot c: the idle child's bound is capped
    there, and each job child's is at most one more."""

    def test_cap_proves_soon_after_the_root(self):
        """T = 1, R = 2. Jobs 1 to 7, of heats 1/4 to 7/4, are all due at
        slot 4, so at most four of them run; jobs 8 to 10 are due at 9.
        OPT = 7, and the first dive finds it. Below a node at slot 1 (one
        job done) the cap then bounds the idle child by 1 + (4 - 2) + 3 = 6
        and the job children by 7, so every node left on the stack is cut
        when it pops; the count bound alone reads 1 + min(9, 7) = 8 there.
        Without the capacity cap: 223 nodes."""
        jobs = tuple(Job(i, 0, 4, Fraction(i, 4)) for i in range(1, 8))
        late = (Job(8, 0, 9, Fraction(9, 16)), Job(9, 1, 9, Fraction(5, 16)))
        result = _solve_checked(*jobs, *late, Job(10, 2, 9, Fraction(11, 16)))
        assert result.witness.slots == (7, 4, 3, 1, 10, 8, 9, None, None)
        assert result.explored == 40

    def test_crowded_file(self):
        """The same jobs at T = 5/3, R = 7/5, where job 2 takes job 3's
        slot. Without the capacity cap: 213 nodes."""
        instance = parse_instance(CROWDED.read_text())
        result = solve_optimal(instance)
        assert result.best_throughput == enumerate_optimal_bruteforce(instance) == 7
        assert result.witness.slots == (7, 4, 2, 1, 10, 8, 9, None, None)
        assert simulate(instance, result.witness).violations == ()
        assert (result.explored, result.proven_optimal) == (37, True)

    @pytest.mark.parametrize(
        "config, witness",
        [(ThermalConfig(), (4, 3, 5)), (ThermalConfig(Fraction(5, 3), Fraction(7, 5)), (1, 3, 5))],
        ids=["T=1-R=2", "T=5/3-R=7/5"],
    )
    def test_cap_is_exact(self, config, witness):
        """Jobs 1 to 4 are due at slot 2, and job 5 fits at slot 2 only
        after a cool enough pair. The first dive, which runs the hottest
        job 2 first, completes two; the optimum three. At the root one slot
        comes before slot 2 and only job 5 is due after it, so the idle
        child's bound is 0 + (2 - 1) + 1 = 2 and a job child's exactly 3.
        A cap one lower (a slot fewer, job 5 left out, or a staying job's
        child held at the idle child's bound) loses the optimum."""
        jobs = (
            Job(1, 0, 2, Fraction(19, 16)),
            Job(2, 0, 2, Fraction(27, 16)),
            Job(3, 0, 2, Fraction(5, 16)),
            Job(4, 0, 2, Fraction(11, 8)),
            Job(5, 2, 3, Fraction(23, 16)),
        )
        instance = Instance(jobs, config)
        result = solve_optimal(instance)
        assert result.best_throughput == enumerate_optimal_bruteforce(instance) == 3
        assert result.witness.slots == witness


def _solve_checked(*jobs):
    """solve_optimal on T = 1, R = 2, checked against the brute force."""
    instance = Instance(jobs=jobs)
    result = solve_optimal(instance)
    assert result.best_throughput == enumerate_optimal_bruteforce(instance)
    trace = simulate(instance, result.witness)
    assert (trace.violations, trace.throughput) == ((), result.best_throughput)
    assert result.proven_optimal
    return result


class TestExchangeRules:
    """The two exchange rules at T = 1, R = 2, and the guards that stop
    them. A rule that fires only saves nodes; a missing guard forbids the
    only order that completes every job."""

    def test_idle_swap_fires(self):
        """Only one of the jobs ever runs: job 1 needs temperature 0, and
        after either job the other no longer fits. After an idle slot 0,
        both are forbidden at slot 1, because they fit at slot 0 and
        swapping the job with the idle slot ends no hotter; the idle node
        then has no child that can beat 1. Without the rule: 7 nodes."""
        result = _solve_checked(Job(1, 0, 3, Fraction(2)), Job(2, 0, 3, Fraction(7, 4)))
        assert (result.best_throughput, result.explored) == (1, 6)

    def test_heat_order_swap_fires(self):
        """After job 1 (heat 1/4) at slot 0, the hotter job 2 is forbidden
        at slot 1: it fits at slot 0, job 1 is still pending at slot 1, and
        2 then 1 ends at 7/16 where 1 then 2 ends at 11/16. Without the
        rule: 8 nodes."""
        result = _solve_checked(
            Job(1, 0, 2, Fraction(1, 4)), Job(2, 0, 3, Fraction(5, 4)), Job(3, 1, 3, Fraction(7, 4))
        )
        assert (result.best_throughput, result.explored) == (2, 7)

    @pytest.mark.parametrize(
        "jobs",
        [
            # Idle slot 0, then the job at its release: it did not fit at slot 0.
            (Job(1, 1, 2, Fraction(1)),),
            # Job 1 at slot 0, then the hotter job 2 at its release.
            (Job(1, 0, 2, Fraction(1, 2)), Job(2, 1, 2, Fraction(1))),
        ],
        ids=["idle-swap", "heat-order-swap"],
    )
    def test_job_released_at_the_slot_is_not_swapped(self, jobs):
        assert _solve_checked(*jobs).best_throughput == len(jobs)

    def test_job_ending_at_the_previous_slot_is_not_swapped(self):
        """Job 1 (heat 1/2) has only slot 0, so the hotter job 2 must follow it."""
        result = _solve_checked(Job(1, 0, 1, Fraction(1, 2)), Job(2, 0, 2, Fraction(1)))
        assert result.witness.slots == (1, 2)

    def test_equal_heats_are_not_swapped(self):
        """Two jobs of heat 1 with different windows: either order ends at
        3/4. Rule (b) needs a strictly cooler job at the previous slot, so
        it forbids neither order, and only the equal-heat rule picks one:
        job 1, whose deadline is earlier, first."""
        result = _solve_checked(Job(1, 0, 2, Fraction(1)), Job(2, 0, 3, Fraction(1)))
        assert result.best_throughput == 2
        assert result.witness.slots == (1, 2, None)


EQUAL_HEATS = Path(__file__).parent / "data" / "equal_heats.json"


class TestEqualHeatRule:
    """A job branches only when every job of its heat before it in
    branching order (earliest deadline first) that is pending at the slot
    is done."""

    def test_rule_fires(self):
        """Three jobs of heat 1 at T = 1, R = 2 all run, in deadline order:
        job 2 waits at slot 0 for job 1, and job 3 at slot 1 for job 2,
        which has its deadline and a lower id. Without the rule: 9 nodes."""
        result = _solve_checked(
            Job(1, 0, 2, Fraction(1)), Job(2, 0, 3, Fraction(1)), Job(3, 1, 3, Fraction(1))
        )
        assert result.witness.slots == (1, 2, 3)
        assert result.explored == 7

    def test_unsound_variants_lose_a_job(self):
        """Only 4, 3, 1 completes three jobs: job 2 (heat 7/4) fits only from
        a temperature of at most 1/4. A rule that also waited on job 1
        before it is released would idle slot 1, one that ordered jobs 3
        and 4 by id would lose job 4, and one that waited on the hotter
        job 2 as well would block jobs 1 and 3 for good."""
        result = _solve_checked(
            Job(1, 2, 3, Fraction(3, 4)),
            Job(2, 1, 3, Fraction(7, 4)),
            Job(3, 0, 3, Fraction(3, 4)),
            Job(4, 0, 1, Fraction(3, 4)),
        )
        assert result.witness.slots == (4, 3, 1)

    def test_equal_heats_file(self):
        """T = 5/3, R = 7/3: three jobs of heat 4/3 and two of heat 3 with
        different windows. The rule cuts the search from 21 nodes to 13."""
        instance = parse_instance(EQUAL_HEATS.read_text())
        result = solve_optimal(instance)
        assert result.best_throughput == enumerate_optimal_bruteforce(instance) == 4
        trace = simulate(instance, result.witness)
        assert (trace.violations, trace.throughput) == ((), 4)
        assert (result.explored, result.proven_optimal) == (13, True)


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
@given(
    instances(
        max_jobs=5,
        release_span=3,
        max_window=3,
        config=configs(),
        heat=st.one_of(heats(), mixed_heats()),
    )
)
def test_oracle_agreement(instance):
    assert solve_optimal(instance).best_throughput == enumerate_optimal_bruteforce(instance)


@settings(max_examples=200, deadline=None)
@given(twin_instances(max_jobs=7, release_span=3, max_window=4, config=configs()))
def test_oracle_agreement_with_twins(instance):
    """The equal-heat rule on twins and the hopeless-job drop against the
    oracle, on instances where about 30% of the jobs copy an earlier one."""
    result = solve_optimal(instance)
    assert result.best_throughput == enumerate_optimal_bruteforce(instance)
    trace = simulate(instance, result.witness)
    assert trace.violations == ()
    assert trace.throughput == result.best_throughput


@settings(max_examples=200, deadline=None)
@given(equal_heat_instances(max_jobs=7, release_span=3, max_window=4, config=configs()))
def test_oracle_agreement_with_equal_heats(instance):
    """The equal-heat rule against the oracle, on instances where about
    30% of the jobs copy an earlier job's heat but keep their own window."""
    result = solve_optimal(instance)
    assert result.best_throughput == enumerate_optimal_bruteforce(instance)
    trace = simulate(instance, result.witness)
    assert trace.violations == ()
    assert trace.throughput == result.best_throughput


@settings(max_examples=100, deadline=None)
@given(instances(max_jobs=5, release_span=3, max_window=3, config=configs()))
def test_witness_always_valid(instance):
    result = solve_optimal(instance)
    trace = simulate(instance, result.witness)
    assert trace.violations == ()
    assert trace.throughput == result.best_throughput


@settings(max_examples=200, deadline=None)
@given(instances(min_jobs=1, max_jobs=5, release_span=3, max_window=3), st.data())
def test_opt_monotone_under_job_removal(instance, data):
    base = solve_optimal(instance).best_throughput
    victim = data.draw(st.sampled_from([j.id for j in instance.jobs]))
    reduced = Instance(jobs=tuple(j for j in instance.jobs if j.id != victim))
    assert solve_optimal(reduced).best_throughput <= base


@settings(max_examples=200, deadline=None)
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
