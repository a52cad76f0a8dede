"""Hardness reductions: generators, canonical schedules, extraction,
and the standalone brute-force deciders for the source problems."""

from enum import IntEnum
from fractions import Fraction

import pytest

from thermosched import (
    InstanceTooLargeError,
    InvalidCertificateError,
    InvalidSourceError,
    MatchingCertificate,
    N3DMInstance,
    NotFullThroughputError,
    PartitionCertificate,
    ReductionMeta,
    Schedule,
    ThreePartitionInstance,
    brute_3partition,
    brute_n3dm,
    canonical_schedule_3partition,
    canonical_schedule_n3dm,
    extract_3partition,
    extract_n3dm_matching,
    gen_from_3partition,
    gen_from_n3dm,
    simulate,
    solve_optimal,
)
from thermosched.reductions import (
    BRUTE_3PARTITION_MAX_VALUES,
    BRUTE_N3DM_MAX_N,
    ROLE_A,
    ROLE_B,
    ROLE_C,
    ROLE_ELEMENT,
    ROLE_GADGET,
    element_heat,
    f_scaled,
)

ALL_THREES = ThreePartitionInstance.from_values((3,) * 6)  # n=2, beta=9
NO_PARTITION = ThreePartitionInstance.from_values((4, 4, 4, 4, 4, 6))  # beta=13

MATCHABLE_N1 = N3DMInstance(a=(2,), b=(2,), c=(4,), beta=8)
MATCHABLE_N2 = N3DMInstance(a=(0, 8), b=(8, 0), c=(4, 4), beta=12)
UNMATCHABLE_N2 = N3DMInstance(a=(2, 0), b=(2, 0), c=(2, 0), beta=3)


class TestSourceValidation:
    def test_from_values_derives_beta(self):
        assert ALL_THREES.beta == 9
        assert ALL_THREES.n == 2

    def test_from_values_rejects_indivisible_sum(self):
        with pytest.raises(InvalidSourceError, match="divisible"):
            ThreePartitionInstance.from_values((3, 3, 3, 3, 3, 4))

    def test_from_values_rejects_wrong_count(self):
        with pytest.raises(InvalidSourceError, match="3n values"):
            ThreePartitionInstance.from_values((3, 3, 3, 3))

    @pytest.mark.parametrize("count", [0, 4, 7])
    def test_from_values_checks_count_before_divisibility(self, count):
        with pytest.raises(InvalidSourceError, match=f"^need 3n values for some n >= 1, got {count}$"):
            ThreePartitionInstance.from_values((3,) * count)

    def test_window_is_strict(self):
        # 2 and 5 fall outside (9/4, 9/2)
        with pytest.raises(InvalidSourceError, match="window"):
            ThreePartitionInstance(values=(2, 2, 3, 3, 3, 5), beta=9)

    def test_boundary_value_rejected(self):
        # 2a < beta must be strict: a=3, beta=6 sits on the boundary
        with pytest.raises(InvalidSourceError):
            ThreePartitionInstance(values=(3, 3, 3, 3, 3, 3), beta=6)

    def test_nonpositive_value_rejected(self):
        with pytest.raises(InvalidSourceError, match="positive"):
            ThreePartitionInstance(values=(0, 4, 5, 3, 3, 3), beta=9)

    @pytest.mark.parametrize(
        "values, beta, match",
        [
            ((3, 3, True), 3, r"^value #2 must be a positive integer, got True$"),
            ((3, 3, 3.0), 3, r"^value #2 must be a positive integer, got 3\.0$"),
            ((1, 1, 1), True, r"^beta must be a positive integer, got True$"),
            ((1, 1, 1), IntEnum("Betas", "ONE").ONE, r"^beta must be a positive integer"),
        ],
    )
    def test_3partition_numbers_are_exact_ints(self, values, beta, match):
        with pytest.raises(InvalidSourceError, match=match):
            ThreePartitionInstance(values, beta)

    def test_matching_needs_a_triple(self):
        with pytest.raises(InvalidSourceError, match="^need at least one triple$"):
            N3DMInstance((), (), (), 1)

    def test_matching_rows_must_align(self):
        with pytest.raises(InvalidSourceError, match="equal length"):
            N3DMInstance(a=(1,), b=(1, 2), c=(1,), beta=3)

    def test_matching_values_bounded_by_beta(self):
        with pytest.raises(InvalidSourceError, match="exceeds beta"):
            N3DMInstance(a=(9,), b=(0,), c=(0,), beta=8)

    def test_matching_negative_value_rejected(self):
        with pytest.raises(InvalidSourceError, match="non-negative"):
            N3DMInstance(a=(-1,), b=(1,), c=(1,), beta=1)

    def test_matching_total_must_hit_n_beta(self):
        with pytest.raises(InvalidSourceError, match="rows sum"):
            N3DMInstance(a=(0,), b=(0,), c=(0,), beta=1)

    @pytest.mark.parametrize(
        "c, beta, match",
        [
            ((False,), 1, r"^c\[0\] must be a non-negative integer, got False$"),
            ((1,), True, r"^beta must be a positive integer, got True$"),
        ],
    )
    def test_matching_numbers_are_exact_ints(self, c, beta, match):
        with pytest.raises(InvalidSourceError, match=match):
            N3DMInstance(a=(0,), b=(0,), c=c, beta=beta)

    def test_valid_sources_pass(self):
        assert ThreePartitionInstance([3] * 6, 9) == ALL_THREES
        assert N3DMInstance(a=[0, 8], b=[8, 0], c=[4, 4], beta=12) == MATCHABLE_N2


class TestCertificateNormalization:
    def test_partition_triples_sorted(self):
        cert = PartitionCertificate(((5, 4, 3), (2, 0, 1)))
        assert cert.triples == ((0, 1, 2), (3, 4, 5))

    def test_matching_triples_sorted_by_a_index(self):
        cert = MatchingCertificate(((1, 0, 1), (0, 1, 0)))
        assert cert.triples == ((0, 1, 0), (1, 0, 1))

    def test_value_triples(self):
        src = ThreePartitionInstance(values=(4, 4, 4, 4, 5, 5), beta=13)
        cert = PartitionCertificate(((4, 1, 0), (5, 3, 2)))
        assert cert.triples == ((0, 1, 4), (2, 3, 5))
        assert [[src.values[i] for i in t] for t in cert.triples] == [[4, 4, 5], [4, 4, 5]]
        matching = MatchingCertificate(((1, 1, 1), (0, 0, 0)))
        a, b, c = MATCHABLE_N2.a, MATCHABLE_N2.b, MATCHABLE_N2.c
        assert [(a[i], b[j], c[k]) for i, j, k in matching.triples] == [(0, 8, 4), (8, 0, 4)]


class TestGenFrom3Partition:
    def test_element_heats(self):
        assert element_heat(1) == 1
        assert element_heat(3) == Fraction(7, 4)
        assert element_heat(64) == Fraction(2**64 - 1, 2**63)

    def test_instance_geometry(self):
        instance, meta = gen_from_3partition(ALL_THREES)
        assert len(instance.jobs) == 8
        assert instance.horizon == 20
        assert meta.intervals == ((1, 10), (11, 20))
        for job_id in meta.ids_with_role(ROLE_ELEMENT):
            job = instance.job_map()[job_id]
            assert (job.release, job.deadline) == (1, 20)
            assert job.heat == Fraction(7, 4)

    def test_gadget_jobs(self):
        instance, meta = gen_from_3partition(ALL_THREES)
        jobs = instance.job_map()
        first, second = meta.ids_with_role(ROLE_GADGET)
        assert (jobs[first].release, jobs[first].deadline) == (0, 1)
        assert jobs[first].heat == 2
        assert (jobs[second].release, jobs[second].deadline) == (10, 11)
        assert jobs[second].heat == 1

    def test_origins(self):
        _, meta = gen_from_3partition(ALL_THREES)
        assert meta.ids_with_role(ROLE_ELEMENT) == (1, 2, 3, 4, 5, 6)
        assert meta.ids_with_role(ROLE_GADGET) == (7, 8)
        assert [o.value for o in meta.origins if o.role == ROLE_ELEMENT] == [3] * 6

    def test_rejects_a_matching_source(self):
        with pytest.raises(
            TypeError, match="^expected source type ThreePartitionInstance, got N3DMInstance$"
        ):
            gen_from_3partition(MATCHABLE_N1)

    def test_element_cap(self):
        oversized = ThreePartitionInstance.from_values((65,) * 6)
        with pytest.raises(InvalidSourceError, match="cap 64"):
            gen_from_3partition(oversized)
        instance, _ = gen_from_3partition(ThreePartitionInstance.from_values((64,) * 3))
        assert instance.job_map()[1].heat == element_heat(64)


class TestCanonical3Partition:
    def test_schedule_layout(self):
        instance, meta = gen_from_3partition(ALL_THREES)
        cert = PartitionCertificate(((0, 1, 2), (3, 4, 5)))
        schedule = canonical_schedule_3partition(ALL_THREES, meta, cert)
        assert schedule.slots == (
            7, None, None, 1, None, None, 2, None, None, 3,
            8, None, None, 4, None, None, 5, None, None, 6,
        )

    def test_boundary_temperatures_hit_threshold(self):
        instance, meta = gen_from_3partition(ALL_THREES)
        cert = PartitionCertificate(((0, 1, 2), (3, 4, 5)))
        trace = simulate(instance, canonical_schedule_3partition(ALL_THREES, meta, cert))
        assert trace.violations == ()
        assert trace.throughput == 8
        assert trace.temperatures[10] == 1
        assert trace.temperatures[20] == 1

    def test_rejects_overlapping_triples(self):
        _, meta = gen_from_3partition(ALL_THREES)
        cert = PartitionCertificate(((0, 1, 2), (0, 3, 4)))
        with pytest.raises(InvalidCertificateError, match="exactly once"):
            canonical_schedule_3partition(ALL_THREES, meta, cert)

    def test_rejects_wrong_sum(self):
        src = ThreePartitionInstance(values=(4, 4, 4, 4, 5, 5), beta=13)
        _, meta = gen_from_3partition(src)
        cert = PartitionCertificate(((0, 1, 2), (3, 4, 5)))
        with pytest.raises(InvalidCertificateError, match="sums to 12"):
            canonical_schedule_3partition(src, meta, cert)

    def test_rejects_foreign_meta(self):
        _, meta = gen_from_3partition(ThreePartitionInstance.from_values((4, 4, 4, 4, 5, 5)))
        cert = PartitionCertificate(((0, 1, 2), (3, 4, 5)))
        with pytest.raises(ValueError, match="does not belong"):
            canonical_schedule_3partition(ALL_THREES, meta, cert)

    def test_rejects_meta_of_another_source_with_equal_n_and_beta(self):
        src = ThreePartitionInstance((5, 4, 4, 5, 4, 4), 13)
        _, foreign = gen_from_3partition(ThreePartitionInstance((4, 4, 5, 4, 4, 5), 13))
        instance, meta = gen_from_3partition(src)
        cert = brute_3partition(src)
        with pytest.raises(ValueError, match="^meta does not belong to this source instance$"):
            canonical_schedule_3partition(src, foreign, cert)
        trace = simulate(instance, canonical_schedule_3partition(src, meta, cert))
        assert trace.violations == () and trace.throughput == 8

    def test_rejects_meta_of_the_other_construction(self):
        _, meta = gen_from_n3dm(MATCHABLE_N1)
        cert = PartitionCertificate(((0, 1, 2), (3, 4, 5)))
        with pytest.raises(ValueError, match="does not belong"):
            canonical_schedule_3partition(ALL_THREES, meta, cert)


    def test_rejects_a_matching_source(self):
        _, meta = gen_from_n3dm(MATCHABLE_N1)
        cert = PartitionCertificate(((0, 1, 2),))
        with pytest.raises(
            TypeError, match="^expected source type ThreePartitionInstance, got N3DMInstance$"
        ):
            canonical_schedule_3partition(MATCHABLE_N1, meta, cert)


class TestExtract3Partition:
    def test_roundtrip_from_canonical(self):
        _, meta = gen_from_3partition(ALL_THREES)
        cert = PartitionCertificate(((0, 1, 2), (3, 4, 5)))
        schedule = canonical_schedule_3partition(ALL_THREES, meta, cert)
        assert extract_3partition(meta, schedule) == cert

    def test_solver_witness_extracts(self):
        instance, meta = gen_from_3partition(ALL_THREES)
        result = solve_optimal(instance)
        assert result.best_throughput == 8
        cert = extract_3partition(meta, result.witness)
        assert [[ALL_THREES.values[i] for i in t] for t in cert.triples] == [[3, 3, 3]] * 2

    def test_partial_schedule_rejected(self):
        _, meta = gen_from_3partition(ALL_THREES)
        cert = PartitionCertificate(((0, 1, 2), (3, 4, 5)))
        slots = list(canonical_schedule_3partition(ALL_THREES, meta, cert))
        slots[3] = None
        with pytest.raises(NotFullThroughputError, match="throughput 7"):
            extract_3partition(meta, Schedule(tuple(slots)))

    def test_wrong_meta_kind_rejected(self):
        _, meta = gen_from_n3dm(MATCHABLE_N1)
        with pytest.raises(ValueError, match="not a 3-Partition"):
            extract_3partition(meta, Schedule(()))

    def test_unsatisfiable_source_caps_throughput(self):
        instance, _ = gen_from_3partition(NO_PARTITION)
        assert solve_optimal(instance).best_throughput == 7


def test_reduction_meta_refuses_a_non_source():
    with pytest.raises(TypeError, match=r"^not a reduction source: \(3, 3, 3\)$"):
        ReductionMeta((3, 3, 3))


class TestGenFromN3DM:
    def test_heats_follow_scaled_values(self):
        instance, meta = gen_from_n3dm(MATCHABLE_N1)
        jobs = instance.job_map()
        assert f_scaled(2, 8) == Fraction(66, 1600)
        assert jobs[meta.ids_with_role(ROLE_A)[0]].heat == 8 * f_scaled(2, 8)
        assert jobs[meta.ids_with_role(ROLE_B)[0]].heat == 4 * f_scaled(2, 8)
        assert jobs[meta.ids_with_role(ROLE_C)[0]].heat == 2 * f_scaled(4, 8)
        gadgets = meta.ids_with_role(ROLE_GADGET)
        assert jobs[gadgets[0]].heat == 2
        assert jobs[gadgets[1]].heat == Fraction(7, 4)

    def test_all_windows_span_everything(self):
        instance, meta = gen_from_n3dm(MATCHABLE_N2)
        assert len(instance.jobs) == 9
        assert all((j.release, j.deadline) == (0, 9) for j in instance.jobs)
        assert meta.intervals == ((1, 4), (5, 8))

    def test_ids_by_role(self):
        _, meta = gen_from_n3dm(MATCHABLE_N2)
        assert meta.ids_with_role(ROLE_A) == (1, 2)
        assert meta.ids_with_role(ROLE_B) == (3, 4)
        assert meta.ids_with_role(ROLE_C) == (5, 6)
        assert meta.ids_with_role(ROLE_GADGET) == (7, 8, 9)


    def test_rejects_a_3partition_source(self):
        with pytest.raises(
            TypeError, match="^expected source type N3DMInstance, got ThreePartitionInstance$"
        ):
            gen_from_n3dm(ALL_THREES)


class TestCanonicalN3DM:
    def test_schedule_layout(self):
        _, meta = gen_from_n3dm(MATCHABLE_N2)
        cert = MatchingCertificate(((0, 0, 0), (1, 1, 1)))
        schedule = canonical_schedule_n3dm(MATCHABLE_N2, meta, cert)
        assert schedule.slots == (7, 1, 3, 5, 8, 2, 4, 6, 9)

    def test_gadget_temperatures(self):
        instance, meta = gen_from_n3dm(MATCHABLE_N2)
        cert = MatchingCertificate(((0, 0, 0), (1, 1, 1)))
        trace = simulate(instance, canonical_schedule_n3dm(MATCHABLE_N2, meta, cert))
        assert trace.violations == ()
        assert trace.throughput == 9
        # tau is exactly 1 right after each gadget and exactly 1/4 when
        # each heat-7/4 gadget starts
        assert trace.temperatures[1] == 1
        assert trace.temperatures[4] == Fraction(1, 4)
        assert trace.temperatures[5] == 1
        assert trace.temperatures[8] == Fraction(1, 4)
        assert trace.temperatures[9] == 1

    def test_small_instance_temperatures(self):
        instance, meta = gen_from_n3dm(MATCHABLE_N1)
        cert = MatchingCertificate(((0, 0, 0),))
        trace = simulate(instance, canonical_schedule_n3dm(MATCHABLE_N1, meta, cert))
        assert trace.temperatures == (
            0,
            1,
            Fraction(133, 200),
            Fraction(83, 200),
            Fraction(1, 4),
            1,
        )

    def test_rejects_wrong_sum(self):
        _, meta = gen_from_n3dm(MATCHABLE_N2)
        cert = MatchingCertificate(((0, 1, 0), (1, 0, 1)))
        with pytest.raises(InvalidCertificateError, match="sums to"):
            canonical_schedule_n3dm(MATCHABLE_N2, meta, cert)

    def test_rejects_reused_index(self):
        _, meta = gen_from_n3dm(MATCHABLE_N2)
        cert = MatchingCertificate(((0, 0, 0), (1, 0, 1)))
        with pytest.raises(InvalidCertificateError, match="exactly once"):
            canonical_schedule_n3dm(MATCHABLE_N2, meta, cert)

    def test_rejects_too_few_triples(self):
        _, meta = gen_from_n3dm(MATCHABLE_N2)
        cert = MatchingCertificate(((0, 0, 0),))
        with pytest.raises(InvalidCertificateError, match="^need 2 triples, got 1$"):
            canonical_schedule_n3dm(MATCHABLE_N2, meta, cert)

    def test_rejects_meta_of_another_source_with_equal_n_and_beta(self):
        _, foreign = gen_from_n3dm(N3DMInstance(a=(0, 8), b=(0, 8), c=(4, 4), beta=12))
        instance, meta = gen_from_n3dm(MATCHABLE_N2)
        cert = MatchingCertificate(((0, 0, 0), (1, 1, 1)))
        with pytest.raises(ValueError, match="^meta does not belong to this source instance$"):
            canonical_schedule_n3dm(MATCHABLE_N2, foreign, cert)
        trace = simulate(instance, canonical_schedule_n3dm(MATCHABLE_N2, meta, cert))
        assert trace.violations == () and trace.throughput == 9


    def test_rejects_a_3partition_source(self):
        _, meta = gen_from_3partition(ALL_THREES)
        cert = MatchingCertificate(((0, 0, 0), (1, 1, 1)))
        with pytest.raises(
            TypeError, match="^expected source type N3DMInstance, got ThreePartitionInstance$"
        ):
            canonical_schedule_n3dm(ALL_THREES, meta, cert)


class TestExtractN3DM:
    def test_roundtrip_from_canonical(self):
        _, meta = gen_from_n3dm(MATCHABLE_N2)
        cert = MatchingCertificate(((0, 0, 0), (1, 1, 1)))
        schedule = canonical_schedule_n3dm(MATCHABLE_N2, meta, cert)
        assert extract_n3dm_matching(meta, schedule) == cert

    def test_solver_witness_extracts(self):
        instance, meta = gen_from_n3dm(MATCHABLE_N1)
        result = solve_optimal(instance)
        assert result.best_throughput == 5
        cert = extract_n3dm_matching(meta, result.witness)
        assert cert.triples == ((0, 0, 0),)

    def test_partial_schedule_rejected(self):
        _, meta = gen_from_n3dm(MATCHABLE_N1)
        cert = MatchingCertificate(((0, 0, 0),))
        slots = list(canonical_schedule_n3dm(MATCHABLE_N1, meta, cert))
        slots[2] = None
        with pytest.raises(NotFullThroughputError):
            extract_n3dm_matching(meta, Schedule(tuple(slots)))

    def test_wrong_meta_kind_rejected(self):
        _, meta = gen_from_3partition(ALL_THREES)
        with pytest.raises(ValueError, match="not a matching"):
            extract_n3dm_matching(meta, Schedule(()))

    def test_unmatchable_source_caps_throughput(self):
        instance, _ = gen_from_n3dm(UNMATCHABLE_N2)
        assert solve_optimal(instance).best_throughput == 8

    def test_gadget_cooldown_floor(self):
        """After any gadget in a full-throughput schedule the
        temperature is at least 364/375, leaving almost no slack."""
        floor = Fraction(364, 375)
        for src in (MATCHABLE_N1, MATCHABLE_N2):
            instance, meta = gen_from_n3dm(src)
            gadget_ids = set(meta.ids_with_role(ROLE_GADGET))
            result = solve_optimal(instance)
            assert result.best_throughput == 4 * meta.n + 1
            trace = simulate(instance, result.witness)
            for t, job_id in enumerate(result.witness):
                if job_id in gadget_ids:
                    assert trace.temperatures[t + 1] >= floor


class TestBrute3Partition:
    def test_finds_partition(self):
        cert = brute_3partition(ALL_THREES)
        assert cert is not None
        assert cert.triples == ((0, 1, 2), (3, 4, 5))

    def test_reports_unsatisfiable(self):
        assert brute_3partition(NO_PARTITION) is None

    def test_mixed_values(self):
        src = ThreePartitionInstance.from_values((4, 4, 4, 4, 5, 5))
        cert = brute_3partition(src)
        assert cert is not None
        assert cert.triples == ((0, 1, 4), (2, 3, 5))

    def test_size_guard(self):
        values = (3,) * (BRUTE_3PARTITION_MAX_VALUES + 3)
        with pytest.raises(InstanceTooLargeError):
            brute_3partition(ThreePartitionInstance.from_values(values))

    def test_validates_source_first(self):
        with pytest.raises(InvalidSourceError):
            brute_3partition(ThreePartitionInstance(values=(2, 2, 3, 3, 3, 5), beta=9))


class TestBruteN3DM:
    def test_finds_matching(self):
        cert = brute_n3dm(N3DMInstance(a=(1,), b=(2,), c=(3,), beta=6))
        assert cert == MatchingCertificate(((0, 0, 0),))

    def test_two_triples(self):
        cert = brute_n3dm(MATCHABLE_N2)
        assert cert is not None
        assert cert.triples == ((0, 0, 0), (1, 1, 1))

    def test_reports_unmatchable(self):
        assert brute_n3dm(UNMATCHABLE_N2) is None
        assert brute_n3dm(N3DMInstance(a=(1, 1), b=(1, 1), c=(0, 2), beta=3)) is None

    def test_size_guard(self):
        n = BRUTE_N3DM_MAX_N + 1
        src = N3DMInstance(a=(0,) * n, b=(0,) * n, c=(1,) * n, beta=1)
        with pytest.raises(InstanceTooLargeError):
            brute_n3dm(src)


def test_reduction_equivalence_small_cases():
    """Full throughput is achievable iff the source is a yes-instance,
    checked on one satisfiable and one unsatisfiable source per shape."""
    for src, satisfiable in ((ALL_THREES, True), (NO_PARTITION, False)):
        instance, meta = gen_from_3partition(src)
        full = solve_optimal(instance).best_throughput == 4 * meta.n
        assert full == satisfiable
        assert (brute_3partition(src) is not None) == satisfiable
    for src, satisfiable in ((MATCHABLE_N2, True), (UNMATCHABLE_N2, False)):
        instance, meta = gen_from_n3dm(src)
        full = solve_optimal(instance).best_throughput == 4 * meta.n + 1
        assert full == satisfiable
        assert (brute_n3dm(src) is not None) == satisfiable
