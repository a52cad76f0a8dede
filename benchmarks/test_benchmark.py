"""Self-tests of the benchmark: exact counts repeat for one seed, corrupt
outputs are counted as failed ops, and the output matches BENCHMARK.json.

Run with ``python3 -m pytest -q benchmarks`` from the repository root.
"""

from __future__ import annotations

import json
import shutil
import subprocess
from dataclasses import replace
from pathlib import Path

import pytest

import run
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

workloads = run.set_up("ratio_random", 1)[0]
from thermosched import PartitionCertificate, Schedule, brute_3partition, brute_n3dm  # noqa: E402
from thermosched.serialization import parse_n3dm_source, parse_three_partition_source  # noqa: E402


def traced_counts(name: str, seed: int, ops: int) -> dict:
    corpus = workloads.WORKLOADS[name].setup(seed)
    tracer = Tracer(True)
    loop = run.measure(workloads, name, corpus, 0.0, tracer, ops=ops)
    assert loop.failed == 0, loop.messages
    metrics = run.per_layer(tracer, loop.overhead)
    exact = {k: v for k, (v, unit) in metrics.items() if unit in ("count", "bytes")}
    return exact


@pytest.mark.parametrize(
    "name, ops, used",
    [
        ("ratio_random", 12, ("solver.nodes", "policies.slots", "model.slots")),
        ("reduction_proofs", 8, ("solver.nodes", "model.slots", "serialization.bytes_out", "gantt.bytes_out")),
        ("online_stream", 4, ("policies.slots", "model.slots", "serialization.bytes_in", "serialization.bytes_out")),
    ],
)
def test_exact_counts_repeat_for_one_seed(name, ops, used):
    first = traced_counts(name, 3, ops)
    assert first == traced_counts(name, 3, ops)
    assert all(first[counter] > 0 for counter in used)


def test_reduction_counts_follow_the_corpus():
    counts = traced_counts("reduction_proofs", 3, 8)
    corpus = workloads.setup_reduction_proofs(3)[:8]
    assert counts["reductions.yes"] == sum(s.has_solution for s in corpus)
    assert counts["reductions.no"] == sum(not s.has_solution for s in corpus)
    assert counts["solver.unproven"] == 0


def _first_op(corpus, kind: str) -> int:
    return next(i for i, s in enumerate(corpus) if s.kind == kind and s.has_solution)


def _attempt(name: str, corpus, i: int, **patches) -> run.Loop:
    api = workloads.layer_api(Tracer(False))
    for attr, fn in patches.items():
        setattr(api, attr, fn)
    loop = run.Loop()
    loop.attempt(workloads.WORKLOADS[name], api, corpus, i)
    return loop


def _drop_first_job(result):
    slots = list(result.witness.slots)
    first = next(t for t, job in enumerate(slots) if job is not None)
    slots[first] = None
    return replace(result, witness=Schedule(tuple(slots)))


@pytest.mark.parametrize("name", ["ratio_random", "reduction_proofs"])
def test_corrupted_witness_is_a_failed_op(name):
    corpus = workloads.WORKLOADS[name].setup(1)
    i = 0 if name == "ratio_random" else _first_op(corpus, "3partition")
    assert _attempt(name, corpus, i).failed == 0
    corrupt = lambda instance: _drop_first_job(workloads.solve_optimal(instance))  # noqa: E731
    loop = _attempt(name, corpus, i, solve_optimal=corrupt)
    assert (loop.attempted, loop.failed) == (1, 1)


def test_corrupted_certificate_is_a_failed_op():
    corpus = workloads.setup_reduction_proofs(1)
    i = _first_op(corpus, "3partition")

    def extract_reusing_an_index(meta, schedule):
        cert = workloads.extract_3partition(meta, schedule)
        (a, b, c), (d, e, f), *rest = cert.triples
        return PartitionCertificate(((a, b, c), (a, e, f), *rest))

    loop = _attempt("reduction_proofs", corpus, i, extract_3partition=extract_reusing_an_index)
    assert loop.failed == 1
    assert any("certificate" in m for m in loop.messages)


def test_corrupted_decider_certificate_is_a_failed_op():
    corpus = workloads.setup_reduction_proofs(1)
    i = _first_op(corpus, "n3dm")

    def decide_reusing_a_c_index(src):
        cert = workloads.brute_n3dm(src)
        (a, b, c), *rest = cert.triples
        return type(cert)(((a, b, c), *((i, j, c) for i, j, _ in rest)))

    loop = _attempt("reduction_proofs", corpus, i, brute_n3dm=decide_reusing_a_c_index)
    assert loop.failed == 1
    assert any("InvalidCertificateError" in m for m in loop.messages)


def test_setup_is_seeded_and_every_answer_is_confirmed():
    corpus = workloads.setup_reduction_proofs(4)
    assert corpus == workloads.setup_reduction_proofs(4)
    assert corpus != workloads.setup_reduction_proofs(5)
    for source in corpus:
        if source.kind == "3partition":
            decided = brute_3partition(parse_three_partition_source(source.text))
        else:
            decided = brute_n3dm(parse_n3dm_source(source.text))
        assert (decided is not None) == source.has_solution
    assert workloads.setup_online_stream(4) == workloads.setup_online_stream(4)
    assert workloads.setup_online_stream(4) != workloads.setup_online_stream(5)


def test_per_layer_metrics_match_benchmark_json():
    tracer = Tracer(True)
    corpus = workloads.setup_online_stream(1)
    loop = run.measure(workloads, "online_stream", corpus, 0.0, tracer, ops=2)
    metrics = run.per_layer(tracer, loop.overhead)
    assert [w["name"] for w in SPEC["workloads"]] == list(run.NAMES) == list(workloads.WORKLOADS)
    assert list(run.SELF_TIMES) == list(dict.fromkeys(s for s, _, _ in workloads.LAYER_FUNCTIONS.values()))
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    assert {k: u for k, (v, u) in metrics.items()} == {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def _last_json_line(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_command_prints_the_end_to_end_metrics():
    done = subprocess.run(
        [*SPEC["command"], "--workload", "ratio_random", "--seed", "2", "--seconds", "0", "--trace", "0"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
        check=True,
    )
    result = _last_json_line(done.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= run.MIN_OPS
    spec = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert "error_rate 0 fraction" in done.stdout


def test_command_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmarks", tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [*SPEC["command"], "--workload", "online_stream", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_latencies_are_scaled_by_the_kernel_times_around_each_op():
    loop = run.Loop(latencies=[0.01] * 4 + [0.02] * 4, refs=[run.REF_SECONDS] * 5 + [2 * run.REF_SECONDS] * 4)
    scaled = run.scaled_latencies(loop)
    # A host twice as slow for both the ops and the kernel leaves the
    # scaled latency as it was.
    assert scaled[0] == pytest.approx(0.01)
    assert scaled[-1] == pytest.approx(0.01)
    assert len(scaled) == len(loop.latencies)
