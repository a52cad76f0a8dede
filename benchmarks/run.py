"""Benchmark of the thermosched library.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is ratio_random, reduction_proofs, online_stream or all. The
library is imported from ``src/`` next to this directory, never from
an installed copy. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1. See
README.md in this directory for every metric and workload.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Callable, Optional

from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
NAMES = ("ratio_random", "reduction_proofs", "online_stream")

# p90 needs at least ten samples beyond it.
MIN_OPS = 100
# The op loop ends at this age even short of MIN_OPS, so a run ends in time.
MAX_LOOP_SECONDS = 120.0
# setup_s is the median of this many set-ups: this process's and fresh ones.
SETUP_SAMPLES = 5

COUNTERS = (
    "solver.nodes",
    "solver.unproven",
    "policies.slots",
    "policies.unreasonable",
    "model.slots",
    "reductions.yes",
    "reductions.no",
    "serialization.bytes_in",
    "serialization.bytes_out",
    "gantt.bytes_out",
)
SELF_TIMES = (
    "solver.solve_optimal",
    "policies.run_online",
    "policies.check_reasonable",
    "model.simulate",
    "model.validate_instance",
    "reductions.gen",
    "reductions.decide",
    "reductions.extract",
    "reductions.canonical",
    "adversary.random_instance",
    "serialization.parse",
    "serialization.serialize",
    "gantt.render_gantt",
)
CALLS = ("solver.solve_optimal", "policies.run_online", "model.simulate")

# The benchmark shares a few cores of a host whose speed swings by up to
# 50% for seconds at a time, in the CPU time of the process as much as in
# its wall time. Timings are therefore reported at reference speed: wall
# seconds x REF_SECONDS / the time of reference_seconds()'s kernel taken
# next to them. The kernel uses the standard library only, so no change to
# the library moves it; on a host where it takes REF_SECONDS, the figures
# are wall-clock times.
REF_SECONDS = 0.002
# An op's speed is the median of this many kernel times around it, half
# taken before the op and half after.
REF_WINDOW = 6
_REF_DOCUMENT = json.dumps([{"id": k, "release": k % 7, "heat": str(Fraction(k, 13))} for k in range(150)])


def reference_seconds() -> float:
    """Wall seconds of one run of a fixed standard-library kernel."""
    start = perf_counter()
    acc = Fraction(0)
    counts: dict[int, int] = {}
    for k in range(1, 200):
        acc = (acc + Fraction(k, k + 3)) / Fraction(5, 4)
        counts[k % 97] = counts.get(k % 97, 0) + k
    sorted(counts.items(), key=lambda kv: -kv[1])
    json.loads(_REF_DOCUMENT)
    return perf_counter() - start


def at_reference_speed(seconds: float) -> float:
    """`seconds` just measured, scaled to reference speed."""
    reference_seconds()
    return seconds * REF_SECONDS / statistics.median(reference_seconds() for _ in range(REF_WINDOW))


class SetupError(Exception):
    pass


def set_up(name: str, seed: int):
    """Import the library from SRC and build the workload's corpus.

    Returns (workloads module, corpus, seconds taken).
    """
    start = perf_counter()
    sys.path[:0] = [p for p in (str(SRC), str(HERE)) if p not in sys.path]
    try:
        import thermosched
        import workloads
    except ImportError as exc:
        raise SetupError(f"cannot import thermosched from {SRC}: {exc}") from None
    if Path(thermosched.__file__).resolve().parent.parent != SRC:
        raise SetupError(f"thermosched was imported from {thermosched.__file__}, not {SRC}")
    corpus = workloads.WORKLOADS[name].setup(seed)
    return workloads, corpus, perf_counter() - start


def setup_seconds(name: str, seed: int) -> float:
    """Set-up time of a fresh process, at reference speed."""
    done = subprocess.run(
        [sys.executable, __file__, "--workload", name, "--seed", str(seed), "--setup-only"],
        capture_output=True,
        text=True,
        timeout=60,
        check=False,
    )
    if done.returncode != 0:
        raise SetupError(f"set-up process failed: {done.stderr.strip()}")
    return float(done.stdout.split()[-1])


@dataclass
class Loop:
    """Outcome of the op loop."""

    attempted: int = 0
    failed: int = 0
    wall: float = 0.0
    latencies: list[float] = field(default_factory=list)
    messages: list[str] = field(default_factory=list)
    overhead: float = 0.0
    # Untraced: reference kernel times, one before the first op and one
    # after each op.
    refs: list[float] = field(default_factory=list)

    def attempt(self, workload, api, corpus, i: int) -> float:
        """Run op i once and count it; returns its seconds.

        An op that raises or fails a check counts as failed; the run goes on.
        """
        self.attempted += 1
        start = perf_counter()
        try:
            failures = workload.op(api, corpus, i)
        except Exception as exc:  # a failed op is counted, never fatal
            failures = [f"raised {type(exc).__name__}: {exc}"]
        took = perf_counter() - start
        if failures:
            self.failed += 1
            self.messages.extend(f"op {i}: {message}" for message in failures)
        return took


def measure(
    workloads,
    name: str,
    corpus,
    seconds: float,
    tracer: Tracer,
    ops: Optional[int] = None,
    pause: Optional[Callable[[], None]] = None,
) -> Loop:
    """The op loop: ops 0, 1, 2, ... one after another.

    Untraced (tracer disabled), each op runs once and its latency is
    kept, and the reference kernel is timed before the first op and
    after each op; the loop runs for `seconds`, then on to the end of the
    workload's cycle and to at least MIN_OPS. `pause` runs between ops
    at SETUP_SAMPLES - 1 evenly spaced moments of the first `seconds`;
    its time is left out of the loop's wall time. Traced, the loop runs
    exactly `ops` ops (default: the workload's traced_ops), so that the
    counters repeat exactly for one seed. Each op runs once untraced and
    once traced, in alternating order, and the traced minus the
    untraced seconds sum to the tracing overhead.
    """
    workload = workloads.WORKLOADS[name]
    plain = workloads.layer_api(Tracer(False))
    spanned = workloads.layer_api(tracer)
    if tracer.enabled and ops is None:
        ops = workload.traced_ops
    marks = [seconds * k / SETUP_SAMPLES for k in range(1, SETUP_SAMPLES)] if pause else []
    loop = Loop()
    i = 0
    paused = 0.0
    start = perf_counter()
    if not tracer.enabled:
        loop.refs.append(reference_seconds())
    while True:
        age = perf_counter() - start - paused
        if marks and age >= marks[0]:
            marks.pop(0)
            before = perf_counter()
            pause()
            paused += perf_counter() - before
            continue
        if age >= MAX_LOOP_SECONDS or i == ops:
            break
        if ops is None and age >= seconds and i % workload.cycle == 0 and i >= MIN_OPS:
            break
        if tracer.enabled:
            for traced in ((False, True) if i % 2 == 0 else (True, False)):
                if traced:
                    with tracer.op(i):
                        loop.overhead += loop.attempt(workload, spanned, corpus, i)
                else:
                    loop.overhead -= loop.attempt(workload, plain, corpus, i)
        else:
            loop.latencies.append(loop.attempt(workload, plain, corpus, i))
            loop.refs.append(reference_seconds())
        i += 1
    loop.wall = perf_counter() - start - paused
    return loop


def scaled_latencies(loop: Loop) -> list[float]:
    """Each op's seconds at reference speed, by the REF_WINDOW kernel times around it."""
    last = max(0, len(loop.refs) - REF_WINDOW)
    scaled = []
    for i, took in enumerate(loop.latencies):
        first = min(max(0, i + 1 - REF_WINDOW // 2), last)
        scaled.append(took * REF_SECONDS / statistics.median(loop.refs[first : first + REF_WINDOW]))
    return scaled


def end_to_end(loop: Loop, setups: list[float]) -> dict[str, tuple[float, str]]:
    scaled = scaled_latencies(loop)
    ms = [t * 1e3 for t in scaled]
    return {
        "ops_per_s": ((loop.attempted - loop.failed) / sum(scaled), "ops/s"),
        "op_ms.p50": (statistics.median(ms), "ms"),
        "op_ms.p90": (statistics.quantiles(ms, n=10)[8], "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(tracer: Tracer, overhead: float) -> dict[str, tuple[float, str]]:
    self_s = tracer.self_seconds()
    metrics: dict[str, tuple[float, str]] = {}
    for name in CALLS:
        metrics[f"{name}.calls"] = (len(tracer.durations(name)), "count")
    for name in SELF_TIMES:
        metrics[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
    for name in COUNTERS:
        metrics[name] = (tracer.counters.get(name, 0), "bytes" if "bytes" in name else "count")
    solve_s = self_s.get("solver.solve_optimal", 0.0)
    solve_ms = [t * 1e3 for t in tracer.durations("solver.solve_optimal")]
    metrics["solver.solve_optimal.max_ms"] = (max(solve_ms, default=0.0), "ms")
    metrics["solver.nodes_per_s"] = (metrics["solver.nodes"][0] / solve_s if solve_s else 0.0, "nodes/s")
    metrics["tracing.overhead_s"] = (overhead, "s")
    return metrics


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> None:
    """One workload in this process; prints the metrics and the result line."""
    workloads, corpus, took = set_up(name, seed)
    # Set-up time drifts with the host's load over seconds, so the fresh
    # set-ups are spread over the op loop instead of run back to back.
    setups = [at_reference_speed(took)]
    tracer = Tracer(traced)
    loop = measure(
        workloads,
        name,
        corpus,
        seconds,
        tracer,
        pause=None if traced else lambda: setups.append(setup_seconds(name, seed)),
    )
    if traced:
        metrics = per_layer(tracer, loop.overhead)
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{name}-seed{seed}.jsonl"
        tracer.write(str(spans_path))
    else:
        metrics = end_to_end(loop, setups)
    for message in loop.messages[:10]:
        print(f"FAILED {message}", file=sys.stderr)
    print(
        f"{name} seed={seed} trace={int(traced)}: {loop.attempted} ops in {loop.wall:.2f} s, "
        f"error_rate {loop.failed / loop.attempted:g} fraction ({loop.failed}/{loop.attempted})"
    )
    if loop.refs:
        print(
            f"  reference kernel median {statistics.median(loop.refs) * 1e3:.3f} ms "
            f"(timings below are scaled to {REF_SECONDS * 1e3:g} ms)"
        )
    for metric, (value, unit) in metrics.items():
        print(f"  {metric:36} {value:>16.6g} {unit}")
    if traced:
        print(f"  spans written to {spans_path.relative_to(ROOT)}")
    print(
        json.dumps(
            {
                "correct": loop.failed == 0,
                "attempted": loop.attempted,
                "failed": loop.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.setup_only:
            print(at_reference_speed(set_up(args.workload, args.seed)[2]))
            return 0
        if args.workload != "all":
            run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
            return 0
    except SetupError as exc:
        print(f"benchmark set-up failed: {exc}", file=sys.stderr)
        return 2
    worst = 0
    for name in NAMES:
        command = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        worst = max(worst, subprocess.run(command, check=False).returncode)
    return worst


if __name__ == "__main__":
    sys.exit(main())
