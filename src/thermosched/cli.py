"""Command-line surface over the library.

Commands: validate, simulate, opt, online, reduce, adversary,
experiment, render. File arguments accept '-' for standard input and
output paths accept '-' for standard output. Exit codes: 0 success,
1 domain error (invalid instance, violations, unproven optimum,
infeasible source, bound counterexample), 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from .adversary import RandomModel, ratio_experiment, run_lower_bound_game
from .gantt import SVG_FORMAT, TEXT_FORMAT, approx_decimal, render_gantt
from .model import simulate, validate_instance
from .policies import POLICIES, PolicyViolationError, run_online
from .reductions import (
    InvalidCertificateError,
    InvalidSourceError,
    NotFullThroughputError,
    gen_from_3partition,
    gen_from_n3dm,
)
from .serialization import (
    ParseError,
    format_rational,
    parse_instance,
    parse_n3dm_source,
    parse_schedule,
    parse_three_partition_source,
    serialize_instance,
    serialize_reduction_meta,
    serialize_report,
    serialize_run,
    serialize_schedule,
    serialize_trace,
    serialize_transcript,
)
from .solver import InstanceTooLargeError, solve_optimal

_DOMAIN_ERRORS = (
    PolicyViolationError,
    InvalidSourceError,
    InvalidCertificateError,
    NotFullThroughputError,
    InstanceTooLargeError,
)


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text()


def _write(path: Optional[str], text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _cmd_validate(args: argparse.Namespace) -> int:
    instance = parse_instance(_read(args.instance))
    issues = validate_instance(instance)
    for issue in issues:
        print(issue.message)
    if issues:
        return 1
    print(f"ok: {len(instance.jobs)} job(s), horizon {instance.horizon}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    instance = parse_instance(_read(args.instance))
    schedule = parse_schedule(_read(args.schedule))
    trace = simulate(instance, schedule)
    _write(args.out, serialize_trace(trace))
    return 1 if trace.violations else 0


def _cmd_opt(args: argparse.Namespace) -> int:
    instance = parse_instance(_read(args.instance))
    result = solve_optimal(instance, budget=args.budget)
    document = {
        "best_throughput": result.best_throughput,
        "proven_optimal": result.proven_optimal,
        "explored": result.explored,
        "witness": list(result.witness.slots),
    }
    _write(args.out, json.dumps(document, indent=2) + "\n")
    if args.witness_out:
        _write(args.witness_out, serialize_schedule(result.witness))
    return 0 if result.proven_optimal else 1


def _cmd_online(args: argparse.Namespace) -> int:
    instance = parse_instance(_read(args.instance))
    run = run_online(instance, POLICIES[args.policy])
    _write(args.out, serialize_run(run))
    return 0


def _cmd_reduce(args: argparse.Namespace) -> int:
    text = _read(args.source)
    if args.problem == "3part":
        instance, meta = gen_from_3partition(parse_three_partition_source(text))
    else:
        instance, meta = gen_from_n3dm(parse_n3dm_source(text))
    _write(args.out, serialize_instance(instance))
    meta_path = args.meta_out
    if meta_path is None and args.out not in (None, "-"):
        meta_path = args.out + ".meta"
    if meta_path is not None:
        _write(meta_path, serialize_reduction_meta(meta))
    return 0


def _cmd_adversary(args: argparse.Namespace) -> int:
    transcript = run_lower_bound_game(POLICIES[args.policy])
    _write(args.out, serialize_transcript(transcript))
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    model = RandomModel(
        n=args.n,
        release_span=args.release_span,
        max_window=args.max_window,
        seed=args.seed,
    )
    report = ratio_experiment(model, args.policy, args.count, budget=args.budget)
    if args.out:
        _write(args.out, serialize_report(report))
    width = max((len(name) for name in report.policies), default=6) + 2
    print(f"instances: {report.count}  skipped (OPT=0): {report.skipped_zero_opt}")
    print(f"{'policy'.ljust(width)}{'max ratio'.ljust(18)}{'mean ratio'.ljust(18)}bound")
    for pos, name in enumerate(report.policies):
        cells = []
        for value in (report.max_ratios[pos], report.mean_ratios[pos]):
            if value is None:
                cells.append("-".ljust(18))
            else:
                cells.append(f"{format_rational(value)} ({approx_decimal(value)})".ljust(18))
        bad = sum(1 for c in report.counterexamples if c.policy == name)
        verdict = "ok" if bad == 0 else f"{bad} counterexample(s)"
        print(f"{name.ljust(width)}{cells[0]}{cells[1]}{verdict}")
    return 1 if report.counterexamples else 0


def _cmd_render(args: argparse.Namespace) -> int:
    instance = parse_instance(_read(args.instance))
    schedule = parse_schedule(_read(args.schedule))
    _write(args.out, render_gantt(instance, schedule, args.format))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thermosched",
        description="Temperature-aware unit-job scheduling tools.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check instance invariants")
    p.add_argument("instance", help="instance file ('-' for stdin)")
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("simulate", help="simulate a schedule, print the trace")
    p.add_argument("instance")
    p.add_argument("schedule")
    p.add_argument("-o", "--out", default=None, help="trace output path")
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("opt", help="exact maximum-throughput schedule")
    p.add_argument("instance")
    p.add_argument("--budget", type=int, default=None, help="search node cap")
    p.add_argument("-o", "--out", default=None, help="result output path")
    p.add_argument("--witness-out", default=None, help="write the witness schedule here")
    p.set_defaults(handler=_cmd_opt)

    p = sub.add_parser("online", help="run an online policy")
    p.add_argument("instance")
    p.add_argument("--policy", choices=sorted(POLICIES), required=True)
    p.add_argument("-o", "--out", default=None, help="run output path")
    p.set_defaults(handler=_cmd_online)

    p = sub.add_parser("reduce", help="build a scheduling instance from a source problem")
    p.add_argument("problem", choices=("3part", "n3dm"))
    p.add_argument("source", help="source file ('-' for stdin)")
    p.add_argument("-o", "--out", default=None, help="instance output path")
    p.add_argument(
        "-m",
        "--meta-out",
        default=None,
        help="meta sidecar path (defaults to OUT.meta when -o is a file)",
    )
    p.set_defaults(handler=_cmd_reduce)

    p = sub.add_parser("adversary", help="play the lower-bound game against a policy")
    p.add_argument("--policy", choices=sorted(POLICIES), required=True)
    p.add_argument("-o", "--out", default=None, help="transcript output path")
    p.set_defaults(handler=_cmd_adversary)

    p = sub.add_parser("experiment", help="online-vs-optimal ratio experiment")
    p.add_argument("--n", type=int, required=True, help="jobs per instance")
    p.add_argument("--count", type=int, required=True, help="number of instances")
    p.add_argument("--seed", type=int, default=0, help="base seed")
    p.add_argument(
        "--policy",
        action="append",
        choices=sorted(POLICIES),
        required=True,
        help="policy to evaluate (repeatable)",
    )
    p.add_argument("--release-span", type=int, default=4)
    p.add_argument("--max-window", type=int, default=4)
    p.add_argument("--budget", type=int, default=None, help="solver node cap per instance")
    p.add_argument("-o", "--out", default=None, help="report output path")
    p.set_defaults(handler=_cmd_experiment)

    p = sub.add_parser("render", help="draw a schedule as text or SVG")
    p.add_argument("instance")
    p.add_argument("schedule")
    p.add_argument("--format", choices=(TEXT_FORMAT, SVG_FORMAT), default=TEXT_FORMAT)
    p.add_argument("-o", "--out", default=None, help="document output path")
    p.set_defaults(handler=_cmd_render)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _DOMAIN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
