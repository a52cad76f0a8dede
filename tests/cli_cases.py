"""Every end-to-end check of the ``thermosched`` CLI, written once, as ``CASES``.

``tests/test_cli.py`` runs each case in-process. ``python tests/cli_cases.py`` (standard
library only) runs each through the installed ``thermosched`` script and through
``python -m thermosched.cli``, and exits 1 on any failure.
"""

import functools
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple, Optional, Union

GOLDEN = Path(__file__).resolve().parent / "golden"


class Case(NamedTuple):
    """A command line, split as a shell splits it, and what it must do.

    ``{golden}``, ``{data}`` and ``{tmp}`` in ``argv`` name ``tests/golden``, ``tests/data``
    and a fresh directory. ``files`` pairs names under ``{tmp}`` with expectations.
    An expectation is None (not checked), a golden file (a Path: its bytes), a str (the
    exact text) or a tuple (lines it holds, as ``grep -Fx`` finds them). ``then`` runs
    next, in the same directory.
    """

    name: str
    argv: str
    stdin: Union[str, bytes] = b""
    exit: int = 0
    stdout: object = None
    stderr: object = ""
    files: tuple = ()
    then: Optional["Case"] = None


def _mismatch(expect: object, data: Optional[bytes]) -> Optional[str]:
    """Why data (None for a file not written) fails expect, or None."""
    if expect is None or data is None:
        return None if expect is None else "is missing"
    if isinstance(expect, Path):
        return None if data == expect.read_bytes() else f"differs from golden/{expect.name}"
    text = data.decode(errors="backslashreplace")
    if isinstance(expect, str):
        return None if text == expect else f"is {text[:500]!r}, expected {expect!r}"
    missing = set(expect) - set(text.split("\n"))
    return f"lacks lines {sorted(missing)}" if missing else None


def check(case: Case, invoke) -> list:
    """The failures of a case and its ``then`` chain. ``invoke(argv, stdin)`` runs
    one command on stdin bytes and returns (exit code, stdout, stderr)."""
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        where = dict(golden=GOLDEN, data=GOLDEN.parent / "data", tmp=tmp)
        step: Optional[Case] = case
        while step is not None:
            argv = [arg.format(**where) for arg in shlex.split(step.argv)]
            stdin = step.stdin.encode() if isinstance(step.stdin, str) else step.stdin
            code, out, err = invoke(argv, stdin)
            if code != step.exit:
                failures.append(f"{step.name}: exit {code}, expected {step.exit}")
            outputs = [("stdout", step.stdout, out), ("stderr", step.stderr, err)]
            for name, expect in step.files:
                path = Path(tmp, name)
                outputs.append((name, expect, path.read_bytes() if path.is_file() else None))
            for what, expect, data in outputs:
                if reason := _mismatch(expect, data):
                    failures.append(f"{step.name}: {what} {reason}")
            step = step.then
    return failures


def run(prefix: list, argv: list, stdin: bytes) -> tuple:
    """Run ``prefix + argv`` as a process; with prefix bound, an invoker for ``check``."""
    done = subprocess.run([*prefix, *argv], input=stdin, capture_output=True)
    return done.returncode, done.stdout, done.stderr


def _instance(*jobs: str) -> str:
    return '{"threshold": "1/1", "cooling_factor": "2/1", "jobs": [%s]}\n' % ", ".join(jobs)


JOB = '{"id": 1, "release": 0, "deadline": 2, "heat": "1/2"}'
DUPLICATE = _instance(JOB, JOB)
REPORT = "experiment --n 2 --count 2 --seed 4 --policy coolest --policy idle"
SUMMARY = """instances: 2  skipped (OPT=0): 0
policy   max ratio    mean ratio   bound
coolest  2/1 (2.000)  3/2 (1.500)  ok
idle     -            -            2 counterexample(s)
"""
# int() would read each of these as an integer; the source files' rule does not.
NOT_ASCII = [("--n", "٢"), ("--count", "1_0"), ("--seed", " 3"), ("--release-span", "4\xa0"),
             ("--max-window", "٤"), ("--budget", "1_000")]


def _three_partition(name: str, source: str, best: int) -> Case:
    """Reduce a 3-Partition source to a file, with its sidecar next to it; solve that file."""
    opt = Case(f"{name}-opt", "opt {tmp}/gen.json", stdout=(f'  "best_throughput": {best},',))
    return Case(name, "reduce 3part - -o {tmp}/gen.json", source, stdout="", then=opt,
                files=(("gen.json.meta", ('  "kind": "3partition",',)),))


CASES = (
    Case("online", "online {golden}/instance.json --policy coolest",
         stdout=GOLDEN / "run_notrace.json"),
    Case("online-trace", "online {golden}/instance.json --policy coolest --trace",
         stdout=GOLDEN / "run.json"),
    Case("online-edf-trace", "online {golden}/instance.json --policy edf --trace",
         stdout=GOLDEN / "run_edf.json"),
    # T = 5/3, R = 3/2: an online run away from the default T = 1, R = 2.
    Case("online-tight-cut", "online {data}/tight_cut.json --policy coolest --trace",
         stdout=GOLDEN / "run_tight_cut.json"),
    # 64 jobs over 72 slots: most slots see an arrival, an expiry or both.
    Case("online-stream", "online {data}/stream.json --policy edf --trace",
         stdout=GOLDEN / "run_stream.json"),
    # Each job's keys in reverse order: the same run, byte for byte.
    Case("online-reversed-keys", "online - --policy coolest", _instance(
        '{"heat": "2/5", "deadline": 2, "release": 0, "id": 1}',
        '{"heat": "3/5", "deadline": 4, "release": 0, "id": 2}',
        '{"heat": "19/10", "deadline": 3, "release": 2, "id": 3}',
        '{"heat": "4/5", "deadline": 6, "release": 4, "id": 4}',
    ), stdout=GOLDEN / "run_notrace.json"),
    # Two jobs 15,000 slots apart: later temperatures have more digits than
    # Python converts between int and str by default (4,300).
    Case("online-long-gap", "online {data}/long_gap.json --policy coolest --trace",
         stdout=('    "throughput": 2,',)),
    Case("simulate-long-gap", "simulate {data}/long_gap.json -", "[1]\n",
         stdout=('  "throughput": 1,',)),
    Case("online-invalid", "online - --policy coolest", DUPLICATE, exit=1, stdout="",
         stderr="error: job 1: duplicate id\n"),
    Case("opt-invalid", "opt -", DUPLICATE, exit=1, stdout="",
         stderr="error: job 1: duplicate id\n"),
    Case("opt", "opt {golden}/instance.json --witness-out {tmp}/witness.json",
         stdout=GOLDEN / "opt.json", files=(("witness.json", GOLDEN / "schedule.json"),)),
    # Seven jobs due at slot 4 compete for its four slots: the capacity cap proves OPT = 7.
    Case("opt-crowded", "opt {data}/crowded.json", stdout=GOLDEN / "opt_crowded.json"),
    # T = 5/3, R = 3/2: job 2 fits only after exactly two idle slots and lands on T.
    Case("opt-tight-cut", "opt {data}/tight_cut.json", stdout=('  "best_throughput": 3,',)),
    # T = 5/3, R = 7/3: jobs of equal heat with different windows run in deadline order.
    Case("opt-equal-heats", "opt {data}/equal_heats.json", stdout=('  "best_throughput": 4,',)),
    # One node of budget leaves the optimum unproven: exit 1, and the pop that
    # finds the cap is counted, so "explored" is the budget + 1.
    Case("opt-budget", "opt {golden}/instance.json --budget 1", exit=1,
         stdout=('  "proven_optimal": false,', '  "explored": 2,')),
    Case("validate", "validate {golden}/instance.json", stdout="ok: 4 job(s), horizon 6\n"),
    Case("validate-issues", "validate -",
         _instance(JOB, '{"id": 1, "release": 3, "deadline": 3, "heat": "1/2"}'), exit=1,
         stdout="job 1: duplicate id\njob 1: execution window is empty (release=3, deadline=3)\n"),
    # A repeated key is a parse error, not a silent overwrite.
    Case("validate-repeated-key", "validate -",
         '{"threshold": "1/1", "cooling_factor": "2/1", "jobs": [], "jobs": []}\n', exit=2,
         stdout="", stderr="error: instance: repeated key 'jobs'\n"),
    Case("validate-repeated-job-key", "validate -",
         _instance(JOB, '{"id": 2, "release": 0, "deadline": 2, "heat": "9/1", "heat": "1/2"}'),
         exit=2, stdout="", stderr="error: instance.jobs[1]: repeated key 'heat'\n"),
    # Stdin is strict UTF-8 in every locale, as files are.
    Case("validate-stdin-not-utf8", "validate -", b"\xe9\n", exit=2, stdout="",
         stderr="error: -: not UTF-8 text (invalid continuation byte at byte 0)\n"),
    # Job 3 at slot 2 heats past T, so simulate reports the violation with exit 1.
    Case("simulate-violation", "simulate {golden}/instance.json -", "[1, 2, 3, null, 4, null]\n",
         exit=1, stdout=GOLDEN / "trace.json"),
    # The text Gantt chart of the optimal witness: the README's example row.
    Case("render", "render {golden}/instance.json -", "[1, null, 3, 2, 4, null]\n",
         stdout=("job  1      .       3       2      4       .",)),
    Case("adversary-idle", "adversary --policy idle", stdout=GOLDEN / "transcript.json"),
    # The idle policy's counterexamples make the experiment exit 1. With the
    # report on stdout, the summary goes to stderr so stdout stays JSON.
    Case("experiment", REPORT + " -o {tmp}/report.json", exit=1, stdout=SUMMARY,
         files=(("report.json", GOLDEN / "report.json"),)),
    Case("experiment-stdout", REPORT + " -o -", exit=1, stdout=GOLDEN / "report.json",
         stderr=SUMMARY),
    # 32 exact optima on the benchmark's ratio_random model.
    Case("experiment-n16", "experiment --n 16 --count 32 --seed 7919 --release-span 16 "
         "--max-window 10 --policy coolest --policy edf -o {tmp}/r.json",
         files=(("r.json", GOLDEN / "report_n16.json"),)),
    *(Case(f"experiment-ascii{option}",
           f"experiment --n 3 --count 2 --policy coolest {option} {shlex.quote(value)}",
           exit=2, stdout="", stderr=(f"thermosched experiment: error: argument {option}: "
                                      f"value: {value!r} is not an integer",))
      for option, value in NOT_ASCII),
    Case("reduce-n3dm", "reduce n3dm - -m {tmp}/meta.json", "12\n0 8\n8 0\n4 4\n",
         files=(("meta.json", GOLDEN / "meta.json"),)),
    # 1 lies outside the window (9/4, 9/2), so the source is refused with exit 1.
    Case("reduce-3part-infeasible", "reduce 3part -", "1 1 7\n", exit=1, stdout="",
         stderr="error: value #0 = 1 is outside the open window (beta/4, beta/2) = (9/4, 9/2)\n"),
    # A 3-Partition yes-instance schedules all 8 jobs, the no-instance only 7.
    _three_partition("reduce-3part-yes", "3 3 3 3 3 3\n", 8),
    _three_partition("reduce-3part-no", "4 4 4 4 4 6\n", 7),
)

if __name__ == "__main__":
    routes = [["thermosched"], [sys.executable, "-m", "thermosched.cli"]]
    failures = [f"{' '.join(prefix)}: {failure}" for prefix in routes
                for case in CASES for failure in check(case, functools.partial(run, prefix))]
    print(*failures, f"{len(CASES)} cases, 2 routes: {len(failures)} failure(s)", sep="\n")
    sys.exit(1 if failures else 0)
