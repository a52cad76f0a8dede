"""The README's examples run as shown.

The quick start runs with stdout captured, and each print must write the
value its ``# ...`` comment states. The text chart under CLI must be the
one render_gantt draws for the worked example's optimal witness.
"""

import contextlib
import io
import re
from pathlib import Path

from thermosched import Schedule, render_gantt

README = (Path(__file__).parent.parent / "README.md").read_text()


def _fenced_blocks(text: str) -> list[tuple[str, str]]:
    """(info string, body) of each fenced block in text, in order."""
    blocks, info, body = [], None, []
    for line in text.splitlines(keepends=True):
        if not line.startswith("```"):
            if info is not None:
                body.append(line)
        elif info is None:
            info, body = line[3:].strip(), []
        else:
            blocks.append((info, "".join(body)))
            info = None
    return blocks


def _section(title: str) -> str:
    return README.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_quick_start_prints_what_its_comments_say():
    blocks = _fenced_blocks(_section("Library quick start"))
    (code,) = [body for info, body in blocks if info == "python"]
    expected = re.findall(r"^print\(.*\)\s*# (.*)$", code, re.M)
    assert expected == ["4", "(1, None, 3, 2, 4, None)", "3"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code, {})
    assert out.getvalue().splitlines() == expected


def test_text_chart_is_the_rendered_optimal_witness(four_job_example):
    (chart,) = [body for _, body in _fenced_blocks(README) if body.startswith("T = 1/1, R = 2/1")]
    assert chart == render_gantt(four_job_example, Schedule((1, None, 3, 2, 4, None)))
