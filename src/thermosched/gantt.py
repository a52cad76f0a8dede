"""Schedule visualization: slot-aligned text charts and SVG documents.

Both renderers show one lane of slots (job id or '.' for idle), the
exact boundary temperatures as lowest-terms fractions plus rounded
4-significant-digit decimals, and the thermal threshold. Slots whose
execution violated a rule are marked with '!'. Rendering is a pure
function of (instance, schedule): equal inputs give byte-identical
documents.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal, localcontext
from fractions import Fraction

from .model import Instance, Schedule, Violation, simulate
from .serialization import format_rational

IDLE_MARK = "."
VIOLATION_MARK = "!"

TEXT_FORMAT = "text"
SVG_FORMAT = "svg"


@dataclass(frozen=True)
class GanttRendering:
    """Layout-independent chart data extracted from one simulation.

    slot_labels hold the per-slot job id (or idle/violation marks);
    temperatures and their two string forms annotate the horizon + 1
    slot boundaries exactly as simulated.
    """

    slot_labels: tuple[str, ...]
    temperatures: tuple[Fraction, ...]
    temp_fractions: tuple[str, ...]
    temp_decimals: tuple[str, ...]
    threshold_label: str
    cooling_label: str
    violations: tuple[Violation, ...]


def approx_decimal(value: Fraction) -> str:
    """4-significant-digit '#.4g' form, rounded from the exact value (no float overflow)."""
    with localcontext(Context(prec=4, Emax=MAX_EMAX, Emin=MIN_EMIN)):
        rounded = Decimal(value.numerator) / value.denominator
    exponent = rounded.adjusted()
    if -4 <= exponent < 4:
        return f"{rounded:.{3 - exponent}f}" + ("." if exponent == 3 else "")
    return f"{rounded.scaleb(-exponent):.3f}e{exponent:+03d}"


def build_rendering(instance: Instance, schedule: Schedule) -> GanttRendering:
    trace = simulate(instance, schedule)
    horizon = len(trace.temperatures) - 1
    violating = {v.time for v in trace.violations}
    labels = []
    for time in range(horizon):
        entry = schedule[time] if time < len(schedule) else None
        label = IDLE_MARK if entry is None else str(entry)
        if time in violating:
            label += VIOLATION_MARK
        labels.append(label)
    return GanttRendering(
        slot_labels=tuple(labels),
        temperatures=trace.temperatures,
        temp_fractions=tuple(format_rational(t) for t in trace.temperatures),
        temp_decimals=tuple(approx_decimal(t) for t in trace.temperatures),
        threshold_label=format_rational(instance.config.threshold),
        cooling_label=format_rational(instance.config.cooling_factor),
        violations=trace.violations,
    )


def render_text(instance: Instance, schedule: Schedule) -> str:
    rendering = build_rendering(instance, schedule)
    horizon = len(rendering.slot_labels)
    widths = []
    for i in range(horizon + 1):
        cells = [rendering.temp_fractions[i], rendering.temp_decimals[i]]
        if i < horizon:
            cells += [str(i), rendering.slot_labels[i]]
        widths.append(max(len(c) for c in cells) + 2)

    def row(name: str, cells: list[str]) -> str:
        text = f"{name:<5}"
        for width, cell in zip(widths, cells):
            text += cell.ljust(width)
        return text.rstrip()

    lines = [
        f"T = {rendering.threshold_label}, R = {rendering.cooling_label}"
        f"  ('{IDLE_MARK}' idle, '{VIOLATION_MARK}' violation)",
        row("slot", [str(i) for i in range(horizon)]),
        row("job", list(rendering.slot_labels)),
        row("tau", list(rendering.temp_fractions)),
        row("~", list(rendering.temp_decimals)),
    ]
    if rendering.violations:
        lines.append("violations:")
        for v in rendering.violations:
            lines.append(f"  t={v.time} {v.kind} job={v.job}")
    return "\n".join(lines) + "\n"


_SLOT_W = 72
_LANE_Y = 52
_LANE_H = 34


def render_svg(instance: Instance, schedule: Schedule) -> str:
    rendering = build_rendering(instance, schedule)
    horizon = len(rendering.slot_labels)
    margin = 28
    width = margin * 2 + _SLOT_W * max(horizon, 1)
    height = 130
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}"'
        f' viewBox="0 0 {width} {height}" font-family="monospace" font-size="12">',
        f'<text x="{margin}" y="18">T = {rendering.threshold_label},'
        f" R = {rendering.cooling_label}</text>",
    ]
    violating = {v.time for v in rendering.violations}
    for time in range(horizon):
        x = margin + time * _SLOT_W
        label = rendering.slot_labels[time]
        if time in violating:
            fill = "#e9a3a3"
        elif label == IDLE_MARK:
            fill = "#eeeeee"
        else:
            fill = "#a8c7e8"
        parts.append(
            f'<rect x="{x}" y="{_LANE_Y}" width="{_SLOT_W}" height="{_LANE_H}"'
            f' fill="{fill}" stroke="#333333"/>'
        )
        parts.append(
            f'<text x="{x + _SLOT_W // 2}" y="{_LANE_Y + 22}" text-anchor="middle">'
            f"{label}</text>"
        )
        parts.append(
            f'<text x="{x + _SLOT_W // 2}" y="{_LANE_Y + _LANE_H + 16}"'
            f' text-anchor="middle" fill="#555555">{time}</text>'
        )
    for i in range(horizon + 1):
        x = margin + i * _SLOT_W
        parts.append(
            f'<line x1="{x}" y1="{_LANE_Y - 12}" x2="{x}" y2="{_LANE_Y}" stroke="#333333"/>'
        )
        parts.append(
            f'<text x="{x}" y="{_LANE_Y - 16}" text-anchor="middle">'
            f"{rendering.temp_fractions[i]}</text>"
        )
        parts.append(
            f'<text x="{x}" y="{_LANE_Y + _LANE_H + 34}" text-anchor="middle"'
            f' fill="#555555" font-size="10">{rendering.temp_decimals[i]}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render_gantt(instance: Instance, schedule: Schedule, fmt: str = TEXT_FORMAT) -> str:
    """Render a schedule chart in the requested format ('text' or 'svg')."""
    if fmt == TEXT_FORMAT:
        return render_text(instance, schedule)
    if fmt == SVG_FORMAT:
        return render_svg(instance, schedule)
    raise ValueError(f"unknown render format {fmt!r}")
