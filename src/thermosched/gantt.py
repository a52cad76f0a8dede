"""Schedule visualization: slot-aligned text charts and SVG documents.

Both renderers show one lane of slots (job id or '.' for idle), the
exact boundary temperatures as lowest-terms fractions plus rounded
4-significant-digit decimals, and the thermal threshold. Slots whose
execution violated a rule are marked with '!'. Rendering is a pure
function of (instance, schedule): equal inputs give byte-identical
documents.
"""

from __future__ import annotations

from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal
from fractions import Fraction

from .model import Instance, Schedule, simulate
from .serialization import format_rational

IDLE_MARK = "."
VIOLATION_MARK = "!"

TEXT_FORMAT = "text"
SVG_FORMAT = "svg"


# Four significant digits at any exponent, rounded half to even.
_FOUR_DIGITS = Context(prec=4, Emax=MAX_EMAX, Emin=MIN_EMIN)


def approx_decimal(value: Fraction) -> str:
    """4-significant-digit '#.4g' form, rounded from the exact value (no float overflow)."""
    rounded = _FOUR_DIGITS.divide(Decimal(value.numerator), value.denominator)
    exponent = rounded.adjusted()
    if -4 <= exponent < 4:
        return f"{rounded:.{3 - exponent}f}" + ("." if exponent == 3 else "")
    return f"{rounded.scaleb(-exponent):.3f}e{exponent:+03d}"


def _chart(instance: Instance, schedule: Schedule) -> tuple:
    """Header, slot labels, boundary temperatures as fractions and as
    decimals, and the violations of one simulation."""
    trace = simulate(instance, schedule)
    violating = {v.time for v in trace.violations}
    labels = []
    for time in range(len(trace.temperatures) - 1):
        entry = schedule[time] if time < len(schedule) else None
        label = IDLE_MARK if entry is None else str(entry)
        labels.append(label + VIOLATION_MARK if time in violating else label)
    cfg = instance.config
    header = f"T = {format_rational(cfg.threshold)}, R = {format_rational(cfg.cooling_factor)}"
    fractions = [format_rational(t) for t in trace.temperatures]
    decimals = [approx_decimal(t) for t in trace.temperatures]
    return header, labels, fractions, decimals, trace.violations


def render_text(instance: Instance, schedule: Schedule) -> str:
    header, labels, fractions, decimals, violations = _chart(instance, schedule)
    horizon = len(labels)
    widths = []
    for i in range(horizon + 1):
        cells = [fractions[i], decimals[i]]
        if i < horizon:
            cells += [str(i), labels[i]]
        widths.append(max(len(c) for c in cells) + 2)

    def row(name: str, cells: list[str]) -> str:
        text = f"{name:<5}"
        for width, cell in zip(widths, cells):
            text += cell.ljust(width)
        return text.rstrip()

    lines = [
        f"{header}  ('{IDLE_MARK}' idle, '{VIOLATION_MARK}' violation)",
        row("slot", [str(i) for i in range(horizon)]),
        row("job", labels),
        row("tau", fractions),
        row("~", decimals),
    ]
    if violations:
        lines.append("violations:")
        for v in violations:
            lines.append(f"  t={v.time} {v.kind} job={v.job}")
    return "\n".join(lines) + "\n"


_SLOT_W = 72
_LANE_Y = 52
_LANE_H = 34


def render_svg(instance: Instance, schedule: Schedule) -> str:
    header, labels, fractions, decimals, _ = _chart(instance, schedule)
    horizon = len(labels)
    margin = 28
    width = margin * 2 + _SLOT_W * max(horizon, 1)
    height = 130
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}"'
        f' viewBox="0 0 {width} {height}" font-family="monospace" font-size="12">',
        f'<text x="{margin}" y="18">{header}</text>',
    ]
    for time, label in enumerate(labels):
        x = margin + time * _SLOT_W
        if label.endswith(VIOLATION_MARK):
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
            f"{fractions[i]}</text>"
        )
        parts.append(
            f'<text x="{x}" y="{_LANE_Y + _LANE_H + 34}" text-anchor="middle"'
            f' fill="#555555" font-size="10">{decimals[i]}</text>'
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
