"""Text and SVG schedule charts."""

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings

from strategies import instance_with_arbitrary_schedule
from thermosched import (
    Instance,
    MatchingCertificate,
    N3DMInstance,
    Schedule,
    canonical_schedule_n3dm,
    format_rational,
    gen_from_n3dm,
    render_gantt,
    simulate,
)
from thermosched.gantt import (
    IDLE_MARK,
    SVG_FORMAT,
    TEXT_FORMAT,
    VIOLATION_MARK,
    approx_decimal,
    render_svg,
    render_text,
)

OPTIMAL = Schedule((1, None, 3, 2, 4, None))
VIOLATING = Schedule((1, 2, 3, None, 4, None))


class TestApproxDecimal:
    def test_four_significant_digits(self):
        assert approx_decimal(Fraction(0)) == "0.000"
        assert approx_decimal(Fraction(1, 5)) == "0.2000"
        assert approx_decimal(Fraction(1)) == "1.000"
        assert approx_decimal(Fraction(19, 20)) == "0.9500"
        assert approx_decimal(Fraction(2, 3)) == "0.6667"

    @pytest.mark.parametrize(
        "value, text",
        [
            (Fraction(8546), "8546."),
            (Fraction(12345), "1.234e+04"),
            (Fraction(-1, 10**5), "-1.000e-05"),
            (Fraction(10**400), "1.000e+400"),
            (Fraction(1, 3 * 10**400), "3.333e-401"),
        ],
    )
    def test_any_magnitude(self, value, text):
        assert approx_decimal(value) == text

    @pytest.mark.parametrize(
        "value, text",
        [
            (Fraction(12345, 10**9), "1.234e-05"),
            (Fraction(49997, 5 * 10**8), "9.999e-05"),
            (Fraction(1, 10**4), "0.0001000"),
            (Fraction(99995, 10**9), "0.0001000"),
            (Fraction(1234), "1234."),
            (Fraction(9999), "9999."),
            (Fraction(19999, 2), "1.000e+04"),
            (Fraction(10**4), "1.000e+04"),
            (Fraction(99995, 10000), "10.00"),
            (Fraction(99985, 10000), "9.998"),
            (Fraction(-99995, 10000), "-10.00"),
            (Fraction(-19999, 2), "-1.000e+04"),
        ],
    )
    def test_exponent_edges_and_rounding_carry(self, value, text):
        """Exponents -5, -4, 3 and 4 on each side of the fixed-point range,
        and halves rounded to even that carry into the next exponent."""
        assert approx_decimal(value) == text


def _rows(instance, schedule):
    """The job, tau and ~ rows of the text chart, without their row names."""
    lines = render_text(instance, schedule).splitlines()
    return [line.split()[1:] for line in lines[2:5]]


class TestBuildRendering:
    """What both renderers draw: labels, exact and rounded temperatures,
    the thermal config and violation marks."""

    def test_worked_example(self, four_job_example):
        fractions = ["0/1", "1/5", "1/10", "1/1", "4/5", "4/5", "2/5"]
        decimals = ["0.000", "0.2000", "0.1000", "1.000", "0.8000", "0.8000", "0.4000"]
        labels = ["1", ".", "3", "2", "4", "."]
        assert _rows(four_job_example, OPTIMAL) == [labels, fractions, decimals]
        text = render_text(four_job_example, OPTIMAL)
        assert text.startswith("T = 1/1, R = 2/1  ")
        assert "violations" not in text
        svg = render_svg(four_job_example, OPTIMAL)
        assert '<text x="28" y="18">T = 1/1, R = 2/1</text>' in svg
        # After the header: a label and an index per slot, then a fraction
        # and a decimal per boundary.
        drawn = re.findall(r">([^<]*)</text>", svg)[1:]
        assert drawn[:12] == [cell for i, label in enumerate(labels) for cell in (label, str(i))]
        assert drawn[12:] == [cell for pair in zip(fractions, decimals) for cell in pair]
        assert VIOLATION_MARK not in svg

    def test_violating_slot_is_marked(self, four_job_example):
        labels = _rows(four_job_example, VIOLATING)[0]
        assert labels[2] == "3" + VIOLATION_MARK
        assert [label for label in labels if label.endswith(VIOLATION_MARK)] == [labels[2]]
        text = render_text(four_job_example, VIOLATING)
        assert text.split("violations:\n")[1] == "  t=2 thermal job=3\n"
        svg = render_svg(four_job_example, VIOLATING)
        assert svg.count('fill="#e9a3a3"') == 1
        assert f">3{VIOLATION_MARK}</text>" in svg

    def test_short_schedule_padded_with_idles(self, four_job_example):
        assert _rows(four_job_example, Schedule((1,)))[0] == ["1", ".", ".", ".", ".", "."]
        svg = render_svg(four_job_example, Schedule((1,)))
        assert svg.count("<rect ") == 6
        assert svg.count('fill="#eeeeee"') == 5

    def test_temperatures_match_simulation(self, four_job_example):
        temperatures = simulate(four_job_example, OPTIMAL).temperatures
        assert _rows(four_job_example, OPTIMAL)[1] == [format_rational(t) for t in temperatures]
        assert _rows(four_job_example, OPTIMAL)[2] == [approx_decimal(t) for t in temperatures]


class TestRenderText:
    def test_header_and_rows(self, four_job_example):
        text = render_text(four_job_example, OPTIMAL)
        lines = text.splitlines()
        assert lines[0] == "T = 1/1, R = 2/1  ('.' idle, '!' violation)"
        assert lines[1].startswith("slot 0")
        assert lines[2].startswith("job  1")
        assert lines[3].startswith("tau  0/1")
        assert lines[4].startswith("~    0.000")
        assert "violations" not in text

    def test_all_fractions_present_in_order(self, four_job_example):
        tau_line = render_text(four_job_example, OPTIMAL).splitlines()[3]
        assert tau_line.split() == ["tau", "0/1", "1/5", "1/10", "1/1", "4/5", "4/5", "2/5"]

    def test_violation_section(self, four_job_example):
        text = render_text(four_job_example, VIOLATING)
        assert "3" + VIOLATION_MARK in text
        assert "violations:" in text
        assert "  t=2 thermal job=3" in text

    def test_idle_schedule(self, four_job_example):
        text = render_text(four_job_example, Schedule(()))
        job_line = text.splitlines()[2]
        assert job_line.split() == ["job"] + [IDLE_MARK] * 6

    def test_empty_instance(self):
        text = render_text(Instance(jobs=()), Schedule(()))
        assert text.splitlines()[3].split() == ["tau", "0/1"]

    def test_matching_block_chart(self):
        src = N3DMInstance(a=(0, 8), b=(8, 0), c=(4, 4), beta=12)
        instance, meta = gen_from_n3dm(src)
        cert = MatchingCertificate(((0, 0, 0), (1, 1, 1)))
        schedule = canonical_schedule_n3dm(src, meta, cert)
        lines = render_text(instance, schedule).splitlines()
        assert lines[2].split() == ["job", "7", "1", "3", "5", "8", "2", "4", "6", "9"]
        tau = lines[3].split()
        assert tau[1 + 4] == "1/4"
        assert tau[1 + 5] == "1/1"
        assert tau[1 + 9] == "1/1"


class TestRenderSvg:
    def test_deterministic(self, four_job_example):
        assert render_svg(four_job_example, OPTIMAL) == render_svg(
            four_job_example, OPTIMAL
        )

    def test_document_shape(self, four_job_example):
        svg = render_svg(four_job_example, OPTIMAL)
        assert svg.startswith("<svg ")
        assert svg.endswith("</svg>\n")
        assert svg.count("<rect ") == 6
        assert 'fill="#eeeeee"' in svg
        assert 'fill="#a8c7e8"' in svg
        assert 'fill="#e9a3a3"' not in svg
        assert ">1/10</text>" in svg
        assert ">0.1000</text>" in svg

    def test_violation_fill(self, four_job_example):
        svg = render_svg(four_job_example, VIOLATING)
        assert 'fill="#e9a3a3"' in svg
        assert f">3{VIOLATION_MARK}</text>" in svg


class TestRenderGantt:
    def test_dispatch(self, four_job_example):
        assert render_gantt(four_job_example, OPTIMAL, TEXT_FORMAT) == render_text(
            four_job_example, OPTIMAL
        )
        assert render_gantt(four_job_example, OPTIMAL, SVG_FORMAT) == render_svg(
            four_job_example, OPTIMAL
        )

    def test_text_is_the_default(self, four_job_example):
        assert render_gantt(four_job_example, OPTIMAL) == render_text(
            four_job_example, OPTIMAL
        )

    def test_unknown_format(self, four_job_example):
        with pytest.raises(ValueError, match="unknown render format"):
            render_gantt(four_job_example, OPTIMAL, "png")


@settings(max_examples=100, deadline=None)
@given(instance_with_arbitrary_schedule(max_jobs=4))
def test_rendering_total_and_consistent(pair):
    """Both renderers accept any schedule, even invalid ones, and agree
    with the simulation they visualize."""
    instance, schedule = pair
    trace = simulate(instance, schedule)
    labels, fractions, decimals = _rows(instance, schedule)
    assert fractions == [format_rational(t) for t in trace.temperatures]
    assert decimals == [approx_decimal(t) for t in trace.temperatures]
    assert len(labels) == len(trace.temperatures) - 1
    marked = sum(1 for label in labels if label.endswith(VIOLATION_MARK))
    assert marked == len({v.time for v in trace.violations})
    text = render_text(instance, schedule)
    svg = render_svg(instance, schedule)
    assert text == render_text(instance, schedule)
    assert svg.count("<rect ") == len(labels)
    assert svg.count('fill="#e9a3a3"') == marked
