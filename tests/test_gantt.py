"""Text and SVG schedule charts."""

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
    build_rendering,
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


class TestBuildRendering:
    def test_worked_example(self, four_job_example):
        rendering = build_rendering(four_job_example, OPTIMAL)
        assert rendering.slot_labels == ("1", ".", "3", "2", "4", ".")
        assert rendering.temp_fractions == (
            "0/1", "1/5", "1/10", "1/1", "4/5", "4/5", "2/5",
        )
        assert rendering.temp_decimals == (
            "0.000", "0.2000", "0.1000", "1.000", "0.8000", "0.8000", "0.4000",
        )
        assert rendering.threshold_label == "1/1"
        assert rendering.cooling_label == "2/1"
        assert rendering.violations == ()

    def test_violating_slot_is_marked(self, four_job_example):
        rendering = build_rendering(four_job_example, VIOLATING)
        assert rendering.slot_labels[2] == "3" + VIOLATION_MARK
        assert len(rendering.violations) == 1

    def test_short_schedule_padded_with_idles(self, four_job_example):
        rendering = build_rendering(four_job_example, Schedule((1,)))
        assert rendering.slot_labels == ("1", ".", ".", ".", ".", ".")

    def test_temperatures_match_simulation(self, four_job_example):
        rendering = build_rendering(four_job_example, OPTIMAL)
        assert rendering.temperatures == simulate(four_job_example, OPTIMAL).temperatures


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
    rendering = build_rendering(instance, schedule)
    trace = simulate(instance, schedule)
    assert rendering.temperatures == trace.temperatures
    assert len(rendering.slot_labels) == len(trace.temperatures) - 1
    marked = sum(1 for label in rendering.slot_labels if label.endswith(VIOLATION_MARK))
    assert marked == len({v.time for v in trace.violations})
    text = render_text(instance, schedule)
    svg = render_svg(instance, schedule)
    assert text == render_text(instance, schedule)
    assert svg.count("<rect ") == len(rendering.slot_labels)
