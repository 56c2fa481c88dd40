import dataclasses
import xml.etree.ElementTree as ET
from types import SimpleNamespace
from xml.sax.saxutils import escape

import numpy as np
import pytest
from hypothesis import given, strategies as st

from basscast import (
    DegeneratePlotError,
    ModelVariant,
    TimeSeries,
    compare_models,
    fit_quadratic,
    monthly_periods,
    profile,
    render_comparison_svg,
    svgplot,
)
from oracles import numpy_scalar_comparison_svg

SVG_NS = "{http://www.w3.org/2000/svg}"


def render(series):
    report = compare_models(series, fit_quadratic(series), profile(series))
    return render_comparison_svg(report)


def test_renders_three_polylines_with_full_point_count(mono_peak_series):
    svg = render(mono_peak_series)
    root = ET.fromstring(svg)
    polylines = root.findall(f".//{SVG_NS}polyline")
    assert len(polylines) == 3
    for line in polylines:
        assert len(line.get("points").split()) == len(mono_peak_series)


def test_contains_labels_and_caption(mono_peak_series):
    svg = render(mono_peak_series)
    assert "SSE classical" in svg
    assert "improvement" in svg
    assert mono_peak_series.periods[0] in svg
    assert mono_peak_series.periods[-1] in svg
    assert 'viewBox="0 0 960 540"' in svg


def test_deterministic_bytes(mono_peak_series):
    assert render(mono_peak_series) == render(mono_peak_series)


def test_single_point_is_degenerate():
    # No report can be computed for one point, so a stub holds the series alone.
    report_stub = SimpleNamespace(series=TimeSeries(["2020-01"], [5.0]))
    with pytest.raises(DegeneratePlotError) as err:
        render_comparison_svg(report_stub)
    assert "more data" in str(err.value)


def test_flat_series_has_zero_range_but_renders():
    series = TimeSeries(monthly_periods(6), [3.0] * 6)
    svg = render(series)
    ET.fromstring(svg)


def test_unit_is_escaped():
    series = TimeSeries(monthly_periods(6), [1, 5, 9, 4, 2, 1], unit="a<b>&c")
    root = ET.fromstring(render(series))
    texts = [t.text for t in root.findall(f".//{SVG_NS}text")]
    assert "a<b>&c" in texts


_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 0.0005, 0.0015]),
    st.integers(min_value=-10**6, max_value=10**6).map(float),
    st.floats(min_value=-1e300, max_value=1e300),
)


# shared passes the classical array again as modified_predicted, as one object, as
# compare_models does when classical wins.
@given(st.integers(min_value=2, max_value=30).flatmap(
    lambda n: st.lists(st.lists(_VALUES, min_size=n, max_size=n), min_size=3, max_size=3)),
    st.booleans())
def test_svg_bytes_match_numpy_scalar_formatting(curves, shared):
    actual, classical, modified = curves
    series = TimeSeries(monthly_periods(len(actual)), actual)
    small = TimeSeries(monthly_periods(6), [1, 5, 9, 4, 2, 1])
    classical = np.array(classical)
    report = compare_models(small, fit_quadratic(small), profile(small))
    # The report reads classical_predicted from classical's record and modified_predicted
    # from the result's predicted curve.
    records = {**report.result.candidates, ModelVariant.CLASSICAL: dataclasses.replace(
        report.result.candidates[ModelVariant.CLASSICAL], curve=classical)}
    result = dataclasses.replace(report.result, candidates=records,
                                 predicted=classical if shared else np.array(modified))
    report = dataclasses.replace(report, series=series, result=result)
    assert render_comparison_svg(report) == numpy_scalar_comparison_svg(series, report)


# The polylines format each y with "%.3f" %; format(y, ".3f") is the reference.
@given(st.floats())
def test_percent_format_matches_format_spec(value):
    assert "%.3f" % value == format(value, ".3f")


def xml_chars(text):
    """text with each code point outside XML 1.0's Char production replaced by U+FFFD."""
    return "".join(c if c in "\t\n\r" or " " <= c <= "\ud7ff" or "\ue000" <= c <= "\ufffd"
                   or c >= "\U00010000" else "\ufffd" for c in text)


@given(st.text(st.sampled_from("&<>\"';#a\x00\x0b\ud800\uffff") | st.characters()))
def test_escape_matches_sax_escape(text):
    assert svgplot._escape(text) == escape(xml_chars(text))


def test_characters_xml_forbids_are_drawn_as_replacement_characters():
    forbidden = "\x00\x08\x0b\x0c\x0e\x1f\ud800\udfff\ufffe\uffff"
    periods = [f"a{forbidden}", "b", "c", "d", "e", f"f{forbidden}"]
    series = TimeSeries(periods, [1, 5, 9, 4, 2, 1], unit=f"u{forbidden}<&")
    root = ET.fromstring(render(series))
    texts = [t.text for t in root.findall(f".//{SVG_NS}text")]
    shown = "\ufffd" * len(forbidden)
    for text in (f"a{shown}", f"f{shown}", f"u{shown}<&"):
        assert text in texts
