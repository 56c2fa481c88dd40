import xml.etree.ElementTree as ET
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from basscast import (
    DegeneratePlotError,
    TimeSeries,
    compare_models,
    fit_quadratic,
    monthly_periods,
    profile,
    render_comparison_svg,
    forecast,
    ForecastConfig,
    ModelVariant,
    svgplot,
)
from oracles import numpy_scalar_polyline

SVG_NS = "{http://www.w3.org/2000/svg}"


def render(series):
    coeffs = fit_quadratic(series)
    tail = profile(series)
    report = compare_models(series, coeffs, tail)
    classical = forecast(series, coeffs, tail, ForecastConfig(variant=ModelVariant.CLASSICAL))
    modified = forecast(series, coeffs, tail, ForecastConfig())
    return render_comparison_svg(series, classical.predicted, modified.predicted, report)


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
    series = TimeSeries(["2020-01"], [5.0])
    report_stub = None
    with pytest.raises(DegeneratePlotError) as err:
        render_comparison_svg(series, [5.0], [5.0], report_stub)
    assert "more data" in str(err.value)


def test_flat_series_has_zero_range_but_renders():
    series = TimeSeries(monthly_periods(6), [3.0] * 6)
    coeffs = fit_quadratic(series)
    tail = profile(series)
    report = compare_models(series, coeffs, tail)
    classical = forecast(series, coeffs, tail, ForecastConfig(variant=ModelVariant.CLASSICAL))
    svg = render_comparison_svg(series, classical.predicted, classical.predicted, report)
    ET.fromstring(svg)


def test_unit_is_escaped():
    series = TimeSeries(monthly_periods(6), [1, 5, 9, 4, 2, 1], unit="a<b>&c")
    coeffs = fit_quadratic(series)
    tail = profile(series)
    report = compare_models(series, coeffs, tail)
    classical = forecast(series, coeffs, tail, ForecastConfig(variant=ModelVariant.CLASSICAL))
    svg = render_comparison_svg(series, classical.predicted, classical.predicted, report)
    root = ET.fromstring(svg)
    texts = [t.text for t in root.findall(f".//{SVG_NS}text")]
    assert "a<b>&c" in texts


_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 0.0005, 0.0015]),
    st.integers(min_value=-10**6, max_value=10**6).map(float),
    st.floats(min_value=-1e300, max_value=1e300),
)


@given(st.integers(min_value=2, max_value=30).flatmap(
    lambda n: st.lists(st.lists(_VALUES, min_size=n, max_size=n), min_size=3, max_size=3)))
def test_svg_bytes_match_numpy_scalar_formatting(curves):
    actual, classical, modified = curves
    series = TimeSeries(monthly_periods(len(actual)), actual)
    small = TimeSeries(monthly_periods(6), [1, 5, 9, 4, 2, 1])
    report = compare_models(small, fit_quadratic(small), profile(small))
    svg = render_comparison_svg(series, classical, modified, report)
    with mock.patch.object(svgplot, "_polyline", numpy_scalar_polyline):
        assert svg == render_comparison_svg(series, classical, modified, report)
    xs, ys = np.array(classical), np.array(modified)
    assert svgplot._polyline(xs, ys, "red", None, "c") == numpy_scalar_polyline(
        xs, ys, "red", None, "c")
