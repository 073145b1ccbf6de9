"""SVG line plot rendering tests (string inspection, no rasterizer)."""

from __future__ import annotations

import numpy as np
import pytest

from resokit.svgplot import Series, line_plot, stem_series


def simple_series(label="g"):
    x = np.linspace(1.0, 2.0, 16)
    return Series(label=label, x=x, y=np.sin(x))


def test_root_element_and_size():
    svg = line_plot([simple_series()], xlabel="f [Hz]", ylabel="|Y| [S]")
    assert svg.startswith('<svg xmlns="http://www.w3.org/2000/svg" '
                          'width="720" height="440" viewBox="0 0 720 440"')
    assert svg.rstrip().endswith("</svg>")


def test_plot_size_is_fixed():
    svg = line_plot([simple_series()], "x", "y")
    assert '<rect width="720" height="440" fill="white"/>' in svg
    # the data frame sits inside the fixed margins
    assert '<rect x="64" y="28" width="640" height="366" fill="none"' in svg


def test_curves_are_polylines():
    svg = line_plot([simple_series()], "x", "y")
    assert "<polyline" in svg
    assert "<path" not in svg


def test_nan_splits_polyline():
    y = np.sin(np.linspace(0, 3, 30))
    y[10] = np.nan
    one = line_plot([Series("a", np.linspace(1, 2, 30), np.sin(np.linspace(0, 3, 30)))], "x", "y")
    two = line_plot([Series("a", np.linspace(1, 2, 30), y)], "x", "y")
    # one extra data polyline from the break; axis frame count unchanged
    assert two.count("<polyline") == one.count("<polyline") + 1


def test_labels_are_escaped():
    svg = line_plot([simple_series("<1>")], "a&b", "y")
    assert "&lt;1&gt;" in svg
    assert "a&amp;b" in svg
    assert "<1>" not in svg


def test_deterministic_output():
    mk = lambda: line_plot([simple_series(), Series("h", [1, 2], [3, 4])],
                           "x", "y", title="t")
    assert mk() == mk()


def test_title_rendered():
    svg = line_plot([simple_series()], "x", "y", title="response")
    assert ">response<" in svg


def test_empty_series_list_rejected():
    with pytest.raises(ValueError):
        line_plot([], "x", "y")


def test_series_validation():
    with pytest.raises(ValueError):
        Series("a", np.array([1.0, 2.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        Series("a", np.array([]), np.array([]))


def test_stem_series_layout():
    s = stem_series("modes", np.array([1.0, 2.0]), np.array([0.3, 0.7]))
    assert s.x.tolist() == [1.0, 1.0, 1.0, 2.0, 2.0, 2.0]
    assert s.y[0] == 0.0 and s.y[1] == 0.3
    assert np.isnan(s.y[2])
    assert s.y[3] == 0.0 and s.y[4] == 0.7
    assert np.isnan(s.y[5])


def test_stem_series_plots_as_separate_stems():
    s = stem_series("m", np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.0, 3.0]))
    svg = line_plot([s], "x", "y")
    base = line_plot([Series("m", [1.0, 2.0, 3.0], [1.0, 2.0, 3.0])], "x", "y")
    assert svg.count("<polyline") == base.count("<polyline") + 2


def test_log_axes():
    x = np.logspace(0, 3, 20)
    svg = line_plot([Series("s", x, 1.0 / x)], "x", "y", logy=True)
    assert "<polyline" in svg
    # decade ticks label powers of ten
    assert "1e+00" in svg or "1" in svg


def test_log_axis_drops_nonpositive_then_rejects_empty():
    # mixed signs survive (positive part plotted); all-nonpositive cannot
    svg = line_plot([Series("s", [1.0, 2.0, 3.0], [-1.0, 1.0, 2.0])], "x", "y",
                    logy=True)
    assert "<polyline" in svg
    with pytest.raises(ValueError):
        line_plot([Series("s", [1.0, 2.0], [-2.0, -1.0])], "x", "y", logy=True)


def test_coordinates_inside_viewbox():
    svg = line_plot([simple_series()], "x", "y")
    for chunk in svg.split('points="')[1:]:
        pts = chunk.split('"')[0]
        for pair in pts.split():
            px, py = map(float, pair.split(","))
            assert -1.0 <= px <= 721.0
            assert -1.0 <= py <= 441.0
