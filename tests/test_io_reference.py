"""Touchstone, CSV and SVG text paths against their scalar references.

``reference_io`` holds the token-by-token parser and the per-cell writers.
Written text must match it byte for byte, parsed frequencies and matrices
bit for bit (compared as uint64 so that signed zeros count), and malformed
input must fail with the same message on the same line.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

import reference_io as ref
from conftest import noisy_trace
from resokit import cli
from resokit.errors import TouchstoneError
from resokit.netparams import (
    NetworkRecord,
    device_admittance,
    parse_touchstone,
    s_to_y,
    series_element_network,
    write_touchstone,
    y_to_s,
)
from resokit.refdata import SURVEY, roundtrip_model, synthesis_grid
from resokit.svgplot import Series, line_plot, stem_series

FORMATS = ("RI", "MA", "DB")
UNITS = ("Hz", "kHz", "MHz", "GHz")


def assert_bits_equal(a: np.ndarray, b: np.ndarray) -> None:
    assert a.shape == b.shape and a.dtype == b.dtype
    assert np.array_equal(np.ascontiguousarray(a).view(np.uint64),
                          np.ascontiguousarray(b).view(np.uint64))


def assert_parse_matches(text: str) -> NetworkRecord:
    got, want = parse_touchstone(text), ref.parse_touchstone(text)
    assert_bits_equal(got.freqs, want.freqs)
    assert_bits_equal(got.matrices, want.matrices)
    # layout too: reductions downstream may sum in memory order
    assert got.matrices.flags.c_contiguous and got.freqs.flags.c_contiguous
    assert got.z0 == want.z0 and got.kind == want.kind
    return got


def assert_write_matches(net: NetworkRecord, fmt: str, unit: str) -> str:
    text = write_touchstone(net, fmt=fmt, unit=unit)
    assert text == ref.write_touchstone(net, fmt=fmt, unit=unit)
    return text


def special_net() -> NetworkRecord:
    """Signed zeros, exact ±180° angles, zero and subnormal magnitudes, and
    magnitudes near 1e±300."""
    values = [
        complex(0.0, 0.0), complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0),
        complex(-1.0, 0.0), complex(-1.0, -0.0), complex(-0.5, 0.0), complex(-0.0, 1.0),
        complex(5e-324, 0.0), complex(-5e-324, 1e-310), complex(2.2e-308, -4e-320),
        complex(1e-300, 0.0), complex(1e-301, -1e-301), complex(0.0, 1e-305),
        complex(1e300, 0.0), complex(-1e300, 1e300), complex(0.0, -8e299), complex(3e-200, -1e200),
        complex(1.0, 1.0), complex(-0.25, -0.75), complex(1e-17, -0.0), complex(-0.0, 1e-17),
        complex(0.7071067811865476, 0.7071067811865475), complex(-1e-300, -0.0),
    ]
    mats = np.array(values, dtype=complex).reshape(-1, 2, 2)
    freqs = np.array([1e-300, 5e-3, 1.0, 1e3, 2.5e9, 1e300])
    return NetworkRecord(freqs=freqs, matrices=mats, kind="S", z0=75.0)


def random_net(seed: int, n: int = 64) -> NetworkRecord:
    rng = np.random.default_rng(seed)
    mats = (rng.standard_normal((n, 2, 2)) + 1j * rng.standard_normal((n, 2, 2))) * 0.4
    mats[::5] *= 10.0 ** rng.integers(-150, 150, size=(len(mats[::5]), 2, 2))
    freqs = np.cumsum(rng.uniform(1e3, 1e9, n)) + 1e9
    return NetworkRecord(freqs=freqs, matrices=mats, kind="S", z0=50.0)


# ------------------------------------------------------------ survey corpus

@pytest.mark.parametrize("noise_db", [-80.0, -40.0, -20.0])
def test_survey_corpus_text_paths_match_reference(noise_db):
    for i, row in enumerate(SURVEY):
        fmt = FORMATS[i % 3]
        model = roundtrip_model(row.label)
        grid = synthesis_grid(row.label)
        clean = noisy_trace(model, grid)
        measured = noisy_trace(model, grid, noise_db=noise_db, seed=100 + i)
        text = assert_write_matches(y_to_s(series_element_network(measured)), fmt, "GHz")
        net = assert_parse_matches(text)
        trace = device_admittance(s_to_y(net))
        assert (cli._admittance_csv(trace.freqs, trace.values, clean.values)
                == ref.admittance_csv(trace.freqs, trace.values, clean.values))
        series = [Series("measured", trace.freqs, cli._db20(trace.values)),
                  Series("fitted", trace.freqs, cli._db20(clean.values))]
        assert (line_plot(series, "frequency [Hz]", "|Y| [dB S]", title=row.label)
                == ref.line_plot(series, "frequency [Hz]", "|Y| [dB S]", title=row.label))


# --------------------------------------------------------------- Touchstone

@pytest.mark.parametrize("fmt, unit", list(itertools.product(FORMATS, UNITS)))
def test_write_and_parse_match_reference_for_every_format_and_unit(fmt, unit):
    for net in (special_net(), random_net(3)):
        assert_parse_matches(assert_write_matches(net, fmt, unit))


@pytest.mark.parametrize("fmt", FORMATS)
def test_parse_matches_reference_on_hand_written_tokens(fmt):
    rows = [
        "1.0 -0.0 0.0 -0 +0 0e0 -0e-5 0.0 -0.0",
        "2.0 1 180 1 -180 -1 180 -1 -180.0",
        "3 -6000 -0.0 6000 0.0 4.9e-324 90 -4.9e-324 -90",
        "4.0 1e300 45 -1e300 -45 1e-300 135 2.2250738585072014e-308 -135",
        "5 1_000 +.5 -.5e-3 1E2 0.1e+1 ١ 12.5 -0.25",
        "6.0 308 0 307.5 360 -359.99 720 1 1e-9",
    ]
    if fmt == "DB":  # dB 1e300 overflows; 6000 dB is |S| = 1e300, -6460 dB a subnormal
        rows[3] = "4.0 5999.9 45 -6000 -45 -6400 135 -6460 -135"
    text = f"! hand-written tokens\r\n# MHZ S {fmt} R 25\r\n" + "\r\n".join(rows) + "\r\n"
    assert_parse_matches(text)
    wrapped = f"# GHZ S {fmt}\n" + "\n".join(
        f"{r.split(' ', 3)[0]} {r.split(' ', 3)[1]} ! first half\n"
        f"  {r.split(' ', 3)[2]}\t{r.split(' ', 3)[3]}" for r in rows)
    assert_parse_matches(wrapped)
    assert_parse_matches(wrapped.splitlines())


ROW = "0 0 0 0 0 0 0 0"

MALFORMED = [
    "",
    "! only a comment\n",
    "# GHZ S RI R 50\n",
    f"# GHZ S RI R 50\n1.0 {ROW}\n# GHZ S RI R 50\n",
    f"# GHZ S RI R 50\n# GHZ S RI R 50\n1.0 {ROW}\n",
    f"# GHZ Z RI R 50\n1.0 {ROW}\n",
    f"# GHZ S RI R 50 extra\n1.0 {ROW}\n",
    f"# GHZ MHZ S RI\n1.0 {ROW}\n",
    f"# GHZ S RI R\n1.0 {ROW}\n",
    f"# GHZ S RI R -5\n1.0 {ROW}\n",
    f"# GHZ S RI R 50\n1.0 x 0 0 0 0 0 0 0\n2.0 {ROW} 0\n",
    f"# GHZ S RI R 50\n2.0 {ROW} 0\n1.0 x 0 0 0 0 0 0 0\n",
    f"# GHZ S RI R 50\n1.0 nan 0 0 0 0 0 0 0\n# GHZ S RI R 50\n",
    f"# GHZ S RI R 50\n1.0 {ROW}\n# GHZ S RI R 50\n2.0 inf {ROW[2:]}\n",
    f"# GHZ S DB R 50\n2.0 {ROW}\n1.0 {ROW}\n3.0 9000 0 0 0 0 0 0 0\n",
    f"# GHZ S DB R 50\n1.0 {ROW}\n2.0 9000 0 0 0 0 0 0 0\n1.5 {ROW}\n",
    f"# GHZ S DB R 50\n1.0 0 0 0 0 0 0 9000 0\n",
    f"# GHZ S DB R 50\n1.0 {ROW}\n1e300 {ROW}\n2.0 9000 0 0 0 0 0 0 0\n",
    f"# GHZ S RI R 50\n1.0 0 0 0 0 0 0 0 0 x\n",
    f"# GHZ S RI R 50\n1.0 0 0 0 0\n0 0 0 0 0 x\n",
    f"# GHZ S RI R 50\n1.0 0 0 0 0\n0 0 0 0 0\n",
    f"# GHZ S RI R 50\n1.0 0 0 0\n0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0\n",
    f"# GHZ S RI R 50\n1.0 {ROW}\n2.0 0 0\n",
    "# GHZ S RI R 50\n1.0 0.1 0.2\n2.0 0.1 0.2\n",
    "# GHZ S RI R 50\n1.0 0.1 0.2\n",
    "# GHZ S RI R 50\n1.0 0.1 0.2\n2.0 0.1 0.2\n3.0 0.1 0.2\n",
    f"# GHZ S RI R 50\n1.0 {ROW}\n1.0 {ROW}\n",
    f"# GHZ S RI R 50\n0 {ROW}\n1.0 {ROW}\n",
    f"# GHZ S RI R 50\n-1.0 {ROW}\n",
    f"# HZ S RI R 50\n5e-324 {ROW}\n1e-323 {ROW}\n1e-323 {ROW}\n",
    f"# GHZ S MA R 50\n-1e300 {ROW}\n",
    f"# GHZ S RI R 50\n1.0 0\ufffd 0 0 0 0 0 0 0\n",
]


@pytest.mark.parametrize("text", MALFORMED, ids=range(len(MALFORMED)))
def test_parse_errors_match_reference(text):
    with pytest.raises((TouchstoneError, ValueError)) as want:
        ref.parse_touchstone(text)
    with pytest.raises(want.type) as got:
        parse_touchstone(text)
    assert str(got.value) == str(want.value)
    assert getattr(got.value, "line", None) == getattr(want.value, "line", None)


# ---------------------------------------------------------------------- CSV

def test_admittance_csv_matches_reference():
    net = special_net()
    freqs = net.freqs
    a = net.matrices[:, 0, 0]
    b = net.matrices[:, 1, 1]
    for measured, fitted in ((a, b), (a, None), (None, b), (None, None)):
        assert (cli._admittance_csv(freqs, measured, fitted)
                == ref.admittance_csv(freqs, measured, fitted))


# ---------------------------------------------------------------------- SVG

def svg_cases():
    x = np.linspace(1.0, 2.0, 40)
    y = np.sin(7.0 * x)
    split = y.copy()
    split[[0, 5, 6, 8, 20, 39]] = np.nan  # leading, doubled and trailing gaps
    lone = y.copy()
    lone[[9, 11]] = np.inf  # index 10 becomes a single-point segment
    logx = np.geomspace(1e-3, 1e4, 40)
    logy = np.concatenate([[-1.0, 0.0], np.geomspace(1e-12, 1e3, 38)])
    negzero = np.array([-0.0, -1e-9, 0.0, 1e-9, -0.004999, 0.005])
    yield [Series("a", x, y), Series("", x, split), Series("c", x, lone)], {}
    yield [Series("log", logx, logy), Series("neg", logx, -logy)], {"logx": True, "logy": True}
    yield [Series("logx", logx, y)], {"logx": True, "title": "decades"}
    yield [Series("logy", x, logy)], {"logy": True}
    yield [stem_series("eta_n", np.array([1e9, 2e9, 3e9]), np.array([0.2, 0.9, 0.0]))], {}
    yield [Series("flat", x, np.full(x.size, 3.0))], {"width": 300.0, "height": 200.0}
    yield [Series("single", [1.0], [2.0]), Series("zeros", np.arange(6.0), negzero)], {}
    yield [Series("a&<b>\"c'", x, y)], {"title": "&amp; <&>\"'"}


@pytest.mark.parametrize("series, kwargs", list(svg_cases()), ids=range(8))
def test_line_plot_matches_reference(series, kwargs):
    assert (line_plot(series, "x <label>", "y & label", **kwargs)
            == ref.line_plot(series, "x <label>", "y & label", **kwargs))
