"""Touchstone, CSV and SVG text paths and the S/Y conversions against their
scalar references.

``reference_io`` holds the token-by-token parser, the per-cell writers and
the twin S-to-Y and Y-to-S maps.  Written text must match it byte for byte,
parsed frequencies and converted matrices bit for bit (compared as uint64 so
that signed zeros count), malformed input must fail with the same message on
the same line, and a singular point with the same message at the same
frequency.
"""

from __future__ import annotations

import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

import reference_io as ref
from conftest import noisy_trace
from resokit import cli
from resokit.errors import SingularNetworkError, TouchstoneError
from resokit.netparams import (
    DET_REL_FLOOR,
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

def mixed_net() -> NetworkRecord:
    """Rows that mix ordinary values with zeros, tiny, subnormal and huge
    ones, between rows of ordinary values only; magnitudes sit on both sides
    of 1e-5 and 1e18."""
    below_1e18 = np.nextafter(1e18, 0.0)
    below_1e5 = np.nextafter(1e-5, 0.0)
    values = [
        complex(0.5, -0.25), complex(-0.75, 0.125), complex(1e-3, 2.0), complex(-3.0, 4e-4),
        complex(0.0, 0.5), complex(-0.25, 0.0), complex(0.125, -0.0), complex(-0.0, 0.75),
        complex(3e-7, 0.5), complex(-3e-7, 0.25), complex(0.5, 3e-7), complex(0.25, -3e-7),
        complex(5e-324, 0.5), complex(0.5, -5e-324), complex(0.375, 0.625), complex(0.875, 0.5),
        complex(1e-5, -1e-5), complex(below_1e5, 0.5), complex(0.5, -below_1e5), complex(2e-5, 0.5),
        complex(1e18, 0.5), complex(below_1e18, -below_1e18), complex(0.5, -1e18), complex(9e17, 1.0),
        complex(0.9, -0.1), complex(0.2, 0.3), complex(-0.4, 0.5), complex(0.6, -0.7),
        complex(1e300, 0.5), complex(0.5, -2.2e-308), complex(0.5, 1e19), complex(0.5, 0.5),
        complex(0.1, 0.2), complex(0.3, 0.4), complex(0.5, 0.6), complex(0.7, 0.8),
    ]
    mats = np.array(values, dtype=complex).reshape(-1, 2, 2)
    freqs = np.array([1e-6, below_1e5, 1e-5, 1.0, 1e3, 2.5e9, below_1e18, 1e18, 1e19])
    return NetworkRecord(freqs=freqs, matrices=mats, kind="S", z0=50.0)


@pytest.mark.parametrize("fmt, unit", list(itertools.product(FORMATS, UNITS)))
def test_write_and_parse_match_reference_for_every_format_and_unit(fmt, unit):
    for net in (special_net(), random_net(3), mixed_net()):
        assert_parse_matches(assert_write_matches(net, fmt, unit))


def test_ma_and_db_writers_match_reference_on_raw_bit_patterns():
    # the magnitude is np.hypot, the reference's abs(complex): subnormal,
    # signed-zero and near-overflow parts must give the same bits
    rng = np.random.default_rng(29)
    raw = rng.integers(0, 2**64, size=40_000, dtype=np.uint64).view(np.float64)
    raw = raw[np.isfinite(raw) & (np.abs(raw) < 1.2e308)]  # no magnitude overflows
    raw = np.concatenate([[0.0, -0.0, 5e-324, -5e-324, 1.19e308, -1.19e308], raw])
    raw = raw[: raw.size // 8 * 8]
    s = raw.view(complex).reshape(-1, 2, 2)
    net = NetworkRecord(freqs=np.arange(1.0, len(s) + 1.0), matrices=s, kind="S")
    for fmt in ("MA", "DB"):
        assert_write_matches(net, fmt, "Hz")


def percent_e_values(rng: np.random.Generator) -> np.ndarray:
    """About 10**6 finite doubles in random order: raw bit patterns over the
    whole range (subnormals up to 1.8e308), bit patterns between 1e-6 and
    1e19 of either sign, powers of ten from 1e-6 to 1e19 with both
    neighbours, exact decimal ties of 18 significant digits, and specials."""
    raw = rng.integers(0, 2**64, size=450_000, dtype=np.uint64, endpoint=False).view(np.float64)
    lo, hi = np.array([1e-6, 1e19]).view(np.int64)
    band = rng.integers(lo, hi, size=520_000).view(np.float64)
    band *= rng.choice([-1.0, 1.0], size=band.size)
    powers = np.array([float(f"1e{e}") for e in range(-6, 20)])
    around = np.concatenate([np.nextafter(powers, 0.0), powers, np.nextafter(powers, np.inf)])
    # x = m / 2**(18 - e) with m odd and 10**e <= x < 10**(e+1): then
    # x * 10**(17 - e) = m * 5**(17 - e) / 2, a tie halfway between two
    # 18-digit strings.  m must stay below 2**53, which bounds e at 15.
    ties = []
    for e in range(-5, 16):
        m_lo = math.ceil(Fraction(10) ** e * 2 ** (18 - e))
        m_hi = min(math.ceil(Fraction(10) ** (e + 1) * 2 ** (18 - e)), 2**53)
        m = 2 * rng.integers(m_lo // 2, (m_hi - 2) // 2, size=2000, endpoint=True) + 1
        ties.append(m.astype(np.float64) * 2.0 ** (e - 18))
    ties = np.concatenate(ties)
    ties *= rng.choice([-1.0, 1.0], size=ties.size)
    specials = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300,
                         1.7976931348623157e308, -1.7976931348623157e308, 1e300, 123.456])
    values = np.concatenate([raw[np.isfinite(raw)], band, around, -around, ties, specials])
    values = values[rng.permutation(values.size)]
    return np.concatenate([values, band[: -values.size % 8]])


def test_write_touchstone_prints_each_value_as_percent_17e():
    rng = np.random.default_rng(17)
    values = percent_e_values(rng)
    assert values.size >= 10**6
    rows = 16384
    for chunk in np.split(values, np.arange(8 * rows, values.size, 8 * rows)):
        n = chunk.size // 8
        cells = chunk.reshape(n, 8)
        # strictly increasing positive frequencies, also from raw bit patterns
        pool = rng.integers(1, 0x7FF0000000000000, size=2 * n).view(np.float64)
        freqs = np.sort(rng.choice(np.unique(pool), size=n, replace=False))
        # row cells in file order: f, S11, S21, S12, S22, each (re, im)
        s = np.empty((n, 4), dtype=complex)
        s.real = cells[:, 0::2]
        s.imag = cells[:, 1::2]
        net = NetworkRecord(freqs=freqs, matrices=s.reshape(n, 2, 2).transpose(0, 2, 1), kind="S")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = write_touchstone(net, fmt="RI", unit="Hz").split("\n")[2:-1]
        want = [" ".join(["%.17e" % v for v in [f, *row]])
                for f, row in zip(freqs.tolist(), cells.tolist())]
        bad = [(g, w) for g, w in zip(got, want) if g != w]
        assert len(got) == n and not bad, bad[:5]


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
    f"# GHZ S RI R 50\n1.0 {ROW}\n0 {ROW}\n",
    f"# GHZ S RI R 50\n1.0 {ROW}\n-1.0 {ROW}\n",
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


# ------------------------------------------------------------------ S and Y

def assert_converts_like_reference(net: NetworkRecord) -> NetworkRecord | None:
    """The library's S-to-Y or Y-to-S conversion of net: the reference's bits,
    or, where the reference finds a singular point, its error (then None)."""
    lib, want = (s_to_y, ref.s_to_y) if net.kind == "S" else (y_to_s, ref.y_to_s)
    try:
        expected = want(net)
    except SingularNetworkError as err:
        with pytest.raises(SingularNetworkError) as got:
            lib(net)
        assert str(got.value) == str(err)
        assert got.value.frequency == err.frequency
        return None
    out = lib(net)
    assert_bits_equal(out.freqs, expected.freqs)
    assert_bits_equal(out.matrices, expected.matrices)
    assert out.kind == expected.kind and out.z0 == expected.z0
    return out


@pytest.mark.parametrize("noise_db", [-80.0, -40.0, -20.0])
def test_survey_s_y_conversions_match_reference(noise_db):
    for i, row in enumerate(SURVEY):
        measured = noisy_trace(roundtrip_model(row.label), synthesis_grid(row.label),
                               noise_db=noise_db, seed=100 + i)
        s = assert_converts_like_reference(series_element_network(measured))
        for fmt in FORMATS:
            y = assert_converts_like_reference(parse_touchstone(write_touchstone(s, fmt=fmt)))
            assert assert_converts_like_reference(y) is not None


def near_floor_matrices(seed: int, n: int = 400) -> np.ndarray:
    """Matrices A = I + X whose relative determinant |det A| / (||A||_F^2 / 2)
    lies within a factor of two of DET_REL_FLOOR, at scales from 1e-150 to
    1e150: a random rank-one matrix plus a small random perturbation."""
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
    v = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
    e = rng.standard_normal((n, 2, 2)) + 1j * rng.standard_normal((n, 2, 2))
    rank_one = u[:, :, None] * v[:, None, :]
    a = rank_one + 1e-12 * rng.uniform(0.5, 2.0, (n, 1, 1)) * e
    det = a[:, 0, 0] * a[:, 1, 1] - a[:, 0, 1] * a[:, 1, 0]
    rel = np.abs(det) / (np.sum(np.abs(a) ** 2, axis=(1, 2)) / 2.0)
    # rescale the perturbation so the relative determinant lands near the floor
    a = rank_one + e * (1e-12 * np.sqrt(DET_REL_FLOOR / rel)
                        * rng.uniform(0.7, 1.4, n))[:, None, None]
    return a * 10.0 ** rng.integers(-150, 151, size=(n, 1, 1))


@pytest.mark.parametrize("kind", ["S", "Y"])
def test_s_y_conversions_match_reference_near_the_singular_floor(kind):
    a = near_floor_matrices(5 if kind == "S" else 6)
    x = a - np.eye(2)
    # for Y the map inverts I + z0 Y
    mats = x if kind == "S" else x / 50.0
    freqs = np.arange(1.0, len(a) + 1.0) * 1e9
    singular = 0
    for f, m in zip(freqs, mats):
        net = NetworkRecord(freqs=[f], matrices=m[None], kind=kind, z0=50.0)
        singular += assert_converts_like_reference(net) is None
    # both sides of the floor are exercised
    assert 0 < singular < len(a)
    assert assert_converts_like_reference(NetworkRecord(freqs, mats, kind)) is None


@pytest.mark.parametrize("kind", ["S", "Y"])
def test_s_y_singular_point_matches_reference(kind):
    rng = np.random.default_rng(8)
    x = 0.2 * (rng.standard_normal((5, 2, 2)) + 1j * rng.standard_normal((5, 2, 2)))
    x[3] = -np.eye(2)  # I + X is exactly zero there
    mats = x if kind == "S" else x / 50.0
    net = NetworkRecord(freqs=[1e9, 2e9, 3e9, 4e9, 5e9], matrices=mats, kind=kind)
    assert assert_converts_like_reference(net) is None
    with pytest.raises(SingularNetworkError) as err:
        (s_to_y if kind == "S" else y_to_s)(net)
    assert err.value.frequency == 4e9


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
    yield [Series("log", logx, logy), Series("neg", logx, -logy)], {"logy": True}
    yield [Series("logx", logx, y)], {"title": "decades"}
    yield [Series("logy", x, logy)], {"logy": True}
    yield [stem_series("eta_n", np.array([1e9, 2e9, 3e9]), np.array([0.2, 0.9, 0.0]))], {}
    yield [Series("flat", x, np.full(x.size, 3.0))], {}
    yield [Series("single", [1.0], [2.0]), Series("zeros", np.arange(6.0), negzero)], {}
    yield [Series("a&<b>\"c'", x, y)], {"title": "&amp; <&>\"'"}


@pytest.mark.parametrize("series, kwargs", list(svg_cases()), ids=range(8))
def test_line_plot_matches_reference(series, kwargs):
    assert (line_plot(series, "x <label>", "y & label", **kwargs)
            == ref.line_plot(series, "x <label>", "y & label", **kwargs))
