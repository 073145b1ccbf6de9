"""The array number renderers against Python's own formatting, on about
10**6 values each.

``repr`` fields reach users through the fit and admittance CSVs, so they are
checked through ``cli._admittance_csv`` against the scalar reference writer;
``"%.2f"`` pixel coordinates through ``_digits.format_points`` against
``"%.2f,%.2f" %``.  The values probe what decides the digits: raw bit
patterns, the band that the exact path covers, every significant digit
count, powers of ten and two with their neighbours, exact decimal ties, and
repr's switches between fixed and exponent notation.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

import reference_io as ref
from resokit import _digits, cli


def signed(rng: np.random.Generator, values: np.ndarray) -> np.ndarray:
    """values, each with a random sign."""
    return values * rng.choice([-1.0, 1.0], size=values.size)


def bit_band(rng: np.random.Generator, lo: float, hi: float, size: int) -> np.ndarray:
    """Doubles uniform in bit pattern between lo and hi > lo > 0, either sign."""
    a, b = np.array([lo, hi]).view(np.int64)
    return signed(rng, rng.integers(a, b, size=size).view(np.float64))


def neighbours(values: np.ndarray, steps: int = 2) -> np.ndarray:
    """values and the doubles up to steps ulps either side of them."""
    out = [values]
    up, down = values, values
    for _ in range(steps):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
        out += [up, down]
    return np.concatenate(out)


def digit_count_values(rng: np.random.Generator, size: int) -> np.ndarray:
    """The doubles nearest to decimals of 1 to 17 significant digits, placed
    so that they land between 1e-28 and 1e17."""
    out = []
    for nd in range(1, 18):
        m = rng.integers(10 ** (nd - 1), 10**nd, size=size)
        ex = rng.integers(-28 - (nd - 1), 17 - nd, size=size)
        out.append([float(f"{a}e{b}") for a, b in zip(m.tolist(), ex.tolist())])
    return np.concatenate(out)


def decimal_ties(rng: np.random.Generator, size: int) -> np.ndarray:
    """Doubles that lie exactly halfway between two n-digit decimals, for
    every n from 1 to 17 and decimal exponent e from -28 to 16.

    x * 10**k is a half-integer for k = n - 1 - e.  For k >= 0 that takes
    x = m / 2**(k + 1) with m odd; for k < 0, x = m * 5**-k * 2**(-k - 1)
    with m odd in [2 * 10**(n-1), 2 * 10**n).  m * 5**-k must stay below 2**53.
    """
    out = []
    for n in range(1, 18):
        for e in range(-28, 17):
            k = n - 1 - e
            if k >= 0:
                lo = math.ceil(Fraction(10) ** e * 2 ** (k + 1))
                hi = min(math.ceil(Fraction(10) ** (e + 1) * 2 ** (k + 1)), 2**53)
                scale = 2.0 ** -(k + 1)
            else:
                five = 5**-k
                lo, hi = 2 * 10 ** (n - 1), min(2 * 10**n, 2**53 // five)
                scale = float(five) * 2.0 ** (-k - 1)
            if hi - lo < 2:
                continue
            m = 2 * rng.integers(lo // 2, (hi - 2) // 2, size=size, endpoint=True) + 1
            out.append(m[(m >= lo) & (m < hi)].astype(np.float64) * scale)
    return np.concatenate(out)


def repr_values(rng: np.random.Generator) -> np.ndarray:
    """About 10**6 doubles, each group in its own run of rows."""
    raw = rng.integers(0, 2**64, size=200_000, dtype=np.uint64).view(np.float64)
    powers = np.array([float(f"1e{e}") for e in range(-30, 20)]
                      + [2.0**k for k in range(-100, 60)])
    switches = np.array([1e-5, 1e-4, 1e16, 1e17, 9.9999e-05, 0.0001, 9999999999999998.0,
                         1.0000000000000002e16, 0.00010000000000000002, 9.999999999999999e-05])
    specials = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300,
                         1.7976931348623157e308, math.inf, -math.inf, math.nan, 1e-28,
                         -1e-28, 0.1, 0.5, 1.0, 100.0, 123.456])
    groups = [
        raw[np.isfinite(raw)],
        bit_band(rng, 1e-28, 1e16, 520_000),
        signed(rng, digit_count_values(rng, 12_000)),
        neighbours(np.concatenate([powers, -powers]), 3),
        signed(rng, decimal_ties(rng, 40)),
        bit_band(rng, 0.9e-5, 1.1e-5, 20_000),
        bit_band(rng, 0.9e-4, 1.1e-4, 20_000),
        bit_band(rng, 0.9e16, 1.1e16, 20_000),
        bit_band(rng, 0.9e17, 1.1e17, 10_000),
        neighbours(np.concatenate([switches, -switches]), 3),
        specials,
    ]
    # each group shuffled, then padded to whole rows of five
    groups = [g[rng.permutation(g.size)] for g in groups]
    groups = [np.concatenate([g, rng.uniform(1.0, 2.0, -g.size % 5)]) for g in groups]
    return np.concatenate(groups)


def test_power_table_is_exact():
    for k in range(_digits._POW10.size):
        assert int(_digits._POW10[k]) + int(_digits._POW10_TAIL[k]) == 10**k


def test_admittance_csv_prints_each_value_as_repr():
    rng = np.random.default_rng(23)
    values = repr_values(rng)
    assert values.size >= 10**6
    cells = values.reshape(-1, 5)
    for chunk in np.array_split(cells, 5):
        measured = chunk[:, 1] + 0j
        measured.imag = chunk[:, 2]
        fitted = chunk[:, 3] + 0j
        fitted.imag = chunk[:, 4]
        got = cli._admittance_csv(chunk[:, 0], measured, fitted)
        want = ref.admittance_csv(chunk[:, 0], measured, fitted)
        if got != want:
            bad = [(g, w) for g, w in zip(got.splitlines(), want.splitlines()) if g != w]
            raise AssertionError(bad[:5])


def test_svg_points_print_each_value_as_percent_2f():
    rng = np.random.default_rng(31)
    # x.xx5 is a double only as an odd multiple of 1/8: exact ties
    ties = (2 * rng.integers(0, 2**42, size=50_000) + 1) / 8.0
    small_ties = np.arange(1, 720 * 8, 2) / 8.0
    # the doubles nearest to half-cents, where 100 * x lands on a half-integer
    half_cents = (rng.integers(0, 72_000, size=100_000) + 0.5) / 100.0
    values = np.concatenate([
        rng.uniform(-1000.0, 1000.0, 400_000),
        bit_band(rng, 1e-300, 2.0**40, 200_000),
        signed(rng, neighbours(np.concatenate([ties, small_ties]), 1)),
        neighbours(half_cents, 2),
        rng.uniform(-0.006, 0.006, 10_000),
        np.array([0.0, -0.0, 5e-324, -5e-324, 0.005, -0.005, 0.015, 2.0**40 - 1.0, 1e12]),
    ])
    values = values[rng.permutation(values.size)]
    values = values[: values.size // 2 * 2]
    assert values.size >= 10**6
    for chunk in np.array_split(values.reshape(-1, 2), 4):
        x, y = chunk[:, 0], chunk[:, 1]
        got = _digits.format_points(x, y).split(" ")
        want = list(map("%.2f,%.2f".__mod__, zip(x.tolist(), y.tolist())))
        bad = [(g, w) for g, w in zip(got, want) if g != w]
        assert len(got) == len(want) and not bad, bad[:5]


def test_points_outside_the_exact_range_are_formatted_by_python():
    x = np.array([1.0, 2.0**40, -math.inf, 1e300])
    y = np.array([math.nan, 2.0, 3.0, -1e300])
    assert _digits.format_points(x, y) == " ".join(
        map("%.2f,%.2f".__mod__, zip(x.tolist(), y.tolist())))
