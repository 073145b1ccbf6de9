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


def e17_midpoints(rng: np.random.Generator, size: int) -> list[str]:
    """"%.17e"-shaped tokens at and one unit of the last digit either side
    of the 18-digit decimal nearest to the midpoint between a double of
    1e-5..1e18 and the next one up: the hardest values to round."""
    tokens = []
    for x in bit_band(rng, 1e-5, 1e18, size).tolist():
        mant, exp2 = math.frexp(abs(x))
        mid = Fraction(2 * int(mant * 2**53) + 1) * Fraction(2) ** (exp2 - 54)
        e = math.floor(math.log10(mid))
        d = round(mid / Fraction(10) ** (e - 17))
        if d >= 10**18:
            d, e = round(mid / Fraction(10) ** (e - 16)), e + 1
        for n in (d - 1, d, d + 1):
            if 10**17 <= n < 10**18:
                digits = str(n)
                tokens.append(f"{'-' if x < 0 else ''}{digits[0]}.{digits[1:]}e{e:+03d}")
    return tokens


def parse_e17_tokens(tokens: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """_digits.parse_e17 on the tokens, space-separated in one text, with
    room before the first and after the last for its 32-byte windows."""
    lengths = np.fromiter(map(len, tokens), dtype=np.int64, count=len(tokens))
    ends = 28 + np.cumsum(lengths + 1) - 1
    text = np.frombuffer((" " * 28 + " ".join(tokens) + " " * 4).encode("ascii"), dtype=np.uint8)
    return _digits.parse_e17(text, ends - lengths, ends)


def is_tie(token: str) -> bool:
    """The token's decimal lies exactly halfway between two doubles."""
    x = float(token)
    exact = Fraction(token)
    other = np.nextafter(x, math.inf if exact > Fraction(x) else -math.inf)
    return 2 * exact == Fraction(x) + Fraction(float(other))


def test_parse_e17_reads_each_token_as_float():
    rng = np.random.default_rng(23)
    raw = rng.integers(0, 2**64, size=300_000, dtype=np.uint64).view(np.float64)
    groups = {
        "raw bit patterns": ["%.17e" % v for v in raw[np.isfinite(raw)].tolist()],
        "1e-5..1e18": ["%.17e" % v for v in bit_band(rng, 1e-5, 1e18, 600_000).tolist()],
        "band edges": ["%.17e" % v for v in neighbours(np.concatenate(
            [[1e-5, 1e17, 1e18, 1.0, 2.0, 0.5], -np.array([1e-5, 1e17, 1.0])]), 3).tolist()],
        "midpoints": e17_midpoints(rng, 40_000),
    }
    assert sum(map(len, groups.values())) >= 10**6
    undecided = {}
    for name, tokens in groups.items():
        undecided[name] = []
        for chunk in range(0, len(tokens), 100_000):
            part = tokens[chunk:chunk + 100_000]
            values, decided = parse_e17_tokens(part)
            want = np.array(list(map(float, part)))
            wrong = np.flatnonzero(decided & (values.view(np.uint64) != want.view(np.uint64)))
            assert not wrong.size, [part[i] for i in wrong[:5]]
            undecided[name] += [part[i] for i in np.flatnonzero(~decided)]
    # the writer's band is decided whole; near a tie, only an exact tie is
    # left to float(), as is everything with an exponent outside -5..17
    assert not undecided["1e-5..1e18"]
    assert all(map(is_tie, undecided["midpoints"]))
    assert len(undecided["midpoints"]) < 0.05 * len(groups["midpoints"])
    assert all(not -5 <= int(t.split("e")[1]) <= 17 for t in undecided["raw bit patterns"])
