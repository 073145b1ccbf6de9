"""Touchstone ingestion and exact two-port network algebra.

Parses Touchstone v1.0 ``.s2p`` text into a frequency-indexed stack of 2x2
S matrices, converts between S and Y with the closed-form bilinear map, and
extracts the one-port device admittance from a two-port measurement.
All matrices are numpy arrays of shape (npoints, 2, 2); frequencies are Hz.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from ._digits import format_e17, parse_e17
from .errors import SingularNetworkError, TouchstoneError

# frequency units, case-insensitive on input
UNITS = ("Hz", "kHz", "MHz", "GHz")
_UNIT_SCALE = dict(zip((u.lower() for u in UNITS), (1.0, 1e3, 1e6, 1e9)))
_FORMATS = ("ri", "ma", "db")
_REJECTED_TYPES = ("y", "z", "h", "g")

# Relative determinant floor below which (I + S) or (I + z0 Y) is treated
# as singular instead of inverted.
DET_REL_FLOOR = 1e-12


def _check_samples(freqs: np.ndarray, values: np.ndarray) -> None:
    """Finite samples on a positive, strictly increasing frequency grid."""
    if not np.isfinite(freqs).all():
        raise ValueError("frequencies must be finite")
    if not np.isfinite(values).all():
        raise ValueError("values must be finite")
    if freqs.size:
        if freqs[0] <= 0:
            raise ValueError("frequencies must be positive")
        if np.any(np.diff(freqs) <= 0):
            raise ValueError("frequencies must be strictly increasing")


@dataclass(frozen=True)
class NetworkRecord:
    """Frequency grid plus per-point 2x2 complex network matrices.

    Attributes
    ----------
    freqs : ndarray
        Frequencies in Hz, strictly increasing, all positive.
    matrices : ndarray
        Complex array of shape (npoints, 2, 2); entry [i, j, k] is the
        (j+1, k+1) matrix element at freqs[i].
    kind : str
        "S" for scattering parameters, "Y" for admittance.
    z0 : float
        Reference impedance in ohm (applies to S; retained through Y).
    """

    freqs: np.ndarray
    matrices: np.ndarray
    kind: str
    z0: float = 50.0

    def __post_init__(self):
        freqs = np.asarray(self.freqs, dtype=float).reshape(-1)
        matrices = np.asarray(self.matrices, dtype=complex).reshape(freqs.size, 2, 2)
        if self.kind not in ("S", "Y"):
            raise ValueError(f"kind must be 'S' or 'Y', got {self.kind!r}")
        if not 0 < self.z0 < math.inf:
            raise ValueError(f"z0 must be positive and finite, got {self.z0!r}")
        _check_samples(freqs, matrices)
        object.__setattr__(self, "freqs", freqs)
        object.__setattr__(self, "matrices", matrices)

    @property
    def npoints(self) -> int:
        return self.freqs.size


@dataclass(frozen=True)
class ComplexTrace:
    """A scalar complex quantity sampled on a strictly increasing Hz grid."""

    freqs: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        freqs = np.asarray(self.freqs, dtype=float).reshape(-1)
        values = np.asarray(self.values, dtype=complex).reshape(freqs.shape)
        _check_samples(freqs, values)
        object.__setattr__(self, "freqs", freqs)
        object.__setattr__(self, "values", values)

    @property
    def npoints(self) -> int:
        return self.freqs.size


@dataclass(frozen=True)
class _OptionLine:
    """The option line's settings; a setting it leaves out, or a missing
    option line, means ``# GHZ S MA R 50``."""

    scale: float = 1e9
    fmt: str = "ma"
    z0: float = 50.0


def _parse_option_line(text: str, lineno: int) -> _OptionLine:
    tokens = text[1:].split()
    given = {}  # _OptionLine fields the line sets
    saw_type = False
    i = 0
    while i < len(tokens):
        tok = tokens[i].lower()
        if tok in _UNIT_SCALE:
            if "scale" in given:
                raise TouchstoneError("duplicate frequency unit in option line", lineno)
            given["scale"] = _UNIT_SCALE[tok]
        elif tok in _FORMATS:
            if "fmt" in given:
                raise TouchstoneError("duplicate format in option line", lineno)
            given["fmt"] = tok
        elif tok == "s":
            if saw_type:
                raise TouchstoneError("duplicate parameter type in option line", lineno)
            saw_type = True
        elif tok in _REJECTED_TYPES:
            raise TouchstoneError(
                f"unsupported parameter type {tok.upper()!r} (only S accepted)", lineno
            )
        elif tok == "r":
            if "z0" in given or i + 1 >= len(tokens):
                raise TouchstoneError("malformed reference impedance in option line", lineno)
            try:
                z0 = float(tokens[i + 1])
            except ValueError:
                raise TouchstoneError(
                    f"malformed reference impedance {tokens[i + 1]!r}", lineno
                ) from None
            if not 0 < z0 < math.inf:
                raise TouchstoneError("reference impedance must be positive and finite", lineno)
            given["z0"] = z0
            i += 1
        else:
            raise TouchstoneError(f"unrecognized option token {tokens[i]!r}", lineno)
        i += 1
    return _OptionLine(**given)


def _polar(mag: np.ndarray, degrees: np.ndarray) -> np.ndarray:
    """``mag * complex(cos(rad), sin(rad))`` as CPython computes it, elementwise.

    math.radians is x * (pi / 180); cos and sin stay on libm, whose last
    bit numpy's vector loops do not always reproduce.  The product is
    CPython's (mag + 0j) * (c + sj) term by term: numpy's complex multiply
    can differ from it in the sign of an underflowed zero.
    """
    radians = (degrees * (math.pi / 180.0)).tolist()
    c = np.fromiter(map(math.cos, radians), float, len(radians))
    s = np.fromiter(map(math.sin, radians), float, len(radians))
    out = np.empty(mag.size, dtype=complex)
    out.real = mag * c - 0.0 * s
    out.imag = mag * s + 0.0 * c
    return out


def _pairs_to_complex(fmt: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Complex values of 1-D column pairs; OverflowError on a dB overflow."""
    if fmt == "ri":
        # set the parts separately: a + 1j * b would lose signed zeros
        out = np.empty(a.size, dtype=complex)
        out.real = a
        out.imag = b
        return out
    if fmt == "ma":
        return _polar(a, b)
    # db: magnitude in dB20, libm's pow(10, x) as 10.0 ** x takes it
    return _polar(np.fromiter(map(math.pow, itertools.repeat(10.0), (a / 20.0).tolist()),
                              float, a.size), b)


# by code point below 34: 1 for str.split's whitespace, 2 for a line break
# of str.splitlines (whitespace too), 3 for "!", which opens a comment ...
_LOW_KINDS = np.zeros(34, dtype=np.uint8)
_LOW_KINDS[[9, 31, 32]] = 1
_LOW_KINDS[[10, 11, 12, 13, 28, 29, 30]] = 2
_LOW_KINDS[33] = 3
# ... and the whitespace and line breaks above 127, sorted
_WIDE_SPACES = np.array([0x85, 0xA0, 0x1680, *range(0x2000, 0x200B),
                         0x2028, 0x2029, 0x202F, 0x205F, 0x3000])
_WIDE_BREAKS = np.array([0x85, 0x2028, 0x2029])
_SCAN_BLOCK = 1 << 16  # characters classified per pass


def _among(points: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Which points the sorted table holds; np.isin and np.union1d would
    import numpy.ma, some 12 ms of a command's run."""
    return table[np.minimum(np.searchsorted(table, points), table.size - 1)] == points


def _tokens(source: str):
    """The whitespace-separated tokens of the source outside ``!`` comments,
    as ``str.splitlines`` and ``str.split`` find them.

    Returns (text, starts, ends, breaks, bangs): token i is
    source[starts[i]:ends[i]], breaks holds the position of each line break
    ("\\r\\n" at its "\\r"), bangs that of each "!", and text the
    source's characters as bytes, "?" for each non-ASCII one.
    Tokens are separated by characters below 34 and by the non-ASCII
    whitespace, which is looked up among the "?"s.  The characters below 34
    are found a block of text at a time, since a mask of the whole text
    would cost a page fault per 4 KB; positions are int32 for the same
    reason.
    """
    text = np.frombuffer(source.encode("ascii", "replace"), dtype=np.uint8)
    marks = [np.zeros(0, dtype=np.intp)]
    for i in range(0, text.size, _SCAN_BLOCK):
        marks.append(np.flatnonzero(text[i:i + _SCAN_BLOCK] < 34) + i)
    index = np.int32 if text.size < 2**31 else np.intp
    marks = np.concatenate(marks, dtype=index)
    kinds = _LOW_KINDS[text[marks]]
    seps = marks[(kinds == 1) | (kinds == 2)]
    breaks = marks[kinds == 2]
    breaks = breaks[~((text[breaks] == 10) & (text[breaks - 1] == 13) & (breaks > 0))]
    if not source.isascii():
        odd = np.flatnonzero(text == ord("?")).astype(index)
        points = np.fromiter(map(ord, map(source.__getitem__, odd.tolist())), np.int64, odd.size)
        seps = np.sort(np.concatenate((seps, odd[_among(points, _WIDE_SPACES)])))
        breaks = np.sort(np.concatenate((breaks, odd[_among(points, _WIDE_BREAKS)])))
    bounds = np.concatenate(([-1], seps, [text.size]), dtype=index)
    gaps = bounds[1:] - bounds[:-1] > 1
    starts, ends = bounds[:-1][gaps] + 1, bounds[1:][gaps]
    bangs = marks[kinds == 3]
    if bangs.size and starts.size:
        # a comment runs from the first "!" of its line to the line's end:
        # tokens from there on go, and a token holding the "!" ends there
        line = np.searchsorted(breaks, bangs)
        first = np.flatnonzero(np.diff(line, prepend=-1))
        opens, line = bangs[first], line[first]
        cut = np.searchsorted(starts, opens)
        held = np.flatnonzero((cut > 0) & (ends[cut - 1] > opens))
        ends[cut[held] - 1] = opens[held]
        # the tokens cut[k]..stop[k] - 1 go; spans that drop any are
        # disjoint, so no index repeats within cut or within stop
        stop = np.searchsorted(starts, np.append(breaks, text.size)[line])
        span = cut < stop
        drop = np.zeros(starts.size + 1, dtype=np.int8)
        drop[cut[span]] = 1
        drop[stop[span]] -= 1
        keep = np.cumsum(drop[:-1], dtype=np.int8) == 0
        starts, ends = starts[keep], ends[keep]
    return text, starts, ends, breaks, bangs


def _token_text(source: str, stops: np.ndarray, starts: np.ndarray, ends: np.ndarray,
                picked: np.ndarray) -> list[str]:
    """[source[starts[i]:ends[i]] for i in picked], picked ascending.

    Neighbouring tokens with no stop (a "!" or an option line's "#")
    between them have only separators between them, so each run of them is
    sliced once, and the runs are joined and split: half the cost of a
    slice per token.
    """
    if not picked.size:
        return []
    s, e = starts[picked], ends[picked]
    cuts = np.flatnonzero((np.diff(picked) != 1)
                          | (np.searchsorted(stops, s[1:]) != np.searchsorted(stops, e[:-1])))
    runs = zip(s[np.append(0, cuts + 1)].tolist(), e[np.append(cuts, picked.size - 1)].tolist())
    return " ".join([source[i:j] for i, j in runs]).split()


def _row_error(lines: np.ndarray, counts: np.ndarray, pending: np.ndarray):
    """(line found, error) for the first data line that overfills a row, or
    None; pending holds the columns each line's row had before it."""
    over = np.flatnonzero(pending + counts > 9)
    if not over.size:
        return None
    i = int(over[0])
    n, lineno = int(counts[i]), int(lines[i])
    if not pending[i]:
        return lineno, TouchstoneError(
            f"{n} columns in one row; only 2-port data (9 columns) supported", lineno)
    start = int(lines[np.flatnonzero(pending[:i] == 0)[-1]])
    return lineno, TouchstoneError(
        f"row starting here accumulates {int(pending[i]) + n} columns, expected 9", start)


def parse_touchstone(source: str) -> NetworkRecord:
    """Parse Touchstone v1.0 two-port text into a NetworkRecord of kind "S".

    Accepts the full option-line vocabulary (Hz/kHz/MHz/GHz, RI/MA/DB,
    R z0), ``!`` comments, blank lines, and rows wrapped across physical
    lines.  A missing option line means ``# GHZ S MA R 50``.  Anything
    that is not a well-formed two-port file on a positive, strictly
    increasing frequency grid raises TouchstoneError with the offending
    line number; of several faults, the first in the file is reported.
    Every value is Python's ``float()`` of its token.

    Parameters
    ----------
    source : str
        The full file text.
    """
    text, starts, ends, breaks, bangs = _tokens(source)
    # the lines holding tokens: first token, token count, 1-based number
    bounds = np.concatenate(([0], np.searchsorted(starts, breaks), [starts.size]))
    counts = np.diff(bounds)
    filled = np.flatnonzero(counts)
    first, counts, numbers = bounds[filled], counts[filled], filled + 1
    hashes = text[starts[first]] == ord("#")
    data_lines, data_counts = numbers[~hashes], counts[~hashes]
    pending = (np.cumsum(data_counts) - data_counts) % 9  # columns before each data line
    faults = []  # (line found, error), the scan's order
    row_fault = _row_error(data_lines, data_counts, pending)
    if row_fault:
        faults.append(row_fault)
    option: _OptionLine | None = None
    for k, (i, n, lineno) in enumerate(zip(first[hashes][:2].tolist(), counts[hashes].tolist(),
                                           numbers[hashes].tolist())):
        if data_lines.size and data_lines[0] < lineno:
            faults.append((lineno, TouchstoneError("option line after data", lineno)))
        elif k:
            faults.append((lineno, TouchstoneError("duplicate option line", lineno)))
        else:
            try:
                option = _parse_option_line(source[starts[i]:ends[i + n - 1]], lineno)
                continue
            except TouchstoneError as exc:
                faults.append((lineno, exc))
        break
    stops = bangs
    if hashes.any():
        stops = np.sort(np.concatenate((bangs, starts[first[hashes]])))
        data = np.repeat(~hashes, counts)
        starts, ends = starts[data], ends[data]

    values, decided = parse_e17(text, starts, ends)
    del text  # the encoded source, before the libm steps allocate
    bad = None  # the first token that is no finite number
    rest = np.flatnonzero(~decided)
    tokens = _token_text(source, stops, starts, ends, rest)
    try:
        values[rest] = np.fromiter(map(float, tokens), float, rest.size)
        finite = np.isfinite(values).all()
    except ValueError:
        finite = False
    if not finite:  # find the first bad token and its line
        for i, token in zip(rest.tolist(), tokens):
            try:
                if math.isfinite(float(token)):
                    continue
                message = f"non-finite value {token!r}"
            except ValueError:
                message = f"non-numeric token {token!r}"
            bad = TouchstoneError(message, int(np.searchsorted(breaks, starts[i])) + 1)
            break
    if faults:
        # a bad token on the faulty line or an earlier one comes first in the file
        found, fault = min(faults, key=lambda f: f[0])
        raise bad if bad is not None and bad.line <= found else fault
    if bad is not None:
        raise bad

    if data_counts.size and (data_counts == 3).all():
        raise TouchstoneError(
            "rows have 3 columns (1-port data); only 2-port supported", int(data_lines[0])
        )
    row_lines = data_lines[pending == 0]  # line on which each row starts
    if values.size % 9:
        raise TouchstoneError(f"incomplete final row ({values.size % 9} of 9 columns)",
                              int(row_lines[-1]))
    if not row_lines.size:
        raise TouchstoneError("no data rows found")

    if option is None:
        option = _OptionLine()

    table = values.reshape(-1, 9)
    with np.errstate(over="ignore"):  # reported below as a located error
        freqs = table[:, 0] * option.scale
    bad = ~np.isfinite(freqs)
    bad[0] |= freqs[0] <= 0.0
    bad[1:] |= freqs[1:] <= freqs[:-1]
    # rows before the first bad frequency; a dB overflow among them comes first
    good = int(bad.argmax()) if bad.any() else len(freqs)
    # v1.0 two-port column order: S11 S21 S12 S22
    a = table[:good, 1::2].ravel()
    try:
        s = _pairs_to_complex(option.fmt, a, table[:good, 2::2].ravel())
    except OverflowError:
        for i, x in enumerate((a / 20.0).tolist()):
            try:
                10.0 ** x
            except OverflowError:
                raise TouchstoneError("dB magnitude overflows a float",
                                      int(row_lines[i // 4])) from None
        raise
    if good < len(freqs):
        f = float(freqs[good])
        if not math.isfinite(f):
            raise TouchstoneError(
                f"frequency {float(table[good, 0])!r} overflows in Hz", int(row_lines[good])
            )
        if not good:
            raise TouchstoneError(f"frequency {f:.6g} Hz is not positive", int(row_lines[0]))
        raise TouchstoneError(
            f"frequency {f:.6g} Hz is not above the previous point", int(row_lines[good])
        )
    mats = np.ascontiguousarray(s.reshape(-1, 2, 2).transpose(0, 2, 1))
    return NetworkRecord(freqs=freqs, matrices=mats, kind="S", z0=option.z0)


def write_touchstone(net: NetworkRecord, fmt: str = "RI", unit: str = "GHz") -> str:
    """Render an S-kind NetworkRecord as Touchstone v1.0 two-port text.

    Values are printed as ``%.17e`` (18 significant digits) so a parse
    round trip reproduces the matrices to floating-point precision (RI) or
    within 1e-12 relative (MA/DB).
    """
    if net.kind != "S":
        raise ValueError("write_touchstone requires an S-kind record; convert first")
    fmt_l = fmt.lower()
    if fmt_l not in _FORMATS:
        raise ValueError(f"format must be one of RI/MA/DB, got {fmt!r}")
    unit_l = unit.lower()
    if unit_l not in _UNIT_SCALE:
        raise ValueError(f"unit must be one of {'/'.join(UNITS)}, got {unit!r}")
    scale = _UNIT_SCALE[unit_l]

    n = net.npoints
    # v1.0 two-port column order: S11 S21 S12 S22
    s = net.matrices.transpose(0, 2, 1).reshape(n * 4)
    cells = np.empty((n, 9))
    cells[:, 0] = net.freqs / scale
    if fmt_l == "ri":
        first, second = s.real, s.imag
    else:
        # np.hypot is the libm hypot that abs(complex) calls; atan2 and
        # log10 stay on libm, whose last bit numpy's loops do not always
        # reproduce; math.degrees is x * (180 / pi)
        with np.errstate(over="ignore"):  # reported below as a located error
            first = np.hypot(s.real, s.imag)
        over = np.isinf(first)
        if over.any():
            f = float(net.freqs[int(over.argmax()) // 4])
            raise TouchstoneError(f"S-parameter magnitude overflows a float at {f:.6g} Hz")
        second = np.fromiter(map(math.atan2, s.imag.tolist(), s.real.tolist()), float, s.size)
        second *= 180.0 / math.pi
        if fmt_l == "db":
            first = 20.0 * np.fromiter(map(math.log10, np.maximum(first, 1e-300).tolist()),
                                       float, s.size)
    cells[:, 1::2] = first.reshape(n, 4)
    cells[:, 2::2] = second.reshape(n, 4)

    return (f"! 2-port S-parameters, {fmt_l.upper()} format\n"
            f"# {unit_l.upper()} S {fmt_l.upper()} R {net.z0:.17g}\n"
            + format_e17(cells))


def _cayley(x: np.ndarray, freqs: np.ndarray, name: str) -> np.ndarray:
    """(I - X) (I + X)^-1 for a stack of 2x2 matrices X.

    Raises SingularNetworkError at the first frequency where (I + X) is
    singular below the relative determinant floor, or where its determinant
    or scale overflows a float (entries above about 1e154).
    """
    eye = np.eye(2, dtype=complex)
    a = eye + x
    with np.errstate(over="ignore", invalid="ignore"):  # reported below as a located error
        det = a[:, 0, 0] * a[:, 1, 1] - a[:, 0, 1] * a[:, 1, 0]
        scale = np.sum(np.abs(a) ** 2, axis=(1, 2)) / 2.0
    over = np.nonzero(~(np.isfinite(scale) & np.isfinite(det)))[0]
    if over.size:
        raise SingularNetworkError(f"(I + {name}) is too large to invert", float(freqs[over[0]]))
    bad = np.nonzero(np.abs(det) / np.maximum(scale, 1e-300) < DET_REL_FLOOR)[0]
    if bad.size:
        raise SingularNetworkError(f"(I + {name}) is singular", float(freqs[bad[0]]))
    inv = np.empty_like(a)
    inv[:, 0, 0] = a[:, 1, 1]
    inv[:, 1, 1] = a[:, 0, 0]
    inv[:, 0, 1] = -a[:, 0, 1]
    inv[:, 1, 0] = -a[:, 1, 0]
    return (eye - x) @ (inv / det[:, None, None])


def s_to_y(net: NetworkRecord) -> NetworkRecord:
    """Convert S to Y: Y = (1/z0) (I - S) (I + S)^-1.

    Raises SingularNetworkError at the first frequency where (I + S) is
    singular below the relative determinant floor.
    """
    if net.kind != "S":
        raise ValueError("s_to_y requires an S-kind record")
    y = _cayley(net.matrices, net.freqs, "S") / net.z0
    return NetworkRecord(freqs=net.freqs, matrices=y, kind="Y", z0=net.z0)


def y_to_s(net: NetworkRecord) -> NetworkRecord:
    """Convert Y to S: S = (I - z0 Y) (I + z0 Y)^-1, with the same singular check."""
    if net.kind != "Y":
        raise ValueError("y_to_s requires a Y-kind record")
    s = _cayley(net.z0 * net.matrices, net.freqs, "z0 Y")
    return NetworkRecord(freqs=net.freqs, matrices=s, kind="S", z0=net.z0)


def device_admittance(net: NetworkRecord, embedding: str = "series") -> ComplexTrace:
    """Collapse a two-port Y record to the one-port device admittance.

    "series" treats the device as a series element between the two ports
    (Y_dev = -Y21, the default for through-connected resonators); "shunt"
    treats it as a shunt element at port 1 (Y_dev = Y11 + Y21).
    """
    if net.kind != "Y":
        raise ValueError("device_admittance requires a Y-kind record")
    if embedding == "series":
        values = -net.matrices[:, 1, 0]
    elif embedding == "shunt":
        values = net.matrices[:, 0, 0] + net.matrices[:, 1, 0]
    else:
        raise ValueError(f"embedding must be 'series' or 'shunt', got {embedding!r}")
    return ComplexTrace(freqs=net.freqs, values=values)


def series_element_network(trace: ComplexTrace, z0: float = 50.0) -> NetworkRecord:
    """Embed a one-port admittance as the series element of a two-port Y record.

    The inverse of the "series" convention in device_admittance: the
    resulting record has Y21 = -Y_dev, so analysis of the written file
    recovers the input trace exactly.
    """
    y = trace.values
    mats = np.empty((trace.npoints, 2, 2), dtype=complex)
    mats[:, 0, 0] = y
    mats[:, 1, 1] = y
    mats[:, 0, 1] = -y
    mats[:, 1, 0] = -y
    return NetworkRecord(freqs=trace.freqs, matrices=mats, kind="Y", z0=z0)
