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

from ._digits import format_e17
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
    c = np.array(list(map(math.cos, radians)))
    s = np.array(list(map(math.sin, radians)))
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
    # db: magnitude in dB20
    return _polar(np.array([10.0 ** x for x in (a / 20.0).tolist()]), b)


def _convert_tokens(tokens: list[str], data_lines: list[int], counts: list[int]) -> np.ndarray:
    """All tokens as floats, or TouchstoneError at the first bad one."""
    try:
        values = np.array(list(map(float, tokens)), dtype=float)
        if np.isfinite(values).all():
            return values
    except ValueError:
        pass
    it = iter(tokens)
    for lineno, n in zip(data_lines, counts):
        for tok in itertools.islice(it, n):
            try:
                value = float(tok)
            except ValueError:
                raise TouchstoneError(f"non-numeric token {tok!r}", lineno) from None
            if not math.isfinite(value):
                raise TouchstoneError(f"non-finite value {tok!r}", lineno) from None
    raise AssertionError("no bad token found")


def parse_touchstone(source: str) -> NetworkRecord:
    """Parse Touchstone v1.0 two-port text into a NetworkRecord of kind "S".

    Accepts the full option-line vocabulary (Hz/kHz/MHz/GHz, RI/MA/DB,
    R z0), ``!`` comments, blank lines, and rows wrapped across physical
    lines.  A missing option line means ``# GHZ S MA R 50``.  Anything
    that is not a well-formed two-port file on a positive, strictly
    increasing frequency grid raises TouchstoneError with the offending
    line number; of several faults, the first in the file is reported.

    Parameters
    ----------
    source : str
        The full file text.
    """
    option: _OptionLine | None = None
    tokens: list[str] = []
    data_lines: list[int] = []  # line number of each data line
    counts: list[int] = []  # tokens on each data line
    row_lines: list[int] = []  # line on which each row starts
    pending = 0  # columns read of the row not yet complete
    try:
        for lineno, raw in enumerate(source.splitlines(), start=1):
            bang = raw.find("!")
            if bang >= 0:
                raw = raw[:bang]
            text = raw.strip()
            if not text:
                continue
            if text.startswith("#"):
                if counts:
                    raise TouchstoneError("option line after data", lineno)
                if option is not None:
                    raise TouchstoneError("duplicate option line", lineno)
                option = _parse_option_line(text, lineno)
                continue
            line_tokens = text.split()
            n = len(line_tokens)
            tokens += line_tokens
            data_lines.append(lineno)
            counts.append(n)
            if not pending:
                row_lines.append(lineno)
                if n > 9:
                    raise TouchstoneError(
                        f"{n} columns in one row; only 2-port data (9 columns) supported",
                        lineno,
                    )
            pending += n
            if pending == 9:
                pending = 0
            elif pending > 9:
                raise TouchstoneError(
                    f"row starting here accumulates {pending} columns, expected 9",
                    row_lines[-1],
                )
    except TouchstoneError:
        # a bad token on this line or an earlier one comes first in the file
        _convert_tokens(tokens, data_lines, counts)
        raise
    values = _convert_tokens(tokens, data_lines, counts)

    if counts and counts.count(3) == len(counts):
        raise TouchstoneError(
            "rows have 3 columns (1-port data); only 2-port supported", data_lines[0]
        )
    if pending:
        raise TouchstoneError(f"incomplete final row ({pending} of 9 columns)", row_lines[-1])
    if not row_lines:
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
                raise TouchstoneError("dB magnitude overflows a float", row_lines[i // 4]) from None
        raise
    if good < len(freqs):
        f = float(freqs[good])
        if not math.isfinite(f):
            raise TouchstoneError(
                f"frequency {float(table[good, 0])!r} overflows in Hz", row_lines[good]
            )
        if not good:
            raise TouchstoneError(f"frequency {f:.6g} Hz is not positive", row_lines[0])
        raise TouchstoneError(
            f"frequency {f:.6g} Hz is not above the previous point", row_lines[good]
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
        second = np.array(list(map(math.atan2, s.imag.tolist(), s.real.tolist())))
        second *= 180.0 / math.pi
        if fmt_l == "db":
            first = 20.0 * np.array(list(map(math.log10, np.maximum(first, 1e-300).tolist())))
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
