"""Scalar reference implementations of the Touchstone, CSV and SVG text
paths, and the twin S-to-Y and Y-to-S conversions.

These are the token-by-token parser, the per-cell writers and the two
separate bilinear maps that the code in ``resokit`` replaced.  Tests
compare the library against them: written text must be byte-equal, parsed
frequencies and converted matrices bit-equal, and parse and conversion
errors must carry the same message and line or frequency.
They deliberately iterate numpy scalars and Python floats exactly as the
original loops did, so keep them unchanged when the library changes.
"""

from __future__ import annotations

import math
from typing import Iterable
from xml.sax.saxutils import escape

import numpy as np

from resokit.errors import SingularNetworkError, TouchstoneError
from resokit.netparams import (
    _FORMATS,
    _UNIT_SCALE,
    DET_REL_FLOOR,
    NetworkRecord,
    _OptionLine,
    _parse_option_line,
)
from resokit.svgplot import (
    _HEIGHT,
    _MARGIN_B,
    _MARGIN_L,
    _MARGIN_R,
    _MARGIN_T,
    _WIDTH,
    PALETTE,
    Series,
    _decade_ticks,
    _finite_range,
    _fmt_coord,
    _fmt_tick,
    _nice_ticks,
)


def _pair_to_complex(fmt: str, a: float, b: float) -> complex:
    if fmt == "ri":
        return complex(a, b)
    if fmt == "ma":
        return a * complex(math.cos(math.radians(b)), math.sin(math.radians(b)))
    # db: magnitude in dB20, angle in degrees
    mag = 10.0 ** (a / 20.0)
    return mag * complex(math.cos(math.radians(b)), math.sin(math.radians(b)))


def parse_touchstone(source: str | Iterable[str]) -> NetworkRecord:
    if isinstance(source, str):
        lines = source.splitlines()
    else:
        lines = [str(s) for s in source]

    option: _OptionLine | None = None
    rows: list[tuple[int, list[float]]] = []
    buffer: list[float] = []
    buffer_line = 0
    line_token_counts: list[tuple[int, int]] = []

    for lineno, raw in enumerate(lines, start=1):
        bang = raw.find("!")
        if bang >= 0:
            raw = raw[:bang]
        text = raw.strip()
        if not text:
            continue
        if text.startswith("#"):
            if rows or buffer:
                raise TouchstoneError("option line after data", lineno)
            if option is not None:
                raise TouchstoneError("duplicate option line", lineno)
            option = _parse_option_line(text, lineno)
            continue
        tokens = text.split()
        values = []
        for tok in tokens:
            try:
                value = float(tok)
            except ValueError:
                raise TouchstoneError(f"non-numeric token {tok!r}", lineno) from None
            if not math.isfinite(value):
                raise TouchstoneError(f"non-finite value {tok!r}", lineno)
            values.append(value)
        line_token_counts.append((lineno, len(values)))
        if not buffer:
            buffer_line = lineno
            if len(values) > 9:
                raise TouchstoneError(
                    f"{len(values)} columns in one row; only 2-port data (9 columns) supported",
                    lineno,
                )
        buffer.extend(values)
        if len(buffer) == 9:
            rows.append((buffer_line, buffer.copy()))
            buffer.clear()
        elif len(buffer) > 9:
            raise TouchstoneError(
                f"row starting here accumulates {len(buffer)} columns, expected 9", buffer_line
            )

    all_three = len(line_token_counts) >= 2 and all(c == 3 for _, c in line_token_counts)
    if buffer:
        if all(c == 3 for _, c in line_token_counts):
            raise TouchstoneError(
                "rows have 3 columns (1-port data); only 2-port supported",
                line_token_counts[0][0],
            )
        raise TouchstoneError(
            f"incomplete final row ({len(buffer)} of 9 columns)", buffer_line
        )
    if all_three:
        raise TouchstoneError(
            "rows have 3 columns (1-port data); only 2-port supported",
            line_token_counts[0][0],
        )
    if not rows:
        raise TouchstoneError("no data rows found")

    if option is None:
        option = _OptionLine()

    freqs = np.empty(len(rows))
    mats = np.empty((len(rows), 2, 2), dtype=complex)
    prev = -math.inf
    for i, (lineno, row) in enumerate(rows):
        f = row[0] * option.scale
        if not math.isfinite(f):
            raise TouchstoneError(f"frequency {row[0]!r} overflows in Hz", lineno)
        if f <= prev:
            raise TouchstoneError(
                f"frequency {f:.6g} Hz is not above the previous point", lineno
            )
        prev = f
        freqs[i] = f
        # v1.0 two-port column order: S11 S21 S12 S22
        try:
            s11 = _pair_to_complex(option.fmt, row[1], row[2])
            s21 = _pair_to_complex(option.fmt, row[3], row[4])
            s12 = _pair_to_complex(option.fmt, row[5], row[6])
            s22 = _pair_to_complex(option.fmt, row[7], row[8])
        except OverflowError:
            raise TouchstoneError("dB magnitude overflows a float", lineno) from None
        mats[i, 0, 0] = s11
        mats[i, 0, 1] = s12
        mats[i, 1, 0] = s21
        mats[i, 1, 1] = s22

    return NetworkRecord(freqs=freqs, matrices=mats, kind="S", z0=option.z0)


def write_touchstone(net: NetworkRecord, fmt: str = "RI", unit: str = "GHz") -> str:
    if net.kind != "S":
        raise ValueError("write_touchstone requires an S-kind record; convert first")
    fmt_l = fmt.lower()
    if fmt_l not in _FORMATS:
        raise ValueError(f"format must be one of RI/MA/DB, got {fmt!r}")
    unit_l = unit.lower()
    if unit_l not in _UNIT_SCALE:
        raise ValueError(f"unit must be one of Hz/kHz/MHz/GHz, got {unit!r}")
    scale = _UNIT_SCALE[unit_l]

    def pair(v: complex) -> tuple[float, float]:
        if fmt_l == "ri":
            return v.real, v.imag
        mag = abs(v)
        ang = math.degrees(math.atan2(v.imag, v.real))
        if fmt_l == "ma":
            return mag, ang
        return 20.0 * math.log10(max(mag, 1e-300)), ang

    out = [f"! 2-port S-parameters, {fmt_l.upper()} format",
           f"# {unit_l.upper()} S {fmt_l.upper()} R {net.z0:.17g}"]
    for i in range(net.npoints):
        m = net.matrices[i]
        cells = [net.freqs[i] / scale]
        for v in (m[0, 0], m[1, 0], m[0, 1], m[1, 1]):
            cells.extend(pair(v))
        out.append(" ".join(f"{c:.17e}" for c in cells))
    return "\n".join(out) + "\n"


def _det_and_rel(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    det = a[:, 0, 0] * a[:, 1, 1] - a[:, 0, 1] * a[:, 1, 0]
    scale = np.sum(np.abs(a) ** 2, axis=(1, 2)) / 2.0
    rel = np.abs(det) / np.maximum(scale, 1e-300)
    return det, rel


def _inv2(a: np.ndarray, det: np.ndarray) -> np.ndarray:
    inv = np.empty_like(a)
    inv[:, 0, 0] = a[:, 1, 1]
    inv[:, 1, 1] = a[:, 0, 0]
    inv[:, 0, 1] = -a[:, 0, 1]
    inv[:, 1, 0] = -a[:, 1, 0]
    return inv / det[:, None, None]


def s_to_y(net: NetworkRecord) -> NetworkRecord:
    if net.kind != "S":
        raise ValueError("s_to_y requires an S-kind record")
    eye = np.eye(2, dtype=complex)
    a = eye[None, :, :] + net.matrices
    det, rel = _det_and_rel(a)
    bad = np.nonzero(rel < DET_REL_FLOOR)[0]
    if bad.size:
        raise SingularNetworkError("(I + S) is singular", float(net.freqs[bad[0]]))
    y = (eye[None, :, :] - net.matrices) @ _inv2(a, det) / net.z0
    return NetworkRecord(freqs=net.freqs, matrices=y, kind="Y", z0=net.z0)


def y_to_s(net: NetworkRecord) -> NetworkRecord:
    if net.kind != "Y":
        raise ValueError("y_to_s requires a Y-kind record")
    eye = np.eye(2, dtype=complex)
    zy = net.z0 * net.matrices
    a = eye[None, :, :] + zy
    det, rel = _det_and_rel(a)
    bad = np.nonzero(rel < DET_REL_FLOOR)[0]
    if bad.size:
        raise SingularNetworkError("(I + z0 Y) is singular", float(net.freqs[bad[0]]))
    s = (eye[None, :, :] - zy) @ _inv2(a, det)
    return NetworkRecord(freqs=net.freqs, matrices=s, kind="S", z0=net.z0)


def admittance_csv(freqs: np.ndarray, measured: np.ndarray | None,
                   fitted: np.ndarray | None) -> str:
    cols = ["freq_Hz"]
    if measured is not None:
        cols += ["ReY_S", "ImY_S"]
    if fitted is not None:
        cols += ["ReYfit_S", "ImYfit_S"]
    lines = [",".join(cols)]
    for i, f in enumerate(freqs):
        cells = [repr(float(f))]
        if measured is not None:
            cells += [repr(float(measured[i].real)), repr(float(measured[i].imag))]
        if fitted is not None:
            cells += [repr(float(fitted[i].real)), repr(float(fitted[i].imag))]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def line_plot(
    series: list[Series],
    xlabel: str,
    ylabel: str,
    title: str = "",
    logy: bool = False,
) -> str:
    if not series:
        raise ValueError("nothing to plot")
    xlo, xhi = _finite_range([s.x for s in series], False)
    ylo, yhi = _finite_range([s.y for s in series], logy)
    if logy:
        ylo, yhi = math.log10(ylo), math.log10(yhi)
    xpad = (xhi - xlo) * 0.04 or 1.0
    ypad = (yhi - ylo) * 0.06 or 1.0
    xlo, xhi = xlo - xpad, xhi + xpad
    ylo, yhi = ylo - ypad, yhi + ypad

    px0, px1 = _MARGIN_L, _WIDTH - _MARGIN_R
    py0, py1 = _HEIGHT - _MARGIN_B, _MARGIN_T

    def sx(v: float) -> float:
        return px0 + (v - xlo) / (xhi - xlo) * (px1 - px0)

    def sy(v: float) -> float:
        t = math.log10(v) if logy else v
        return py0 + (t - ylo) / (yhi - ylo) * (py1 - py0)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH:g}" height="{_HEIGHT:g}" '
        f'viewBox="0 0 {_WIDTH:g} {_HEIGHT:g}" font-family="sans-serif" font-size="12">',
        f'<rect width="{_WIDTH:g}" height="{_HEIGHT:g}" fill="white"/>',
    ]
    if title:
        parts.append(f'<text x="{_WIDTH / 2:g}" y="18" text-anchor="middle" '
                     f'font-size="14">{escape(title)}</text>')

    xticks = _nice_ticks(xlo, xhi)
    yticks = _decade_ticks(10.0 ** ylo, 10.0 ** yhi) if logy else _nice_ticks(ylo, yhi)
    for t in xticks:
        px = sx(t)
        parts.append(f'<line x1="{_fmt_coord(px)}" y1="{py0:g}" x2="{_fmt_coord(px)}" '
                     f'y2="{py1:g}" stroke="#dddddd" stroke-width="1"/>')
        parts.append(f'<text x="{_fmt_coord(px)}" y="{py0 + 16:g}" '
                     f'text-anchor="middle">{escape(_fmt_tick(t))}</text>')
    for t in yticks:
        py = sy(t)
        parts.append(f'<line x1="{px0:g}" y1="{_fmt_coord(py)}" x2="{px1:g}" '
                     f'y2="{_fmt_coord(py)}" stroke="#dddddd" stroke-width="1"/>')
        parts.append(f'<text x="{px0 - 6:g}" y="{_fmt_coord(py + 4)}" '
                     f'text-anchor="end">{escape(_fmt_tick(t))}</text>')

    parts.append(f'<rect x="{px0:g}" y="{py1:g}" width="{px1 - px0:g}" '
                 f'height="{py0 - py1:g}" fill="none" stroke="#333333"/>')
    parts.append(f'<text x="{(px0 + px1) / 2:g}" y="{_HEIGHT - 10:g}" '
                 f'text-anchor="middle">{escape(xlabel)}</text>')
    parts.append(f'<text x="16" y="{(py0 + py1) / 2:g}" text-anchor="middle" '
                 f'transform="rotate(-90 16 {(py0 + py1) / 2:g})">{escape(ylabel)}</text>')

    for i, s in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        ok = np.isfinite(s.x) & np.isfinite(s.y)
        if logy:
            ok &= s.y > 0.0
        segments: list[list[str]] = [[]]
        for keep, xv, yv in zip(ok, s.x, s.y):
            if not keep:
                if segments[-1]:
                    segments.append([])
                continue
            segments[-1].append(f"{_fmt_coord(sx(xv))},{_fmt_coord(sy(yv))}")
        for seg in segments:
            if len(seg) == 1:
                cx, cy = seg[0].split(",")
                parts.append(f'<circle cx="{cx}" cy="{cy}" r="2.5" fill="{color}"/>')
            elif seg:
                parts.append(f'<polyline points="{" ".join(seg)}" fill="none" '
                             f'stroke="{color}" stroke-width="1.5"/>')
        if s.label:
            ly = py1 + 16 + 16 * i
            parts.append(f'<line x1="{px1 - 150:g}" y1="{ly - 4:g}" x2="{px1 - 126:g}" '
                         f'y2="{ly - 4:g}" stroke="{color}" stroke-width="2"/>')
            parts.append(f'<text x="{px1 - 120:g}" y="{ly:g}">{escape(s.label)}</text>')

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
