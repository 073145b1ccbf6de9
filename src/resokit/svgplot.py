"""Minimal deterministic SVG line plots.

Self-contained output with no display dependency; identical inputs produce
byte-identical SVG (fixed palette, fixed coordinate formatting, no
timestamps). Non-finite samples split a series into separate polyline
segments, which also gives stem plots for free (interleave NaNs).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._digits import format_points

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

_WIDTH = 720.0
_HEIGHT = 440.0
_MARGIN_L = 64.0
_MARGIN_R = 16.0
_MARGIN_T = 28.0
_MARGIN_B = 46.0


def _escape(text: str) -> str:
    """Escape &, < and > for SVG text, as ``xml.sax.saxutils.escape`` does
    (that module's import pulls in urllib, http, email and ssl)."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


@dataclass(frozen=True)
class Series:
    label: str
    x: np.ndarray
    y: np.ndarray

    def __post_init__(self) -> None:
        x = np.asarray(self.x, dtype=float).reshape(-1)
        y = np.asarray(self.y, dtype=float).reshape(-1)
        if x.size != y.size:
            raise ValueError("series x and y lengths differ")
        if x.size == 0:
            raise ValueError("empty series")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)


def _finite_range(arrays: list[np.ndarray], log: bool) -> tuple[float, float]:
    vals = np.concatenate(arrays)
    vals = vals[np.isfinite(vals)]
    if log:
        vals = vals[vals > 0.0]
    if vals.size == 0:
        raise ValueError("no plottable values")
    lo, hi = float(vals.min()), float(vals.max())
    if lo == hi:
        pad = abs(lo) * 0.1 or 1.0
        return lo - pad, hi + pad
    return lo, hi


def _nice_ticks(lo: float, hi: float, target: int = 6) -> list[float]:
    span = hi - lo
    raw = span / max(target - 1, 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    step = 10.0 * mag
    for mult in (1.0, 2.0, 5.0, 10.0):
        if span / (mult * mag) <= target - 1 + 1e-9:
            step = mult * mag
            break
    start = math.ceil(lo / step - 1e-9) * step
    ticks = []
    t = start
    while t <= hi + 1e-9 * step:
        ticks.append(0.0 if abs(t) < 1e-12 * step else t)
        t += step
    return ticks


def _decade_ticks(lo: float, hi: float) -> list[float]:
    return [10.0 ** k for k in range(math.ceil(math.log10(lo) - 1e-9),
                                     math.floor(math.log10(hi) + 1e-9) + 1)]


def _fmt_tick(v: float) -> str:
    return f"{v:g}"


def _fmt_coord(v: float) -> str:
    return f"{v:.2f}"


def _to_pixels(values, lo: float, hi: float, p0: float, p1: float, log: bool) -> np.ndarray:
    # log10 stays on libm; the affine map keeps the scalar operation order
    t = np.array(list(map(math.log10, values))) if log else np.asarray(values, dtype=float)
    return p0 + (t - lo) / (hi - lo) * (p1 - p0)


def line_plot(
    series: list[Series],
    xlabel: str,
    ylabel: str,
    title: str = "",
    logy: bool = False,
) -> str:
    """Render series as an SVG document string."""
    if not series:
        raise ValueError("nothing to plot")
    xlo, xhi = _finite_range([s.x for s in series], False)
    ylo, yhi = _finite_range([s.y for s in series], logy)
    if logy:
        ylo, yhi = math.log10(ylo), math.log10(yhi)
    # pad the data box so curves do not sit on the frame
    xpad = (xhi - xlo) * 0.04 or 1.0
    ypad = (yhi - ylo) * 0.06 or 1.0
    xlo, xhi = xlo - xpad, xhi + xpad
    ylo, yhi = ylo - ypad, yhi + ypad

    px0, px1 = _MARGIN_L, _WIDTH - _MARGIN_R
    py0, py1 = _HEIGHT - _MARGIN_B, _MARGIN_T

    def sx(values) -> np.ndarray:
        return _to_pixels(values, xlo, xhi, px0, px1, False)

    def sy(values) -> np.ndarray:
        return _to_pixels(values, ylo, yhi, py0, py1, logy)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH:g}" height="{_HEIGHT:g}" '
        f'viewBox="0 0 {_WIDTH:g} {_HEIGHT:g}" font-family="sans-serif" font-size="12">',
        f'<rect width="{_WIDTH:g}" height="{_HEIGHT:g}" fill="white"/>',
    ]
    if title:
        parts.append(f'<text x="{_WIDTH / 2:g}" y="18" text-anchor="middle" '
                     f'font-size="14">{_escape(title)}</text>')

    xticks = _nice_ticks(xlo, xhi)
    yticks = _decade_ticks(10.0 ** ylo, 10.0 ** yhi) if logy else _nice_ticks(ylo, yhi)
    for t, px in zip(xticks, sx(xticks).tolist()):
        parts.append(f'<line x1="{_fmt_coord(px)}" y1="{py0:g}" x2="{_fmt_coord(px)}" '
                     f'y2="{py1:g}" stroke="#dddddd" stroke-width="1"/>')
        parts.append(f'<text x="{_fmt_coord(px)}" y="{py0 + 16:g}" '
                     f'text-anchor="middle">{_escape(_fmt_tick(t))}</text>')
    for t, py in zip(yticks, sy(yticks).tolist()):
        parts.append(f'<line x1="{px0:g}" y1="{_fmt_coord(py)}" x2="{px1:g}" '
                     f'y2="{_fmt_coord(py)}" stroke="#dddddd" stroke-width="1"/>')
        parts.append(f'<text x="{px0 - 6:g}" y="{_fmt_coord(py + 4)}" '
                     f'text-anchor="end">{_escape(_fmt_tick(t))}</text>')

    parts.append(f'<rect x="{px0:g}" y="{py1:g}" width="{px1 - px0:g}" '
                 f'height="{py0 - py1:g}" fill="none" stroke="#333333"/>')
    parts.append(f'<text x="{(px0 + px1) / 2:g}" y="{_HEIGHT - 10:g}" '
                 f'text-anchor="middle">{_escape(xlabel)}</text>')
    parts.append(f'<text x="16" y="{(py0 + py1) / 2:g}" text-anchor="middle" '
                 f'transform="rotate(-90 16 {(py0 + py1) / 2:g})">{_escape(ylabel)}</text>')

    for i, s in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        ok = np.isfinite(s.x) & np.isfinite(s.y)
        if logy:
            ok &= s.y > 0.0
        # one "%.2f,%.2f" per plottable sample
        points = format_points(sx(s.x[ok]), sy(s.y[ok])).split(" ") if ok.any() else []
        # runs of consecutive plottable samples
        idx = np.flatnonzero(ok)
        cuts = (np.flatnonzero(np.diff(idx) > 1) + 1).tolist()
        for start, stop in zip([0] + cuts, cuts + [len(points)]):
            seg = points[start:stop]
            if len(seg) == 1:
                # lone point: render as a small circle so it stays visible
                cx, cy = seg[0].split(",")
                parts.append(f'<circle cx="{cx}" cy="{cy}" r="2.5" fill="{color}"/>')
            elif seg:
                parts.append(f'<polyline points="{" ".join(seg)}" fill="none" '
                             f'stroke="{color}" stroke-width="1.5"/>')
        if s.label:
            ly = py1 + 16 + 16 * i
            parts.append(f'<line x1="{px1 - 150:g}" y1="{ly - 4:g}" x2="{px1 - 126:g}" '
                         f'y2="{ly - 4:g}" stroke="{color}" stroke-width="2"/>')
            parts.append(f'<text x="{px1 - 120:g}" y="{ly:g}">{_escape(s.label)}</text>')

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def stem_series(label: str, x: np.ndarray, y: np.ndarray) -> Series:
    """Vertical-stem representation of (x, y) pairs for line_plot."""
    x = np.asarray(x, dtype=float).reshape(-1)
    y = np.asarray(y, dtype=float).reshape(-1)
    if x.size != y.size or x.size == 0:
        raise ValueError("stem data must be equal-length and non-empty")
    xs = np.repeat(x, 3)
    ys = np.empty(3 * y.size)
    ys[0::3] = 0.0
    ys[1::3] = y
    ys[2::3] = np.nan
    return Series(label=label, x=xs, y=ys)
