"""Direct estimators that turn a measured admittance trace into fit seeds.

No iteration here: resonance candidates come from prominence-based peak
picking on |Y| in dB, the static capacitance from the off-resonance
susceptance slope, and Q from the local phase slope.  Output quality only
needs to land inside the fit engine's basin of attraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import EstimationError, InductiveBackgroundError, PhaseUnwrapError
from .mbvd import TWO_PI, MbvdModel, MotionalBranch
from .netparams import ComplexTrace

# Half-prominence widths are inflated by this factor to form exclusion
# spans; resonance susceptance tails decay slowly (~1/detuning).
_SPAN_WIDEN = 8.0

# Phase-slope precondition: at least 5 points within +-f0/(2*Q_FLOOR).
Q_FLOOR = 10.0


@dataclass(frozen=True)
class ResonanceCandidate:
    """One detected resonance: estimates plus the grid span it occupies.

    span is an inclusive (lo, hi) pair of grid indices covering the
    feature, used to mask resonant points out of baseline estimates.
    """

    fs_est: float
    fp_est: float | None
    prominence_db: float
    span: tuple[int, int]

    def __post_init__(self):
        if not self.fs_est > 0:
            raise ValueError("fs_est must be positive")
        if self.fp_est is not None and not self.fp_est > self.fs_est:
            raise ValueError("fp_est must exceed fs_est when present")
        lo, hi = self.span
        if lo > hi or lo < 0:
            raise ValueError(f"bad span {self.span!r}")


def _higher_peak_starts(peaks: list[int], heights: list[float]) -> list[int]:
    """For each peak, the position of the nearest strictly higher peak to
    its left, or 0 when there is none (one monotone-stack pass)."""
    out, stack = [], []
    for p, h in zip(peaks, heights):
        while stack and stack[-1][1] <= h:
            stack.pop()
        out.append(stack[-1][0] if stack else 0)
        stack.append((p, h))
    return out


def _prominent_peaks(x: np.ndarray, min_prominence: float):
    """Local maxima of x with prominence >= min_prominence.

    Standard topographic prominence with an unbounded window: a plateau
    counts once at its midpoint, the first and last samples are never
    peaks, and a peak's prominence is its height above the higher of the
    two minima between it and the nearest strictly higher sample (or the
    array end) on either side.  left_ips/right_ips are the linearly
    interpolated crossings of half the prominence below the peak.
    Returns (peaks, prominences, left_ips, right_ips).
    """
    n = x.size
    step = np.diff(x)
    nz = np.flatnonzero(step)
    rises = step[nz] > 0
    top = np.flatnonzero(rises[:-1] & ~rises[1:])
    # plateau from nz[k] + 1 to nz[k + 1], kept at its midpoint
    peaks = (nz[top] + 1 + nz[top + 1]) // 2
    if peaks.size == 0:
        return peaks, np.empty(0), np.empty(0), np.empty(0)
    heights = x[peaks]
    left_start = np.array(_higher_peak_starts(peaks.tolist(), heights.tolist()))
    mirrored = _higher_peak_starts((n - 1 - peaks[::-1]).tolist(), heights[::-1].tolist())
    right_end = n - 1 - np.array(mirrored[::-1])
    # reduceat reduces x[idx[2k]:idx[2k + 1]]; the spare sample makes an
    # end index of n valid and is never part of a kept range.
    padded = np.append(x, 0.0)
    left_min = np.minimum.reduceat(padded, np.ravel([left_start, peaks + 1], order="F"))[::2]
    right_min = np.minimum.reduceat(padded, np.ravel([peaks, right_end + 1], order="F"))[::2]
    prominences = heights - np.maximum(left_min, right_min)

    keep = prominences >= min_prominence
    peaks, prominences = peaks[keep], prominences[keep]
    left_ips = np.empty(peaks.size)
    right_ips = np.empty(peaks.size)
    xs = x.tolist()
    for k, p in enumerate(peaks.tolist()):
        # A peak stands strictly above its neighbours, so its prominence is
        # positive and both segment minima lie below the half height: each
        # walk stops inside the peak's segment.
        h = xs[p] - prominences[k] * 0.5
        i = p
        while xs[i] > h:
            i -= 1
        left_ips[k] = i + (h - xs[i]) / (xs[i + 1] - xs[i]) if xs[i] < h else i
        i = p
        while xs[i] > h:
            i += 1
        right_ips[k] = i - (h - xs[i]) / (xs[i - 1] - xs[i]) if xs[i] < h else i
    return peaks, prominences, left_ips, right_ips


def detect_resonances(trace: ComplexTrace, threshold_db: float = 3.0) -> list[ResonanceCandidate]:
    """Find resonance candidates as prominent maxima of |Y|.

    Each local maximum of 20 log10 |Y| with prominence >= threshold_db
    becomes a candidate; the nearest following prominent minimum (the
    antiresonance notch) supplies fp_est when present.  Candidates are
    returned sorted by frequency.  A featureless trace yields [].
    """
    if trace.npoints < 16:
        raise ValueError(f"need at least 16 points, got {trace.npoints}")
    if not threshold_db > 0:
        raise ValueError("threshold_db must be positive")
    mag_db = 20.0 * np.log10(np.maximum(np.abs(trace.values), 1e-300))

    peaks, prominences, left_ips, right_ips = _prominent_peaks(mag_db, threshold_db)
    if peaks.size == 0:
        return []
    mins, _, _, m_right = _prominent_peaks(-mag_db, threshold_db)

    n = trace.npoints
    out: list[ResonanceCandidate] = []
    for i, p in enumerate(peaks):
        lo = int(math.floor(p - _SPAN_WIDEN * max(p - left_ips[i], 1.0)))
        hi = int(math.ceil(p + _SPAN_WIDEN * max(right_ips[i] - p, 1.0)))
        fp_est = None
        following = np.flatnonzero(mins > p)
        if following.size:
            j = int(following[0])
            m_idx = int(mins[j])
            fp_est = float(trace.freqs[m_idx])
            hi = max(hi, int(math.ceil(m_idx + _SPAN_WIDEN * max(m_right[j] - m_idx, 1.0))))
        out.append(
            ResonanceCandidate(
                fs_est=float(trace.freqs[p]),
                fp_est=fp_est,
                prominence_db=float(prominences[i]),
                span=(max(lo, 0), min(hi, n - 1)),
            )
        )
    return out


def c0_from_offresonance(
    trace: ComplexTrace,
    exclusions: Sequence[tuple[int, int]] = (),
    fs_hints: Sequence[float] | None = None,
) -> float:
    """Static capacitance from the susceptance slope away from resonances.

    Fits Im(Y) = slope * w + intercept over all points outside the given
    inclusive index spans and returns the slope.  Motional tails reach far
    beyond any finite exclusion span (the shoulder susceptance decays only
    as 1/detuning), so after the first fit points whose residuals are gross
    outliers by the MAD criterion are trimmed and the line refitted; on a
    clean static trace the trim is a no-op.

    When fs_hints gives the approximate series resonances, the shoulder
    shape is known up to scale and the fit becomes linear in
    (c0, cm_1, ..., cm_K): Im(Y)/w = c0 + sum_k cm_k/(1 - (f/fs_k)^2).
    Strongly coupled devices on short sweep spans have no shoulder-free
    stretch at all, so the plain slope can even turn inductive there; the
    hinted fit separates the static term instead of trimming around it.

    At least 10% of the grid must survive the exclusions, and the result
    must be capacitive.
    """
    n = trace.npoints
    if n < 2:
        raise ValueError("need at least two points")
    mask = np.ones(n, dtype=bool)
    for lo, hi in exclusions:
        mask[max(lo, 0) : min(hi, n - 1) + 1] = False
    kept = int(mask.sum())
    if kept < max(2, math.ceil(0.10 * n)):
        raise EstimationError(
            f"only {kept}/{n} points left off-resonance; need at least 10%"
        )
    f = trace.freqs[mask]
    w = TWO_PI * f
    b = trace.values.imag[mask]

    if fs_hints:
        hints = [fs for fs in fs_hints if fs > 0]
        # Points essentially on top of a hinted resonance would need the
        # loss term; drop them instead.
        detune = np.ones(f.size, dtype=bool)
        for fs in hints:
            detune &= np.abs(1.0 - (f / fs) ** 2) > 1e-3
        if detune.sum() >= max(4, 2 + len(hints)):
            cols = [np.ones(detune.sum())]
            for fs in hints:
                cols.append(1.0 / (1.0 - (f[detune] / fs) ** 2))
            a = np.column_stack(cols)
            coef, *_ = np.linalg.lstsq(a, b[detune] / w[detune], rcond=None)
            c0 = float(coef[0])
            if c0 > 0:
                return c0
            raise InductiveBackgroundError(c0)

    slope, intercept = np.polyfit(w, b, 1)
    for _ in range(2):
        resid = b - (slope * w + intercept)
        center = np.median(resid)
        mad = np.median(np.abs(resid - center))
        if mad <= 0.0:
            break
        keep = np.abs(resid - center) <= 5.0 * mad
        if keep.all() or keep.sum() < max(8, w.size // 10):
            break
        w, b = w[keep], b[keep]
        slope, intercept = np.polyfit(w, b, 1)
    if slope <= 0:
        raise InductiveBackgroundError(float(slope))
    return float(slope)


def q_from_phase_slope(trace: ComplexTrace, f0: float) -> float:
    """Quality factor Q = (f0/2) |d phi / d f| at f0.

    phi is the unwrapped phase of the trace (nearest-multiple-of-2pi
    continuation from the lowest frequency); the derivative comes from a
    least-squares line through the 5 samples centered on f0.  Adjacent
    raw-phase jumps above pi inside that window are unrecoverable and
    raise PhaseUnwrapError.
    """
    n = trace.npoints
    if n < 5:
        raise ValueError("need at least 5 points")
    f = trace.freqs
    if not (f[0] <= f0 <= f[-1]):
        raise ValueError(f"f0 {f0:.6g} Hz outside grid [{f[0]:.6g}, {f[-1]:.6g}]")
    half = f0 / (2.0 * Q_FLOOR)
    in_window = int(np.count_nonzero(np.abs(f - f0) <= half))
    if in_window < 5:
        raise ValueError(
            f"only {in_window} points within +-f0/{2 * Q_FLOOR:.0f} of f0; densify the grid"
        )
    i0 = int(np.argmin(np.abs(f - f0)))
    lo = min(max(i0 - 2, 0), n - 5)
    sel = slice(lo, lo + 5)

    raw = np.angle(trace.values)
    jumps = np.abs(np.diff(raw[sel]))
    if np.any(jumps > math.pi):
        raise PhaseUnwrapError(
            f"raw phase jumps by {jumps.max():.3f} rad between adjacent points"
        )
    phi = np.unwrap(raw)[sel]
    slope = np.polyfit(f[sel] - f0, phi, 1)[0]
    return float(f0 / 2.0 * abs(slope))


def initial_guess(
    trace: ComplexTrace,
    candidates: Sequence[ResonanceCandidate],
    exclude: Sequence[tuple[int, int]] | None = None,
) -> MbvdModel:
    """Assemble a seed MBVD model from detected candidates.

    c0 comes from the off-resonance slope (excluding every candidate span,
    or the explicit override), cm from the fs/fp pair when the notch was
    seen (falling back to cm = 0.05 c0), lm from fs and cm, and rm from
    |Y| at the peak after removing the static susceptance.  Loss elements
    r0 and rs seed at zero.
    """
    if not candidates:
        raise ValueError("need at least one resonance candidate")
    spans = exclude if exclude is not None else [c.span for c in candidates]
    c0 = c0_from_offresonance(trace, spans, fs_hints=[c.fs_est for c in candidates])

    branches = []
    for cand in sorted(candidates, key=lambda c: c.fs_est):
        fs_e = cand.fs_est
        ratio = 0.0
        if cand.fp_est is not None and cand.fp_est > fs_e:
            ratio = (cand.fp_est / fs_e) ** 2 - 1.0  # equals cm/c0
        if not 1e-6 < ratio < 10.0:
            ratio = 0.05
        cm = ratio * c0
        lm = 1.0 / ((TWO_PI * fs_e) ** 2 * cm)
        i_pk = int(np.argmin(np.abs(trace.freqs - fs_e)))
        y_motional = trace.values[i_pk] - 1j * TWO_PI * trace.freqs[i_pk] * c0
        rm = 1.0 / max(abs(y_motional), 1e-12)
        branches.append(MotionalBranch(rm=rm, lm=lm, cm=cm))

    branches.sort(key=lambda b: b.fs)
    return MbvdModel(c0=c0, r0=0.0, rs=0.0, branches=tuple(branches))
