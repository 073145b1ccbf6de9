"""Direct estimators that turn a measured admittance trace into fit seeds.

No iteration here: resonance candidates come from prominence-based peak
picking on |Y| in dB, scored by their height over the trace's noise, the
static capacitance from a linear fit of the off-resonance susceptance with
the seeded resonances as fixed poles, and the motional elements from the
candidates' fs/fp pairs and peak heights.  Output quality only needs to
land inside the fit engine's basin of attraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import EstimationError, InductiveBackgroundError
from .mbvd import TWO_PI, MbvdModel, MotionalBranch, _median
from .netparams import ComplexTrace

# Half-prominence widths are inflated by this factor to form exclusion
# spans; resonance susceptance tails decay slowly (~1/detuning).
_SPAN_WIDEN = 8.0


@dataclass(frozen=True)
class ResonanceCandidate:
    """One detected resonance: estimates plus the grid span it occupies.

    significance is the height over the noise (see detect_resonances); span
    is an inclusive (lo, hi) pair of grid indices covering the feature, used
    to mask resonant points out of baseline estimates.
    """

    fs_est: float
    fp_est: float | None
    prominence_db: float
    significance: float
    span: tuple[int, int]

    def __post_init__(self):
        if not self.fs_est > 0:
            raise ValueError("fs_est must be positive")
        if self.fp_est is not None and not self.fp_est > self.fs_est:
            raise ValueError("fp_est must exceed fs_est when present")
        if not self.significance >= 0:
            raise ValueError("significance must be >= 0")
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


def _noise_sigma(trace: ComplexTrace) -> float:
    """Rms of complex white noise: median |third difference| / sqrt(20 ln 2)
    (Donoho & Johnstone 1994), blind to a smooth trace's quadratic part.
    The exact 1/32 scaling keeps differences of a finite |Y| from overflowing."""
    return 32.0 * _median(np.abs(np.diff(trace.values / 32.0, 3))) / math.sqrt(20.0 * math.log(2.0))


def detect_resonances(trace: ComplexTrace, threshold_db: float = 3.0) -> list[ResonanceCandidate]:
    """Find resonance candidates as prominent maxima of |Y|.

    Each local maximum of 20 log10 |Y| with prominence >= threshold_db
    becomes a candidate; the nearest following prominent minimum (the
    antiresonance notch) supplies fp_est when present.  Candidates are
    returned sorted by frequency.  A featureless trace yields [].  The
    significance is the linear rise above the prominence's base, |Y| at the
    peak times 1 - 10^(-prominence_db / 20), over _noise_sigma (inf when that
    is 0): in dB a weak peak rising from a deep notch would outrank strong ones.
    """
    if trace.npoints < 16:
        raise ValueError(f"need at least 16 points, got {trace.npoints}")
    if not threshold_db > 0:
        raise ValueError("threshold_db must be positive")
    mag = np.abs(trace.values)
    mag_db = 20.0 * np.log10(np.maximum(mag, 1e-300))

    peaks, prominences, left_ips, right_ips = _prominent_peaks(mag_db, threshold_db)
    if peaks.size == 0:
        return []
    mins, _, _, m_right = _prominent_peaks(-mag_db, threshold_db)
    sigma = _noise_sigma(trace)

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
        height = float(mag[p]) * (1.0 - 10.0 ** (-float(prominences[i]) / 20.0))
        out.append(
            ResonanceCandidate(
                fs_est=float(trace.freqs[p]),
                fp_est=fp_est,
                prominence_db=float(prominences[i]),
                significance=height / sigma if sigma > 0 else math.inf,
                span=(max(lo, 0), min(hi, n - 1)),
            )
        )
    return out


def _c0_from_offresonance(
    trace: ComplexTrace,
    spans: Sequence[tuple[int, int]],
    fs_hints: Sequence[float],
) -> float:
    """Static capacitance from the susceptance outside the given spans.

    With the series resonances fixed at fs_hints, the shoulder shape is
    known up to scale and Im(Y)/w = c0 + sum_k cm_k/(1 - (f/fs_k)^2) is
    linear in (c0, cm_1, ..., cm_K): the residue step of vector fitting
    (Gustavsen & Semlyen 1999).  It separates the static term from the
    motional tails, which reach far beyond any finite span, so the points
    need to avoid the hinted poles, not every shoulder.

    spans are inclusive index pairs kept out of the fit; at least 10% of
    the grid must survive them, enough of it must lie clear of the hints,
    and the result must be capacitive.
    """
    n = trace.npoints
    mask = np.ones(n, dtype=bool)
    for lo, hi in spans:
        mask[max(lo, 0) : min(hi, n - 1) + 1] = False
    kept = int(mask.sum())
    if kept < max(2, math.ceil(0.10 * n)):
        raise EstimationError(
            f"only {kept}/{n} points left off-resonance; need at least 10%"
        )
    f = trace.freqs[mask]
    # Points essentially on top of a hinted resonance would need the loss
    # term; drop them instead.
    clear = np.ones(f.size, dtype=bool)
    for fs in fs_hints:
        clear &= np.abs(1.0 - (f / fs) ** 2) > 1e-3
    need = max(4, 2 + len(fs_hints))
    if clear.sum() < need:
        at = ", ".join(f"{fs:.6g}" for fs in fs_hints)
        raise EstimationError(
            f"only {int(clear.sum())} off-resonance points lie clear of the seeded "
            f"resonances at {at} Hz; the background fit needs {need}"
        )
    f = f[clear]
    cols = [np.ones(f.size)]
    for fs in fs_hints:
        cols.append(1.0 / (1.0 - (f / fs) ** 2))
    b = trace.values.imag[mask][clear]
    coef, *_ = np.linalg.lstsq(np.column_stack(cols), b / (TWO_PI * f), rcond=None)
    c0 = float(coef[0])
    if not c0 > 0:
        raise InductiveBackgroundError(c0)
    return c0


def initial_guess(
    trace: ComplexTrace,
    candidates: Sequence[ResonanceCandidate],
) -> MbvdModel:
    """Assemble a seed MBVD model with one branch per candidate.

    c0 comes from the off-resonance susceptance with the candidates' spans
    left out and their fs_est as fixed poles (candidates not passed do not
    constrain it), cm from the fs/fp pair when the notch was seen (falling
    back to cm = 0.05 c0), lm from fs and cm, and rm from |Y| at the peak
    after removing the static susceptance.  Loss elements r0 and rs seed
    at zero.
    """
    if not candidates:
        raise ValueError("need at least one resonance candidate")
    c0 = _c0_from_offresonance(trace, [c.span for c in candidates],
                               [c.fs_est for c in candidates])

    branches = []
    for cand in sorted(candidates, key=lambda c: c.fs_est):
        fs_e = cand.fs_est
        ratio = 0.0
        if cand.fp_est is not None:
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
