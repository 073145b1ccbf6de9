"""Direct estimators that turn a measured admittance trace into fit seeds.

No iteration here: resonance candidates come from prominence-based peak
picking on |Y| in dB, scored by their height over the trace's noise, and
the seed's static and motional capacitances from one linear least-squares
solve over the whole trace, with the seeded resonances as fixed lossy
poles.  Output quality only needs to land inside the fit engine's basin
of attraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InductiveBackgroundError
from .mbvd import TWO_PI, MbvdModel, MotionalBranch, _median
from .netparams import ComplexTrace

# Range of the seeded branch quality factors.
_Q_MIN, _Q_MAX = 5.0, 1e5


@dataclass(frozen=True)
class ResonanceCandidate:
    """One detected resonance: the peak's frequency fs_est, its dB
    prominence, and its significance, the height over the noise (see
    detect_resonances).
    """

    fs_est: float
    prominence_db: float
    significance: float

    def __post_init__(self):
        if not self.fs_est > 0:
            raise ValueError("fs_est must be positive")
        if not self.significance >= 0:
            raise ValueError("significance must be >= 0")


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
    array end) on either side.  Returns (peaks, prominences).
    """
    n = x.size
    step = np.diff(x)
    nz = np.flatnonzero(step)
    rises = step[nz] > 0
    top = np.flatnonzero(rises[:-1] & ~rises[1:])
    # plateau from nz[k] + 1 to nz[k + 1], kept at its midpoint
    peaks = (nz[top] + 1 + nz[top + 1]) // 2
    if peaks.size == 0:
        return peaks, np.empty(0)
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
    return peaks[keep], prominences[keep]


def _noise_sigma(trace: ComplexTrace) -> float:
    """Rms of complex white noise: median |third difference| / sqrt(20 ln 2)
    (Donoho & Johnstone 1994), blind to a smooth trace's quadratic part.
    The exact 1/32 scaling keeps differences of a finite |Y| from overflowing."""
    return 32.0 * _median(np.abs(np.diff(trace.values / 32.0, 3))) / math.sqrt(20.0 * math.log(2.0))


def detect_resonances(trace: ComplexTrace, threshold_db: float = 3.0) -> list[ResonanceCandidate]:
    """Find resonance candidates as prominent maxima of |Y|.

    Each local maximum of 20 log10 |Y| with prominence >= threshold_db
    becomes a candidate.  Candidates are returned sorted by frequency.  A
    featureless trace yields [].  The significance is the linear rise above
    the prominence's base, |Y| at the peak times 1 - 10^(-prominence_db / 20),
    over _noise_sigma (inf when that is 0): in dB a weak peak rising from a
    deep notch would outrank strong ones.
    """
    if trace.npoints < 16:
        raise ValueError(f"need at least 16 points, got {trace.npoints}")
    if not threshold_db > 0:
        raise ValueError("threshold_db must be positive")
    mag = np.abs(trace.values)
    mag_db = 20.0 * np.log10(np.maximum(mag, 1e-300))

    peaks, prominences = _prominent_peaks(mag_db, threshold_db)
    if peaks.size == 0:
        return []
    sigma = _noise_sigma(trace)

    out: list[ResonanceCandidate] = []
    for i, p in enumerate(peaks):
        height = float(mag[p]) * (1.0 - 10.0 ** (-float(prominences[i]) / 20.0))
        out.append(
            ResonanceCandidate(
                fs_est=float(trace.freqs[p]),
                prominence_db=float(prominences[i]),
                significance=height / sigma if sigma > 0 else math.inf,
            )
        )
    return out


def _half_width_q(trace: ComplexTrace, fs: float) -> float:
    """Quality factor of a series branch at fs: fs over the full width of
    Re(Y) at half its value there, clipped to [5, 1e5].

    A series RLC branch's conductance is a Lorentzian of width fs/Q, and c0
    adds nothing to Re(Y).  Each side ends at the nearest sample at or below
    the half value; a side with none (a resonance at the grid edge) mirrors
    the other, and with neither the width is the whole grid.
    """
    f, g = trace.freqs, trace.values.real
    i = int(np.argmin(np.abs(f - fs)))
    if not g[i] > 0:
        return _Q_MIN
    below = f[g <= 0.5 * g[i]] - f[i]
    left, right = below[below < 0], below[below > 0]
    sides = ([-left[-1]] if left.size else []) + ([right[0]] if right.size else [])
    width = 2.0 * sum(sides) / len(sides) if sides else f[-1] - f[0]
    return min(max(fs / width, _Q_MIN), _Q_MAX)


def initial_guess(
    trace: ComplexTrace,
    candidates: Sequence[ResonanceCandidate],
) -> MbvdModel:
    """Assemble a seed MBVD model with one branch per candidate.

    With each branch's fs_k at its candidate's fs_est and Q_k from
    _half_width_q, the lossy-pole admittance

        Y/(jw) = c0 + sum_k cm_k / (1 - x_k^2 + j x_k/Q_k),  x_k = f/fs_k,

    is linear in (c0, cm_1, ..., cm_K): the residue step of vector fitting
    (Gustavsen & Semlyen 1999), solved by least squares over every point of
    the trace.  Candidates not passed do not constrain it.  lm follows from
    fs_k and cm_k, rm = 2 pi fs_k lm / Q_k; a cm_k <= 0 falls back to
    0.05 c0.  Loss elements r0 and rs seed at zero.
    """
    if not candidates:
        raise ValueError("need at least one resonance candidate")
    fs = np.sort([c.fs_est for c in candidates])
    q = np.array([_half_width_q(trace, fs_k) for fs_k in fs.tolist()])
    f = trace.freqs
    x = f[:, None] / fs
    a = np.column_stack([np.ones(f.size), 1.0 / (1.0 - x * x + 1j * x / q)])
    b = trace.values / (1j * TWO_PI * f)
    coef, *_ = np.linalg.lstsq(np.concatenate([a.real, a.imag]),
                               np.concatenate([b.real, b.imag]), rcond=None)
    c0 = float(coef[0])
    if not c0 > 0:
        raise InductiveBackgroundError(c0)

    branches = []
    for fs_k, q_k, cm in zip(fs.tolist(), q.tolist(), coef[1:].tolist()):
        if not cm > 0:
            cm = 0.05 * c0
        lm = 1.0 / ((TWO_PI * fs_k) ** 2 * cm)
        branches.append(MotionalBranch(rm=TWO_PI * fs_k * lm / q_k, lm=lm, cm=cm))
    return MbvdModel(c0=c0, r0=0.0, rs=0.0, branches=tuple(branches))
