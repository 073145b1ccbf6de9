"""Modified Butterworth-Van Dyke equivalent circuit.

The model is a static branch (C0 in series with R0) in parallel with one
series RLC branch per acoustic mode, all behind a lead resistance Rs:

    Y(w) = 1 / (rs + 1 / (Y_static + sum_k Y_branch_k))
    Y_static   = 1 / (r0 + 1/(j w c0))
    Y_branch_k = 1 / (rm_k + j w lm_k + 1/(j w cm_k))

Closed-form relations tie the electrical elements to resonator metrics:
series resonance fs = 1/(2 pi sqrt(lm cm)), parallel resonance
fp = fs sqrt(1 + cm/c0_eff), coupling kt2 = (pi^2/8)(fp^2 - fs^2)/fp^2,
and mechanical quality qm = 2 pi fs lm / rm.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DegenerateCouplingError, EstimationError, PhaseUnwrapError
from .netparams import ComplexTrace

TWO_PI = 2.0 * math.pi
KT2_PREFACTOR = math.pi**2 / 8.0

# Motional capacitance floor; couplings mapping below this are rejected
# as degenerate rather than silently producing absurd element values.
CM_FLOOR = 1e-21

# Phase-slope quality factors above this are reported as +inf (lossless).
Q_SENTINEL = 1e6

# Phase-slope precondition: at least 5 points within +-f0/(2*Q_FLOOR).
Q_FLOOR = 10.0


def _median(a: np.ndarray) -> float:
    """np.median of a finite 1-D array: the mean of its middle one or two
    elements, as np.median takes it, without the NaN check whose masked-array
    test imports numpy.ma (about 12 ms; numpy 1.x imports it with numpy)."""
    h = a.size // 2
    lo = h - 1 + a.size % 2
    return float(np.partition(a, (lo, h))[lo:h + 1].mean())


@dataclass(frozen=True)
class MotionalBranch:
    """One series RLC branch: rm (ohm), lm (H), cm (F).

    lm*cm must be a positive, finite, normal float, so that the series
    resonance 1/(2 pi sqrt(lm cm)) is a positive finite frequency.
    """

    rm: float
    lm: float
    cm: float

    def __post_init__(self):
        if not self.rm >= 0:
            raise ValueError(f"rm must be >= 0, got {self.rm!r}")
        if not self.lm > 0:
            raise ValueError(f"lm must be > 0, got {self.lm!r}")
        if not self.cm > 0:
            raise ValueError(f"cm must be > 0, got {self.cm!r}")
        if not sys.float_info.min <= self.lm * self.cm < math.inf:
            raise ValueError(f"lm*cm = {self.lm * self.cm!r} is not a positive finite normal "
                             f"float, so the series resonance is not representable")

    @property
    def fs(self) -> float:
        """Series resonance frequency in Hz."""
        return 1.0 / (TWO_PI * math.sqrt(self.lm * self.cm))

    @property
    def qm(self) -> float:
        """Mechanical quality factor; +inf for a lossless branch."""
        if self.rm == 0:
            return math.inf
        return TWO_PI * self.fs * self.lm / self.rm


@dataclass(frozen=True)
class MbvdModel:
    """Full equivalent circuit: static branch, lead loss, motional branches.

    Branches are kept sorted by series resonance frequency; the dominant
    branch is the one with the largest motional capacitance.
    """

    c0: float
    r0: float = 0.0
    rs: float = 0.0
    branches: tuple[MotionalBranch, ...] = ()

    def __post_init__(self):
        if not self.c0 > 0:
            raise ValueError(f"c0 must be > 0, got {self.c0!r}")
        if not self.r0 >= 0:
            raise ValueError(f"r0 must be >= 0, got {self.r0!r}")
        if not self.rs >= 0:
            raise ValueError(f"rs must be >= 0, got {self.rs!r}")
        branches = tuple(self.branches)
        fs = [b.fs for b in branches]
        if any(b <= a for a, b in zip(fs, fs[1:])):
            raise ValueError("branch series resonances must be strictly increasing")
        object.__setattr__(self, "branches", branches)

    @property
    def dominant_index(self) -> int:
        """Index of the largest-cm branch; requires at least one branch."""
        if not self.branches:
            raise ValueError("model has no motional branches")
        return max(range(len(self.branches)), key=lambda i: self.branches[i].cm)


class Admittance(NamedTuple):
    """Circuit admittance on a grid, with the intermediates its derivatives need.

    w is the angular frequency, yst the static-arm admittance, yb the
    (nbranch, nfreq) motional-branch admittances, one contiguous row per
    branch in the order given (None without branches), g the parallel
    section yst + (((0 + yb[0]) + yb[1]) + ...) and y the terminal
    admittance seen through rs.
    """

    w: np.ndarray
    yst: np.ndarray
    yb: np.ndarray | None
    g: np.ndarray
    y: np.ndarray


def admittance_arrays(
    freqs: np.ndarray,
    c0: float,
    r0: float,
    rs: float,
    rm: np.ndarray,
    lm: np.ndarray,
    cm: np.ndarray,
) -> Admittance:
    """Evaluate the circuit from raw element arrays.

    The only forward pass in the package: synthesis, the antiresonance
    search, metric extraction and the fit engine (which derives lm from
    fs and cm and builds its Jacobian from the returned intermediates)
    all call it, so they see bitwise identical values.

    Branch quantities are (nbranch, nfreq) rows over contiguous frequency,
    added one at a time from 0 in the order of rm/lm/cm (the model's fs
    order, as _model_y passes them), then the static arm: an order fixed
    for any branch count, where np.sum pairs four or more rows up.
    """
    w = TWO_PI * np.asarray(freqs, dtype=float)
    jw = 1j * w
    yb = None
    with np.errstate(divide="ignore", invalid="ignore"):
        yst = 1.0 / (r0 + 1.0 / (jw * c0))
        g = yst
        if rm.size:
            zb = rm[:, None] + 1j * (lm[:, None] * w - 1.0 / (cm[:, None] * w))
            yb = 1.0 / zb
            total = 0.0
            for row in yb:
                total = total + row
            g = yst + total
        y = 1.0 / (rs + 1.0 / g) if rs != 0.0 else g
    return Admittance(w, yst, yb, g, y)


def _model_y(model: MbvdModel, freqs: np.ndarray) -> np.ndarray:
    rm = np.array([b.rm for b in model.branches])
    lm = np.array([b.lm for b in model.branches])
    cm = np.array([b.cm for b in model.branches])
    return admittance_arrays(freqs, model.c0, model.r0, model.rs, rm, lm, cm).y


def synthesize_admittance(model: MbvdModel, freqs: np.ndarray) -> ComplexTrace:
    """Evaluate the model admittance on a frequency grid (Hz).

    Passive for all non-negative resistances: Re(Y) >= 0 everywhere.  A
    grid on which the admittance overflows is a ValueError naming the first
    such frequency.
    """
    freqs = np.asarray(freqs, dtype=float).reshape(-1)
    if freqs.size and freqs[0] <= 0:
        raise ValueError("frequencies must be positive")
    with np.errstate(over="ignore", invalid="ignore"):
        y = _model_y(model, freqs)
    bad = np.flatnonzero(~np.isfinite(y))
    if bad.size:
        raise ValueError(f"the model's admittance leaves the float range at {freqs[bad[0]]:.6g} Hz")
    return ComplexTrace(freqs=freqs, values=y)


def branch_from_metrics(fs: float, qm: float, kt2: float, c0: float) -> MotionalBranch:
    """Invert (fs, qm, kt2, c0) to a motional branch.

    Uses r = kt2 * 8/pi^2, cm = c0 r/(1-r), lm = 1/((2 pi fs)^2 cm),
    rm = 2 pi fs lm / qm.  Couplings at or above the physical ceiling and
    capacitances below the 1e-21 F floor are rejected.
    """
    if not 0.0 < fs < math.inf:
        raise ValueError(f"fs must be positive and finite, got {fs!r}")
    if not qm > 0:
        raise ValueError(f"qm must be > 0, got {qm!r}")
    if not 0.0 < c0 < math.inf:
        raise ValueError(f"c0 must be positive and finite, got {c0!r}")
    if not 0.0 < kt2 < 1.0:
        raise ValueError(f"kt2 must lie in (0, 1), got {kt2!r}")
    r = kt2 * 8.0 / math.pi**2
    if r >= 1.0:
        raise ValueError(f"kt2 {kt2!r} maps to capacitance ratio >= 1 (non-physical)")
    cm = c0 * r / (1.0 - r)
    if cm < CM_FLOOR:
        raise DegenerateCouplingError(
            f"cm {cm:.3g} F below {CM_FLOOR:.0e} F floor (coupling too small)"
        )
    try:
        lm = 1.0 / ((TWO_PI * fs) ** 2 * cm)
    except (OverflowError, ZeroDivisionError):  # (2 pi fs)^2 left the float range
        lm = math.nan
    if not 0.0 < lm < math.inf:
        raise ValueError(f"lm = 1/((2 pi fs)^2 cm) leaves the float range at fs {fs:.6g} Hz, "
                         f"cm {cm:.6g} F")
    rm = TWO_PI * fs * lm / qm
    return MotionalBranch(rm=rm, lm=lm, cm=cm)


def kt2_from_frequencies(fs: float, fp: float) -> float:
    """Coupling coefficient (pi^2/8)(fp^2 - fs^2)/fp^2 from the resonance pair."""
    return KT2_PREFACTOR * (fp**2 - fs**2) / fp**2


def _fp_closed(model: MbvdModel, k: int, fs_list: list[float]) -> float:
    """Closed-form antiresonance of branch k against the stiffened static arm."""
    fs_k = fs_list[k]
    # Off-resonant branches above fs_k still look capacitive there and
    # stiffen the static branch.
    c0_eff = model.c0 + sum(b.cm for j, b in enumerate(model.branches) if fs_list[j] > fs_k)
    return fs_k * math.sqrt(1.0 + model.branches[k].cm / c0_eff)


def _fp_search(model: MbvdModel, k: int, fs_list: list[float]) -> float | None:
    """Numeric antiresonance of branch k: first upward zero of Im(Y) above fs_k.

    Returns None when no crossing exists in the scan window (overdamped
    branch).
    """
    fs_k = fs_list[k]
    fp_closed = _fp_closed(model, k, fs_list)
    hi = fp_closed + 6.0 * (fp_closed - fs_k)
    nxt = [f for f in fs_list if f > fs_k]
    if nxt:
        hi = min(hi, min(nxt) * (1.0 - 1e-3))
    lo = fs_k * (1.0 + 1e-9)
    if hi <= lo:
        return None
    grid = np.linspace(lo, hi, 4001)
    vals = _model_y(model, grid).imag
    sign = np.sign(vals)
    idx = np.nonzero((sign[:-1] < 0) & (sign[1:] > 0))[0]
    if idx.size == 0:
        # Exact zeros on grid points count as crossings.
        zero = np.nonzero(vals == 0.0)[0]
        if zero.size:
            return float(grid[zero[0]])
        return None
    a, b = grid[idx[0]], grid[idx[0] + 1]
    # Each round shrinks the bracket 100-fold.  Im(Y) is smooth on the
    # scale of the final bracket (below 1e-9 of the scan window), so the
    # secant step there lands far inside 1e-12 relative of the root.
    for _ in range(3):
        grid = np.linspace(a, b, 101)
        vals = _model_y(model, grid).imag
        i = 1 + int(np.argmax((vals[:-1] < 0) & (vals[1:] >= 0)))
        if vals[i] == 0.0:
            return float(grid[i])
        a, b, va, vb = grid[i - 1], grid[i], vals[i - 1], vals[i]
    return float(a - va * (b - a) / (vb - va))


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


FP_CROSSCHECK_RTOL = 1e-3

# A dominant fs closer than this many linewidths (fs/Q_s) to a grid end is
# flagged fs-near-edge.  A branch's admittance falls to 1/sqrt(1 + (2 Q d)^2)
# of its peak at relative detuning d, so 3 linewidths is where it is down to
# 1/sqrt(37), about -16 dB: a nearer edge cuts the resonance off before one
# flank has decayed, and fs and Q rest on the other flank alone.  The survey
# grids (0.90-2.05 fs, Q_s >= 55) stay at least 0.10 fs > 3 fs/55 clear.
FS_EDGE_LINEWIDTHS = 3.0


@dataclass(frozen=True)
class ResonatorMetrics:
    """Scalar figures of merit for one device.

    fp-derived fields (fp, qp, kt2, fom) are None when the antiresonance
    was absent or fell outside the analysis grid; flags records why, and
    fs-near-edge marks a dominant fs within FS_EDGE_LINEWIDTHS linewidths
    of a grid end.
    qs/qp of +inf mark a lossless model (phase-slope Q above the 1e6
    sentinel).  fom = qs * kt2 by construction.
    """

    fs: float
    fp: float | None
    qs: float
    qp: float | None
    qm: float
    kt2: float | None
    c0: float
    fom: float | None
    flags: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.fs > 0:
            raise ValueError(f"fs must be > 0, got {self.fs!r}")
        if self.fp is not None and not self.fp > self.fs:
            raise ValueError("fp must exceed fs when present")

    def as_dict(self) -> dict:
        def num(x):
            if x is None:
                return None
            if math.isinf(x):
                return "inf"
            return float(x)

        return {
            "fs_hz": num(self.fs),
            "fp_hz": num(self.fp),
            "q_s": num(self.qs),
            "q_p": num(self.qp),
            "q_m": num(self.qm),
            "kt2": num(self.kt2),
            "c0_f": num(self.c0),
            "fom": num(self.fom),
            "flags": list(self.flags),
        }


def _dense_local_grid(f0: float, q_guess: float, lo: float, hi: float) -> np.ndarray:
    """Even-count grid straddling f0, sized to resolve a Q of q_guess.

    Even count keeps the exact resonance point off the grid so lossless
    models never evaluate at a pole.  The five-point phase slope reads
    low by about (17/15)(2 q h / f0)^2 on an arctangent phase profile of
    quality q sampled at spacing h, so the window is kept to f0/q total
    half-width: 400 points then put the bias near 1e-4, below rendering
    precision even for figure-of-merit integers.
    """
    q = min(max(q_guess, 20.0), Q_SENTINEL)
    half = f0 * 1.0 / q
    a = max(f0 - half, lo, f0 * 1e-6)
    b = min(f0 + half, hi)
    if not b > a:
        a, b = lo, hi
    return np.linspace(a, b, 400)


def metrics_from_model(model: MbvdModel, grid: np.ndarray) -> ResonatorMetrics:
    """Report metrics of the dominant branch evaluated against a grid span.

    Q_s and Q_p come from the phase slope of the model's own densely
    resynthesized admittance / impedance around fs and fp, so they are
    grid-noise free.  The passed grid fixes the admissible analysis span:
    a dominant fs outside it is an EstimationError, and an fp beyond it
    leaves the fp-derived fields None and sets a flag.
    """
    grid = np.asarray(grid, dtype=float).reshape(-1)
    if grid.size < 2:
        raise ValueError("grid must contain at least two frequencies")
    if not model.branches:
        raise ValueError("model has no motional branches")
    f_lo, f_hi = float(grid[0]), float(grid[-1])

    dom = model.dominant_index
    fs_list = [b.fs for b in model.branches]
    fs = fs_list[dom]
    if not f_lo <= fs <= f_hi:
        raise EstimationError(f"fitted dominant resonance {fs:.6g} Hz lies outside the "
                              f"measured span [{f_lo:.6g}, {f_hi:.6g}] Hz")
    fp_num = _fp_search(model, dom, fs_list)
    fp_closed = _fp_closed(model, dom, fs_list)

    flags: list[str] = []
    dom_branch = model.branches[dom]
    qm = dom_branch.qm
    q_guess = qm if math.isfinite(qm) else Q_SENTINEL

    g_s = _dense_local_grid(fs, q_guess, f_lo, f_hi)
    y_s = _model_y(model, g_s)
    qs = q_from_phase_slope(ComplexTrace(freqs=g_s, values=y_s), fs)
    if qs > Q_SENTINEL:
        qs = math.inf

    # distance < FS_EDGE_LINEWIDTHS * fs / qs, which also holds for qs = 0
    if min(fs - f_lo, f_hi - fs) * qs < FS_EDGE_LINEWIDTHS * fs:
        flags.append("fs-near-edge")
    if fp_num is None:
        flags.append("fp-absent")
    elif fp_closed > f_hi:
        flags.append("fp-unbracketed")
    elif abs(fp_num - fp_closed) > FP_CROSSCHECK_RTOL * fp_closed:
        # Lossy zero crossing drifts off the closed form at very low Q;
        # the closed form stays the reported value.
        flags.append("fp-crosscheck")
    if fp_num is None or fp_closed > f_hi:
        return ResonatorMetrics(
            fs=fs, fp=None, qs=qs, qp=None, qm=qm, kt2=None, c0=model.c0,
            fom=None, flags=tuple(flags),
        )
    fp = fp_closed

    kt2 = kt2_from_frequencies(fs, fp)
    g_p = _dense_local_grid(fp, q_guess, f_lo, f_hi)
    y_p = _model_y(model, g_p)
    with np.errstate(divide="ignore", invalid="ignore"):
        z_p = 1.0 / y_p
    qp = q_from_phase_slope(ComplexTrace(freqs=g_p, values=z_p), fp)
    if qp > Q_SENTINEL:
        qp = math.inf
    fom = qs * kt2
    return ResonatorMetrics(
        fs=fs, fp=fp, qs=qs, qp=qp, qm=qm, kt2=kt2, c0=model.c0,
        fom=fom, flags=tuple(flags),
    )


def model_to_dict(model: MbvdModel) -> dict:
    """JSON-ready dict with SI units and a topology tag."""
    return {
        "topology": "mbvd/1",
        "c0_f": model.c0,
        "r0_ohm": model.r0,
        "rs_ohm": model.rs,
        "branches": [
            {"rm_ohm": b.rm, "lm_h": b.lm, "cm_f": b.cm} for b in model.branches
        ],
    }


def _json_number(key: str, value, unit: str, zero: bool = False) -> float:
    """value as a float if it is a finite JSON number (not a boolean) of unit, positive or,
    where zero is allowed, non-negative; otherwise a ValueError that names key."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    try:
        x = float(value) if number else math.nan
    except OverflowError:  # an integer beyond float range
        x = math.inf
    above_floor = 0.0 <= x if zero else 0.0 < x
    if not (above_floor and x < math.inf):
        sign = "non-negative" if zero else "positive"
        raise ValueError(f"{key} must be a {sign} finite number of {unit}, got {value!r}")
    return x


def _entry(obj: dict, path: str, key: str, unit: str, zero: bool = False) -> float:
    """obj[key] through _json_number, named path + key; it must be present."""
    if key not in obj:
        raise ValueError(f"{path}{key} is missing")
    return _json_number(path + key, obj[key], unit, zero)


def model_from_dict(d: dict) -> MbvdModel:
    """The model of a model_to_dict document, where r0_ohm and rs_ohm default to 0.  A bad
    document is a ValueError naming the key path at fault, e.g. ``branches[0].rm_ohm must be
    a non-negative finite number of ohm, got 'x'``."""
    if not isinstance(d, dict):
        raise ValueError(f"expected a model object, got {d!r}")
    tag = d.get("topology")
    if tag != "mbvd/1":
        raise ValueError(f"unsupported model topology tag {tag!r}")
    c0 = _entry(d, "", "c0_f", "F")
    r0, rs = (_json_number(key, d.get(key, 0.0), "ohm", zero=True) for key in ("r0_ohm", "rs_ohm"))
    rows = d.get("branches", [])
    if not isinstance(rows, list):
        raise ValueError(f"branches must be a list of branch objects, got {rows!r}")
    branches = []
    for i, b in enumerate(rows):
        path = f"branches[{i}]."
        if not isinstance(b, dict):
            raise ValueError(f"branches[{i}] must be a branch object, got {b!r}")
        rm, lm, cm = (_entry(b, path, "rm_ohm", "ohm", zero=True), _entry(b, path, "lm_h", "H"),
                      _entry(b, path, "cm_f", "F"))
        try:
            branches.append(MotionalBranch(rm=rm, lm=lm, cm=cm))
        except ValueError as exc:
            raise ValueError(f"branches[{i}]: {exc}") from None
    order = sorted(range(len(branches)), key=lambda i: branches[i].fs)
    for i, j in zip(order, order[1:]):
        if branches[i].fs == branches[j].fs:
            raise ValueError(f"branches[{i}] and branches[{j}] share the series resonance "
                             f"{branches[i].fs!r} Hz")
    return MbvdModel(c0=c0, r0=r0, rs=rs, branches=tuple(branches[i] for i in order))
