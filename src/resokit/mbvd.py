"""Modified Butterworth-Van Dyke equivalent circuit.

The model is a static branch (C0 in series with R0) in parallel with one
series RLC branch per acoustic mode, all behind a lead resistance Rs:

    Y(w) = 1 / (rs + 1 / (Y_static + sum_k Y_branch_k))
    Y_static   = 1 / (r0 + 1/(j w c0))
    Y_branch_k = 1 / (rm_k + j w lm_k + 1/(j w cm_k))

Closed-form relations tie the electrical elements to resonator metrics:
series resonance fs = 1/(2 pi sqrt(lm cm)), coupling
kt2 = (pi^2/8)(fp^2 - fs^2)/fp^2 and mechanical quality qm = 2 pi fs lm / rm.
The parallel resonance fp is the root of the lossless susceptance over w,
c0 + sum_k cm_k / (1 - (f/fs_k)^2), above the dominant fs, which is
fs sqrt(1 + cm/c0) for one branch.  Q_s and Q_p are (w/2)|d arg Y/dw| at fs
and fp, from the exact derivative of Y.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DegenerateCouplingError, EstimationError
from .netparams import ComplexTrace

TWO_PI = 2.0 * math.pi
KT2_PREFACTOR = math.pi**2 / 8.0

# Motional capacitance floor; couplings mapping below this are rejected
# as degenerate rather than silently producing absurd element values.
CM_FLOOR = 1e-21

# Phase-slope quality factors above this are reported as +inf (lossless).
Q_SENTINEL = 1e6


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
    order, as _elements gives them), then the static arm: an order fixed
    for any branch count, where np.sum pairs four or more rows up.

    Each arm's impedance is built from its parts and inverted with one
    complex division: the static arm's r0 + j x with x = -1/(w c0), a
    branch's rm + j v with v = lm w - 1/(cm w). Each real part also adds
    0.0 times the reactance (0.0 w x, 0.0 v), so a non-finite intermediate
    (w, x or v out of the float range) stays non-finite in the arm, as it
    did in the complex products 1/(r0 + 1/(jw c0)) and rm + 1j v, whose
    values these equal bit for bit.  A branch with rm = 0 whose reactance
    rounds to 0 is a short, so y is 1/rs there (not finite without rs).
    """
    w = TWO_PI * np.asarray(freqs, dtype=float)
    yb = None
    with np.errstate(divide="ignore", invalid="ignore"):
        x = -(1.0 / (w * c0))
        zst = np.empty(w.shape, dtype=complex)
        zst.real = r0 + 0.0 * w * x
        zst.imag = x
        yst = 1.0 / zst
        g = yst
        if rm.size:
            v = lm[:, None] * w - 1.0 / (cm[:, None] * w)
            zb = np.empty(v.shape, dtype=complex)
            zb.real = rm[:, None] + 0.0 * v
            zb.imag = v
            yb = 1.0 / zb
            if not all(rm.tolist()):
                # 1/(0 + 0j) is inf + nan j: a lossless branch at its float fs
                # is a short, a real inf that leaves y = 1/rs
                yb[zb == 0.0] = math.inf
            total = 0.0
            for row in yb:
                total = total + row
            g = yst + total
        y = 1.0 / (rs + 1.0 / g) if rs != 0.0 else g
    return Admittance(w, yst, yb, g, y)


def _elements(model: MbvdModel) -> list[np.ndarray]:
    """The branches' rm, lm and cm arrays, in the model's fs order."""
    return [np.array([getattr(b, name) for b in model.branches]) for name in ("rm", "lm", "cm")]


def _y_and_slope(model: MbvdModel, freqs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The model's Y and dY/dw at freqs, from admittance_arrays' intermediates:
    dyst/dw = yst^2/(j w^2 c0), dyb/dw = -yb^2 j(lm + 1/(w^2 cm)) and, behind
    rs, dY/dw = (Y/G)^2 dG/dw."""
    rm, lm, cm = _elements(model)
    w, yst, yb, g, y = admittance_arrays(freqs, model.c0, model.r0, model.rs, rm, lm, cm)
    w2 = w * w
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        dg = yst * yst / (1j * w2 * model.c0)
        if yb is not None:
            dg = dg - (yb * yb * (1j * (lm[:, None] + 1.0 / (w2 * cm[:, None])))).sum(axis=0)
        return y, (y / g) ** 2 * dg if model.rs != 0.0 else dg


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
        y = admittance_arrays(freqs, model.c0, model.r0, model.rs, *_elements(model)).y
    finite = np.isfinite(y)
    if not finite.all():
        raise ValueError(f"the model's admittance leaves the float range at "
                         f"{freqs[finite.argmin()]:.6g} Hz")
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


def _fp_lossless(model: MbvdModel, fs: float, hi: float) -> float:
    """Antiresonance of the branch at fs: the root of the lossless susceptance
    over w, c0 + sum_j cm_j / (1 - (f/fs_j)^2), between fs and hi (see
    metrics_from_model).

    The sum rises strictly there, from -inf to above c0 / 2, so it has one
    root, bisected to adjacent floats.  One branch keeps the closed form
    fs sqrt(1 + cm/c0).
    """
    branches = model.branches
    if len(branches) == 1:
        return fs * math.sqrt(1.0 + branches[0].cm / model.c0)
    # cm_j fs_j^2 / ((fs_j - f)(fs_j + f)): 1 - (f/fs_j)^2 can round to 0 off the pole
    poles = [(b.cm * b.fs * b.fs, b.fs) for b in branches]
    lo = fs
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if model.c0 + sum(a / ((f_j - mid) * (f_j + mid)) for a, f_j in poles) < 0.0:
            lo = mid
        else:
            hi = mid
    return hi


def _lossy_zero(model: MbvdModel, fp: float, fs: float, hi: float) -> float | None:
    """The upward zero of Im(Y) that Newton's method reaches from the lossless
    antiresonance fp, or None for an overdamped branch: when an iterate
    leaves (fs, hi) (see metrics_from_model), lands where Im(Y) does not rise
    (Newton then cycles round a minimum of Im(Y) that stays above zero), or
    Im(Y) does not rise through zero within +-1e-12 relative of the last one."""
    f = fp
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(50):
            y, dy = _y_and_slope(model, np.array([f]))
            if not dy[0].imag > 0.0:
                return None
            step = float(y[0].imag / (TWO_PI * dy[0].imag))
            f -= step
            if not fs < f < hi:
                return None
            if abs(step) <= 1e-15 * f:
                break
    im_y = _y_and_slope(model, f * np.array([1.0 - 1e-12, 1.0 + 1e-12]))[0].imag
    return f if im_y[0] < 0.0 < im_y[1] else None


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
    """Scalar figures of merit for one device (see metrics_from_model).

    fp-derived fields (fp, qp, kt2, fom) are None when the branch is
    overdamped (fp-absent) or fp lies beyond the analysis span
    (fp-unbracketed); fp-crosscheck marks a lossy zero of Im(Y) more than
    FP_CROSSCHECK_RTOL off fp, and fs-near-edge a dominant fs within
    FS_EDGE_LINEWIDTHS linewidths of a span end.
    qs/qp of +inf mark a lossless pole or a Q above the 1e6 sentinel.
    fom = qs * kt2 by construction.
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


def metrics_from_model(model: MbvdModel, grid: np.ndarray) -> ResonatorMetrics:
    """Report metrics of the dominant branch evaluated against a grid span.

    fp is the circuit's own lossless antiresonance above the dominant fs,
    so kt2 comes from the device's own resonance pair for any branch count.
    Q_s and Q_p are (w/2)|d arg Y/dw| at fs and fp, from the circuit's exact
    derivative.  At a lossless pole two rules stand in for that slope: a
    dominant branch with rm = 0 has Q_s = 2 pi fs lm / rs, its limit there
    (+inf without rs), and a model with r0 = 0 and every rm = 0 has
    Q_p = +inf.  Only the grid's ends are read: they must be finite,
    positive and increasing (else a ValueError); a dominant fs outside
    them is an EstimationError, and an fp beyond them leaves the
    fp-derived fields None and sets a flag.
    """
    grid = np.asarray(grid, dtype=float).reshape(-1)
    if grid.size < 2:
        raise ValueError("grid must contain at least two frequencies")
    f_lo, f_hi = float(grid[0]), float(grid[-1])
    if not 0.0 < f_lo < f_hi < math.inf:
        raise ValueError(f"analysis span [{f_lo:.6g}, {f_hi:.6g}] Hz is not a finite, "
                         f"positive, increasing pair of frequencies")
    if not model.branches:
        raise ValueError("model has no motional branches")

    dom_branch = model.branches[model.dominant_index]
    fs = dom_branch.fs
    if not f_lo <= fs <= f_hi:
        raise EstimationError(f"fitted dominant resonance {fs:.6g} Hz lies outside the "
                              f"measured span [{f_lo:.6g}, {f_hi:.6g}] Hz")
    fs_next = min((b.fs for b in model.branches if b.fs > fs), default=math.inf)
    # fp lies below the next fs and below fs sqrt(2 + 2 sum cm / c0), where the
    # lossless sum exceeds c0 - sum cm_j / ((f/fs)^2 - 1) > c0 / 2; the Newton
    # search for the lossy zero is kept to the same interval
    hi = min(fs_next, fs * math.sqrt(2.0 + 2.0 * sum(b.cm for b in model.branches) / model.c0))
    fp = _fp_lossless(model, fs, hi)
    fp_lossy = _lossy_zero(model, fp, fs, hi)

    freqs = np.array([fs, fp])
    y, dy = _y_and_slope(model, freqs)
    with np.errstate(divide="ignore", invalid="ignore"):
        qs, qp = (math.pi * freqs * np.abs((dy / y).imag)).tolist()
    if dom_branch.rm == 0:
        qs = TWO_PI * fs * dom_branch.lm / model.rs if model.rs else math.inf
    if model.r0 == 0 and all(b.rm == 0 for b in model.branches):
        qp = math.inf
    qs, qp = (math.inf if q > Q_SENTINEL else q for q in (qs, qp))

    flags: list[str] = []
    # distance < FS_EDGE_LINEWIDTHS * fs / qs, which also holds for qs = 0
    if min(fs - f_lo, f_hi - fs) * qs < FS_EDGE_LINEWIDTHS * fs:
        flags.append("fs-near-edge")
    if fp_lossy is None:
        flags.append("fp-absent")
    elif fp > f_hi:
        flags.append("fp-unbracketed")
    elif abs(fp_lossy - fp) > FP_CROSSCHECK_RTOL * fp:
        # the lossy zero drifts off the lossless root at very low Q; the
        # lossless root stays the reported value
        flags.append("fp-crosscheck")
    if fp_lossy is None or fp > f_hi:
        return ResonatorMetrics(
            fs=fs, fp=None, qs=qs, qp=None, qm=dom_branch.qm, kt2=None, c0=model.c0,
            fom=None, flags=tuple(flags),
        )
    kt2 = kt2_from_frequencies(fs, fp)
    return ResonatorMetrics(
        fs=fs, fp=fp, qs=qs, qp=qp, qm=dom_branch.qm, kt2=kt2, c0=model.c0,
        fom=qs * kt2, flags=tuple(flags),
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
