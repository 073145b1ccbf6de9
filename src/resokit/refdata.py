"""Bundled survey of measured lateral-mode resonator results.

Twenty-two suspended lithium-niobate devices spanning 1.87 to 16.21 GHz,
four families: S0 and SH0 acoustic modes, each in the edge-anchored (lvr)
and degenerate (dlvr) electrode configurations. The rows carry the
published display precision (integer Q, one-decimal percent coupling) and
are used as calibration fixtures, regression oracles, and sources for
synthesized golden measurement files.

Known internal inconsistencies of the survey are encoded here rather than
patched: rows D, N and P print a figure of merit that disagrees with their
own Q_s * k_t^2 by more than rounding can explain, and rows J and K imply
a phase velocity far above the rest of the S0 population (consistent with
those two devices responding on a different mode). Consumers flag these
rows instead of matching them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mbvd import KT2_PREFACTOR, MbvdModel, branch_from_metrics

FOM_OUTLIER_LABELS = ("D", "N", "P")
VELOCITY_OUTLIER_LABELS = ("J", "K")


@dataclass(frozen=True)
class SurveyRow:
    """One measured device in SI units; ``fom`` is the printed value."""

    label: str
    mode: str
    topology: str
    wavelength: float
    fs: float
    qs: float
    qp: float
    qm: float
    kt2: float
    c0: float
    fom: float


def _r(label: str, mode: str, topology: str, lam_nm: float, fs_ghz: float,
       qs: float, qp: float, qm: float, kt2_pct: float, c0_ff: float,
       fom: float) -> SurveyRow:
    return SurveyRow(
        label=label, mode=mode, topology=topology,
        wavelength=lam_nm * 1e-9, fs=fs_ghz * 1e9,
        qs=float(qs), qp=float(qp), qm=float(qm),
        kt2=kt2_pct / 100.0, c0=c0_ff * 1e-15, fom=float(fom))


SURVEY: tuple[SurveyRow, ...] = (
    # S0, edge-anchored
    _r("A", "S0", "lvr", 1800, 2.99, 261, 549, 997, 18.4, 17.6, 48),
    _r("B", "S0", "lvr", 1200, 4.54, 288, 84, 316, 15.9, 28.2, 46),
    _r("C", "S0", "lvr", 900, 6.12, 234, 82, 247, 12.7, 23.8, 30),
    _r("D", "S0", "lvr", 720, 7.65, 187, 197, 230, 8.5, 50.7, 13),
    # S0, degenerate
    _r("E", "S0", "dlvr", 1800, 3.00, 316, 1383, 1318, 19.9, 93.6, 63),
    _r("F", "S0", "dlvr", 1200, 4.56, 321, 393, 505, 18.8, 89.8, 60),
    _r("G", "S0", "dlvr", 900, 6.15, 277, 297, 335, 16.0, 93.1, 44),
    _r("H", "S0", "dlvr", 720, 7.77, 259, 245, 230, 11.7, 79.7, 30),
    _r("I", "S0", "dlvr", 560, 9.74, 101, 100, 105, 6.9, 148, 7),
    _r("J", "S0", "dlvr", 480, 14.47, 105, 56, 121, 4.0, 31.4, 4),
    _r("K", "S0", "dlvr", 400, 16.21, 55, 56, 71, 5.8, 71.7, 3),
    # SH0, edge-anchored
    _r("L", "SH0", "lvr", 1800, 1.87, 477, 588, 1143, 29.7, 51.4, 142),
    _r("M", "SH0", "lvr", 1200, 2.83, 301, 228, 548, 24.4, 28.2, 73),
    _r("N", "SH0", "lvr", 900, 3.84, 242, 750, 490, 19.5, 35.5, 58),
    _r("O", "SH0", "lvr", 720, 4.99, 158, 107, 196, 13.7, 24.0, 22),
    # SH0, degenerate
    _r("P", "SH0", "dlvr", 1800, 1.87, 400, 481, 1750, 32.7, 99.2, 137),
    _r("Q", "SH0", "dlvr", 1200, 2.86, 262, 212, 1368, 29.3, 111.7, 77),
    _r("R", "SH0", "dlvr", 900, 3.92, 332, 1374, 1219, 23.7, 86.1, 78),
    _r("S", "SH0", "dlvr", 720, 5.00, 277, 335, 904, 20.1, 103.6, 56),
    _r("T", "SH0", "dlvr", 560, 6.50, 299, 488, 694, 14.0, 41.7, 42),
    _r("U", "SH0", "dlvr", 480, 7.57, 239, 199, 285, 11.1, 22.5, 27),
    _r("V", "SH0", "dlvr", 400, 8.98, 163, 244, 244, 9.2, 106.1, 15),
)

_BY_LABEL = {r.label: r for r in SURVEY}


def row(label: str) -> SurveyRow:
    try:
        return _BY_LABEL[label.upper()]
    except KeyError:
        raise KeyError(f"no survey row {label!r}; labels run A..V") from None


def survey_rows(mode: str | None = None, topology: str | None = None) -> tuple[SurveyRow, ...]:
    """Rows filtered by acoustic mode and/or topology, survey order."""
    out = SURVEY
    if mode is not None:
        out = tuple(r for r in out if r.mode == mode.upper())
    if topology is not None:
        out = tuple(r for r in out if r.topology == topology.lower())
    return out


def velocity_observations(mode: str | None = None, topology: str | None = None) -> list[tuple[float, float]]:
    """(wavelength, fs) pairs for velocity calibration."""
    return [(r.wavelength, r.fs) for r in survey_rows(mode, topology)]


def roundtrip_model(label: str) -> MbvdModel:
    """Single-branch model carrying the row's (fs, Q_m, k_t^2, C_0).

    Loss lives entirely in the motional branch at the printed Q_m, with
    zero static and lead resistance: the canonical fixture for parameter
    round-trip exercises, where the fit must hand back exactly these four
    numbers.
    """
    r = row(label)
    return MbvdModel(c0=r.c0, r0=0.0, rs=0.0,
                     branches=(branch_from_metrics(r.fs, r.qm, r.kt2, r.c0),))


def _loaded_branch_q(q_target: float, c0_over_cm: float) -> float:
    """Branch Q whose phase-slope Q at series resonance equals q_target.

    With r0 = rs = 0 the phase-slope Q of the full admittance is exactly
    (Qb - e/2)/(1 + e^2) with e = omega_s c0 rm = (c0/cm)/Qb: the static
    susceptance loads the branch.  Inverting for Qb gives the cubic
    Qb^3 - T Qb^2 - (a/2) Qb - T a^2 = 0 (T = q_target, a = c0/cm),
    whose single real root at or above T is the branch Q to synthesize
    with.  The loading is a >10% effect for the low-Q survey rows.
    """
    a = c0_over_cm
    roots = np.roots([1.0, -q_target, -a / 2.0, -q_target * a * a])
    real = roots[np.abs(roots.imag) < 1e-9 * np.abs(roots.real)].real
    good = real[real >= q_target * (1.0 - 1e-12)]
    if good.size == 0:
        raise ValueError(f"no branch Q reproduces a loaded Q of {q_target}")
    return float(good.min())


def display_model(label: str) -> MbvdModel:
    """Single-branch model whose extracted metrics reproduce the printed row.

    The branch Q is chosen so the phase-slope Q_s extracted from the
    synthesized trace equals the printed Q_s (see _loaded_branch_q); a
    golden file from this model re-extracts to the printed Q_s, k_t^2,
    C_0 and figure of merit. A single lossless-static model cannot
    honour Q_s and Q_m simultaneously (row H even prints Q_s > Q_m), so
    the two fixtures are kept separate.
    """
    r = row(label)
    probe = branch_from_metrics(r.fs, r.qs, r.kt2, r.c0)
    qb = _loaded_branch_q(r.qs, r.c0 / probe.cm)
    return MbvdModel(c0=r.c0, r0=0.0, rs=0.0,
                     branches=(branch_from_metrics(r.fs, qb, r.kt2, r.c0),))


def parallel_resonance(label: str) -> float:
    """Lossless antiresonance implied by the printed fs and k_t^2."""
    r = row(label)
    return r.fs / np.sqrt(1.0 - r.kt2 / KT2_PREFACTOR)


def synthesis_grid(label: str, n_points: int = 2001,
                   lo_rel: float = 0.90, hi_rel: float = 2.05) -> np.ndarray:
    """Measurement-style frequency grid bracketing the row's resonance pair.

    Spans lo_rel*fs to hi_rel*fs linearly.  The default reaches well above
    the antiresonance: the motional shoulder decays only as 1/detuning, so
    reliable static-capacitance estimation needs a stretch of grid where
    the static susceptance genuinely dominates.
    """
    if n_points < 16:
        raise ValueError("grid too short to be useful")
    r = row(label)
    fp = parallel_resonance(label)
    lo = lo_rel * r.fs
    hi = hi_rel * r.fs
    if not (lo < fp < hi):
        raise ValueError("grid must bracket the resonance pair")
    return np.linspace(lo, hi, n_points)
