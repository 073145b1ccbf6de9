"""1D electrode-sampling transduction model for laterally vibrating plates.

A free-edge plate of width W carries contour modes u_n(x) = cos(n pi x / W)
at f_n = n v_p / (2 W). The interdigitated electrodes excite each mode in
proportion to the overlap of the lateral drive field with the mode strain
du_n/dx. The drive field lives in the gaps between adjacent fingers and
alternates sign with the finger polarity, so the overlap reduces to a signed
sum of closed-form cosine differences, one per gap. A layout is derived
from its ``DeviceGeometry`` alone, and its finger pattern is periodic, so
that sum is a Dirichlet kernel: ``strain_overlaps`` evaluates it in a fixed
number of operations per mode, whatever the electrode count, within 1e-14
of the largest overlap.

This reproduces the boundary-condition physics of the two electrode
configurations without FEA: the edge-anchored layout samples its design mode
perfectly, while the degenerate layout suppresses the design-index mode by
parity and splits the response onto the two neighbouring modes.

Frequencies assume a dispersionless phase velocity: correct to leading
order, and the splitting/parity/convergence structure is velocity
independent.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .designkit import DeviceGeometry
from .errors import DegenerateCouplingError, GeometryError
from .mbvd import MbvdModel, branch_from_metrics

PRUNE_REL = 1e-12
FIELD_MODELS = ("tophat", "delta")
_INT64_MAX = np.iinfo(np.int64).max


@dataclass(frozen=True)
class ElectrodeLayout:
    """The finger pattern of one geometry, derived from it on each read.

    lvr: plate width (N-1)*lambda/2; interior fingers of width c*lambda/2
    centred on x = i*lambda/2, plus half-width fingers (c*lambda/4) flush
    with each plate edge so the stress-free boundary bisects a notional full
    finger.

    dlvr: plate width N*lambda/2; N full-width fingers with the outermost
    centres lambda/4 in from each edge, adjacent centres lambda/2 apart.

    Polarity alternates, positive first, in both. ``centers``, ``widths``
    (metres) and ``polarities`` (+1 or -1) hold one element per finger in
    order along the plate. A geometry whose plate width overflows a float,
    or whose narrowest finger or gap falls below the normal float range,
    raises GeometryError; every other geometry has a layout.

    The finger arrays carry the rounding of their coordinates: for coverages
    within about 1e-12*N of 1 the gap is below that rounding, and adjacent
    fingers touch or overlap (dlvr N = 400, lambda = 1.8 um, c = 1 - 2**-53).
    ``strain_overlaps`` reads only N, c and the topology, so the couplings
    of such a geometry are unaffected; refusing it is a lithography rule.
    """

    geometry: DeviceGeometry

    def __post_init__(self) -> None:
        geom = self.geometry
        try:
            plate = self.plate_width
        except OverflowError:  # an electrode count beyond the float range
            plate = math.inf
        if not plate < math.inf:
            raise GeometryError(f"plate width overflows a float for {geom.n_elements} "
                                f"electrodes at wavelength {geom.wavelength!r} m")
        # a subnormal length keeps fewer than 53 bits, and the centres and
        # widths derived from it would no longer agree to rounding
        finger = geom.edge_width if self.topology == "lvr" else geom.interior_width
        for name, width in (("finger", finger), ("gap", geom.gap_width)):
            if width < sys.float_info.min:
                raise GeometryError(f"{name} width {width!r} m is below the normal float range")

    @property
    def topology(self) -> str:
        return self.geometry.topology

    @property
    def n_electrodes(self) -> int:
        return self.geometry.n_elements

    @property
    def design_index(self) -> int:
        """Mode index whose wavelength matches the finger pitch."""
        n = self.n_electrodes
        return n - 1 if self.topology == "lvr" else n

    @property
    def plate_width(self) -> float:
        """``design_index`` half wavelengths."""
        return 0.5 * self.design_index * self.geometry.wavelength

    @property
    def centers(self) -> np.ndarray:
        lam = self.geometry.wavelength
        i = np.arange(self.n_electrodes)
        # 0.5 * i is exact, so each element is the scalar expression's product
        if self.topology == "dlvr":
            return 0.25 * lam + 0.5 * i * lam
        center = 0.5 * i * lam
        inset = 0.125 * self.geometry.coverage * lam
        center[0] = inset
        center[-1] = self.plate_width - inset
        return center

    @property
    def widths(self) -> np.ndarray:
        width = np.full(self.n_electrodes, self.geometry.interior_width)
        if self.topology == "lvr":
            width[[0, -1]] = self.geometry.edge_width
        return width

    @property
    def polarities(self) -> np.ndarray:
        return 1 - 2 * (np.arange(self.n_electrodes) % 2)


def build_layout(geom: DeviceGeometry) -> ElectrodeLayout:
    """The finger pattern of ``geom``; see ElectrodeLayout."""
    return ElectrodeLayout(geom)


def _indices_array(indices: Sequence[int]) -> np.ndarray:
    idx = np.asarray(indices).reshape(-1)
    if idx.size == 0:
        raise ValueError("no mode indices given")
    # a float index would be truncated, and NaN or an integer past int64
    # has no int64 value: only integer arrays within int64 are counted (the
    # bound is a uint64, since uint64 against a signed integer can promote
    # to float64, where 2**63 - 1 rounds to 2**63)
    if idx.dtype.kind not in "iu" or idx.dtype == np.uint64 and idx.max() > np.uint64(_INT64_MAX):
        raise ValueError(f"mode index {_first_non_index(idx.tolist())!r} is not an int64 integer")
    if idx.min() < 1:
        raise ValueError(f"mode indices start at 1, got {idx.min()}")
    return idx.astype(np.int64, copy=False)


def _first_non_index(values: list):
    """The first of ``values`` that is not a whole number in the int64
    range, else the first (a whole-number float)."""
    for v in values:
        if not (isinstance(v, (int, float)) and -_INT64_MAX - 1 <= v <= _INT64_MAX and v == int(v)):
            return v
    return values[0]


def _mode_count(n_max) -> int:
    """``n_max`` as an int; a float or other non-integer is refused."""
    try:
        return operator.index(n_max)
    except TypeError:
        raise ValueError(f"n_max={n_max!r} is not an integer") from None


def strain_overlaps(
    layout: ElectrodeLayout,
    indices: Sequence[int],
    field_model: str = "tophat",
) -> np.ndarray:
    """Signed overlap of the gap drive field with du_n/dx, in closed form.

    Gap j of the G = N - 1 gaps contributes (-1)^j times the integral of
    du_n/dx over it; the top-hat field gives (-1)^j * (cos(n pi b / W) -
    cos(n pi a / W)), and the delta field samples the strain at the gap
    centre and scales by the gap width (the narrow-gap limit of the same
    integral). Every layout puts its gap centres on a lambda/4 grid with
    width g = (1 - c) lambda/2 and pitch lambda/2 on a plate of
    M = ``design_index`` half wavelengths, so the alternating sum is a
    Dirichlet kernel:

        top-hat  -2 D sin(phi) sin(n pi (1 - c) / (2M))
        delta    -g (n pi / W) D sin(phi)

    with D = sin(G psi/2) / sin(psi/2), psi/2 = pi (n + M) / (2M), and
    phi = phi_c + (G - 1) psi/2 for the first gap centre at phi_c = n pi / M
    (dlvr) or n pi / (2M) (lvr). Every phase but the half-gap one is an
    integer multiple of pi / (2M), reduced mod 4M from n mod 4M before it
    is scaled, so for any index the dark modes (phi a multiple of pi, every
    n + N even) come out exactly +0.0 and the modes at psi/2 a multiple of
    pi (the lvr design mode among them) take D's limit +-G. Here each of
    those sines is evaluated for its own phase, so the cost per mode grows
    with neither N nor the largest index; ``mode_couplings`` and
    ``split_study``, which weigh every mode up to n_max >= 2M, read them
    instead from one table of the 4M lattice sines built per geometry, the
    same np.sin values bit for bit. Against the gap sum in np.longdouble
    over the ideal geometry, the error relative to the largest overlap is
    at most 1e-14, or the float64 gap loop's error over the same layout
    where that is larger (N = 2..40, 337, 338, 400 and 800; c = 0.2 to
    0.8). Indices are integers from 1 within int64; a float, NaN or larger
    index is a ValueError naming it.
    """
    idx = _indices_array(indices)
    m = layout.design_index
    return _overlaps(layout.geometry, m, idx, field_model, lambda x: _sin_steps(x, m))


def _overlaps(geom: DeviceGeometry, m: int, idx: np.ndarray, field_model: str, sine) -> np.ndarray:
    """The closed form of ``strain_overlaps`` for valid int64 indices, on a
    plate of m half wavelengths, with sine(x) = sin(x pi / (2m)) for whole
    steps x in [0, 4m)."""
    if field_model not in FIELD_MODELS:
        raise ValueError(f"field_model must be one of {FIELD_MODELS}")
    gaps = geom.n_elements - 1
    period = 4 * m  # 2 pi in steps of pi / (2M)
    r = idx % period
    half_psi = (r + m) % period
    phi = ((2 * r if geom.topology == "dlvr" else r) + (gaps - 1) * half_psi) % period
    pole = half_psi % (2 * m) == 0
    # D, with its limit G (-1)^(k (G - 1)) where psi/2 = k pi
    kernel = np.where(pole, np.where(half_psi == 0, gaps, (-1) ** (gaps - 1) * gaps),
                      sine(gaps * half_psi % period) / np.where(pole, 1.0, sine(half_psi)))
    drive = kernel * sine(phi)
    if field_model == "tophat":
        out = -2.0 * drive * _sin_steps(_half_gap_steps(idx, r, geom.coverage, period), m)
    else:
        # g / W = (1 - c) / M
        out = -(idx * np.pi) * ((1.0 - geom.coverage) / m) * drive
    # a zero of the kernel or of sin(phi) can come out as -0.0
    return out + 0.0


def _sin_steps(x, m: int) -> np.ndarray:
    """sin(x pi / (2m)) for phases x counted in steps of pi / (2m): x is
    reduced mod 4m and folded onto [0, m] before it is scaled, so np.sin
    sees an angle in [0, pi/2], an integer multiple of 2m gives exactly 0
    and every other value keeps the relative accuracy of np.sin."""
    x = np.mod(x, 4 * m)
    sign = np.where(x < 2 * m, 1.0, -1.0)
    x = np.mod(x, 2 * m)
    return sign * np.sin(np.minimum(x, 2 * m - x) * (np.pi / (2 * m)))


def _sine_table(m: int) -> np.ndarray:
    """``_sin_steps`` over one period, x = 0..4m-1: np.sin of the quarter
    wave's m + 1 folded angles, mirrored and negated as _sin_steps folds
    them, so every entry is its value bit for bit (-0.0 at x = 2m)."""
    q = np.sin(np.arange(m + 1) * (np.pi / (2 * m)))
    mirror = q[m - 1:0:-1]
    return np.concatenate((q, mirror, -q, -mirror))


def _half_gap_steps(idx: np.ndarray, r: np.ndarray, c: float, period: int) -> np.ndarray:
    """n (1 - c) less a multiple of ``period``, within one period of 0, for
    every index n, given r = n mod period.

    c is split (Veltkamp) into a 26-bit head, whose product with an index
    below 2**27 is exact and so reduces exactly, and a tail too small to
    matter; n * (1 - c) formed directly would lose about n ulps of the
    phase before the reduction."""
    t = c * 134217729.0  # 2**27 + 1
    head = t - (t - c)
    n = idx.astype(float)
    return r - np.fmod(n * head, period) - n * (c - head)


@dataclass(frozen=True)
class ModeCoupling:
    """One retained plate mode: index, frequency and normalized coupling weight."""

    n: int
    f_n: float
    eta: float

    @property
    def nodes(self) -> int:
        """Displacement-node count, equal to the index."""
        return self.n


@dataclass(frozen=True)
class ModeSpectrum:
    modes: tuple[ModeCoupling, ...]

    def __post_init__(self) -> None:
        if not self.modes:
            raise ValueError("spectrum must retain at least one mode")
        for m in self.modes:
            if not 0.0 < m.f_n < math.inf:
                raise ValueError(f"mode {m.n} frequency must be positive and finite, got {m.f_n!r}")
            if not 0.0 <= m.eta < math.inf:
                raise ValueError(
                    f"mode {m.n} weight must be non-negative and finite, got {m.eta!r}")
        freqs = [m.f_n for m in self.modes]
        if any(b <= a for a, b in zip(freqs, freqs[1:])):
            raise ValueError("mode frequencies must increase with index")
        total = sum(m.eta for m in self.modes)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"mode weights must sum to 1, got {total!r}")

    @property
    def frequencies(self) -> np.ndarray:
        return np.array([m.f_n for m in self.modes])

    @property
    def weights(self) -> np.ndarray:
        return np.array([m.eta for m in self.modes])

    def dominant_modes(self) -> tuple[ModeCoupling, ...]:
        """The two largest-weight modes (one if only one is retained),
        ordered by frequency."""
        pick = _dominant(np.array([m.n for m in self.modes]), self.frequencies, self.weights)
        return tuple(self.modes[i] for i in pick.tolist())


def _dominant(n: np.ndarray, f_n: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """Positions of the two largest weights, ties going to the lower index,
    ordered by frequency."""
    top = np.lexsort((n, -eta))[:2]
    return top[np.argsort(f_n[top], kind="stable")]


def _mode_frequency(layout: ElectrodeLayout, v_p: float, n):
    """Frequency n v_p / (2 W) of plate mode n (an int or an index array)."""
    return 0.5 * n * v_p / layout.plate_width


def mode_couplings(
    layout: ElectrodeLayout,
    v_p: float,
    n_max: int,
    field_model: str = "tophat",
) -> ModeSpectrum:
    """Coupling spectrum of the first ``n_max`` plate modes.

    eta_n is the squared strain overlap, normalized to sum 1. Modes below
    PRUNE_REL of the strongest weight are dropped and the remainder
    renormalized; the pruned tail always carries negligible weight, so the
    retained sum exceeds 0.999 before renormalization.
    """
    n, f_n, eta = _couplings(layout, v_p, _mode_count(n_max), field_model)
    return ModeSpectrum(modes=tuple(map(ModeCoupling, n.tolist(), f_n.tolist(), eta.tolist())))


def _couplings(layout: ElectrodeLayout, v_p: float, n_max: int, field_model: str):
    """Index, frequency and weight arrays of the modes ``mode_couplings``
    retains, for an int ``n_max``."""
    if not 0.0 < v_p < math.inf:
        raise ValueError(f"phase velocity must be positive and finite, got {v_p!r}")
    m = layout.design_index
    if n_max < 2 * m:
        raise ValueError(
            f"n_max={n_max} too small; need at least twice the design index "
            f"({m}) to capture the coupled neighbourhood")
    # np.arange's int64 indices end at 2**63 - 1; past that, numpy versions
    # differ (an empty float array or an error), so refuse first
    if n_max >= _INT64_MAX:
        raise ValueError(f"n_max={n_max} is beyond the int64 mode-index range")
    idx = np.arange(1, n_max + 1)
    s = _overlaps(layout.geometry, m, idx, field_model, _sine_table(m).take)
    raw = s * s
    total = raw.sum()
    if total <= 0.0:
        raise DegenerateCouplingError("no plate mode couples to this electrode configuration")
    eta = raw / total
    keep = eta >= PRUNE_REL * eta.max()
    n, kept = idx[keep], eta[keep]
    return n, _mode_frequency(layout, v_p, n), kept / kept.sum()


def spectrum_to_mbvd(
    spectrum: ModeSpectrum,
    c0: float,
    kt2_total: float,
    q_assumed: float,
) -> MbvdModel:
    """Lumped-circuit realization of a mode spectrum.

    Each retained mode becomes one motional branch at its own frequency,
    carrying the per-mode share eta_n * kt2_total of the total coupling.
    Modes too weak to map onto a physical branch are dropped. Loss
    elements beyond the per-branch q are left at zero.
    """
    if not 0.0 < kt2_total < 1.0:
        raise ValueError(f"kt2_total must lie in (0, 1), got {kt2_total}")
    branches = []
    for m in spectrum.modes:
        try:
            branches.append(branch_from_metrics(m.f_n, q_assumed, m.eta * kt2_total, c0))
        except DegenerateCouplingError:
            continue
    if not branches:
        raise DegenerateCouplingError("every mode fell below the representable coupling floor")
    return MbvdModel(c0=c0, r0=0.0, rs=0.0, branches=tuple(branches))


@dataclass(frozen=True)
class SplitRecord:
    """Convergence-study row: the dominant mode pair for one element count."""

    n_elements: int
    design_frequency: float
    modes: tuple[ModeCoupling, ...]
    offset: float

    def as_dict(self) -> dict:
        return {
            "n_elements": self.n_elements,
            "design_frequency_hz": self.design_frequency,
            "modes": [
                {"n": m.n, "f_hz": m.f_n, "eta": m.eta, "nodes": m.nodes}
                for m in self.modes
            ],
            "offset": self.offset,
        }


def split_study(
    geoms: Sequence[DeviceGeometry],
    v_p: float,
    n_max: int | None = None,
    field_model: str = "tophat",
) -> list[SplitRecord]:
    """Mode-splitting convergence across an element-count sweep.

    For each geometry: build the layout, weigh its modes as
    ``mode_couplings`` does, and record only the two dominant modes (as
    ``ModeSpectrum.dominant_modes`` ranks them) with the fractional offset of
    the strongest from the design frequency v_p/lambda. ``n_max`` defaults
    to twice the design index per geometry.
    """
    if not geoms:
        raise ValueError("empty geometry sweep")
    counts = [g.n_elements for g in geoms]
    if any(b <= a for a, b in zip(counts, counts[1:])):
        raise ValueError("element counts must be strictly ascending")
    if n_max is not None:
        n_max = _mode_count(n_max)
    records = []
    for geom in geoms:
        layout = build_layout(geom)
        local_max = n_max if n_max is not None else 2 * layout.design_index
        n, f_n, eta = _couplings(layout, v_p, local_max, field_model)
        pick = _dominant(n, f_n, eta)
        dominant = tuple(map(ModeCoupling, n[pick].tolist(), f_n[pick].tolist(),
                             eta[pick].tolist()))
        f_design = v_p / geom.wavelength
        top = max(dominant, key=lambda m: m.eta)
        records.append(SplitRecord(
            n_elements=geom.n_elements,
            design_frequency=f_design,
            modes=dominant,
            offset=abs(top.f_n - f_design) / f_design))
    return records
