"""1D electrode-sampling transduction model for laterally vibrating plates.

A free-edge plate of width W carries contour modes u_n(x) = cos(n pi x / W)
at f_n = n v_p / (2 W). The interdigitated electrodes excite each mode in
proportion to the overlap of the lateral drive field with the mode strain
du_n/dx. The drive field lives in the gaps between adjacent fingers and
alternates sign with the finger polarity, so the overlap reduces to a signed
sum of closed-form cosine differences, one per gap. The finger patterns of
``build_layout`` are periodic, and over them that sum is a Dirichlet kernel:
``strain_overlaps`` evaluates it in a fixed number of operations per mode,
whatever the electrode count, within 1e-14 of the largest overlap. A
layout built by hand has no such form and raises GeometryError there.

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
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .designkit import DeviceGeometry
from .errors import DegenerateCouplingError, GeometryError
from .mbvd import MbvdModel, branch_from_metrics

PRUNE_REL = 1e-12
FIELD_MODELS = ("tophat", "delta")

_OVERLAP_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class ElectrodeLayout:
    """Realized finger pattern on a plate of width ``plate_width``: finger
    centres and widths in metres and polarities (+1 or -1), one array
    element per finger in order along the plate. The arrays are read-only
    copies of what was passed. Only a layout from ``build_layout`` has
    strain overlaps: it keeps the geometry its closed form needs."""

    topology: str
    plate_width: float
    centers: np.ndarray
    widths: np.ndarray
    polarities: np.ndarray
    # the geometry build_layout placed these fingers from; None for a layout
    # built by hand or copied with dataclasses.replace
    _geometry: DeviceGeometry | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        center = np.array(self.centers, dtype=float)
        width = np.array(self.widths, dtype=float)
        polarity = np.array(self.polarities)
        if not center.ndim == width.ndim == polarity.ndim == 1:
            raise GeometryError("electrode centres, widths and polarities must be 1-D")
        if not center.size == width.size == polarity.size:
            raise GeometryError(
                f"got {center.size} centres, {width.size} widths and {polarity.size} polarities")
        if center.size < 2:
            raise GeometryError("layout needs at least two electrodes")
        if not math.isfinite(self.plate_width) or self.plate_width <= 0.0:
            raise GeometryError(f"plate width must be positive and finite, got {self.plate_width!r}")
        _first_fault(~np.isfinite(center), "electrode {} centre is not finite")
        _first_fault(~np.isfinite(width), "electrode {} width is not finite")
        _first_fault(width <= 0.0, "electrode {} width must be positive")
        _first_fault((polarity != 1) & (polarity != -1), "electrode {} polarity must be +1 or -1")
        tol = _OVERLAP_TOL * self.plate_width
        left = center - 0.5 * width
        right = center + 0.5 * width
        _first_fault((left < -tol) | (right > self.plate_width + tol),
                     "electrode {} extends outside the plate")
        _first_fault(left[1:] <= right[:-1] + tol, "electrodes {} and {} overlap or touch", pair=True)
        _first_fault(polarity[1:] == polarity[:-1], "electrodes {} and {} have the same polarity",
                     pair=True)
        for name, column in (("centers", center), ("widths", width),
                             ("polarities", polarity.astype(int))):
            column.flags.writeable = False
            object.__setattr__(self, name, column)

    @property
    def n_electrodes(self) -> int:
        return self.centers.size

    @property
    def design_index(self) -> int:
        """Mode index whose wavelength matches the finger pitch."""
        n = self.n_electrodes
        return n - 1 if self.topology == "lvr" else n


def _first_fault(fault: np.ndarray, message: str, pair: bool = False) -> None:
    """Raise GeometryError naming the first finger (or the first adjacent
    pair of fingers) where ``fault`` holds."""
    hits = np.flatnonzero(fault)
    if hits.size:
        i = int(hits[0])
        raise GeometryError(message.format(i, i + 1) if pair else message.format(i))


def build_layout(geom: DeviceGeometry) -> ElectrodeLayout:
    """Place the fingers for either topology.

    lvr: plate width (N-1)*lambda/2; interior fingers of width c*lambda/2
    centred on x = i*lambda/2, plus half-width fingers (c*lambda/4) flush
    with each plate edge so the stress-free boundary bisects a notional full
    finger.

    dlvr: plate width N*lambda/2; N full-width fingers with the outermost
    centres lambda/4 in from each edge, adjacent centres lambda/2 apart.

    Polarity alternates, positive first, in both.
    """
    lam = geom.wavelength
    c = geom.coverage
    n = geom.n_elements
    full = 0.5 * c * lam
    i = np.arange(n)
    # 0.5 * i is exact, so each element is the scalar expression's product
    width = np.full(n, full)
    if geom.topology == "lvr":
        plate = 0.5 * (n - 1) * lam
        center = 0.5 * i * lam
        center[0] = 0.125 * c * lam
        center[-1] = plate - 0.125 * c * lam
        width[[0, -1]] = 0.5 * full
    else:
        plate = 0.5 * n * lam
        center = 0.25 * lam + 0.5 * i * lam
    layout = ElectrodeLayout(
        topology=geom.topology, plate_width=plate,
        centers=center, widths=width, polarities=1 - 2 * (i % 2))
    object.__setattr__(layout, "_geometry", geom)
    return layout


def _indices_array(indices: Sequence[int]) -> np.ndarray:
    idx = np.asarray(indices, dtype=int).reshape(-1)
    if idx.size == 0:
        raise ValueError("no mode indices given")
    if np.any(idx < 1):
        raise ValueError("mode indices start at 1")
    return idx


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
    integral). ``build_layout`` puts every gap centre on a lambda/4 grid
    with width g = (1 - c) lambda/2 and pitch lambda/2 on a plate of
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
    pi (the lvr design mode among them) take D's limit +-G. The cost does
    not grow with N. Against the gap sum in np.longdouble over the ideal
    geometry, the error relative to the largest overlap is at most 1e-14,
    or the float64 gap loop's error over the same layout where that is
    larger (N = 2..40, 337, 338, 400 and 800; c = 0.2 to 0.8).

    The closed form holds for ``build_layout``'s patterns only: a layout
    built by hand, or copied with ``dataclasses.replace``, raises
    GeometryError.
    """
    if field_model not in FIELD_MODELS:
        raise ValueError(f"field_model must be one of {FIELD_MODELS}")
    geom = layout._geometry
    if geom is None:
        raise GeometryError("strain_overlaps needs a layout from build_layout: its closed "
                            "form holds for that periodic finger pattern only")
    idx = _indices_array(indices)
    m = layout.design_index
    gaps = geom.n_elements - 1
    period = 4 * m  # 2 pi in steps of pi / (2M)
    r = idx % period
    half_psi = (r + m) % period
    phi = ((2 * r if geom.topology == "dlvr" else r) + (gaps - 1) * half_psi) % period
    pole = half_psi % (2 * m) == 0
    # D, with its limit G (-1)^(k (G - 1)) where psi/2 = k pi
    kernel = np.where(pole, np.where(half_psi == 0, gaps, (-1) ** (gaps - 1) * gaps),
                      _sin_steps(gaps * half_psi, m) / np.where(pole, 1.0, _sin_steps(half_psi, m)))
    drive = kernel * _sin_steps(phi, m)
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
        ranked = sorted(self.modes, key=lambda m: (-m.eta, m.n))[:2]
        return tuple(sorted(ranked, key=lambda m: m.f_n))


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
    if not 0.0 < v_p < math.inf:
        raise ValueError(f"phase velocity must be positive and finite, got {v_p!r}")
    if n_max < 2 * layout.design_index:
        raise ValueError(
            f"n_max={n_max} too small; need at least twice the design index "
            f"({layout.design_index}) to capture the coupled neighbourhood")
    idx = np.arange(1, n_max + 1)
    s = strain_overlaps(layout, idx, field_model)
    raw = s * s
    total = raw.sum()
    if total <= 0.0:
        raise DegenerateCouplingError("no plate mode couples to this electrode configuration")
    eta = raw / total
    keep = eta >= PRUNE_REL * eta.max()
    eta_kept = eta[keep] / eta[keep].sum()
    n = idx[keep]
    modes = tuple(
        ModeCoupling(n=i, f_n=f, eta=e)
        for i, f, e in zip(n.tolist(), _mode_frequency(layout, v_p, n).tolist(),
                           eta_kept.tolist()))
    return ModeSpectrum(modes=modes)


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

    For each geometry: build the layout, compute the coupling spectrum, and
    record the two dominant modes together with the fractional offset of the
    strongest mode from the design frequency v_p/lambda. ``n_max`` defaults
    to twice the design index per geometry.
    """
    if not geoms:
        raise ValueError("empty geometry sweep")
    counts = [g.n_elements for g in geoms]
    if any(b <= a for a, b in zip(counts, counts[1:])):
        raise ValueError("element counts must be strictly ascending")
    records = []
    for geom in geoms:
        layout = build_layout(geom)
        local_max = n_max if n_max is not None else 2 * layout.design_index
        spectrum = mode_couplings(layout, v_p, local_max, field_model)
        f_design = v_p / geom.wavelength
        dominant = spectrum.dominant_modes()
        top = max(dominant, key=lambda m: m.eta)
        records.append(SplitRecord(
            n_elements=geom.n_elements,
            design_frequency=f_design,
            modes=dominant,
            offset=abs(top.f_n - f_design) / f_design))
    return records
