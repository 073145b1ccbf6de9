"""Reference implementations of the electrode-overlap kernel.

``strain_overlaps`` here is the float64 loop over field gaps that the closed
form in ``resokit.transduce`` replaced, kept as the comparator whose error
the closed form must not exceed, and ``mode_couplings`` builds each
``ModeCoupling`` from numpy scalars one mode at a time on top of it.
``strain_overlaps_ideal`` is the same gap sum in ``np.longdouble`` over the
ideal geometry, the yardstick both are measured against.
``strain_overlaps_numeric`` is the trapezoid-quadrature check of the
closed-form overlaps.  Keep them unchanged when the library changes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from resokit.designkit import DeviceGeometry
from resokit.errors import DegenerateCouplingError
from resokit.transduce import (
    FIELD_MODELS,
    PRUNE_REL,
    ElectrodeLayout,
    ModeCoupling,
    ModeSpectrum,
    _indices_array,
)


@dataclass(frozen=True)
class FieldGap:
    """Lateral-field region between two adjacent fingers.

    ``sign`` follows the polarity of the finger on the left: the in-plane
    field points from the positive finger to the negative one.
    """

    left: float
    right: float
    sign: int

    @property
    def width(self) -> float:
        return self.right - self.left

    @property
    def center(self) -> float:
        return 0.5 * (self.left + self.right)


def field_gaps(layout: ElectrodeLayout) -> tuple[FieldGap, ...]:
    # finger i spans center - 0.5 * width to center + 0.5 * width
    center, width, polarity = (c.tolist() for c in (layout.centers, layout.widths, layout.polarities))
    gaps = []
    for i in range(len(center) - 1):
        gaps.append(FieldGap(left=center[i] + 0.5 * width[i], right=center[i + 1] - 0.5 * width[i + 1],
                             sign=polarity[i]))
    return tuple(gaps)


def strain_overlaps(
    layout: ElectrodeLayout,
    indices: Sequence[int],
    field_model: str = "tophat",
) -> np.ndarray:
    if field_model not in FIELD_MODELS:
        raise ValueError(f"field_model must be one of {FIELD_MODELS}")
    idx = _indices_array(indices)
    w = layout.plate_width
    out = np.zeros(idx.size)
    for gap in field_gaps(layout):
        if field_model == "tophat":
            contrib = np.cos(idx * np.pi * gap.right / w) - np.cos(idx * np.pi * gap.left / w)
        else:
            contrib = -gap.width * (idx * np.pi / w) * np.sin(idx * np.pi * gap.center / w)
        out += gap.sign * contrib
    return out


def strain_overlaps_ideal(
    geom: DeviceGeometry,
    indices: Sequence[int],
    field_model: str = "tophat",
) -> np.ndarray:
    """The gap sum of ``strain_overlaps`` in np.longdouble over the geometry
    ``build_layout`` realises, not over its float64 layout.

    In quarter wavelengths the plate is 2M wide (M = N for dlvr, N - 1 for
    lvr), gap j is centred on 2j + 2 (dlvr) or 2j + 1 (lvr) and spans 1 - c
    to either side, so every position is exact; c is the float64 coverage
    and pi is taken in longdouble."""
    if field_model not in FIELD_MODELS:
        raise ValueError(f"field_model must be one of {FIELD_MODELS}")
    n_el = geom.n_elements
    m = n_el if geom.topology == "dlvr" else n_el - 1
    pi = np.longdouble("3.14159265358979323846264338327950288")
    k = _indices_array(indices).astype(np.longdouble) * pi / np.longdouble(2 * m)
    half = 1 - np.longdouble(geom.coverage)
    out = np.zeros(k.size, dtype=np.longdouble)
    for j in range(n_el - 1):
        x = np.longdouble(2 * j + 2 if geom.topology == "dlvr" else 2 * j + 1)
        if field_model == "tophat":
            contrib = np.cos(k * (x + half)) - np.cos(k * (x - half))
        else:
            contrib = -(2 * half) * k * np.sin(k * x)
        out += contrib if j % 2 == 0 else -contrib
    return out


def strain_overlaps_numeric(
    layout: ElectrodeLayout,
    indices: Sequence[int],
    points_per_gap: int = 10_000,
) -> np.ndarray:
    """Brute-force check of strain_overlaps: per-gap trapezoid quadrature
    of du_n/dx with ``points_per_gap`` samples. Top-hat field only."""
    if points_per_gap < 2:
        raise ValueError("need at least 2 quadrature points per gap")
    idx = _indices_array(indices)
    w = layout.plate_width
    out = np.zeros(idx.size)
    for gap in field_gaps(layout):
        x = np.linspace(gap.left, gap.right, points_per_gap)
        # du_n/dx = -(n pi / W) sin(n pi x / W), one row per mode index
        integrand = -(idx[:, None] * np.pi / w) * np.sin(idx[:, None] * np.pi * x[None, :] / w)
        out += gap.sign * np.sum(np.diff(x) * (integrand[:, 1:] + integrand[:, :-1]) / 2.0, axis=1)
    return out


def mode_couplings(
    layout: ElectrodeLayout,
    v_p: float,
    n_max: int,
    field_model: str = "tophat",
) -> ModeSpectrum:
    if v_p <= 0.0:
        raise ValueError("phase velocity must be positive")
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
    w = layout.plate_width
    modes = tuple(
        ModeCoupling(n=int(n), f_n=float(0.5 * n * v_p / w), eta=float(e))
        for n, e in zip(idx[keep], eta_kept))
    return ModeSpectrum(modes=modes)
