"""Multi-frequency device planning on a fixed process.

Velocity calibration from measured (wavelength, fs) pairs, lithographic
feasibility checks, filter-bank layout planning, and table-style reporting
of extracted resonator metrics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import GeometryError
from .mbvd import ResonatorMetrics, _json_number, _median

TOPOLOGIES = ("lvr", "dlvr")

DEFAULT_MIN_FEATURE = 100e-9
DEFAULT_MIN_GAP = 100e-9
DEFAULT_LAMBDA_RANGE = (400e-9, 1800e-9)

OUTLIER_REL_THRESHOLD = 0.15


@dataclass(frozen=True)
class DeviceGeometry:
    """Lateral resonator geometry, SI units throughout."""

    wavelength: float
    topology: str = "lvr"
    n_elements: int = 20
    coverage: float = 0.5

    def __post_init__(self) -> None:
        topo = str(self.topology).lower()
        if topo not in TOPOLOGIES:
            raise GeometryError(f"unknown topology {self.topology!r}; expected one of {TOPOLOGIES}")
        object.__setattr__(self, "topology", topo)
        if not (self.wavelength > 0.0 and math.isfinite(self.wavelength)):
            raise GeometryError("wavelength must be positive and finite")
        if not 0.0 < self.coverage < 1.0:
            raise GeometryError(f"coverage must lie in (0, 1), got {self.coverage}")
        if int(self.n_elements) != self.n_elements or self.n_elements < 2:
            raise GeometryError(f"n_elements must be an integer >= 2, got {self.n_elements}")
        object.__setattr__(self, "n_elements", int(self.n_elements))

    @property
    def interior_width(self) -> float:
        """Width of a full electrode finger, c*lambda/2."""
        return 0.5 * self.coverage * self.wavelength

    @property
    def edge_width(self) -> float:
        """Width of the half fingers at the plate edges (lvr only), c*lambda/4."""
        return 0.25 * self.coverage * self.wavelength

    @property
    def gap_width(self) -> float:
        """Clear spacing between adjacent fingers, (1-c)*lambda/2."""
        return 0.5 * (1.0 - self.coverage) * self.wavelength


@dataclass(frozen=True)
class ProcessRules:
    """Lithography limits; all lengths in metres."""

    min_feature: float = DEFAULT_MIN_FEATURE
    min_gap: float = DEFAULT_MIN_GAP
    lambda_range: tuple[float, float] = DEFAULT_LAMBDA_RANGE

    def __post_init__(self) -> None:
        if not (self.min_feature > 0.0 and self.min_gap > 0.0):
            raise ValueError("feature and gap limits must be positive")
        lo, hi = self.lambda_range
        if not (0.0 < lo <= hi):
            raise ValueError(f"invalid lambda_range {self.lambda_range}")
        object.__setattr__(self, "lambda_range", (float(lo), float(hi)))

    @classmethod
    def from_dict(cls, data) -> "ProcessRules":
        """Rules from a JSON object of lengths in metres, each key optional:
        "min_feature", "min_gap" and a two-item "lambda_range".  A bad entry
        raises ValueError naming it, e.g. ``rules.min_gap must be a positive
        finite number of m, got 'x'``."""
        if not isinstance(data, dict):
            raise ValueError(f"rules must be an object of lengths in m, got {data!r}")
        kwargs = {key: _json_number(f"rules.{key}", data[key], "m")
                  for key in ("min_feature", "min_gap") if key in data}
        if "lambda_range" in data:
            span = data["lambda_range"]
            if not (isinstance(span, (list, tuple)) and len(span) == 2):
                raise ValueError(f"rules.lambda_range must be a list of two lengths in m, "
                                 f"got {span!r}")
            lo, hi = (_json_number(f"rules.lambda_range[{i}]", v, "m")
                      for i, v in enumerate(span))
            if lo > hi:
                raise ValueError(f"rules.lambda_range must not decrease, got {span!r}")
            kwargs["lambda_range"] = (lo, hi)
        return cls(**kwargs)


@dataclass(frozen=True)
class Finding:
    """A single rule violation: the offending value and the limit it broke."""

    code: str
    message: str
    value: float
    limit: float


def _nm(x: float) -> str:
    return f"{x * 1e9:.1f} nm"


def check_lithography(geom: DeviceGeometry, rules: ProcessRules) -> tuple[Finding, ...]:
    """Check electrode widths, gaps and wavelength against process rules.

    Returns findings, not failures; an empty tuple means the geometry is
    manufacturable. Values exactly at a limit pass.
    """
    lo, hi = rules.lambda_range
    # (code, what, value, limit, relation): a finding where value lies on
    # the relation's side ("below" or "above") of limit; only lvr has
    # half-width edge fingers, and lo <= hi, so at most one range rule fires
    checks = [
        ("interior-width", "electrode width", geom.interior_width, rules.min_feature,
         "below min feature"),
        *([("edge-width", "edge electrode width", geom.edge_width, rules.min_feature,
            "below min feature")] if geom.topology == "lvr" else []),
        ("gap-width", "electrode gap", geom.gap_width, rules.min_gap, "below min gap"),
        ("lambda-range", "wavelength", geom.wavelength, lo, "below allowed range start"),
        ("lambda-range", "wavelength", geom.wavelength, hi, "above allowed range end"),
    ]
    return tuple(Finding(code, f"{what} {_nm(value)} {relation} {_nm(limit)}", value, limit)
                 for code, what, value, limit, relation in checks
                 if (value < limit if relation.startswith("below") else value > limit))


def calibrate_velocity(observations: Iterable[tuple[float, float]]) -> tuple[float, float]:
    """Median phase velocity and spread from (wavelength, fs) observations.

    v_p is the median of fs*wavelength; the median is robust to individual
    devices responding on a different mode. Spread is (max - min)/median of
    the same products.
    """
    pairs = [(float(lam), float(fs)) for lam, fs in observations]
    if not pairs:
        raise ValueError("need at least one (wavelength, fs) observation")
    for lam, fs in pairs:
        if not (math.isfinite(lam) and math.isfinite(fs)):
            raise ValueError(f"non-finite observation ({lam}, {fs})")
        if lam <= 0.0 or fs <= 0.0:
            raise ValueError(f"non-positive observation ({lam}, {fs})")
        if not math.isfinite(lam * fs):
            raise ValueError(f"observation ({lam}, {fs}) overflows wavelength * fs")
    products = np.array([lam * fs for lam, fs in pairs])
    with np.errstate(over="ignore"):  # reported below
        v_p = _median(products)
    if not math.isfinite(v_p):
        raise ValueError("the median of wavelength * fs overflows a float")
    spread = float((products.max() - products.min()) / v_p)
    return v_p, spread


def velocity_outliers(
    observations: Iterable[tuple[float, float]],
    v_ref: float,
    rel_threshold: float = OUTLIER_REL_THRESHOLD,
) -> tuple[int, ...]:
    """Indices of observations whose fs*wavelength exceeds v_ref by more
    than rel_threshold (one-sided: only implausibly fast devices are
    flagged, the usual signature of responding on a different mode)."""
    if v_ref <= 0.0:
        raise ValueError("reference velocity must be positive")
    flagged = []
    for i, (lam, fs) in enumerate(observations):
        if lam * fs > v_ref * (1.0 + rel_threshold):
            flagged.append(i)
    return tuple(flagged)


def predict_fs(wavelength: float, v_p: float) -> float:
    """Series resonance from the pitch rule fs = v_p/wavelength."""
    if wavelength <= 0.0 or v_p <= 0.0:
        raise ValueError("wavelength and v_p must be positive")
    return v_p / wavelength


@dataclass(frozen=True)
class PlanEntry:
    """One planned wavelength; may cover several merged targets."""

    targets: tuple[float, ...]
    wavelength: float
    geometry: DeviceGeometry | None
    findings: tuple[Finding, ...]
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


def _check_policy(policy):
    """A topology policy as _pick_topology takes it: a lowercase name or a
    finite positive threshold in Hz."""
    if isinstance(policy, str):
        lowered = policy.lower()
        if lowered not in TOPOLOGIES + ("auto",):
            raise ValueError(f"unknown topology policy {policy!r}")
        return lowered
    threshold = float(policy)
    if threshold <= 0.0:
        raise ValueError("frequency threshold policy must be positive")
    if not math.isfinite(threshold):
        raise ValueError(f"frequency threshold policy must be finite, got {threshold!r}")
    return threshold


def _pick_topology(policy, f_target: float, wavelength: float,
                   coverage: float, rules: ProcessRules) -> str:
    if isinstance(policy, float):
        return "lvr" if f_target < policy else "dlvr"
    if policy == "auto":
        # lvr needs a half-width edge finger; switch to dlvr where that
        # finger would violate the process.
        if 0.25 * coverage * wavelength >= rules.min_feature:
            return "lvr"
        return "dlvr"
    return policy


def plan_bank(
    targets: Sequence[float],
    v_p: float,
    rules: ProcessRules | None = None,
    topology_policy="auto",
    *,
    n_elements: int = 20,
    coverage: float = 0.5,
) -> list[PlanEntry]:
    """Plan one geometry per target frequency on a shared process.

    Wavelengths are v_p/f rounded to the nearest nanometre; targets that
    round to the same wavelength are merged into one entry. A wavelength
    outside the process range fails that entry only, and every surviving
    geometry carries its lithography findings.

    ``topology_policy`` is "lvr"/"dlvr" to force one, "auto" to pick lvr
    wherever its edge finger is printable, or a frequency in Hz below which
    lvr is used.
    """
    if rules is None:
        rules = ProcessRules()
    if v_p <= 0.0:
        raise ValueError("v_p must be positive")
    if not math.isfinite(v_p):
        raise ValueError(f"v_p must be finite, got {v_p!r}")
    targets = [float(f) for f in targets]
    if not targets:
        raise ValueError("no target frequencies given")
    for f in targets:
        if f <= 0.0:
            raise ValueError(f"non-positive target frequency {f}")
        if not math.isfinite(f):
            raise ValueError(f"non-finite target frequency {f}")
    topology_policy = _check_policy(topology_policy)

    # targets per wavelength in nm, in order of first appearance
    by_nm: dict[float, list[float]] = {}
    for f in targets:
        nm = v_p / f * 1e9
        # a wavelength too long for a float stays inf and fails the range check
        if math.isfinite(nm):
            nm = int(round(nm))
        by_nm.setdefault(nm, []).append(f)

    entries: list[PlanEntry] = []
    lo, hi = rules.lambda_range
    for nm, merged in by_nm.items():
        lam = nm * 1e-9
        tgt = tuple(merged)
        if lam < lo or lam > hi:
            entries.append(PlanEntry(
                targets=tgt, wavelength=lam, geometry=None, findings=(),
                error=(f"wavelength {_nm(lam)} outside process range "
                       f"[{_nm(lo)}, {_nm(hi)}]")))
            continue
        topo = _pick_topology(topology_policy, tgt[0], lam, coverage, rules)
        geom = DeviceGeometry(
            wavelength=lam, topology=topo, n_elements=n_elements, coverage=coverage)
        entries.append(PlanEntry(
            targets=tgt, wavelength=lam, geometry=geom,
            findings=check_lithography(geom, rules)))
    return entries


_MD_HEADER = ("lambda [nm]", "f_s [GHz]", "Q_s", "Q_p", "Q_m", "k_t^2", "C_0 [fF]", "FoM")
_CSV_HEADER = ("lambda_nm", "fs_GHz", "Q_s", "Q_p", "Q_m", "kt2_pct", "C0_fF", "FoM")
_ABSENT = "-"


@dataclass(frozen=True)
class TableReport:
    markdown: str
    csv: str


def _fmt_quality(q: float | None) -> str:
    if q is None:
        return _ABSENT
    if math.isinf(q):
        return "inf"
    return f"{q:.0f}"


def _metric_cells(geom: DeviceGeometry | None, metrics: ResonatorMetrics, percent_sign: bool) -> list[str]:
    kt2 = _ABSENT
    if metrics.kt2 is not None:
        kt2 = f"{100.0 * metrics.kt2:.1f}"
        if percent_sign:
            kt2 += "%"
    fom = _ABSENT if metrics.fom is None else f"{metrics.fom:.0f}"
    return [
        _ABSENT if geom is None else f"{geom.wavelength * 1e9:.0f}",
        f"{metrics.fs / 1e9:.3f}",
        _fmt_quality(metrics.qs),
        _fmt_quality(metrics.qp),
        _fmt_quality(metrics.qm),
        kt2,
        f"{metrics.c0 * 1e15:.1f}",
        fom,
    ]


def render_table(
    rows: Sequence[tuple[DeviceGeometry | None, ResonatorMetrics]],
    labels: Sequence[str] | None = None,
) -> TableReport:
    """Render extraction results in the survey-table column order.

    Columns: lambda [nm], f_s [GHz] (3 decimals), Q_s, Q_p, Q_m (integers),
    k_t^2 (percent, 1 decimal), C_0 [fF] (1 decimal), FoM (integer). Rows
    keep input order; metrics without an antiresonance render dashes in the
    columns derived from it, and a None geometry (wavelength unknown, e.g.
    a bare measurement file) renders a dash wavelength. Optional ``labels``
    prepends a device column.
    """
    if not rows:
        raise ValueError("no rows to render")
    if labels is not None and len(labels) != len(rows):
        raise ValueError("labels length must match rows")

    md_header = list(_MD_HEADER)
    csv_header = list(_CSV_HEADER)
    if labels is not None:
        md_header.insert(0, "device")
        csv_header.insert(0, "device")

    md_lines = ["| " + " | ".join(md_header) + " |",
                "|" + "|".join(" ---: " for _ in md_header) + "|"]
    csv_lines = [",".join(csv_header)]
    for i, (geom, metrics) in enumerate(rows):
        md_cells = _metric_cells(geom, metrics, percent_sign=True)
        csv_cells = _metric_cells(geom, metrics, percent_sign=False)
        if labels is not None:
            md_cells.insert(0, str(labels[i]))
            csv_cells.insert(0, str(labels[i]))
        md_lines.append("| " + " | ".join(md_cells) + " |")
        csv_lines.append(",".join(csv_cells))
    return TableReport(markdown="\n".join(md_lines) + "\n",
                       csv="\n".join(csv_lines) + "\n")
