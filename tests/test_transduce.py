"""Electrode layout, mode overlap, and resonance-splitting tests."""

from __future__ import annotations

import dataclasses
import math
import warnings

import numpy as np
import pytest

from resokit.errors import GeometryError
from resokit.mbvd import KT2_PREFACTOR
from resokit.transduce import (
    PRUNE_REL,
    DeviceGeometry,
    ModeCoupling,
    ModeSpectrum,
    build_layout,
    mode_couplings,
    spectrum_to_mbvd,
    split_study,
    strain_overlaps,
)

from reference_transduce import strain_overlaps_numeric

LAM = 1.8e-6


def dlvr(n=5, c=0.5):
    return DeviceGeometry(wavelength=LAM, topology="dlvr", n_elements=n, coverage=c)


def lvr(n=5, c=0.5):
    return DeviceGeometry(wavelength=LAM, topology="lvr", n_elements=n, coverage=c)


# ------------------------------------------------------------------ layout

def test_lvr_layout_geometry():
    lay = build_layout(lvr(5))
    # N electrodes on an (N-1) half-wavelength plate
    assert lay.plate_width == pytest.approx(2.0 * LAM, rel=1e-12)
    assert lay.n_electrodes == 5
    for w in lay.widths[1:-1]:
        assert w == pytest.approx(0.5 * 0.5 * LAM, rel=1e-12)
    # edge electrodes are half width, flush against the plate boundary
    assert lay.widths[0] == pytest.approx(0.25 * 0.5 * LAM, rel=1e-12)
    assert lay.widths[-1] == pytest.approx(lay.widths[0], rel=1e-12)
    assert lay.centers[0] - lay.widths[0] / 2.0 == pytest.approx(0.0, abs=1e-18)
    assert lay.centers[-1] + lay.widths[-1] / 2.0 == pytest.approx(lay.plate_width, rel=1e-12)
    # inner centers sit on the half-wavelength grid
    for k, c in enumerate(lay.centers[1:-1], start=1):
        assert c == pytest.approx(k * LAM / 2.0, rel=1e-12)


def test_dlvr_layout_geometry():
    lay = build_layout(dlvr(5))
    # N half-wavelengths of plate; all electrodes full width
    assert lay.plate_width == pytest.approx(2.5 * LAM, rel=1e-12)
    assert lay.n_electrodes == 5
    np.testing.assert_allclose(lay.widths, 0.5 * 0.5 * LAM, rtol=1e-12)
    # outermost centers a quarter wavelength in from the edges
    assert lay.centers[0] == pytest.approx(LAM / 4.0, rel=1e-12)
    assert lay.centers[-1] == pytest.approx(lay.plate_width - LAM / 4.0, rel=1e-12)
    # uniform half-wavelength pitch
    np.testing.assert_allclose(np.diff(lay.centers), LAM / 2.0, rtol=1e-12)


def test_layout_polarity_alternates():
    for geom in (lvr(6), dlvr(6)):
        pol = build_layout(geom).polarities.tolist()
        assert pol[0] == 1
        assert all(a == -b for a, b in zip(pol, pol[1:]))


def test_layout_coverage_scales_width():
    wide = build_layout(dlvr(5, c=0.8)).widths[0]
    slim = build_layout(dlvr(5, c=0.2)).widths[0]
    assert wide == pytest.approx(0.8 * 0.5 * LAM, rel=1e-12)
    assert slim == pytest.approx(0.2 * 0.5 * LAM, rel=1e-12)


def test_geometry_validation():
    with pytest.raises(GeometryError):
        build_layout(DeviceGeometry(wavelength=-1e-6))
    with pytest.raises(GeometryError):
        build_layout(DeviceGeometry(wavelength=LAM, coverage=0.0))
    with pytest.raises(GeometryError):
        build_layout(DeviceGeometry(wavelength=LAM, coverage=1.2))
    with pytest.raises(GeometryError):
        build_layout(DeviceGeometry(wavelength=LAM, n_elements=1))
    with pytest.raises(GeometryError):
        build_layout(DeviceGeometry(wavelength=LAM, topology="idt"))


def test_replaced_geometry_gives_its_layout():
    lay = build_layout(dlvr(5))
    other = lvr(7, c=0.35)
    copy = dataclasses.replace(lay, geometry=other)
    assert copy == build_layout(other)
    assert copy.design_index == 6
    idx = list(range(1, 13))
    got = strain_overlaps(copy, idx)
    np.testing.assert_array_equal(got, strain_overlaps(build_layout(other), idx))
    assert not np.array_equal(got, strain_overlaps(lay, idx))


# lengths outside the float range: a plate width that overflows, finger
# widths that underflow (the lvr edge finger is half the others), and a gap
# that underflows
FLOAT_RANGE_FAULTS = [
    (1e308, 0.5, r"plate width overflows a float for 5 electrodes at wavelength 1e\+308 m"),
    (5e-324, 0.5, r"finger width 0\.0 m is below the normal float range"),
    (2e-323, 0.9, r"finger width (5e-324|1e-323) m is below the normal float range"),
    (2e-300, 1.0 - 2.0**-53, r"gap width 1\.110223e-316 m is below the normal float range"),
]


@pytest.mark.parametrize("topology", ("lvr", "dlvr"))
@pytest.mark.parametrize("wavelength, coverage, message", FLOAT_RANGE_FAULTS,
                         ids=("plate", "finger", "narrow-gap-finger", "gap"))
def test_layout_outside_the_float_range(topology, wavelength, coverage, message):
    geom = DeviceGeometry(wavelength=wavelength, topology=topology, n_elements=5,
                          coverage=coverage)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(GeometryError, match=f"^{message}$"):
            build_layout(geom)


def test_electrode_count_beyond_the_float_range():
    # (N - 1) * lambda / 2 cannot even be formed as a float
    with pytest.raises(GeometryError, match="plate width overflows"):
        build_layout(DeviceGeometry(wavelength=LAM, n_elements=10**400))


# ---------------------------------------------------------------- overlaps

def test_dlvr_overlaps_pinned():
    # N=5, c=0.5: independently derived via the gap-field integral
    lay = build_layout(dlvr(5, c=0.5))
    s = strain_overlaps(lay, [2, 4, 6, 8])
    assert s[0] == pytest.approx(-0.449027977, rel=1e-8)
    assert s[1] == pytest.approx(-3.618033989, rel=1e-8)
    assert s[2] == pytest.approx(4.979796567, rel=1e-8)
    assert s[3] == pytest.approx(1.381966011, rel=1e-8)


def test_dlvr_parity_zeros():
    # modes with n + N even see cancelling gap contributions; the sum
    # collapses to rounding noise around 1e-15 against a dominant ~5
    lay = build_layout(dlvr(5))
    s = strain_overlaps(lay, [1, 3, 5, 7, 9])
    assert np.max(np.abs(s)) < 1e-12


def test_overlaps_closed_form_matches_quadrature():
    lay = build_layout(dlvr(5, c=0.5))
    idx = list(range(1, 11))
    s_closed = strain_overlaps(lay, idx)
    s_num = strain_overlaps_numeric(lay, idx, points_per_gap=10000)
    assert np.max(np.abs(s_closed - s_num)) / np.max(np.abs(s_num)) < 1e-8


def test_overlaps_quadrature_other_coverage():
    lay = build_layout(dlvr(7, c=0.35))
    idx = list(range(1, 15))
    s_closed = strain_overlaps(lay, idx)
    s_num = strain_overlaps_numeric(lay, idx, points_per_gap=10000)
    assert np.max(np.abs(s_closed - s_num)) / np.max(np.abs(s_num)) < 1e-8


def test_lvr_overlaps_single_mode():
    lay = build_layout(lvr(5))
    idx = list(range(1, 11))
    s = strain_overlaps(lay, idx)
    mags = np.abs(s)
    assert np.argmax(mags) == idx.index(4)
    others = np.delete(mags, idx.index(4))
    assert np.max(others) < 1e-9 * mags.max()


def test_delta_field_model_keeps_parity():
    lay = build_layout(dlvr(5))
    s = strain_overlaps(lay, [1, 3, 5, 7, 9], field_model="delta")
    assert np.max(np.abs(s)) < 1e-12
    s_even = strain_overlaps(lay, [4, 6], field_model="delta")
    assert np.min(np.abs(s_even)) > 0.1


def test_overlaps_reject_bad_mode_index():
    lay = build_layout(dlvr(5))
    with pytest.raises(ValueError):
        strain_overlaps(lay, [0])
    with pytest.raises(ValueError):
        strain_overlaps(lay, [-2])


# ---------------------------------------------------------------- spectrum

def test_mode_couplings_dlvr_pinned():
    spec = mode_couplings(build_layout(dlvr(5, c=0.5)), v_p=5382.0, n_max=10)
    by_n = {m.n: m for m in spec.modes}
    assert sorted(by_n) == [2, 4, 6, 8]
    assert by_n[2].eta == pytest.approx(0.005040653, rel=1e-6)
    assert by_n[4].eta == pytest.approx(0.327254249, rel=1e-6)
    assert by_n[6].eta == pytest.approx(0.619959347, rel=1e-6)
    assert by_n[8].eta == pytest.approx(0.047745751, rel=1e-6)
    assert sum(m.eta for m in spec.modes) == pytest.approx(1.0, rel=1e-12)


def test_mode_frequencies_and_nodes():
    lay = build_layout(dlvr(5, c=0.5))
    spec = mode_couplings(lay, v_p=5382.0, n_max=10)
    for m in spec.modes:
        assert m.nodes == m.n
        assert m.f_n == pytest.approx(m.n * 5382.0 / (2.0 * lay.plate_width), rel=1e-12)


def test_mode_couplings_lvr_is_ideal():
    spec = mode_couplings(build_layout(lvr(5)), v_p=5382.0, n_max=10)
    assert len(spec.modes) == 1
    assert spec.modes[0].n == 4
    assert spec.modes[0].eta == pytest.approx(1.0, rel=1e-12)
    # the retained mode sits at the designed wavelength: f = v_p / lambda
    assert spec.modes[0].f_n == pytest.approx(5382.0 / LAM, rel=1e-12)


def test_mode_couplings_prunes_negligible():
    spec = mode_couplings(build_layout(dlvr(5)), v_p=5382.0, n_max=10)
    for m in spec.modes:
        assert m.eta > PRUNE_REL


def test_mode_couplings_validates_n_max():
    lay = build_layout(dlvr(5))
    with pytest.raises(ValueError):
        mode_couplings(lay, v_p=5382.0, n_max=0)
    with pytest.raises(ValueError):
        mode_couplings(lay, v_p=-1.0, n_max=10)
    # numpy 2 makes an empty float arange at 2**63 and numpy 1 an error;
    # both are refused before np.arange is called
    for n_max in (2**63, 10**20):
        with pytest.raises(ValueError, match=f"^n_max={n_max} is beyond the int64 mode-index"):
            mode_couplings(lay, v_p=5382.0, n_max=n_max)


@pytest.mark.parametrize("v_p", [math.nan, math.inf, -math.inf])
def test_mode_couplings_and_split_study_reject_non_finite_velocity(v_p):
    message = f"phase velocity must be positive and finite, got {v_p!r}"
    with pytest.raises(ValueError, match=message):
        mode_couplings(build_layout(dlvr(5)), v_p, 10)
    with pytest.raises(ValueError, match=message):
        split_study([dlvr(5), dlvr(10)], v_p)


# each passes the ordering and sum checks; NaN fails every comparison, so the
# per-mode checks must be written as not (lo < x < hi)
BAD_MODES = [
    pytest.param((ModeCoupling(1, 1e9, math.nan),), "mode 1 weight", id="nan-weight"),
    pytest.param((ModeCoupling(1, 1e9, 2.0), ModeCoupling(2, 2e9, -1.0)), "mode 2 weight",
                 id="negative-weight"),
    pytest.param((ModeCoupling(3, math.nan, 1.0),), "mode 3 frequency", id="nan-frequency"),
    pytest.param((ModeCoupling(3, -1e9, 1.0),), "mode 3 frequency", id="negative-frequency"),
    pytest.param((ModeCoupling(3, math.inf, 1.0),), "mode 3 frequency", id="infinite-frequency"),
]


@pytest.mark.parametrize("modes, message", BAD_MODES)
def test_spectrum_rejects_non_physical_modes(modes, message):
    with pytest.raises(ValueError, match=f"^{message} must be"):
        ModeSpectrum(modes=modes)


@pytest.mark.parametrize("weights, pair", [
    ((0.1, 0.2, 0.4, 0.2, 0.1), (2, 3)),
    ((0.25, 0.25, 0.25, 0.25), (1, 2)),
    ((0.1, 0.3, 0.3, 0.3), (2, 3)),
])
def test_dominant_modes_ties_go_to_the_lower_index(weights, pair):
    spec = ModeSpectrum(modes=tuple(
        ModeCoupling(n, n * 1e9, eta) for n, eta in enumerate(weights, start=1)))
    assert tuple(m.n for m in spec.dominant_modes()) == pair


# ------------------------------------------------------------ model export

def test_spectrum_to_mbvd_partitions_coupling():
    spec = mode_couplings(build_layout(dlvr(5)), v_p=5382.0, n_max=10)
    m = spectrum_to_mbvd(spec, c0=100e-15, kt2_total=0.20, q_assumed=500.0)
    assert m.c0 == 100e-15
    assert len(m.branches) == len(spec.modes)
    # branch kt2 (capacitance form) adds back up to the total
    total = sum(KT2_PREFACTOR * b.cm / (m.c0 + b.cm) for b in m.branches)
    assert total == pytest.approx(0.20, rel=1e-9)
    # branch order follows mode frequency
    fs = [b.fs for b in m.branches]
    assert fs == sorted(fs)
    for b, mode in zip(m.branches, spec.modes):
        assert b.fs == pytest.approx(mode.f_n, rel=1e-9)


def test_spectrum_to_mbvd_respects_q():
    spec = mode_couplings(build_layout(dlvr(5)), v_p=5382.0, n_max=10)
    m = spectrum_to_mbvd(spec, c0=100e-15, kt2_total=0.20, q_assumed=750.0)
    for b in m.branches:
        assert b.qm == pytest.approx(750.0, rel=1e-9)


# ------------------------------------------------------------- split study

def test_split_study_dlvr_offset_is_reciprocal_n():
    geoms = [dlvr(n) for n in (5, 10, 20, 40, 80)]
    recs = split_study(geoms, v_p=5382.0)
    assert [r.n_elements for r in recs] == [5, 10, 20, 40, 80]
    for r in recs:
        assert r.offset == pytest.approx(1.0 / r.n_elements, rel=1e-12)
        assert r.design_frequency == pytest.approx(5382.0 / LAM, rel=1e-12)


def test_split_study_dominant_pair_straddles_design():
    recs = split_study([dlvr(5)], v_p=5382.0)
    modes = sorted(recs[0].modes, key=lambda m: m.eta, reverse=True)[:2]
    f_lo, f_hi = sorted(m.f_n for m in modes)
    f_d = recs[0].design_frequency
    assert f_lo < f_d < f_hi
    assert (f_d - f_lo) == pytest.approx(f_hi - f_d, rel=1e-9)


def test_split_study_lvr_no_split():
    recs = split_study([lvr(5), lvr(10)], v_p=5382.0)
    for r in recs:
        assert r.offset == pytest.approx(0.0, abs=1e-12)


def test_split_study_convergence():
    recs = split_study([dlvr(n) for n in (5, 10, 20, 40, 80)], v_p=5382.0)
    offs = [r.offset for r in recs]
    assert all(b < a for a, b in zip(offs, offs[1:]))
    for a, b in zip(offs, offs[1:]):
        assert a / b == pytest.approx(2.0, rel=1e-9)


def test_split_study_when_fingers_touch():
    # the gap (1e-22 m) is below the rounding of the finger coordinates, so
    # the derived arrays put fingers in contact; the couplings read only N and c
    geom = dlvr(400, c=1.0 - 2.0**-53)
    lay = build_layout(geom)
    assert np.any(lay.centers[1:] - lay.widths[1:] / 2 <= lay.centers[:-1] + lay.widths[:-1] / 2)
    for field in ("tophat", "delta"):
        (rec,) = split_study([geom], v_p=5382.0, field_model=field)
        assert [m.n for m in rec.modes] == [399, 401]
        assert rec.offset == pytest.approx(1.0 / 400, rel=1e-12)
