"""Closed-form electrode overlaps against their gap-sum references.

``reference_transduce`` holds the float64 loop over field gaps, the same sum
in np.longdouble over the ideal geometry, and the per-mode ``ModeCoupling``
generator.  The closed form must be at least as accurate as the float64 loop
against the longdouble sum, give its exact zeros and limits exactly for any
index, and leave coupling spectra and split studies with the same modes.
"""

from __future__ import annotations

import numpy as np
import pytest

import reference_transduce as ref
from resokit import transduce
from resokit.designkit import DeviceGeometry
from resokit.transduce import (
    build_layout,
    mode_couplings,
    split_study,
    strain_overlaps,
)

LAM = 1.8e-6
V_P = 3426.0
COUNTS = (*range(2, 41), 337, 338, 400, 800)
# the modes-sweep benchmark: N = 5..400 in steps of 5 at coverage 0.5
SWEEP_COUNTS = range(5, 401, 5)
TOPOLOGIES = ("lvr", "dlvr")


def geometry(topology, n, coverage=0.5):
    return DeviceGeometry(wavelength=LAM, topology=topology, n_elements=n, coverage=coverage)


def index_sets(d: int) -> list[list[int]]:
    return [list(range(1, 2 * d + 7)), [d], [d - 1, d, d + 1], [7, 3, 3, 9000]]


def is_positive_zero(a: np.ndarray) -> np.ndarray:
    return np.asarray(a, dtype=float).view(np.uint64) == 0


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
                    reason="np.longdouble is no wider than float64 here")
@pytest.mark.parametrize("coverage", (0.2, 0.35, 0.5, 0.8))
@pytest.mark.parametrize("field", transduce.FIELD_MODELS)
@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_strain_overlaps_as_accurate_as_gap_loop(topology, field, coverage):
    # error relative to the largest overlap, against the longdouble gap sum
    for n in COUNTS:
        geom = geometry(topology, n, coverage)
        layout = build_layout(geom)
        for idx in index_sets(layout.design_index):
            if min(idx) < 1:
                # lvr N=2 has design index 1, so its neighbour set holds 0
                with pytest.raises(ValueError, match="start at 1"):
                    ref.strain_overlaps(layout, idx, field)
                with pytest.raises(ValueError, match="start at 1"):
                    strain_overlaps(layout, idx, field)
                continue
            want = ref.strain_overlaps_ideal(geom, idx, field)
            scale = np.max(np.abs(want))
            closed = strain_overlaps(layout, idx, field)
            assert scale > 0.0
            err = float(np.max(np.abs(closed - want)) / scale)
            loop_err = float(np.max(np.abs(ref.strain_overlaps(layout, idx, field) - want)) / scale)
            assert err <= max(loop_err, 1e-14), (n, idx[:4], err, loop_err)


@pytest.mark.parametrize("field", transduce.FIELD_MODELS)
@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_dark_modes_are_positive_zero(topology, field):
    # in both topologies phi is a multiple of pi exactly when n + N is even;
    # an lvr kernel also vanishes for every other mode but n = M mod 2M
    for n in COUNTS:
        for coverage in (0.35, 0.5):
            layout = build_layout(geometry(topology, n, coverage))
            m = layout.design_index
            idx = np.arange(1, 2 * m + 7)
            s = strain_overlaps(layout, idx, field)
            dark = (idx + n) % 2 == 0
            if topology == "lvr":
                dark |= idx % (2 * m) != m
            assert np.all(is_positive_zero(s[dark]))
            assert not is_positive_zero(s[idx == m + 1 if topology == "dlvr" else idx == m])


@pytest.mark.parametrize("field", transduce.FIELD_MODELS)
def test_dlvr_design_index_overlap_is_exactly_zero(field):
    for n in (*COUNTS, 10**5):
        for coverage in (0.2, 0.35, 0.5, 0.8):
            layout = build_layout(geometry("dlvr", n, coverage))
            assert is_positive_zero(strain_overlaps(layout, [n], field)).all()


def test_lvr_design_mode_takes_the_kernel_limit():
    # at n = M = G, psi/2 = pi and sin(phi) = (-1)^(G - 1): every gap adds
    # the same -2 sin(pi (1 - c) / 2) (top-hat) or -pi (1 - c) (delta)
    for n in (*COUNTS, 10**5):
        for coverage in (0.2, 0.35, 0.5, 0.8):
            layout = build_layout(geometry("lvr", n, coverage))
            g = n - 1
            assert strain_overlaps(layout, [g])[0] == pytest.approx(
                -2.0 * g * np.sin(0.5 * np.pi * (1.0 - coverage)), rel=1e-15)
            assert strain_overlaps(layout, [g], "delta")[0] == pytest.approx(
                -np.pi * (1.0 - coverage) * g, rel=1e-15)


@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_index_near_2_62_matches_its_residue(topology):
    # every integer phase depends on n mod 4M only, and no int64 product wraps
    for n in (5, 6, 40, 337):
        layout = build_layout(geometry(topology, n, 0.35))
        period = 4 * layout.design_index
        small = np.arange(1, period + 1)
        big = (2**62 // period) * period + small
        assert np.all(big % period == small % period)
        # the delta overlap is n times D sin(phi), a function of n mod 4M
        delta_small = strain_overlaps(layout, small, "delta")
        delta_big = strain_overlaps(layout, big, "delta")
        dark = is_positive_zero(delta_small)
        assert np.count_nonzero(dark) >= period // 2
        assert np.array_equal(is_positive_zero(delta_big), dark)
        np.testing.assert_allclose(delta_big / big, delta_small / small, rtol=1e-13, atol=0.0)
        # the top-hat half-gap factor sin(n pi (1 - c) / (2M)) has no float
        # value at such n, but it cannot light a dark mode
        tophat_big = strain_overlaps(layout, big)
        assert np.all(np.isfinite(tophat_big))
        assert np.all(is_positive_zero(tophat_big[dark]))


@pytest.mark.parametrize("coverage", (0.2, 0.35, 0.5, 0.8, 0.123456789))
@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_widths_are_the_geometry_widths(topology, coverage):
    # the finger widths the gap loops read are DeviceGeometry's, and those
    # are bit for bit the c lambda / 2 fingers and their halves at the edges
    # that the layout once stored
    full = 0.5 * coverage * LAM
    for n in COUNTS:
        geom = geometry(topology, n, coverage)
        assert (geom.interior_width, geom.edge_width) == (full, 0.5 * full)
        want = np.full(n, full)
        if topology == "lvr":
            want[[0, -1]] = 0.5 * full
        assert np.array_equal(build_layout(geom).widths.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("counts", (COUNTS, SWEEP_COUNTS), ids=("counts", "sweep"))
@pytest.mark.parametrize("field", transduce.FIELD_MODELS)
@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_mode_couplings_and_split_study_keep_the_reference_modes(topology, field, counts):
    geoms = [geometry(topology, n) for n in counts]
    records = split_study(geoms, V_P, field_model=field)
    assert len(records) == len(geoms)
    for geom, record in zip(geoms, records):
        layout = build_layout(geom)
        n_max = 2 * layout.design_index
        got = mode_couplings(layout, V_P, n_max, field)
        want = ref.mode_couplings(layout, V_P, n_max, field)
        assert [m.n for m in got.modes] == [m.n for m in want.modes]
        np.testing.assert_allclose(got.weights, want.weights, rtol=0.0, atol=1e-12)
        pair = [m.n for m in want.dominant_modes()]
        assert [m.n for m in got.dominant_modes()] == pair
        assert [m.n for m in record.modes] == pair
        assert record.modes == got.dominant_modes()


@pytest.mark.parametrize("coverage", (0.2, 0.35, 0.5, 0.8))
@pytest.mark.parametrize("field", transduce.FIELD_MODELS)
@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_split_study_pair_is_the_spectrum_pair(topology, field, coverage):
    # split_study builds only the dominant pair; it must equal the one the
    # whole spectrum gives, bit for bit, and hold Python numbers for JSON
    geoms = [geometry(topology, n, coverage) for n in range(2, 401)]
    runs = [(None, split_study(geoms, V_P, field_model=field))]
    if coverage == 0.5:
        runs.append((801, split_study(geoms, V_P, n_max=801, field_model=field)))
    for n_max, records in runs:
        for geom, record in zip(geoms, records):
            layout = build_layout(geom)
            spectrum = mode_couplings(layout, V_P, n_max or 2 * layout.design_index, field)
            assert record.modes == spectrum.dominant_modes()
            assert all(type(m.n) is int and type(m.f_n) is float and type(m.eta) is float
                       for m in record.modes)


def bits(a) -> np.ndarray:
    return np.asarray(a, dtype=float).view(np.uint64)


def test_sine_table_is_sin_steps_bit_for_bit():
    # one period from a quarter wave, mirrored and negated: the same np.sin
    # values as _sin_steps folds them, -0.0 at x = 2m included; np.sin sees
    # the same angles at other positions of other arrays, so this also pins
    # that its result does not depend on where an element sits
    rng = np.random.default_rng(28)
    for m in range(1, 1201):
        period = 4 * m
        table = transduce._sine_table(m)
        assert table.shape == (period,)
        assert np.array_equal(bits(table), bits(transduce._sin_steps(np.arange(period), m)))
        assert bits(table[2 * m]) == bits(-0.0)
        x = np.concatenate((rng.integers(0, 2**62, 16), 2**62 + rng.integers(-period, period, 16),
                            [2**63 - 1]))
        assert np.array_equal(bits(table[x % period]), bits(transduce._sin_steps(x, m)))
