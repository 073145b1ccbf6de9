"""MBVD model construction, synthesis, and metric extraction tests."""

from __future__ import annotations

import math
import re
import warnings

import numpy as np
import pytest

from resokit import mbvd
from resokit.errors import DegenerateCouplingError, EstimationError
from resokit.mbvd import (
    KT2_PREFACTOR,
    _fp_lossless,
    _lossy_zero,
    _median,
    admittance_arrays,
    MbvdModel,
    MotionalBranch,
    branch_from_metrics,
    kt2_from_frequencies,
    metrics_from_model,
    model_from_dict,
    model_to_dict,
    synthesize_admittance,
)
from resokit.refdata import SURVEY, display_model, roundtrip_model, synthesis_grid

import reference_mbvd
from conftest import PAIR_GRID, pair_model


def single_branch_model(fs, qm, kt2, c0):
    return MbvdModel(c0=c0, r0=0.0, rs=0.0, branches=(branch_from_metrics(fs, qm, kt2, c0),))


# ----------------------------------------------------- element closed forms

def test_branch_chain_pinned_high_coupling():
    # fs 1.87 GHz, Qm 1143, kt2 0.297, C0 51.4 fF; worked by hand:
    # r = kt2*8/pi^2, cm = c0*r/(1-r), lm = 1/((2 pi fs)^2 cm), rm = 2 pi fs lm / qm
    b = branch_from_metrics(1.87e9, 1143.0, 0.297, 51.4e-15)
    assert b.cm == pytest.approx(16.297418e-15, rel=1e-6)
    assert b.lm == pytest.approx(444.465706e-9, rel=1e-6)
    assert b.rm == pytest.approx(4.568919, rel=1e-6)
    assert b.fs == pytest.approx(1.87e9, rel=1e-12)
    assert b.qm == pytest.approx(1143.0, rel=1e-12)


def test_branch_chain_pinned_second_point():
    b = branch_from_metrics(1.87e9, 1750.0, 0.327, 99.2e-15)
    assert b.cm == pytest.approx(35.776310e-15, rel=1e-6)
    assert b.lm == pytest.approx(202.470383e-9, rel=1e-6)
    assert b.rm == pytest.approx(1.359393, rel=1e-6)


def test_parallel_resonance_tenth_coupling():
    # cm/c0 = 0.1 exactly gives fp/fs = sqrt(1.1)
    c0 = 100e-15
    cm = 0.1 * c0
    lm = 1.0 / ((2 * math.pi * 1e9) ** 2 * cm)
    m = MbvdModel(c0=c0, r0=0.0, rs=0.0,
                  branches=(MotionalBranch(rm=1.0, lm=lm, cm=cm),))
    met = metrics_from_model(m, np.linspace(0.9e9, 1.2e9, 1001))
    assert met.fs == pytest.approx(1e9, rel=1e-12)
    assert met.fp / met.fs == pytest.approx(1.048809, rel=1e-6)


def test_parallel_resonance_pinned_row():
    # fs 2.99 GHz, kt2 0.184, c0 17.6 fF gives fp = 3.241480 GHz
    m = single_branch_model(2.99e9, 997.0, 0.184, 17.6e-15)
    fp = metrics_from_model(m, np.linspace(2.7e9, 3.6e9, 2001)).fp
    assert fp == pytest.approx(3.241480e9, rel=1e-6)


def test_kt2_prefactor_value():
    assert KT2_PREFACTOR == pytest.approx(math.pi ** 2 / 8.0, rel=1e-15)


def test_kt2_from_frequencies_pinned():
    # (pi^2/8) * (fp^2 - fs^2) / fp^2 with fp = sqrt(1.1) fs
    got = kt2_from_frequencies(1e9, math.sqrt(1.1) * 1e9)
    assert got == pytest.approx(0.112154595, rel=1e-8)


def test_branch_roundtrip_through_kt2():
    # branch -> (fs, fp) -> kt2 reproduces the construction input
    grid = np.linspace(1.8e9, 2.6e9, 2001)
    for kt2 in (0.01, 0.08, 0.20, 0.327):
        m = single_branch_model(2e9, 300.0, kt2, 80e-15)
        assert metrics_from_model(m, grid).kt2 == pytest.approx(kt2, rel=1e-9)


def test_kt2_monotone_in_cm():
    c0 = 100e-15
    prev = -1.0
    for cm_rel in (0.01, 0.05, 0.1, 0.2, 0.4):
        cm = cm_rel * c0
        lm = 1.0 / ((2 * math.pi * 1e9) ** 2 * cm)
        m = MbvdModel(c0=c0, r0=0.0, rs=0.0,
                      branches=(MotionalBranch(rm=0.5, lm=lm, cm=cm),))
        kt2 = metrics_from_model(m, np.linspace(0.9e9, 1.3e9, 1001)).kt2
        assert kt2 > prev
        prev = kt2


def test_branch_rejects_kt2_at_prefactor():
    with pytest.raises(ValueError):
        branch_from_metrics(1e9, 100.0, KT2_PREFACTOR, 100e-15)
    with pytest.raises(ValueError):
        branch_from_metrics(1e9, 100.0, 1.3, 100e-15)


def test_branch_rejects_degenerate_coupling():
    # cm below 1e-21 F cannot be represented against realistic C0
    with pytest.raises(DegenerateCouplingError):
        branch_from_metrics(1e9, 100.0, 1e-9, 1e-15)


def test_branch_validates_positive_elements():
    with pytest.raises(ValueError):
        MotionalBranch(rm=-1.0, lm=1e-9, cm=1e-14)
    with pytest.raises(ValueError):
        MotionalBranch(rm=1.0, lm=0.0, cm=1e-14)
    with pytest.raises(ValueError):
        MotionalBranch(rm=1.0, lm=1e-9, cm=0.0)


@pytest.mark.parametrize("fs, c0, message", [
    (math.nan, 100e-15, "fs must be positive and finite, got nan"),
    (math.inf, 100e-15, "fs must be positive and finite, got inf"),
    (1e9, math.nan, "c0 must be positive and finite, got nan"),
    (1e9, math.inf, "c0 must be positive and finite, got inf"),
], ids=["fs-nan", "fs-inf", "c0-nan", "c0-inf"])
def test_branch_rejects_non_finite_fs_or_c0(fs, c0, message):
    with pytest.raises(ValueError, match=message):
        branch_from_metrics(fs, 100.0, 0.05, c0)
    # an infinite Q is a lossless branch, not an error
    assert branch_from_metrics(1e9, math.inf, 0.05, 100e-15).rm == 0.0


@pytest.mark.parametrize("fs, c0", [(1e200, 100e-15), (1e-160, 100e-15), (1e9, 1e300)],
                         ids=["fs-squared-overflows", "fs-squared-underflows", "c0-huge"])
def test_branch_rejects_an_inductance_outside_the_float_range(fs, c0):
    # (2 pi fs)^2 overflows; (2 pi fs)^2 cm underflows to 0; lm underflows to 0
    with pytest.raises(ValueError, match=re.escape(
            f"lm = 1/((2 pi fs)^2 cm) leaves the float range at fs {fs:.6g} Hz, cm ")):
        branch_from_metrics(fs, 100.0, 0.05, c0)


@pytest.mark.parametrize("lm, cm, product", [
    (1e-200, 1e-200, "0.0"),        # underflows: fs would divide by zero
    (1e200, 1e200, "inf"),          # overflows: fs would read 0 Hz
    (1e-154, 1e-154, "1e-308"),     # subnormal
], ids=["underflow", "overflow", "subnormal"])
def test_branch_rejects_an_unrepresentable_series_resonance(lm, cm, product):
    message = f"lm*cm = {product} is not a positive finite normal float"
    with pytest.raises(ValueError, match=re.escape(message)):
        MotionalBranch(rm=1.0, lm=lm, cm=cm)
    doc = model_to_dict(single_branch_model(1e9, 500.0, 0.1, 100e-15))
    doc["branches"].append({"rm_ohm": 1.0, "lm_h": lm, "cm_f": cm})
    with pytest.raises(ValueError, match=re.escape(f"branches[1]: {message}")):
        model_from_dict(doc)


def test_model_from_dict_names_branches_sharing_a_series_resonance():
    b = branch_from_metrics(1.87e9, 1000.0, 0.1, 100e-15)
    doc = model_to_dict(MbvdModel(c0=100e-15, branches=(b, branch_from_metrics(
        2.5e9, 1000.0, 0.01, 100e-15))))
    doc["branches"].append({"rm_ohm": 2 * b.rm, "lm_h": b.lm, "cm_f": b.cm})
    with pytest.raises(ValueError, match=re.escape(
            f"branches[0] and branches[2] share the series resonance {b.fs!r} Hz")):
        model_from_dict(doc)


def test_lossless_branch_qm_infinite():
    b = MotionalBranch(rm=0.0, lm=1e-9, cm=1e-14)
    assert math.isinf(b.qm)


# ------------------------------------------------------------- synthesis

def test_synthesize_pure_capacitor():
    m = MbvdModel(c0=100e-15, r0=0.0, rs=0.0, branches=())
    f = np.linspace(1e9, 2e9, 16)
    tr = synthesize_admittance(m, f)
    np.testing.assert_allclose(tr.values, 1j * 2 * np.pi * f * 100e-15, rtol=1e-12)


def test_synthesize_static_loss_arm():
    # r0 sits in series with c0 only
    m = MbvdModel(c0=100e-15, r0=5.0, rs=0.0, branches=())
    f = np.linspace(1e9, 2e9, 16)
    w = 2 * np.pi * f
    tr = synthesize_admittance(m, f)
    np.testing.assert_allclose(tr.values, 1.0 / (5.0 + 1.0 / (1j * w * 100e-15)), rtol=1e-12)


def test_synthesize_lead_resistance_wraps_all():
    m = MbvdModel(c0=100e-15, r0=0.0, rs=2.0, branches=())
    f = np.linspace(1e9, 2e9, 16)
    w = 2 * np.pi * f
    tr = synthesize_admittance(m, f)
    np.testing.assert_allclose(tr.values, 1.0 / (2.0 + 1.0 / (1j * w * 100e-15)), rtol=1e-12)


def test_synthesize_peak_conductance_at_fs():
    # at series resonance the branch is purely resistive: Re Y = 1/rm + tiny
    m = single_branch_model(1e9, 500.0, 0.1, 100e-15)
    b = m.branches[0]
    tr = synthesize_admittance(m, np.array([b.fs]))
    assert tr.values[0].real == pytest.approx(1.0 / b.rm, rel=1e-9)


def test_synthesize_passive_for_random_models():
    # Re Y >= 0 everywhere when every resistance is non-negative
    rng = np.random.default_rng(17)
    f = np.sort(rng.uniform(0.5e9, 20e9, 10000))
    for _ in range(20):
        n_b = int(rng.integers(1, 4))
        branches = tuple(sorted(
            (MotionalBranch(rm=float(rng.uniform(0.1, 50.0)),
                            lm=float(rng.uniform(1e-9, 1e-6)),
                            cm=float(rng.uniform(1e-16, 1e-13)))
             for _ in range(n_b)),
            key=lambda b: b.fs,
        ))
        m = MbvdModel(c0=float(rng.uniform(1e-14, 2e-13)),
                      r0=float(rng.uniform(0.0, 5.0)),
                      rs=float(rng.uniform(0.0, 5.0)),
                      branches=branches)
        y = synthesize_admittance(m, f).values
        assert y.real.min() >= -1e-15


def test_weak_far_branch_barely_perturbs():
    # superposition sanity: a 1e-4 relative branch 3x away moves Y by < 0.1%
    base = single_branch_model(1e9, 500.0, 0.1, 100e-15)
    far_cm = 1e-4 * base.c0
    far_lm = 1.0 / ((2 * math.pi * 3e9) ** 2 * far_cm)
    extra = MbvdModel(c0=base.c0, r0=0.0, rs=0.0,
                      branches=base.branches + (MotionalBranch(rm=1.0, lm=far_lm, cm=far_cm),))
    f = np.linspace(0.95e9, 1.1e9, 501)
    y0 = synthesize_admittance(base, f).values
    y1 = synthesize_admittance(extra, f).values
    # normalize by the trace scale; pointwise division blows up in the notch
    assert np.max(np.abs(y1 - y0)) / np.median(np.abs(y0)) < 1e-3


@pytest.mark.parametrize("lossless_only", [False, True], ids=["lossy", "lossless-r0-0"])
@pytest.mark.parametrize("k", range(1, 7))
def test_admittance_adds_branch_rows_one_at_a_time_in_fs_order(k, lossless_only):
    # one row per branch over contiguous frequency; g = yst + (((0 + row_0) + row_1) + ...),
    # a fixed order whatever the branch count (np.sum pairs up 4 or more).  Compared as
    # uint64, so a signed zero (lossless rows below resonance with r0 = 0) counts too.
    rng = np.random.default_rng(40 + k)
    c0, r0, rs = (100e-15, 0.0, 0.0) if lossless_only else (100e-15, 0.4, 0.9)
    fs = 1.0001e9 * (1.0 + 0.1 * np.arange(k))  # off the grid: no lossless pole on it
    qms = [math.inf] * k if lossless_only else [math.inf, *rng.uniform(50.0, 2000.0, k - 1)]
    branches = [branch_from_metrics(f, q, float(rng.uniform(0.001, 0.05)), c0)
                for f, q in zip(fs, qms)]
    rm, lm, cm = (np.array([getattr(b, name) for b in branches]) for name in ("rm", "lm", "cm"))
    freqs = np.linspace(0.8e9, 1.2e9 + 0.1e9 * k, 998)
    adm = admittance_arrays(freqs, c0, r0, rs, rm, lm, cm)

    w = 2 * math.pi * freqs
    assert np.array_equal(adm.w, w)
    yst = 1.0 / (r0 + 1.0 / (1j * w * c0))
    rows = [1.0 / (b.rm + 1j * (b.lm * w - 1.0 / (b.cm * w))) for b in branches]
    total = 0.0
    for row in rows:
        total = total + row
    g = yst + total
    assert adm.yb.shape == (k, freqs.size)
    assert adm.yb.flags.c_contiguous
    for got, want in [(adm.yst, yst), (adm.yb, np.array(rows)), (adm.g, g)]:
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    y = g if rs == 0.0 else 1.0 / (rs + 1.0 / g)
    assert np.array_equal(adm.y.view(np.uint64), y.view(np.uint64))
    if lossless_only:  # the rows hold -0.0, so the sum's start at 0 shows in g's sign bits
        assert np.any(np.signbit(adm.yb.real))


def same_bits(a: np.ndarray | None, b: np.ndarray | None) -> bool:
    """Equal bit for bit, signed zeros and infinities included; a NaN only
    has to sit where the other does (its payload is the platform's)."""
    if a is None or b is None:
        return a is b
    a, b = (np.ascontiguousarray(v).view(float) for v in (a, b))
    nan = np.isnan(a)
    return np.array_equal(nan, np.isnan(b)) and np.array_equal(a[~nan].view(np.uint64),
                                                                b[~nan].view(np.uint64))


# the in-band grid, the overflow and underflow grids of the CLI's synth
# test, and grids reaching subnormal w c0 and w = inf
REFERENCE_GRIDS = (np.linspace(0.5e9, 6e9, 2001), np.linspace(1e-300, 2e-300, 3),
                   np.linspace(1e300, 1.7e308, 3),
                   np.array([5e-324, 1e-310, 1e-200, 1.0, 1e200, 2.8e307, 2.9e307, 1.7e308]))


def test_admittance_arrays_equals_the_complex_reference_bit_for_bit():
    # each arm's impedance assembled from its parts equals the complex
    # products 1/(r0 + 1/(j w c0)) and rm + 1j v of tests/reference_mbvd.py,
    # over random 0-5-branch models with lossless branches, r0 and rs of
    # 0.0, -0.0, 1e+-300 or a few ohms, and c0 from the survey's range to 1e+-300
    rng = np.random.default_rng(28)
    for trial in range(1200):
        k = int(rng.integers(0, 6))
        fs = np.sort(rng.uniform(1e9, 5e9, k))
        c0 = 10.0 ** rng.uniform(-14, -12) if trial % 5 else 10.0 ** rng.uniform(-300, 300)
        r0, rs = ((0.0, -0.0, 1e-300, 1e300, float(rng.uniform(0.0, 2.0)))[int(rng.integers(5))]
                  for _ in range(2))
        # as synthesize_admittance; a c0 far outside the survey's range
        # also takes the branch elements out of it
        with np.errstate(over="ignore", invalid="ignore"):
            cm = c0 * rng.uniform(1e-3, 0.3, k)
            lm = 1.0 / ((2 * math.pi * fs) ** 2 * cm)
            rm = np.where(rng.random(k) < 0.3, 0.0, 2 * math.pi * fs * lm / rng.uniform(50, 3000, k))
            args = (REFERENCE_GRIDS[trial % 4], c0, r0, rs, rm, lm, cm)
            got, want = admittance_arrays(*args), reference_mbvd.admittance_arrays(*args)
        # one departure: a lossless branch whose reactance is exactly 0 (here
        # only where lm underflows to 0) is a short, a real inf where the
        # reference's 1/(0 + 0j) is inf + nan j; those frequencies are left out
        cols = slice(None)
        if k:
            short = np.isinf(want.yb.real) & np.isnan(want.yb.imag)
            assert np.all(got.yb[short] == math.inf), trial
            cols = ~short.any(axis=0)
        assert all(same_bits(a if a is None else a[..., cols], b if b is None else b[..., cols])
                   for a, b in zip(got, want)), (trial, args[1:])


@pytest.mark.parametrize("grid", REFERENCE_GRIDS[1:3], ids=["bottom", "top"])
def test_admittance_arrays_keeps_the_synth_overflow_grids_non_finite(grid):
    model = display_model("L")
    args = (grid, model.c0, model.r0, model.rs, *(np.array([getattr(b, name) for b in model.branches])
                                                 for name in ("rm", "lm", "cm")))
    with np.errstate(over="ignore", invalid="ignore"):
        got, want = admittance_arrays(*args), reference_mbvd.admittance_arrays(*args)
    assert all(same_bits(a, b) for a, b in zip(got, want))
    assert not np.isfinite(got.y).all()


def test_synthesize_rejects_nonpositive_frequency():
    m = single_branch_model(1e9, 500.0, 0.1, 100e-15)
    with pytest.raises(ValueError):
        synthesize_admittance(m, np.array([0.0, 1e9]))


@pytest.mark.parametrize("freqs, first", [([1e-300, 2e-300], 1e-300), ([1e9, 1e300, 1.7e308], 1.7e308)],
                         ids=["bottom", "top"])
def test_synthesize_names_the_first_frequency_whose_admittance_overflows(freqs, first):
    # 1/(j w c0) overflows at the bottom, w itself at the top
    m = single_branch_model(1e9, 500.0, 0.1, 100e-15)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match=re.escape(
                f"the model's admittance leaves the float range at {first:.6g} Hz")):
            synthesize_admittance(m, np.array(freqs))


# --------------------------------------------------------------- metrics

def test_metrics_recover_construction_values():
    m = single_branch_model(1.87e9, 1750.0, 0.327, 99.2e-15)
    met = metrics_from_model(m, np.linspace(0.9 * 1.87e9, 2.05 * 1.87e9, 2001))
    assert met.fs == pytest.approx(1.87e9, rel=1e-6)
    assert met.kt2 == pytest.approx(0.327, rel=1e-6)
    assert met.qm == pytest.approx(1750.0, rel=1e-6)
    assert met.c0 == pytest.approx(99.2e-15, rel=1e-12)
    assert met.fom == pytest.approx(met.qs * met.kt2, rel=1e-12)
    assert met.flags == ()


def test_metrics_qs_below_qm_from_static_loading():
    # phase-slope Q at fs is pulled down by the c0 shunt path
    m = single_branch_model(1.87e9, 1750.0, 0.327, 99.2e-15)
    met = metrics_from_model(m, np.linspace(1.7e9, 3.9e9, 2001))
    assert met.qs < met.qm
    assert met.qs == pytest.approx(1750.0, rel=0.01)


@pytest.mark.parametrize("qm", [50.0, 500.0, 5000.0])
def test_metrics_qs_of_a_bare_branch_is_its_q(qm):
    # with a vanishing shunt capacitance Y at fs is the branch's 1/rm and
    # dY/dw is -2j lm Y^2, so the phase-slope Q_s is the branch Q, w lm / rm
    b = branch_from_metrics(1e9, qm, 0.05, 100e-15)
    m = MbvdModel(c0=1e-19, r0=0.0, rs=0.0, branches=(b,))
    met = metrics_from_model(m, np.array([0.5e9, 3e9]))
    assert met.qs == pytest.approx(qm, rel=1e-6)
    assert met.qs == pytest.approx(phase_difference_q(m, met.fs), rel=1e-6)


def test_metrics_lossless_reports_inf():
    b = branch_from_metrics(1e9, 100.0, 0.05, 100e-15)
    m = MbvdModel(c0=100e-15, r0=0.0, rs=0.0,
                  branches=(MotionalBranch(rm=0.0, lm=b.lm, cm=b.cm),))
    met = metrics_from_model(m, np.linspace(0.9e9, 1.3e9, 1001))
    assert math.isinf(met.qs)
    assert math.isinf(met.qp)
    assert math.isinf(met.qm)
    d = met.as_dict()
    assert d["q_s"] == "inf"
    assert d["q_m"] == "inf"


def phase_difference_q(model, f, h=1e-7):
    """(f/2)|d arg Y/df| from the central difference over f(1 -+ h)."""
    y = synthesize_admittance(model, f * np.array([1.0 - h, 1.0 + h])).values
    return abs(np.angle(y[1] / y[0])) / (4.0 * h)


def lossless_branch(fs=1e9):
    b = branch_from_metrics(fs, 100.0, 0.05, 100e-15)
    return MotionalBranch(rm=0.0, lm=b.lm, cm=b.cm)


@pytest.mark.parametrize("fs", [1e9, 1.02e9], ids=["near-pole", "on-pole"])
@pytest.mark.parametrize("r0, rs", [(0.0, 0.0), (20.0, 0.0), (0.0, 20.0), (20.0, 20.0)])
def test_metrics_lossless_rules(r0, rs, fs):
    # a lossless branch is a pole of Y at fs: Q_s is inf without rs, and
    # behind rs it is the phase slope's limit 2 pi fs lm / rs there; Q_p is
    # inf only when nothing in the parallel section dissipates.  At 1.02 GHz
    # lm w - 1/(cm w) is exactly 0 at the float fs, where the branch is a short.
    b = lossless_branch(fs)
    m = MbvdModel(c0=100e-15, r0=r0, rs=rs, branches=(b,))
    met = metrics_from_model(m, np.linspace(0.9e9, 1.3e9, 1001))
    if rs == 0.0:
        assert math.isinf(met.qs)
    else:
        assert met.qs == pytest.approx(2 * math.pi * b.fs * b.lm / rs, rel=1e-12)
        assert met.qs == pytest.approx(phase_difference_q(m, met.fs), rel=1e-6)
    if r0 == 0.0:
        assert math.isinf(met.qp)
    else:
        assert met.qp == pytest.approx(phase_difference_q(m, met.fp), rel=1e-6)


@pytest.mark.parametrize("r0", [0.0, 20.0])
def test_synthesize_a_lossless_branch_at_its_float_fs(r0):
    # lm w - 1/(cm w) is exactly 0 at this branch's float fs, so the branch is
    # a short there: y is 1/rs, and without rs the grid is refused
    b = lossless_branch(1.02e9)
    w = 2 * math.pi * b.fs
    assert b.lm * w - 1.0 / (b.cm * w) == 0.0
    grid = np.array([0.999 * b.fs, b.fs])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        y = synthesize_admittance(MbvdModel(c0=100e-15, r0=r0, rs=20.0, branches=(b,)), grid)
        assert y.values[1] == 1.0 / 20.0
        with pytest.raises(ValueError, match=re.escape(
                f"the model's admittance leaves the float range at {b.fs:.6g} Hz")):
            synthesize_admittance(MbvdModel(c0=100e-15, r0=r0, branches=(b,)), grid)


def test_metrics_lossless_dominant_beside_a_lossy_branch():
    # the lossy branch dissipates at fp, so Q_p is finite while Q_s stays inf
    side = branch_from_metrics(1.2e9, 5.0, 0.02, 100e-15)
    m = MbvdModel(c0=100e-15, r0=0.0, rs=0.0, branches=(lossless_branch(), side))
    met = metrics_from_model(m, np.linspace(0.9e9, 1.5e9, 1001))
    assert math.isinf(met.qs)
    assert math.isfinite(met.qp)
    assert met.qp == pytest.approx(phase_difference_q(m, met.fp), rel=1e-6)


def test_metrics_overdamped_flags_fp_absent():
    # Q well below 1: no susceptance zero crossing above fs
    m = single_branch_model(1e9, 0.4, 0.10, 100e-15)
    met = metrics_from_model(m, np.linspace(0.7e9, 1.4e9, 1001))
    assert "fp-absent" in met.flags
    assert met.fp is None
    assert met.kt2 is None
    assert met.fom is None
    assert met.fs is not None


@pytest.mark.parametrize("side_fs", [0.8e9, 1.3e9], ids=["below", "above"])
def test_metrics_two_branch_overdamped_flags_fp_absent(side_fs):
    # the overdamped branch stays without a lossy zero beside a weak high-Q
    # branch below or above it, which moves its lossless root
    main = branch_from_metrics(1e9, 0.4, 0.10, 100e-15)
    side = branch_from_metrics(side_fs, 500.0, 0.01, 100e-15)
    m = MbvdModel(c0=100e-15, branches=tuple(sorted((main, side), key=lambda b: b.fs)))
    met = metrics_from_model(m, np.linspace(0.7e9, 1.4e9, 1001))
    assert "fp-absent" in met.flags
    assert (met.fp, met.qp, met.kt2, met.fom) == (None, None, None, None)
    assert met.fs == main.fs


def box_model(rng, nbranch):
    """A model over the paper's box, Q_m log-uniform in [0.3, 3000], with a
    second branch below or above the first at 1/50-1/2 of its cm, and r0 and
    rs each 0 or a few ohms."""
    qm = lambda: 10.0 ** rng.uniform(math.log10(0.3), math.log10(3000.0))
    fs, c0 = rng.uniform(2e9, 16e9), rng.uniform(10e-15, 200e-15)
    branches = [branch_from_metrics(fs, qm(), rng.uniform(0.01, 0.33), c0)]
    if nbranch == 2:
        f2 = fs * rng.choice([rng.uniform(0.7, 0.95), rng.uniform(1.05, 1.4)])
        cm2 = branches[0].cm / rng.uniform(2.0, 50.0)
        lm2 = 1.0 / ((2 * math.pi * f2) ** 2 * cm2)
        branches.append(MotionalBranch(rm=2 * math.pi * f2 * lm2 / qm(), lm=lm2, cm=cm2))
    r0, rs = (rng.choice([0.0, rng.uniform(0.5, 5.0)]) for _ in range(2))
    return MbvdModel(c0=c0, r0=float(r0), rs=float(rs),
                     branches=tuple(sorted(branches, key=lambda b: b.fs)))


def test_metrics_q_is_the_phase_slope_over_the_box():
    # Q_s and Q_p against a central phase difference at +-1e-7 f, whose
    # truncation error (2 Q h)^2 / 3 is 1.2e-7 at Q 3000; abs covers its
    # rounding, a few ulp of phase over 4e-7, on Q_s far below 1
    rng = np.random.default_rng(5)
    for i in range(400):
        m = box_model(rng, 1 + i % 2)
        fs = m.branches[m.dominant_index].fs
        met = metrics_from_model(m, np.array([0.5 * fs, 3.0 * fs]))
        assert met.qs == pytest.approx(phase_difference_q(m, met.fs), rel=1e-6, abs=1e-8), i
        if met.qp is not None:
            assert met.qp == pytest.approx(phase_difference_q(m, met.fp), rel=1e-6), i


def test_metrics_low_q_flags_crosscheck():
    # at Qm ~ 121 the lossy susceptance zero sits visibly below the
    # lossless parallel resonance; the reported fp stays the closed form
    m = roundtrip_model("J")
    met = metrics_from_model(m, synthesis_grid("J"))
    assert "fp-crosscheck" in met.flags
    b = m.branches[0]
    assert met.fp == pytest.approx(b.fs * math.sqrt(1.0 + b.cm / m.c0), rel=1e-12)


def test_lossy_zero_brackets_root_to_1e12():
    # Newton from the lossless root lands where Im(Y) changes sign within
    # 1e-12 relative, including the low-Q row J where it sits off that root
    for r in SURVEY:
        m = roundtrip_model(r.label)
        fs = m.branches[0].fs
        zero = _lossy_zero(m, _fp_lossless(m, fs, math.inf), fs, math.inf)
        im_y = synthesize_admittance(m, zero * np.array([1 - 1e-12, 1 + 1e-12])).values.imag
        assert im_y[0] < 0.0 < im_y[1], r.label


@pytest.mark.parametrize("qm, kt2, r0_per_rm", [(40.0, 0.05, 0.0), (10.0, 0.2, 0.0), (8.0, 0.3, 6.0)],
                         ids=["cycles-q40", "cycles-q10", "climbs-r0"])
def test_overdamped_lossy_zero_search_stops_early(qm, kt2, r0_per_rm, monkeypatch):
    # Newton's iterates from fp either cycle round a minimum of Im(Y) that
    # stays above zero or, with r0, climb on a rising Im(Y) with no zero; the
    # search stops where Im(Y) does not rise or above fs sqrt(2 + 2 cm / c0),
    # after 2 forward passes, and the Q slopes take one more
    passes = []
    y_and_slope = mbvd._y_and_slope
    monkeypatch.setattr(mbvd, "_y_and_slope", lambda *a: passes.append(a) or y_and_slope(*a))
    b = branch_from_metrics(1e9, qm, kt2, 100e-15)
    met = metrics_from_model(MbvdModel(c0=100e-15, r0=r0_per_rm * b.rm, branches=(b,)),
                             np.array([0.5e9, 3e9]))
    assert met.flags == ("fp-absent",)
    assert len(passes) == 3


@pytest.mark.parametrize("coupling", [5.0, 20.0, 100.0])
def test_pair_fp_is_the_lossless_root(coupling):
    # criterion 3's pair: fp is the root of the lossless susceptance
    # c0 + sum cm_j / (1 - (f / fs_j)^2) between the two branches, and Q_p
    # the phase slope of the circuit there
    m = pair_model(coupling)
    fs_list = [b.fs for b in m.branches]

    def susceptance(f):
        return m.c0 + sum(b.cm / (1.0 - (f / b.fs) ** 2) for b in m.branches)

    lo, hi = fs_list[0] * (1 + 1e-12), fs_list[1] * (1 - 1e-12)
    assert susceptance(lo) < 0.0 < susceptance(hi)
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if susceptance(mid) < 0.0 else (lo, mid)
    met = metrics_from_model(m, PAIR_GRID)
    assert met.fp == pytest.approx(lo, rel=1e-12)
    assert met.kt2 == pytest.approx(kt2_from_frequencies(fs_list[0], lo), rel=1e-11)
    assert met.flags == ()
    # the two middle samples straddle lo: a central difference of the phase
    dense = np.linspace(lo * (1 - 1e-3), lo * (1 + 1e-3), 400)
    phase = np.unwrap(np.angle(synthesize_admittance(m, dense).values))
    slope = (phase[200] - phase[199]) / (dense[200] - dense[199])
    assert met.qp == pytest.approx(0.5 * lo * abs(slope), rel=1e-3)
    # the lossy zero stays clear of the next branch
    assert _lossy_zero(m, met.fp, fs_list[0], fs_list[1]) < fs_list[1] * (1.0 - 1e-3)


def test_metrics_narrow_grid_flags_unbracketed():
    m = single_branch_model(1e9, 500.0, 0.20, 100e-15)
    met = metrics_from_model(m, np.linspace(0.95e9, 1.02e9, 501))
    assert "fp-unbracketed" in met.flags
    assert met.fp is None
    assert met.kt2 is None


def test_metrics_flags_fs_near_a_grid_end():
    # a grid that starts or ends 0.1% from fs holds one flank of the resonance
    m = roundtrip_model("L")
    fs = m.branches[0].fs
    low = metrics_from_model(m, np.linspace(0.999 * fs, 2.05 * fs, 2001))
    assert low.flags == ("fs-near-edge",)
    high = metrics_from_model(m, np.linspace(0.9 * fs, 1.001 * fs, 2001))
    assert high.flags == ("fs-near-edge", "fp-unbracketed")
    # the survey grids keep every row clear of the edge
    for r in SURVEY:
        met = metrics_from_model(roundtrip_model(r.label), synthesis_grid(r.label))
        assert "fs-near-edge" not in met.flags, r.label


def test_metrics_dominant_branch_is_largest_cm():
    # a weak second branch must not steal fs
    main = branch_from_metrics(2e9, 400.0, 0.2, 100e-15)
    side_cm = main.cm / 20.0
    side_lm = 1.0 / ((2 * math.pi * 1.4e9) ** 2 * side_cm)
    m = MbvdModel(c0=100e-15, r0=0.0, rs=0.0,
                  branches=(MotionalBranch(rm=2.0, lm=side_lm, cm=side_cm), main))
    met = metrics_from_model(m, np.linspace(1.2e9, 3.2e9, 2001))
    assert met.fs == pytest.approx(2e9, rel=1e-6)


@pytest.mark.parametrize("grid, span", [
    (np.linspace(1.1e9, 1.3e9, 201), "[1.1e+09, 1.3e+09]"),
    (np.linspace(0.7e9, 0.9e9, 201), "[7e+08, 9e+08]"),
], ids=["below", "above"])
def test_metrics_reject_fs_outside_the_grid(grid, span):
    # a fit may move the dominant branch off the measured span; that is an
    # estimation failure named by the span, not the phase-slope helper's grid
    m = single_branch_model(1e9, 500.0, 0.20, 100e-15)
    with pytest.raises(EstimationError) as exc:
        metrics_from_model(m, grid)
    assert str(exc.value) == (
        f"fitted dominant resonance 1e+09 Hz lies outside the measured span {span} Hz")


@pytest.mark.parametrize("ends", [(math.nan, 2e9), (2e9, 0.9e9), (0.0, 2e9), (-1e9, 2e9),
                                  (1e9, math.inf), (1e9, 1e9)])
def test_metrics_reject_a_malformed_span(ends):
    # only the grid's ends are read, and they must bound a real span
    m = single_branch_model(1e9, 500.0, 0.20, 100e-15)
    with pytest.raises(ValueError, match=re.escape(
            f"analysis span [{ends[0]:.6g}, {ends[1]:.6g}] Hz is not a finite, positive, "
            f"increasing pair of frequencies")):
        metrics_from_model(m, np.array([ends[0], 1e9, ends[1]]))


def test_metrics_empty_model_rejected():
    m = MbvdModel(c0=100e-15, r0=0.0, rs=0.0, branches=())
    with pytest.raises(ValueError):
        metrics_from_model(m, np.linspace(1e9, 2e9, 101))


# ----------------------------------------------------------- serialization

def test_model_dict_roundtrip_exact():
    m = MbvdModel(c0=99.2e-15, r0=0.7, rs=1.3,
                  branches=(branch_from_metrics(1.87e9, 1750.0, 0.327, 99.2e-15),
                            branch_from_metrics(2.1e9, 300.0, 0.05, 99.2e-15)))
    back = model_from_dict(model_to_dict(m))
    assert back.c0 == m.c0
    assert back.r0 == m.r0
    assert back.rs == m.rs
    assert len(back.branches) == 2
    for a, b in zip(back.branches, m.branches):
        assert (a.rm, a.lm, a.cm) == (b.rm, b.lm, b.cm)


def test_model_from_dict_rejects_missing_keys():
    with pytest.raises((KeyError, ValueError)):
        model_from_dict({"c0": 1e-13})


# ------------------------------------------------------------------ median

def test_median_equals_numpy_median_bit_for_bit():
    rng = np.random.default_rng(23)
    pools = [
        lambda n: rng.standard_normal(n),
        lambda n: np.abs(rng.standard_normal(n) + 1j * rng.standard_normal(n)),
        # heavy ties, signed zeros, subnormals and values near overflow
        lambda n: rng.choice([0.0, -0.0, 5e-324, -5e-324, 1.0, 2.0, 0.5, 1e308, -1e308], n),
        lambda n: rng.integers(-2, 3, n).astype(float),
        lambda n: np.exp(rng.uniform(-700.0, 700.0, n)),
    ]
    for n in [*range(1, 65), 2000, 2001]:
        for pool in pools:
            a = pool(n)
            got, want = np.float64(_median(a)), np.float64(np.median(a))
            assert got.view(np.uint64) == want.view(np.uint64), (n, a)
            assert type(_median(a)) is float
