"""MBVD model construction, synthesis, and metric extraction tests."""

from __future__ import annotations

import math
import re
import warnings

import numpy as np
import pytest

from resokit.errors import DegenerateCouplingError, EstimationError
from resokit.mbvd import (
    KT2_PREFACTOR,
    _fp_search,
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
from resokit.refdata import SURVEY, roundtrip_model, synthesis_grid

from conftest import pair_model


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


def test_metrics_overdamped_flags_fp_absent():
    # Q well below 1: no susceptance zero crossing above fs
    m = single_branch_model(1e9, 0.4, 0.10, 100e-15)
    met = metrics_from_model(m, np.linspace(0.7e9, 1.4e9, 1001))
    assert "fp-absent" in met.flags
    assert met.fp is None
    assert met.kt2 is None
    assert met.fom is None
    assert met.fs is not None


def test_metrics_low_q_flags_crosscheck():
    # at Qm ~ 121 the lossy susceptance zero sits visibly below the
    # lossless parallel resonance; the reported fp stays the closed form
    m = roundtrip_model("J")
    met = metrics_from_model(m, synthesis_grid("J"))
    assert "fp-crosscheck" in met.flags
    b = m.branches[0]
    assert met.fp == pytest.approx(b.fs * math.sqrt(1.0 + b.cm / m.c0), rel=1e-12)


def test_fp_search_brackets_root_to_1e12():
    # Im(Y) changes sign within 1e-12 relative of the refined crossing,
    # including the low-Q row J where it sits off the closed form.
    for r in SURVEY:
        m = roundtrip_model(r.label)
        fp = _fp_search(m, 0, [b.fs for b in m.branches])
        im_y = synthesize_admittance(m, fp * np.array([1 - 1e-12, 1 + 1e-12])).values.imag
        assert im_y[0] < 0.0 < im_y[1], r.label


@pytest.mark.parametrize("coupling", [5.0, 20.0, 100.0])
def test_fp_search_stops_below_the_next_branch(coupling):
    # criterion 3's pair: the window ends just below the 3.3 GHz branch, and
    # the search lands on the lossless root of
    # c0 + sum cm_j / (1 - (f / fs_j)^2) between the two branches
    m = pair_model(coupling)
    fs_list = [b.fs for b in m.branches]

    def susceptance(f):
        return m.c0 + sum(b.cm / (1.0 - (f / b.fs) ** 2) for b in m.branches)

    lo, hi = fs_list[0] * (1 + 1e-12), fs_list[1] * (1 - 1e-12)
    assert susceptance(lo) < 0.0 < susceptance(hi)
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if susceptance(mid) < 0.0 else (lo, mid)
    fp = _fp_search(m, 0, fs_list)
    assert fp == pytest.approx(lo, rel=1e-4)
    assert fp < fs_list[1] * (1.0 - 1e-3)


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
