"""Resonance detection, background estimation, and seeding tests."""

from __future__ import annotations

import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from resokit import ComplexTrace
from resokit.errors import EstimationError, InductiveBackgroundError, PhaseUnwrapError
from resokit.extract import (
    _c0_from_offresonance,
    _noise_sigma,
    _prominent_peaks,
    detect_resonances,
    initial_guess,
)
from resokit.mbvd import (
    MbvdModel,
    MotionalBranch,
    branch_from_metrics,
    q_from_phase_slope,
    synthesize_admittance,
)
from resokit.refdata import SURVEY, roundtrip_model, row, synthesis_grid

from conftest import noisy_trace, survey_trace

# Written by tests/data/make_detect_resonances.py with the SciPy detector.
FROZEN_DETECTIONS = Path(__file__).parent / "data" / "detect_resonances.json"


def two_branch_model():
    b1 = branch_from_metrics(3.0e9, 500.0, 0.10, 100e-15)
    cm2 = b1.cm / 5.0
    lm2 = 1.0 / ((2 * math.pi * 3.3e9) ** 2 * cm2)
    b2 = MotionalBranch(rm=2 * math.pi * 3.3e9 * lm2 / 500.0, lm=lm2, cm=cm2)
    return MbvdModel(c0=100e-15, r0=0.0, rs=0.0, branches=(b1, b2))


# ---------------------------------------------------------------- detection

def test_detect_pure_capacitor_finds_nothing():
    f = np.linspace(1e9, 2e9, 801)
    tr = ComplexTrace(freqs=f, values=1j * 2 * np.pi * f * 100e-15)
    assert detect_resonances(tr) == []


def test_detect_single_resonance_within_grid_step():
    m = roundtrip_model("A")
    grid = synthesis_grid("A")
    cands = detect_resonances(synthesize_admittance(m, grid))
    assert len(cands) == 1
    step = grid[1] - grid[0]
    assert abs(cands[0].fs_est - row("A").fs) <= step
    assert cands[0].prominence_db > 3.0


def test_detect_reports_antiresonance_estimate():
    m = roundtrip_model("A")
    cands = detect_resonances(synthesize_admittance(m, synthesis_grid("A")))
    fp_true = 3.241480e9
    assert cands[0].fp_est is not None
    assert cands[0].fp_est == pytest.approx(fp_true, rel=2e-3)


def test_detect_two_branches_in_frequency_order():
    m = two_branch_model()
    grid = np.linspace(2.5e9, 4.2e9, 3001)
    cands = detect_resonances(synthesize_admittance(m, grid))
    assert len(cands) == 2
    assert cands[0].fs_est < cands[1].fs_est
    assert cands[0].fs_est == pytest.approx(3.0e9, rel=1e-3)
    assert cands[1].fs_est == pytest.approx(3.3e9, rel=1e-3)


def test_detect_span_brackets_peak():
    m = roundtrip_model("A")
    grid = synthesis_grid("A")
    tr = synthesize_admittance(m, grid)
    cand = detect_resonances(tr)[0]
    lo, hi = cand.span
    assert 0 <= lo < hi < grid.size
    assert grid[lo] < cand.fs_est < grid[hi]


def test_detect_survives_noise():
    m = roundtrip_model("A")
    tr = noisy_trace(m, synthesis_grid("A"), noise_db=-80.0, seed=1)
    cands = detect_resonances(tr)
    assert len(cands) == 1
    assert cands[0].fs_est == pytest.approx(row("A").fs, rel=1e-3)


def test_detect_threshold_suppresses_shallow_peak():
    m = two_branch_model()
    grid = np.linspace(2.5e9, 4.2e9, 3001)
    tr = synthesize_admittance(m, grid)
    picked = detect_resonances(tr, threshold_db=40.0)
    assert len(picked) == 1
    assert picked[0].fs_est == pytest.approx(3.3e9, rel=1e-3)


@pytest.mark.parametrize("noise_db", [-80.0, -40.0, -20.0])
def test_detect_matches_frozen_survey_candidates(noise_db):
    frozen = {e["label"]: e["candidates"]
              for e in json.loads(FROZEN_DETECTIONS.read_text()) if e["noise_db"] == noise_db}
    assert len(frozen) == len(SURVEY)
    for i, r in enumerate(SURVEY):
        got = detect_resonances(survey_trace(r.label, i, noise_db))
        want = frozen[r.label]
        assert len(got) == len(want), r.label
        for c, (fs, fp, prom, span) in zip(got, want):
            assert (c.fs_est, c.fp_est, c.span) == (fs, fp, tuple(span)), r.label
            assert c.prominence_db == pytest.approx(prom, rel=1e-12, abs=0.0), r.label


@pytest.mark.parametrize("noise_db", [-80.0, -40.0, -20.0, -10.0])
def test_noise_sigma_matches_the_injected_noise(noise_db):
    for i, r in enumerate(SURVEY):
        model, grid = roundtrip_model(r.label), synthesis_grid(r.label)
        clean = synthesize_admittance(model, grid).values
        tr = noisy_trace(model, grid, noise_db=noise_db, seed=100 + i)
        injected = math.sqrt(np.mean(np.abs(tr.values - clean) ** 2))
        assert _noise_sigma(tr) == pytest.approx(injected, rel=0.1), r.label


def test_noise_sigma_near_the_float_limit_does_not_overflow():
    # third differences of a finite |Y| can pass the float range: the noise
    # estimate is inf, with no warning, and no candidate is significant
    f = np.linspace(1e9, 2e9, 201)
    y = np.where(np.arange(f.size) % 2 == 0, 1.5e308, 1e306) + 0j
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cands = detect_resonances(ComplexTrace(freqs=f, values=y))
    assert cands and all(c.significance == 0.0 for c in cands)


def test_clean_resonances_are_far_above_the_noise():
    # on a clean trace the 3 dB floor alone decides what is a candidate
    traces = [synthesize_admittance(roundtrip_model(r.label), synthesis_grid(r.label))
              for r in SURVEY]
    traces.append(synthesize_admittance(two_branch_model(), np.linspace(2.5e9, 4.2e9, 3001)))
    for tr in traces:
        cands = detect_resonances(tr)
        assert cands
        assert min(c.significance for c in cands) > 1e3 * 7


def _noisy_db_trace():
    tr = noisy_trace(roundtrip_model("A"), synthesis_grid("A"), noise_db=-20.0, seed=100)
    return 20.0 * np.log10(np.abs(tr.values))


@pytest.mark.parametrize("x, threshold", [
    ([0, 1, 4, 4, 4, 1, 0, 2, 0], 0.5),  # odd plateau
    ([0, 1, 4, 4, 4, 4, 1, 0, 2, 0], 0.5),  # even plateau
    ([0, 3, 1, 3, 0, 3, 2, 3, 0], 0.5),  # equal-height neighbours
    ([5, 1, 3, 1, 2, 6], 0.5),  # maxima on the first and last samples
    ([0, 1, 3, 3, 3], 0.5),  # plateau running into the last sample
    (np.full(32, 2.5), 0.5),  # constant
    (np.linspace(-3.0, 7.0, 32), 0.5),  # monotone
    (_noisy_db_trace(), 3.0),  # 2001 points at -20 dB
], ids=["odd-plateau", "even-plateau", "equal-neighbours", "edge-maxima",
        "edge-plateau", "constant", "monotone", "noisy-2001"])
def test_prominent_peaks_match_scipy_oracle(x, threshold):
    signal = pytest.importorskip("scipy.signal")
    for arr in (np.asarray(x, dtype=float), -np.asarray(x, dtype=float)):
        want, props = signal.find_peaks(arr, prominence=threshold)
        _, _, want_left, want_right = signal.peak_widths(arr, want, rel_height=0.5)
        peaks, prominences, left_ips, right_ips = _prominent_peaks(arr, threshold)
        np.testing.assert_array_equal(peaks, want)
        np.testing.assert_array_equal(prominences, props["prominences"])
        np.testing.assert_allclose(left_ips, want_left, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(right_ips, want_right, rtol=1e-12, atol=0.0)


def test_detect_requires_enough_points():
    f = np.linspace(1e9, 2e9, 8)
    tr = ComplexTrace(freqs=f, values=1j * f)
    with pytest.raises(ValueError):
        detect_resonances(tr)


# ------------------------------------------------------ background estimate

def test_c0_hinted_high_coupling():
    # kt2 32.7% bends Im(Y)/w everywhere; the hinted joint fit stays exact
    m = roundtrip_model("P")
    tr = synthesize_admittance(m, synthesis_grid("P"))
    cands = detect_resonances(tr)
    c0 = _c0_from_offresonance(tr, [c.span for c in cands], [c.fs_est for c in cands])
    assert c0 == pytest.approx(row("P").c0, rel=1e-3)


def test_c0_hinted_short_span():
    # realistic short sweep around the resonance of a 29.7% kt2 device
    m = roundtrip_model("L")
    fs = row("L").fs
    tr = synthesize_admittance(m, np.linspace(0.91 * fs, 1.35 * fs, 1201))
    cands = detect_resonances(tr)
    c0 = _c0_from_offresonance(tr, [c.span for c in cands], [c.fs_est for c in cands])
    assert c0 == pytest.approx(row("L").c0, rel=5e-3)


def test_c0_noise_robust():
    m = roundtrip_model("I")
    tr = noisy_trace(m, synthesis_grid("I"), noise_db=-100.0, seed=5)
    cands = detect_resonances(tr)
    c0 = _c0_from_offresonance(tr, [c.span for c in cands], [c.fs_est for c in cands])
    assert c0 == pytest.approx(row("I").c0, rel=5e-3)


def test_c0_all_excluded_raises():
    f = np.linspace(1e9, 2e9, 101)
    tr = ComplexTrace(freqs=f, values=1j * 2 * np.pi * f * 1e-13)
    with pytest.raises(EstimationError):
        _c0_from_offresonance(tr, [(0, 100)], [1.5e9])


def test_c0_too_few_points_clear_of_the_hints_raises():
    # three points survive the span, fewer than the hinted fit needs
    f = np.linspace(1e9, 2e9, 20)
    tr = ComplexTrace(freqs=f, values=1j * 2 * np.pi * f * 1e-13)
    with pytest.raises(EstimationError, match=r"only 3 off-resonance points lie clear of the "
                                              r"seeded resonances at 1\.5e\+09 Hz; .* needs 4"):
        _c0_from_offresonance(tr, [(3, 19)], [1.5e9])


def test_c0_hinted_inductive_background_raises():
    # susceptance falling with frequency has no capacitive static term
    f = np.linspace(1e9, 2e9, 101)
    tr = ComplexTrace(freqs=f, values=-1j * 2 * np.pi * f * 1e-13)
    with pytest.raises(InductiveBackgroundError) as exc:
        _c0_from_offresonance(tr, [(40, 60)], [1.5e9])
    assert exc.value.slope == pytest.approx(-1e-13, rel=1e-9)


# ------------------------------------------------------------- phase slope

def test_q_phase_slope_bare_branch():
    # with a vanishing shunt capacitance the loaded Q equals the branch Q
    b = branch_from_metrics(1e9, 200.0, 0.05, 100e-15)
    m = MbvdModel(c0=1e-19, r0=0.0, rs=0.0, branches=(b,))
    g = np.linspace(0.995e9, 1.005e9, 2001)
    q = q_from_phase_slope(synthesize_admittance(m, g), 1e9)
    assert q == pytest.approx(200.0, rel=1e-3)


def test_q_phase_slope_constant_phase_is_zero():
    g = np.linspace(0.9e9, 1.1e9, 2001)
    tr = ComplexTrace(freqs=g, values=np.full(g.size, 3.0 + 4.0j))
    assert q_from_phase_slope(tr, 1e9) == pytest.approx(0.0, abs=1e-6)


def test_q_phase_slope_scales_with_q():
    for q_true in (50.0, 500.0, 5000.0):
        b = branch_from_metrics(1e9, q_true, 0.05, 100e-15)
        m = MbvdModel(c0=1e-19, r0=0.0, rs=0.0, branches=(b,))
        half = 1e9 / q_true
        g = np.linspace(1e9 - half, 1e9 + half, 2001)
        q = q_from_phase_slope(synthesize_admittance(m, g), 1e9)
        assert q == pytest.approx(q_true, rel=2e-3)


def test_q_phase_slope_requires_f0_in_grid():
    g = np.linspace(1e9, 2e9, 101)
    tr = ComplexTrace(freqs=g, values=1j * g)
    with pytest.raises(ValueError):
        q_from_phase_slope(tr, 3e9)


def test_q_phase_slope_requires_dense_window():
    # 11 points over a huge span cannot resolve the slope near f0
    g = np.linspace(0.5e9, 5e9, 11)
    tr = ComplexTrace(freqs=g, values=1j * g)
    with pytest.raises(ValueError, match="densify"):
        q_from_phase_slope(tr, 1e9)


def test_q_phase_slope_unwrap_failure():
    # alternating +-3 rad: every adjacent raw jump is 6 rad > pi
    g = np.linspace(0.99e9, 1.01e9, 64)
    phase = 3.0 * (-1.0) ** np.arange(g.size)
    tr = ComplexTrace(freqs=g, values=np.exp(1j * phase))
    with pytest.raises(PhaseUnwrapError):
        q_from_phase_slope(tr, 1e9)


# ----------------------------------------------------------------- seeding

def test_initial_guess_single_branch():
    m = roundtrip_model("L")
    tr = synthesize_admittance(m, synthesis_grid("L"))
    seed = initial_guess(tr, detect_resonances(tr))
    r = row("L")
    b_true = m.branches[0]
    b = seed.branches[0]
    assert b.fs == pytest.approx(r.fs, rel=1e-3)
    assert seed.c0 == pytest.approx(r.c0, rel=0.01)
    assert b.cm == pytest.approx(b_true.cm, rel=0.05)
    assert 0.5 < b.rm / b_true.rm < 2.0
    assert seed.r0 == 0.0
    assert seed.rs == 0.0


def test_initial_guess_two_branches_sorted():
    m = two_branch_model()
    grid = np.linspace(2.5e9, 4.2e9, 3001)
    tr = synthesize_admittance(m, grid)
    seed = initial_guess(tr, detect_resonances(tr))
    assert len(seed.branches) == 2
    assert seed.branches[0].fs < seed.branches[1].fs
    assert seed.branches[0].fs == pytest.approx(3.0e9, rel=1e-3)
    assert seed.branches[1].fs == pytest.approx(3.3e9, rel=1e-3)


def test_initial_guess_cm_fallback_without_notch():
    # a candidate with no antiresonance estimate seeds cm at 0.05 c0
    m = roundtrip_model("A")
    tr = synthesize_admittance(m, synthesis_grid("A"))
    cand = detect_resonances(tr)[0]
    blind = type(cand)(fs_est=cand.fs_est, fp_est=None, prominence_db=cand.prominence_db,
                       significance=cand.significance, span=cand.span)
    seed = initial_guess(tr, [blind])
    assert seed.branches[0].cm == pytest.approx(0.05 * seed.c0, rel=1e-9)


def test_initial_guess_requires_candidates():
    f = np.linspace(1e9, 2e9, 101)
    tr = ComplexTrace(freqs=f, values=1j * f * 1e-12)
    with pytest.raises(ValueError):
        initial_guess(tr, [])


def test_initial_guess_all_survey_rows():
    # seeding stays sane across the full coupling/quality range of the survey
    for label in "ABCDEFGHIJKLMNOPQRSTUV":
        m = roundtrip_model(label)
        tr = synthesize_admittance(m, synthesis_grid(label))
        seed = initial_guess(tr, detect_resonances(tr))
        r = row(label)
        assert seed.branches[0].fs == pytest.approx(r.fs, rel=2e-3), label
        assert seed.c0 == pytest.approx(r.c0, rel=0.05), label
