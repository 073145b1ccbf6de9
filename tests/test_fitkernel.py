"""Levenberg-Marquardt engine tests: residuals, Jacobian, fit, model order."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from resokit import fitkernel
from resokit.errors import EstimationError
from resokit.extract import detect_resonances, initial_guess
from resokit.fitkernel import (
    fit,
    jacobian,
    param_names,
    residuals,
    seed_from_strongest,
    select_branch_count,
)
from resokit.mbvd import (
    MbvdModel,
    MotionalBranch,
    branch_from_metrics,
    metrics_from_model,
    synthesize_admittance,
)
from resokit.netparams import ComplexTrace
from resokit.refdata import SURVEY, roundtrip_model, synthesis_grid

from conftest import PAIR_GRID, noisy_trace, pair_model


def one_branch(fs=1.87e9, qm=1143.0, kt2=0.297, c0=51.4e-15, r0=0.4, rs=0.9):
    return MbvdModel(c0=c0, r0=r0, rs=rs,
                     branches=(branch_from_metrics(fs, qm, kt2, c0),))


def random_model(rng, n_branches=1):
    fs_list = np.sort(rng.uniform(1e9, 6e9, n_branches))
    while np.any(np.diff(fs_list) < 0.15e9):
        fs_list = np.sort(rng.uniform(1e9, 6e9, n_branches))
    c0 = float(rng.uniform(2e-14, 2e-13))
    branches = tuple(
        branch_from_metrics(float(f), float(rng.uniform(50.0, 2000.0)),
                            float(rng.uniform(0.02, 0.30)), c0)
        for f in fs_list
    )
    return MbvdModel(c0=c0, r0=float(rng.uniform(0.05, 2.0)),
                     rs=float(rng.uniform(0.05, 2.0)), branches=branches)


def perturb_param(model, idx, factor):
    """Multiply one packed parameter by factor, keeping the others fixed."""
    name = param_names(len(model.branches))[idx]
    c0, r0, rs = model.c0, model.r0, model.rs
    branches = list(model.branches)
    if name == "c0":
        c0 *= factor
    elif name == "r0":
        r0 *= factor
    elif name == "rs":
        rs *= factor
    else:
        k = int(name[1:name.index(".")])
        field = name.split(".")[1]
        b = branches[k]
        rm, cm, fs = b.rm, b.cm, b.fs
        if field == "rm":
            rm *= factor
        elif field == "fs":
            fs *= factor
        elif field == "cm":
            cm *= factor
        # lm is derived so that fs and cm stay the free coordinates
        lm = 1.0 / ((2 * math.pi * fs) ** 2 * cm)
        branches[k] = MotionalBranch(rm=rm, lm=lm, cm=cm)
    return MbvdModel(c0=c0, r0=r0, rs=rs, branches=tuple(branches))


def fd_jacobian(model, trace, h=2e-5):
    """Seven-point central differences in log-parameter space.

    h must stay well under the narrowest fractional linewidth 1/(2 Q)
    or the stencil truncation error swamps the comparison.
    """
    n = len(param_names(len(model.branches)))
    cols = []
    stencil = ((-3, -1.0), (-2, 9.0), (-1, -45.0), (1, 45.0), (2, -9.0), (3, 1.0))
    for i in range(n):
        acc = np.zeros(2 * trace.npoints)
        for k, w in stencil:
            acc += w * residuals(perturb_param(model, i, math.exp(k * h)), trace)
        cols.append(acc / (60.0 * h))
    return np.column_stack(cols)


# --------------------------------------------------------------- residuals

def test_residuals_zero_for_generator():
    m = one_branch()
    tr = noisy_trace(m, np.linspace(1.7e9, 3.9e9, 401))
    r = residuals(m, tr)
    assert np.max(np.abs(r)) < 1e-12


def test_residuals_length_two_per_point():
    m = one_branch()
    tr = noisy_trace(m, np.linspace(1.7e9, 3.9e9, 137))
    assert residuals(m, tr).shape == (274,)


def test_residuals_grow_when_rm_doubles():
    m = one_branch()
    tr = noisy_trace(m, np.linspace(1.7e9, 3.9e9, 401))
    wrong = perturb_param(m, 3, 2.0)
    assert param_names(1)[3] == "b0.rm"
    r0 = residuals(m, tr)
    r1 = residuals(wrong, tr)
    assert float(r1 @ r1) > float(r0 @ r0)


# ---------------------------------------------------------------- jacobian

def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(42)
    worst = 0.0
    for trial in range(50):
        n_b = 1 + trial % 2
        m = random_model(rng, n_branches=n_b)
        f_lo = min(b.fs for b in m.branches)
        f_hi = max(b.fs for b in m.branches)
        grid = np.linspace(0.85 * f_lo, 1.35 * f_hi, 64)
        tr = noisy_trace(m, grid, noise_db=-70.0, seed=trial)
        j_an = jacobian(m, tr)
        j_fd = fd_jacobian(m, tr)
        rel = np.max(np.abs(j_an - j_fd)) / max(np.max(np.abs(j_fd)), 1e-30)
        worst = max(worst, rel)
    assert worst < 1e-5


@pytest.mark.parametrize("n_b", [3, 5])
def test_jacobian_matches_finite_differences_for_more_branches(n_b):
    # each branch's columns read its own row of the admittance; five branches
    # also sum in the fixed fs order that np.sum would have paired up
    rng = np.random.default_rng(100 + n_b)
    worst = 0.0
    for trial in range(10):
        m = random_model(rng, n_branches=n_b)
        grid = np.linspace(0.85 * m.branches[0].fs, 1.35 * m.branches[-1].fs, 96)
        tr = noisy_trace(m, grid, noise_db=-70.0, seed=trial)
        j_an = jacobian(m, tr)
        j_fd = fd_jacobian(m, tr)
        assert j_an.shape == (2 * grid.size, 3 + 3 * n_b)
        rel = np.max(np.abs(j_an - j_fd)) / max(np.max(np.abs(j_fd)), 1e-30)
        worst = max(worst, rel)
    assert worst < 1e-5


def test_jacobian_shape():
    m = random_model(np.random.default_rng(1), n_branches=2)
    grid = np.linspace(1e9, 7e9, 33)
    tr = noisy_trace(m, grid)
    assert jacobian(m, tr).shape == (66, 9)
    assert param_names(2) == ["c0", "r0", "rs", "b0.rm", "b0.fs", "b0.cm",
                              "b1.rm", "b1.fs", "b1.cm"]


# --------------------------------------------------------------------- fit

def test_fit_generator_seed_converges_immediately():
    m = one_branch()
    tr = noisy_trace(m, np.linspace(1.7e9, 3.9e9, 401))
    res = fit(tr, m)
    assert res.converged
    assert res.iterations <= 2
    # the floor is float rounding at the resonance peak, not zero
    assert res.cost < 1e-17
    assert res.residual_rms < 1e-9


def test_fit_recovers_perturbed_seed():
    # fs detunes by a fraction of the 1/(2 Q) linewidth, as a detector
    # seed would be; the amplitude parameters start far off
    m = one_branch()
    tr = noisy_trace(m, np.linspace(1.7e9, 3.9e9, 801))
    seed = perturb_param(m, 4, 1.0 + 1e-4)
    seed = perturb_param(seed, 3, 3.0)    # rm x3
    seed = perturb_param(seed, 5, 0.7)    # cm x0.7
    res = fit(tr, seed)
    assert res.converged
    b = res.model.branches[0]
    b_true = m.branches[0]
    assert b.fs == pytest.approx(b_true.fs, rel=1e-8)
    assert b.rm == pytest.approx(b_true.rm, rel=1e-6)
    assert b.cm == pytest.approx(b_true.cm, rel=1e-6)
    assert res.model.c0 == pytest.approx(m.c0, rel=1e-6)


def test_fit_cost_trace_non_increasing():
    m = one_branch()
    tr = noisy_trace(m, np.linspace(1.7e9, 3.9e9, 801), noise_db=-80.0, seed=2)
    seed = perturb_param(m, 4, 1.0 + 2e-4)
    res = fit(tr, seed)
    trace = np.asarray(res.cost_trace)
    assert trace.size >= 1
    assert np.all(np.diff(trace) <= 1e-30)


def test_fit_deterministic():
    m = one_branch()
    tr = noisy_trace(m, np.linspace(1.7e9, 3.9e9, 401), noise_db=-80.0, seed=4)
    seed = perturb_param(m, 3, 2.0)
    a = fit(tr, seed)
    b = fit(tr, seed)
    assert a.cost == b.cost
    assert a.iterations == b.iterations
    assert a.model.c0 == b.model.c0
    assert a.model.branches[0].rm == b.model.branches[0].rm
    assert a.model.branches[0].lm == b.model.branches[0].lm


def test_fit_subsampling_stability():
    m = one_branch()
    grid = np.linspace(1.7e9, 3.9e9, 1601)
    tr = noisy_trace(m, grid, noise_db=-80.0, seed=6)
    seed = perturb_param(m, 4, 1.0 + 1e-4)
    full = fit(tr, seed)
    half = fit(type(tr)(freqs=tr.freqs[::2], values=tr.values[::2]), seed)
    assert half.model.branches[0].fs == pytest.approx(full.model.branches[0].fs, rel=1e-3)
    assert half.model.branches[0].cm == pytest.approx(full.model.branches[0].cm, rel=1e-3)
    assert half.model.c0 == pytest.approx(full.model.c0, rel=1e-3)


def test_default_bounds_layout():
    m = one_branch(r0=0.0, rs=0.0)
    tr = noisy_trace(m, np.linspace(1.7e9, 3.9e9, 401))
    bd = np.exp(np.column_stack(fitkernel._search_box(tr, m)))
    names = param_names(1)
    assert bd.shape == (len(names), 2)
    assert np.all(bd[:, 0] < bd[:, 1])
    i_fs = names.index("b0.fs")
    assert bd[i_fs, 0] == pytest.approx(0.9 * m.branches[0].fs)
    assert bd[i_fs, 1] == pytest.approx(1.1 * m.branches[0].fs)
    i_c0 = names.index("c0")
    assert bd[i_c0, 0] == pytest.approx(m.c0 / 3.0)
    assert bd[i_c0, 1] == pytest.approx(3.0 * m.c0)
    i_cm = names.index("b0.cm")
    assert bd[i_cm, 0] == pytest.approx(m.branches[0].cm / 1e4)
    assert bd[i_cm, 1] == pytest.approx(m.branches[0].cm * 1e4)


def test_fit_rejects_seed_without_an_open_box():
    # c0 = inf makes the c0 row of the box [inf, inf]
    m = one_branch()
    tr = noisy_trace(m, np.linspace(1.7e9, 3.9e9, 401))
    seed = MbvdModel(c0=math.inf, r0=m.r0, rs=m.rs, branches=m.branches)
    with pytest.raises(ValueError, match=r"seed gives c0 no open search box: \[inf, inf\]"):
        fit(tr, seed)


@pytest.mark.parametrize("case", ["noisy", "exhaust_damping", "exact_seed"])
def test_fit_jacobian_is_taken_where_it_is_used(monkeypatch, case):
    m = one_branch()
    grid = np.linspace(1.7e9, 3.9e9, 401)
    if case == "exact_seed":
        # the values the fit computes at the seed itself: the cost there is 0
        values = fitkernel._admittance(grid, fitkernel._unpack(fitkernel._pack(m))).y
        tr, seed = ComplexTrace(grid, values), m
    else:
        tr = noisy_trace(m, grid, noise_db=-60.0, seed=10)
        seed = perturb_param(m, 3, 2.0)
    norm = fitkernel._norm(tr)
    taken = []  # (parameters, matrix) of every Jacobian the fit takes
    jacobian_at = fitkernel._jacobian

    def spy(adm, params, norm):
        jac = jacobian_at(adm, params, norm)
        taken.append((params, jac.copy()))
        return jac

    monkeypatch.setattr(fitkernel, "_jacobian", spy)
    if case == "exhaust_damping":
        # every point scored after the first Jacobian looks worse than the
        # seed, so damping runs out and the last point scored is a rejected one
        score = fitkernel._residuals

        def worse(adm, trace, norm):
            r = score(adm, trace, norm)
            return r if not taken else np.full_like(r, 1e3)

        monkeypatch.setattr(fitkernel, "_residuals", worse)

    res = fit(tr, seed)
    monkeypatch.undo()
    if case == "exhaust_damping":
        assert (res.iterations, res.converged) == (1, False)
    if case == "exact_seed":
        assert (res.cost, res.iterations, res.converged) == (0.0, 0, True)
    for params, jac in taken:
        fresh = fitkernel._jacobian(fitkernel._admittance(tr.freqs, params), params, norm)
        assert jac.tobytes() == fresh.tobytes()
    # one Jacobian per iteration, none after the loop
    assert len(taken) == res.iterations


# ----------------------------------------------------------- model order

def test_select_branch_count_ignores_spurious_candidate():
    m = one_branch()
    grid = np.linspace(1.7e9, 3.9e9, 1201)
    tr = noisy_trace(m, grid, noise_db=-80.0, seed=12)
    real = detect_resonances(tr)
    assert len(real) == 1
    # a noise-sized ghost: 3 sigma high, under the 7 sigma admission level
    ghost = type(real[0])(fs_est=3.5e9, fp_est=None, prominence_db=1.0,
                          significance=3.0, span=(1000, 1040))
    res = select_branch_count(tr, [real[0], ghost])
    assert len(res.model.branches) == 1


def test_select_branch_count_admits_none_of_the_detectors_noise_candidates(monkeypatch):
    # at -20 dB every survey trace has dozens of 3 dB noise candidates, and
    # exactly one candidate, on the resonance, clears the noise
    for i, r in enumerate(SURVEY):
        model, grid = roundtrip_model(r.label), synthesis_grid(r.label)
        cands = detect_resonances(noisy_trace(model, grid, noise_db=-20.0, seed=100 + i))
        admitted = [c for c in cands if c.significance >= 7.0]
        assert len(cands) > 10 and len(admitted) == 1, r.label
        # within the resonance's half width fs / (2 Q)
        truth = metrics_from_model(model, grid)
        assert abs(admitted[0].fs_est - truth.fs) <= truth.fs / (2 * truth.qm), r.label
    # one fit of one branch, whatever the number of candidates
    calls = []
    monkeypatch.setattr(fitkernel, "fit", lambda *a: calls.append(a) or fit(*a))
    tr = noisy_trace(one_branch(), np.linspace(1.7e9, 3.9e9, 1201), noise_db=-20.0, seed=12)
    cands = detect_resonances(tr)
    assert len(cands) > 10
    res = select_branch_count(tr, cands)
    assert len(res.model.branches) == 1 and len(calls) == 1
    assert metrics_from_model(res.model, tr.freqs).fs == pytest.approx(1.87e9, rel=1e-4)


def test_automatic_fits_at_the_grid_edge_are_right_or_refused():
    # each survey row on a grid starting at 0.999 fs, at -40 dB: the real
    # resonance sits on the first samples and makes no peak on most rows,
    # where noise candidates once seeded fits 5-20% above fs (rows B F H N)
    refused = []
    for i, r in enumerate(SURVEY):
        model = roundtrip_model(r.label)
        top = synthesis_grid(r.label)
        fs = metrics_from_model(model, top).fs
        grid = np.linspace(0.999 * fs, top[-1], top.size)
        tr = noisy_trace(model, grid, noise_db=-40.0, seed=100 + i)
        cands = detect_resonances(tr)
        if not cands:
            continue
        try:
            res = select_branch_count(tr, cands)
        except EstimationError:
            refused.append(r.label)
            continue
        assert abs(metrics_from_model(res.model, tr.freqs).fs - fs) <= 1e-3 * fs, r.label
    # G's resonance is a 1.05 sigma candidate: refused, though it once fitted
    assert refused == ["B", "F", "G", "H", "N"]


def test_one_branch_seed_lands_on_the_dominant_branch_of_a_pair():
    # the 3.3 GHz peak rises from the 3.0 GHz notch, so it has the larger
    # dB prominence but the smaller height in linear |Y|; the plain k = 1
    # fit must land on 3.0 GHz at every coupling, noise level and draw
    missed = []
    for coupling in (5.0, 20.0, 100.0):
        for noise_db in (-80.0, -40.0, -20.0):
            for seed in range(11, 17):
                tr = noisy_trace(pair_model(coupling), PAIR_GRID, noise_db=noise_db, seed=seed)
                res = fit(tr, seed_from_strongest(tr, detect_resonances(tr), 1))
                fs = metrics_from_model(res.model, tr.freqs).fs
                if abs(fs - 3.0e9) > 1e-3 * 3.0e9:
                    missed.append((coupling, noise_db, seed, fs))
    assert missed == []


def test_select_branch_count_keeps_real_pair():
    tr = noisy_trace(pair_model(), PAIR_GRID)
    res = select_branch_count(tr, detect_resonances(tr))
    assert len(res.model.branches) == 2
    fs_fit = sorted(b.fs for b in res.model.branches)
    assert fs_fit[0] == pytest.approx(3.0e9, rel=5e-4)
    assert fs_fit[1] == pytest.approx(3.3e9, rel=5e-4)


def test_seed_ignores_the_spans_of_candidates_it_does_not_seed():
    # a weak candidate whose span covers most of the grid leaves the seed
    # of the strongest one as it is
    m = one_branch()
    tr = noisy_trace(m, np.linspace(1.7e9, 3.9e9, 1201), noise_db=-80.0, seed=12)
    real = detect_resonances(tr)[0]
    wide = type(real)(fs_est=3.5e9, fp_est=None, prominence_db=1.0, significance=1.0,
                      span=(0, 1150))
    assert seed_from_strongest(tr, [real, wide], 1) == initial_guess(tr, [real])


# recovered devices of 66 (22 survey rows x 3 noise draws) per noise level
RECOVERED = {-80.0: 66, -40.0: 66, -20.0: 66, -15.0: 66, -10.0: 57}


@pytest.mark.parametrize("noise_db", RECOVERED, ids=[f"{n:g}dB" for n in RECOVERED])
def test_select_branch_count_recovers_the_survey_under_noise(noise_db):
    # recovery within criterion 2's tolerances (fs 1e-4, kt2 0.02, qm 0.05,
    # c0 0.01 relative); seeding excludes only the seeded candidates' spans
    # from the background estimate, so the spans of noise candidates cannot
    # starve it
    recovered = 0
    for draw in range(3):
        for i, row in enumerate(SURVEY):
            model = roundtrip_model(row.label)
            grid = synthesis_grid(row.label)
            tr = noisy_trace(model, grid, noise_db=noise_db, seed=100 + i + 1000 * draw)
            met = metrics_from_model(select_branch_count(tr, detect_resonances(tr)).model, tr.freqs)
            truth = metrics_from_model(model, grid)
            # relative only: pytest.approx's absolute 1e-12 would pass any c0
            recovered += (met.kt2 is not None
                          and abs(met.fs - truth.fs) <= 1e-4 * truth.fs
                          and abs(met.kt2 - truth.kt2) <= 0.02 * truth.kt2
                          and abs(met.qm - truth.qm) <= 0.05 * truth.qm
                          and abs(met.c0 - truth.c0) <= 0.01 * truth.c0)
    assert recovered == RECOVERED[noise_db]


@pytest.mark.parametrize("draw", [1, 2])
def test_survey_b_at_minus_20_db_seeds_on_its_resonance(draw):
    # at -20 dB a noise peak by B's notch has a larger dB prominence than
    # B's resonance, but a smaller height in linear |Y|
    i = next(i for i, row in enumerate(SURVEY) if row.label == "B")
    model, grid = roundtrip_model("B"), synthesis_grid("B")
    tr = noisy_trace(model, grid, noise_db=-20.0, seed=100 + i + 1000 * draw)
    truth = metrics_from_model(model, grid).fs
    cands = detect_resonances(tr)
    assert len(select_branch_count(tr, cands).model.branches) == 1
    res = fit(tr, seed_from_strongest(tr, cands, 1))
    assert abs(metrics_from_model(res.model, tr.freqs).fs - truth) <= 1e-4 * truth


def test_select_branch_count_requires_candidates():
    m = one_branch()
    tr = noisy_trace(m, np.linspace(1.7e9, 3.9e9, 401))
    weak = [replace(c, significance=6.99) for c in detect_resonances(tr)]
    assert weak
    for cands in ([], weak):
        with pytest.raises(EstimationError, match="^no resonance candidate clears the noise$"):
            select_branch_count(tr, cands)
