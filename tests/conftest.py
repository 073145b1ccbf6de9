"""Shared fixtures: golden two-port files built from known models."""

from __future__ import annotations

import math

import numpy as np
import pytest

from resokit import ComplexTrace
from resokit.mbvd import (
    MbvdModel,
    MotionalBranch,
    branch_from_metrics,
    metrics_from_model,
    synthesize_admittance,
)
from resokit.netparams import (
    device_admittance,
    parse_touchstone,
    s_to_y,
    series_element_network,
    write_touchstone,
    y_to_s,
)
from resokit.refdata import roundtrip_model, synthesis_grid


def pair_model(coupling=5.0):
    """Criterion 3's pair: 3.0 GHz (Q 500, kt2 0.10) and 3.3 GHz with
    1/coupling of its motional capacitance."""
    b1 = branch_from_metrics(3.0e9, 500.0, 0.10, 100e-15)
    cm2 = b1.cm / coupling
    lm2 = 1.0 / ((2 * math.pi * 3.3e9) ** 2 * cm2)
    b2 = MotionalBranch(rm=2 * math.pi * 3.3e9 * lm2 / 500.0, lm=lm2, cm=cm2)
    return MbvdModel(c0=100e-15, r0=0.0, rs=0.0, branches=(b1, b2))


PAIR_GRID = np.linspace(2.5e9, 4.2e9, 3001)


def zoom_grid(model):
    """0.97 fs to 1.03 fp of a one-branch model in 801 points, about as a
    measurement zoomed on its resonance is taken."""
    b = model.branches[0]
    fp = b.fs * math.sqrt(1.0 + b.cm / model.c0)
    return np.linspace(0.97 * b.fs, 1.03 * fp, 801)


def noisy_trace(model, grid, noise_db=None, seed=0):
    """Synthesize Y(f) and optionally add complex white noise.

    noise_db is relative to the median |Y| of the clean trace.
    """
    trace = synthesize_admittance(model, grid)
    if noise_db is None:
        return trace
    rng = np.random.default_rng(seed)
    scale = np.median(np.abs(trace.values)) * 10.0 ** (noise_db / 20.0)
    noise = rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size)
    return ComplexTrace(freqs=trace.freqs, values=trace.values + scale * noise / np.sqrt(2.0))


def criterion_2_recovered(fitted, truth, grid):
    """Whether the fitted model's metrics on grid match the true model's
    within criterion 2's tolerances (fs 1e-4, kt2 0.02, qm 0.05, c0 0.01),
    relative only: pytest.approx's absolute 1e-12 would pass any c0.  A kt2
    matches only if both are reported or neither is."""
    met, want = metrics_from_model(fitted, grid), metrics_from_model(truth, grid)
    if (met.kt2 is None) != (want.kt2 is None):
        return False
    return (abs(met.fs - want.fs) <= 1e-4 * want.fs
            and (want.kt2 is None or abs(met.kt2 - want.kt2) <= 0.02 * want.kt2)
            and abs(met.qm - want.qm) <= 0.05 * want.qm
            and abs(met.c0 - want.c0) <= 0.01 * want.c0)


def golden_text(model, grid, fmt="RI", unit="GHz", noise_db=None, seed=0):
    """Touchstone text for a model embedded as a series two-port element."""
    trace = noisy_trace(model, grid, noise_db=noise_db, seed=seed)
    return write_touchstone(y_to_s(series_element_network(trace)), fmt=fmt, unit=unit)


def survey_trace(label, index, noise_db):
    """Device admittance of survey row `label` read back through Touchstone
    text, with criterion 2's noise seed (100 + survey index)."""
    text = golden_text(roundtrip_model(label), synthesis_grid(label),
                       noise_db=noise_db, seed=100 + index)
    return device_admittance(s_to_y(parse_touchstone(text)))


@pytest.fixture
def golden_s2p(tmp_path):
    """Writer returning the path of a synthetic .s2p with a known model inside."""

    def make(model, grid, fmt="RI", unit="GHz", name="golden.s2p", noise_db=None, seed=0):
        path = tmp_path / name
        path.write_text(golden_text(model, grid, fmt=fmt, unit=unit, noise_db=noise_db, seed=seed))
        return path

    return make
