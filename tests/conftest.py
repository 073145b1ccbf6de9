"""Shared fixtures: golden two-port files built from known models."""

from __future__ import annotations

import math

import numpy as np
import pytest

from resokit import ComplexTrace
from resokit.mbvd import MbvdModel, MotionalBranch, branch_from_metrics, synthesize_admittance
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
