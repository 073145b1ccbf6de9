"""Recovery on zoom grids: measurements that hold little besides the resonance.

A zoom grid (conftest.zoom_grid) runs from 0.97 fs to 1.03 fp in 801
points.  Each trace goes through the automatic pipeline
(detect_resonances, then select_branch_count), and a device counts as
recovered when the fit is within criterion 2's tolerances of the true
circuit (conftest.criterion_2_recovered).
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from resokit.errors import ToolkitError
from resokit.extract import detect_resonances
from resokit.fitkernel import select_branch_count
from resokit.mbvd import MbvdModel, branch_from_metrics
from resokit.refdata import SURVEY, roundtrip_model

from conftest import criterion_2_recovered, noisy_trace, zoom_grid

NOISE_DB = (-80.0, -40.0, -20.0)


def parameter_box():
    """150 one-branch models over the paper's range: fs 2-16 GHz, kt2 1-33%,
    Q_m 20-3,000 (log-uniform) and c0 10-200 fF."""
    rng = np.random.default_rng(7)
    models = []
    for _ in range(150):
        fs = rng.uniform(2e9, 16e9)
        kt2 = rng.uniform(0.01, 0.33)
        qm = math.exp(rng.uniform(math.log(20.0), math.log(3000.0)))
        c0 = rng.uniform(10e-15, 200e-15)
        models.append(MbvdModel(c0=c0, branches=(branch_from_metrics(fs, qm, kt2, c0),)))
    return models


def outcome(model, noise_db, seed):
    """'recovered', 'wrong' (a fit that is not) or 'refused' (an error)."""
    grid = zoom_grid(model)
    tr = noisy_trace(model, grid, noise_db=noise_db, seed=seed)
    try:
        fitted = select_branch_count(tr, detect_resonances(tr)).model
        return "recovered" if criterion_2_recovered(fitted, model, grid) else "wrong"
    except ToolkitError:
        return "refused"


@pytest.mark.parametrize("noise_db", NOISE_DB, ids=[f"{n:g}dB" for n in NOISE_DB])
def test_zoom_grid_recovers_every_survey_device(noise_db):
    # criterion 2's noise seeds (100 + survey index)
    missed = [row.label for i, row in enumerate(SURVEY)
              if outcome(roundtrip_model(row.label), noise_db, 100 + i) != "recovered"]
    assert missed == []


# lower bounds on the recovered models of the 150 per noise level; the
# others are refused (no candidate clears the noise), none is fitted wrong
BOX_ZOOM_RECOVERED = {-80.0: 141, -40.0: 141, -20.0: 144}


@pytest.mark.parametrize("noise_db", BOX_ZOOM_RECOVERED,
                         ids=[f"{n:g}dB" for n in BOX_ZOOM_RECOVERED])
def test_zoom_grid_recovers_the_parameter_box(noise_db):
    outcomes = [outcome(m, noise_db, 1000 + i) for i, m in enumerate(parameter_box())]
    assert outcomes.count("recovered") >= BOX_ZOOM_RECOVERED[noise_db]
    assert outcomes.count("wrong") == 0
