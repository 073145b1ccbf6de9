"""Electrode-overlap kernel against its per-gap reference.

``reference_transduce`` holds the loop over field gaps and the per-mode
``ModeCoupling`` generator.  Overlaps must match it bit for bit (compared as
uint64 so that signed zeros count), and coupling spectra and split studies
must carry the same values of the same types.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import reference_transduce as ref
from resokit import transduce
from resokit.designkit import DeviceGeometry
from resokit.transduce import (
    Electrode,
    ElectrodeLayout,
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


def assert_bits_equal(a: np.ndarray, b: np.ndarray) -> None:
    assert a.shape == b.shape and a.dtype == b.dtype
    assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


def index_sets(d: int) -> list[list[int]]:
    return [list(range(1, 2 * d + 7)), [d], [d - 1, d, d + 1], [7, 3, 3, 9000]]


@pytest.mark.parametrize("coverage", (0.2, 0.5, 0.8))
@pytest.mark.parametrize("field", transduce.FIELD_MODELS)
@pytest.mark.parametrize("topology", ("lvr", "dlvr"))
def test_strain_overlaps_bit_equal_to_gap_loop(topology, field, coverage):
    for n in COUNTS:
        layout = build_layout(DeviceGeometry(
            wavelength=LAM, topology=topology, n_elements=n, coverage=coverage))
        for idx in index_sets(layout.design_index):
            if min(idx) < 1:
                # lvr N=2 has design index 1, so its neighbour set holds 0
                with pytest.raises(ValueError, match="start at 1"):
                    ref.strain_overlaps(layout, idx, field)
                with pytest.raises(ValueError, match="start at 1"):
                    strain_overlaps(layout, idx, field)
                continue
            assert_bits_equal(strain_overlaps(layout, idx, field),
                              ref.strain_overlaps(layout, idx, field))


def _fields(spectrum) -> list[str]:
    # repr keeps signed zeros and shows a numpy scalar where a Python one belongs
    return [repr(dataclasses.astuple(m)) for m in spectrum.modes]


def _recorded(spectra: list, fn):
    def wrapper(*args, **kwargs):
        spectrum = fn(*args, **kwargs)
        spectra.append(_fields(spectrum))
        return spectrum
    return wrapper


@pytest.mark.parametrize("field", transduce.FIELD_MODELS)
@pytest.mark.parametrize("topology", ("lvr", "dlvr"))
def test_mode_couplings_and_split_study_match_reference(topology, field, monkeypatch):
    geoms = [DeviceGeometry(wavelength=LAM, topology=topology, n_elements=n, coverage=0.5)
             for n in SWEEP_COUNTS]
    runs = []
    for couplings in (mode_couplings, ref.mode_couplings):
        spectra: list = []
        monkeypatch.setattr(transduce, "mode_couplings", _recorded(spectra, couplings))
        records = split_study(geoms, V_P, field_model=field)
        runs.append((spectra, [repr(rec.as_dict()) for rec in records]))
    assert len(runs[0][0]) == len(geoms)
    assert runs[0] == runs[1]


def test_strain_overlaps_zero_sum_is_positive_zero():
    # one gap symmetric about the plate centre: even modes cancel exactly, and
    # a negative first finger turns that 0.0 into -0.0 before the sum
    layout = ElectrodeLayout(
        topology="lvr", wavelength=1.0, coverage=0.5, plate_width=1.0,
        electrodes=(Electrode(0.2, 0.2, -1), Electrode(0.8, 0.2, 1)))
    idx = np.arange(1, 201)
    want = ref.strain_overlaps(layout, idx)
    assert np.count_nonzero(want == 0.0) > 2
    assert_bits_equal(strain_overlaps(layout, idx), want)
