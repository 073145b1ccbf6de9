"""Electrode-overlap kernel against its per-gap reference.

``reference_transduce`` holds the loop over field gaps and the per-mode
``ModeCoupling`` generator.  Overlaps must match it bit for bit (compared as
uint64 so that signed zeros count), and coupling spectra and split studies
must carry the same values of the same types.
"""

from __future__ import annotations

import dataclasses
import os
import sys
import threading

import numpy as np
import pytest

import reference_transduce as ref
from resokit import transduce
from resokit.designkit import DeviceGeometry
from resokit.transduce import (
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
    check_against_gap_loop(topology, field, coverage)


@pytest.mark.parametrize("workers", (1, 2, 3))
def test_strain_overlaps_bit_equal_with_forced_worker_count(workers, monkeypatch):
    # 1 takes the serial path on any host, 2 and 3 the threaded one for the
    # large counts; 3 splits the modes into unequal spans
    monkeypatch.setattr(transduce, "_WORKERS", workers)
    for topology in ("lvr", "dlvr"):
        for field in transduce.FIELD_MODELS:
            check_against_gap_loop(topology, field, 0.5)


def check_against_gap_loop(topology, field, coverage):
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
        topology="lvr", plate_width=1.0,
        centers=(0.2, 0.8), widths=(0.2, 0.2), polarities=(-1, 1))
    idx = np.arange(1, 201)
    want = ref.strain_overlaps(layout, idx)
    assert np.count_nonzero(want == 0.0) > 2
    assert_bits_equal(strain_overlaps(layout, idx), want)
    for n in (2, 4):  # a single mode takes the one-column sum
        assert_bits_equal(strain_overlaps(layout, [n]), want[n - 1:n])


@pytest.mark.parametrize("workers", (2, 3, 5))
def test_strain_overlaps_threaded_spans_of_any_size(workers, monkeypatch):
    # every call goes parallel, so spans of one or two modes (summed by the
    # single-column branch) and more spans than modes both occur
    monkeypatch.setattr(transduce, "_WORKERS", workers)
    monkeypatch.setattr(transduce, "_PARALLEL_ELEMENTS", 0)
    for topology in ("lvr", "dlvr"):
        for field in transduce.FIELD_MODELS:
            for n in (3, 4, 17, 40):
                layout = build_layout(DeviceGeometry(
                    wavelength=LAM, topology=topology, n_elements=n, coverage=0.35))
                for idx in ([n], [n, n + 1], [7, 3, 3, 9000], list(range(1, 2 * n + 8))):
                    assert_bits_equal(strain_overlaps(layout, idx, field),
                                      ref.strain_overlaps(layout, idx, field))


def test_strain_overlaps_with_more_threads_than_cpus(monkeypatch):
    # disjoint slices of one output array, written by eight threads that the
    # interpreter switches between as often as it can
    monkeypatch.setattr(transduce, "_WORKERS", 8)
    layout = build_layout(DeviceGeometry(wavelength=LAM, topology="dlvr", n_elements=400))
    idx = np.arange(1, 2 * layout.design_index + 1)
    want = ref.strain_overlaps(layout, idx)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            assert_bits_equal(strain_overlaps(layout, idx), want)
    finally:
        sys.setswitchinterval(interval)


def test_threads_start_only_for_large_calls(monkeypatch):
    started = []

    class Recorded(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(transduce, "_WORKERS", 3)
    monkeypatch.setattr(threading, "Thread", Recorded)
    for n, threads in ((20, 0), (400, 2)):
        layout = build_layout(DeviceGeometry(wavelength=LAM, topology="dlvr", n_elements=n))
        strain_overlaps(layout, np.arange(1, 2 * n + 1))
        assert len(started) == threads
        assert not any(t.is_alive() for t in started)


def test_worker_count_falls_back_without_affinity(monkeypatch):
    if hasattr(os, "sched_getaffinity"):
        assert transduce._usable_cpus() == len(os.sched_getaffinity(0))
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert transduce._usable_cpus() == (os.cpu_count() or 1)
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert transduce._usable_cpus() == 1
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(transduce, "_WORKERS", transduce._usable_cpus())
    layout = build_layout(DeviceGeometry(wavelength=LAM, topology="lvr", n_elements=338))
    idx = np.arange(1, 2 * layout.design_index + 7)
    for field in transduce.FIELD_MODELS:
        assert_bits_equal(strain_overlaps(layout, idx, field), ref.strain_overlaps(layout, idx, field))
