"""Workload inputs, generated in-process from the bundled survey.

Nothing here reads a data file: every input is built from
``refdata.roundtrip_model`` and ``refdata.synthesis_grid`` and written with
``write_touchstone``, so the program under test only ever sees the files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from resokit.designkit import DeviceGeometry
from resokit.mbvd import metrics_from_model, model_to_dict, synthesize_admittance
from resokit.netparams import ComplexTrace, series_element_network, write_touchstone, y_to_s
from resokit.refdata import SURVEY, roundtrip_model, synthesis_grid

# one device per survey family: S0/SH0 x lvr/dlvr
ROUNDTRIP_LABELS = ("A", "E", "L", "P")

# the electrode-count sweep of the modes workload
SWEEP_COUNTS = tuple(range(5, 401, 5))
SWEEP_TOPOLOGIES = ("lvr", "dlvr")
SWEEP_FIELDS = ("tophat", "delta")
SWEEP_WAVELENGTH = 1.8e-6
SWEEP_VP = 3426.0


@dataclass(frozen=True)
class Device:
    """One generated measurement: the file text and the generating model's metrics."""

    label: str
    draw: int
    text: str
    truth: dict  # ResonatorMetrics.as_dict() of the generating model


def noisy_trace(model, grid: np.ndarray, noise_db: float, seed: int) -> ComplexTrace:
    """Y(f) of the model plus complex white noise, acceptance criterion 2's recipe.

    The noise level is relative to the median |Y| of the clean trace.
    """
    trace = synthesize_admittance(model, grid)
    rng = np.random.default_rng(seed)
    scale = np.median(np.abs(trace.values)) * 10.0 ** (noise_db / 20.0)
    noise = rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size)
    return ComplexTrace(freqs=trace.freqs, values=trace.values + scale * noise / np.sqrt(2.0))


def survey_corpus(seed: int, noise_db: float, fmt: str, unit: str, draws: int = 1) -> list[Device]:
    """The 22 survey devices as series two-port files, ``draws`` noise draws of each.

    Draw j of device i uses noise seed ``seed + i + 1000 j``, so draw 0 of
    seed 100 is acceptance criterion 2's corpus. Draws after the first are
    labelled ``A-1``, ``A-2``, ...
    """
    devices = []
    for i, row in enumerate(SURVEY):
        model = roundtrip_model(row.label)
        grid = synthesis_grid(row.label)
        truth = metrics_from_model(model, grid).as_dict()
        for j in range(draws):
            trace = noisy_trace(model, grid, noise_db, seed + i + 1000 * j)
            text = write_touchstone(y_to_s(series_element_network(trace)), fmt=fmt, unit=unit)
            devices.append(Device(row.label if j == 0 else f"{row.label}-{j}", j, text, truth))
    return devices


def write_corpus(devices: list[Device], directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for dev in devices:
        (directory / f"{dev.label}.s2p").write_text(dev.text)


@dataclass(frozen=True)
class RoundTrip:
    """A model JSON for ``resokit synth`` and the grid spec it is synthesized on."""

    label: str
    model_path: Path
    grid_spec: str
    truth: dict


def roundtrip_inputs(directory: Path) -> list[RoundTrip]:
    """Noise-free fixed-point inputs (criterion 8); they do not depend on the seed."""
    directory.mkdir(parents=True, exist_ok=True)
    out = []
    for label in ROUNDTRIP_LABELS:
        model = roundtrip_model(label)
        grid = synthesis_grid(label)
        path = directory / f"{label}.json"
        path.write_text(json.dumps(model_to_dict(model), indent=2, sort_keys=True) + "\n")
        spec = f"{float(grid[0])!r}:{float(grid[-1])!r}:{grid.size}"
        out.append(RoundTrip(label, path, spec, metrics_from_model(model, grid).as_dict()))
    return out


def sweep_geometries() -> list[tuple[str, DeviceGeometry]]:
    """(field model, geometry) for every point of the modes sweep, 320 in all."""
    return [(field, DeviceGeometry(wavelength=SWEEP_WAVELENGTH, topology=topo,
                                   n_elements=n, coverage=0.5))
            for topo in SWEEP_TOPOLOGIES for field in SWEEP_FIELDS for n in SWEEP_COUNTS]
