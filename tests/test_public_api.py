"""The package's public surface, pinned: a new export must be a deliberate edit."""

from __future__ import annotations

import resokit

PUBLIC_NAMES = [
    "ComplexTrace",
    "DegenerateCouplingError",
    "DeviceGeometry",
    "ElectrodeLayout",
    "EstimationError",
    "Finding",
    "FitError",
    "FitOptions",
    "FitResult",
    "GeometryError",
    "InductiveBackgroundError",
    "MbvdModel",
    "ModeCoupling",
    "ModeSpectrum",
    "MotionalBranch",
    "NetworkRecord",
    "PhaseUnwrapError",
    "PlanEntry",
    "ProcessRules",
    "ResonanceCandidate",
    "ResonatorMetrics",
    "SingularNetworkError",
    "SplitRecord",
    "TableReport",
    "ToolkitError",
    "TouchstoneError",
    "branch_from_metrics",
    "build_layout",
    "c0_from_offresonance",
    "calibrate_velocity",
    "check_lithography",
    "default_bounds",
    "detect_resonances",
    "device_admittance",
    "fit",
    "initial_guess",
    "jacobian",
    "kt2_from_frequencies",
    "metrics_from_model",
    "mode_couplings",
    "model_from_dict",
    "model_to_dict",
    "parse_touchstone",
    "plan_bank",
    "predict_fs",
    "q_from_phase_slope",
    "render_table",
    "residuals",
    "s_to_y",
    "select_branch_count",
    "series_element_network",
    "spectrum_to_mbvd",
    "split_study",
    "strain_overlaps",
    "synthesize_admittance",
    "velocity_outliers",
    "write_touchstone",
    "y_to_s",
]

# deleted, or moved into tests/ as oracles
REMOVED = ["Kt2Convention", "resonance_frequencies", "fit_multistart", "strain_overlaps_numeric"]


def test_public_names_are_pinned():
    assert sorted(resokit.__all__) == PUBLIC_NAMES


def test_public_names_are_unique_and_resolve():
    assert len(set(resokit.__all__)) == len(resokit.__all__)
    for name in resokit.__all__:
        assert getattr(resokit, name) is not None, name


def test_removed_names_are_gone():
    from resokit import fitkernel, mbvd, transduce

    for name in REMOVED:
        assert name not in resokit.__all__
        assert not hasattr(resokit, name), name
        for module in (mbvd, fitkernel, transduce):
            assert not hasattr(module, name), (module.__name__, name)
