"""The package's public surface, pinned: a new export must be a deliberate edit."""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import pkgutil

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
    "calibrate_velocity",
    "check_lithography",
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
REMOVED = ["Kt2Convention", "resonance_frequencies", "fit_multistart", "strain_overlaps_numeric",
           "default_bounds", "c0_from_offresonance"]

# every value a library caller can set by leaving out an argument: the
# defaulted parameters of public functions and methods, as module.f(param),
# and the defaulted public dataclass fields, as module.Class.field; the
# command line's knobs are its flags, so cli is left out
SETTABLE_VALUES = [
    "designkit.DeviceGeometry.coverage",
    "designkit.DeviceGeometry.n_elements",
    "designkit.DeviceGeometry.topology",
    "designkit.PlanEntry.error",
    "designkit.ProcessRules.lambda_range",
    "designkit.ProcessRules.min_feature",
    "designkit.ProcessRules.min_gap",
    "designkit.plan_bank(coverage)",
    "designkit.plan_bank(n_elements)",
    "designkit.plan_bank(rules)",
    "designkit.plan_bank(topology_policy)",
    "designkit.render_table(labels)",
    "designkit.velocity_outliers(rel_threshold)",
    "extract.detect_resonances(threshold_db)",
    "fitkernel.fit(options)",
    "fitkernel.select_branch_count(options)",
    "mbvd.MbvdModel.branches",
    "mbvd.MbvdModel.r0",
    "mbvd.MbvdModel.rs",
    "mbvd.ResonatorMetrics.flags",
    "netparams.NetworkRecord.z0",
    "netparams.device_admittance(embedding)",
    "netparams.series_element_network(z0)",
    "netparams.write_touchstone(fmt)",
    "netparams.write_touchstone(unit)",
    "refdata.survey_rows(mode)",
    "refdata.survey_rows(topology)",
    "refdata.synthesis_grid(hi_rel)",
    "refdata.synthesis_grid(lo_rel)",
    "refdata.synthesis_grid(n_points)",
    "refdata.velocity_observations(mode)",
    "refdata.velocity_observations(topology)",
    "svgplot.line_plot(logy)",
    "svgplot.line_plot(title)",
    "transduce.mode_couplings(field_model)",
    "transduce.split_study(field_model)",
    "transduce.split_study(n_max)",
    "transduce.strain_overlaps(field_model)",
]


def test_public_names_are_pinned():
    assert sorted(resokit.__all__) == PUBLIC_NAMES


def test_public_names_are_unique_and_resolve():
    assert len(set(resokit.__all__)) == len(resokit.__all__)
    for name in resokit.__all__:
        assert getattr(resokit, name) is not None, name


def test_removed_names_are_gone():
    from resokit import extract, fitkernel, mbvd, transduce

    for name in REMOVED:
        assert name not in resokit.__all__
        assert not hasattr(resokit, name), name
        for module in (extract, mbvd, fitkernel, transduce):
            assert not hasattr(module, name), (module.__name__, name)


def settable_values() -> list[str]:
    found = []

    def defaulted(label, fn):
        found.extend(f"{label}({p.name})" for p in inspect.signature(fn).parameters.values()
                     if p.default is not inspect.Parameter.empty)

    for info in pkgutil.iter_modules(resokit.__path__):
        if info.name.startswith("_") or info.name == "cli":
            continue
        module = importlib.import_module(f"resokit.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            label = f"{info.name}.{name}"
            if inspect.isfunction(obj):
                defaulted(label, obj)
            elif inspect.isclass(obj):
                if dataclasses.is_dataclass(obj):
                    found.extend(f"{label}.{f.name}" for f in dataclasses.fields(obj)
                                 if not f.name.startswith("_")
                                 and (f.default is not dataclasses.MISSING
                                      or f.default_factory is not dataclasses.MISSING))
                for attr, member in vars(obj).items():
                    if isinstance(member, (classmethod, staticmethod)):
                        member = member.__func__
                    if not attr.startswith("_") and inspect.isfunction(member):
                        defaulted(f"{label}.{attr}", member)
    return sorted(found)


def test_settable_values_are_pinned():
    assert settable_values() == SETTABLE_VALUES
