"""Command-line front end: measurement files in, tables and plots out.

Subcommands
    fit      extract an equivalent circuit and metrics from one .s2p file
    batch    run fit across every .s2p in a directory, aggregate a table
    synth    synthesize a .s2p from a model JSON (the golden-file generator)
    modes    electrode-sampling mode spectrum, admittance and N sweeps
    design   plan a multi-frequency bank from target frequencies
    convert  rewrite a Touchstone file in another format/unit

All quantities on the command line are SI; display units appear only in
rendered tables. Identical inputs and flags produce byte-identical outputs
(no timestamps, stable float formatting, sorted JSON keys). Every command
writes a ``*_manifest.json`` recording inputs, options and outputs.

Each command computes all of its outputs before ``run`` writes any of them,
so a command that stops with an ``error:`` line writes nothing. A fit that
ran but did not converge (exit 3) still writes its outputs, a batch with
failed files (exit 1) writes its table of the files that did fit, and a
bank plan with out-of-range entries (exit 1) is written with them marked.

Exit codes: 0 success, 1 partial batch/plan failure, 2 input error
(including an input too large to hold in memory), 3 fit non-convergence,
4 unexpected internal error (a bug).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path
from typing import Sequence

import numpy as np

from ._digits import format_repr
from .designkit import DeviceGeometry, ProcessRules, calibrate_velocity, plan_bank, render_table
from .errors import (DegenerateCouplingError, EstimationError, FitError, GeometryError,
                     SingularNetworkError, ToolkitError)
from .extract import detect_resonances
from .fitkernel import FitResult, fit, seed_from_strongest, select_branch_count
from .mbvd import (
    MbvdModel,
    ResonatorMetrics,
    _json_number,
    metrics_from_model,
    model_from_dict,
    model_to_dict,
    synthesize_admittance,
)
from .netparams import (
    UNITS,
    ComplexTrace,
    device_admittance,
    parse_touchstone,
    s_to_y,
    series_element_network,
    write_touchstone,
    y_to_s,
)
from .refdata import velocity_observations
from .svgplot import Series, line_plot, stem_series
from .transduce import (ElectrodeLayout, _mode_frequency, build_layout, mode_couplings,
                        spectrum_to_mbvd, split_study)

EXIT_OK = 0
EXIT_PARTIAL = 1
EXIT_INPUT = 2
EXIT_NOCONV = 3
EXIT_CRASH = 4


def _dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


# what a command returns: exit code, input paths, output prefix, and the
# files to write as name -> text, in order
Outcome = tuple[int, list[str], str, dict[str, str]]


def _write_outputs(args: argparse.Namespace, inputs: Sequence[str], prefix: str,
                   outputs: dict[str, str]) -> None:
    """Create --outdir, write the outputs in order, then {prefix}_manifest.json."""
    options = {}
    for key, value in sorted(vars(args).items()):
        if key in ("handler", "command"):
            continue
        if isinstance(value, (str, int)) or value is None or (
                isinstance(value, float) and np.isfinite(value)):
            options[key] = value
        else:
            # a non-finite float as "inf"/"-inf", which strict JSON can hold
            options[key] = str(value)
    manifest_name = f"{prefix}_manifest.json"
    manifest = {
        "command": args.command,
        "inputs": list(inputs),
        "options": options,
        "outputs": [*outputs, manifest_name],
    }
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for name, text in [*outputs.items(), (manifest_name, _dump_json(manifest))]:
        (outdir / name).write_text(text, encoding="utf-8", newline="\n")


def _output_name(args: argparse.Namespace, prefix: str, default: str) -> str:
    """The file -o names, or default; the manifest's name is taken."""
    name = args.output or default
    manifest_name = f"{prefix}_manifest.json"
    if os.path.normpath(name) == manifest_name:
        raise ValueError(f"-o {name!r} collides with the manifest {manifest_name}")
    return name


# flag rules: a test of the value and the requirement an error line states
_POSITIVE_FINITE = (lambda v: 0.0 < v < np.inf, "must be positive and finite")
_FRACTION = (lambda v: 0.0 < v < 1.0, "must lie in (0, 1)")
_ELECTRODE_COUNT = (lambda v: v >= 2, "must be >= 2")
_UNIT = (lambda v: v.lower() in map(str.lower, UNITS), f"must be one of {'/'.join(UNITS)}")


def _check_flags(checks) -> None:
    """Raise a ValueError naming the first flag whose value breaks its rule;
    checks holds (flag, value, (test, requirement)) triples in order."""
    for flag, value, (test, requirement) in checks:
        if not test(value):
            raise ValueError(f"{flag} {requirement}, got {value!r}")


def _read_text(path: Path) -> str:
    # never the locale's codec; a byte that is not UTF-8 becomes U+FFFD, which
    # the Touchstone parser reports as a located non-numeric token
    try:
        return path.read_text(encoding="utf-8", errors="replace")
    except OSError as exc:
        raise ToolkitError(f"cannot read {path}: {exc}") from exc


def _load_json(path: Path):
    try:
        return json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise ToolkitError(f"{path}: invalid JSON ({exc})") from exc


def _load_device_trace(path: Path, shunt: bool) -> ComplexTrace:
    ynet = s_to_y(parse_touchstone(_read_text(path)))
    return device_admittance(ynet, "shunt" if shunt else "series")


def _candidates_doc(candidates) -> list[dict]:
    return [{
        "fs_est_hz": c.fs_est,
        "prominence_db": c.prominence_db,
        "significance": c.significance if c.significance < np.inf else "inf",
    } for c in candidates]


def _check_fit_flags(args: argparse.Namespace) -> None:
    """Reject fit flag values that cannot apply, before any input is read."""
    _check_flags([("--threshold-db", args.threshold_db, _POSITIVE_FINITE)])
    if args.branches is not None and args.branches < 1:
        raise ValueError("--branches must be >= 1")


def _fit_trace(trace: ComplexTrace, args: argparse.Namespace) -> tuple[FitResult, list]:
    candidates = detect_resonances(trace, threshold_db=args.threshold_db)
    if not candidates:
        raise EstimationError("no resonant peaks found above the prominence threshold")
    if args.branches is None:
        return select_branch_count(trace, candidates), candidates
    k = args.branches
    if k > len(candidates):
        raise EstimationError(f"only {len(candidates)} candidate resonances for --branches {k}")
    return fit(trace, seed_from_strongest(trace, candidates, k)), candidates


def _db20(values: np.ndarray) -> np.ndarray:
    return 20.0 * np.log10(np.maximum(np.abs(values), 1e-300))


def _admittance_csv(freqs: np.ndarray, measured: np.ndarray | None,
                    fitted: np.ndarray | None) -> str:
    names = ["freq_Hz"]
    cols = [freqs]
    if measured is not None:
        names += ["ReY_S", "ImY_S"]
        cols += [measured.real, measured.imag]
    if fitted is not None:
        names += ["ReYfit_S", "ImYfit_S"]
        cols += [fitted.real, fitted.imag]
    return ",".join(names) + "\n" + format_repr(np.column_stack(cols))


def _cmd_fit(args: argparse.Namespace) -> Outcome:
    _check_fit_flags(args)
    path = Path(args.input)
    prefix = args.prefix or path.stem
    trace = _load_device_trace(path, args.shunt)
    result, candidates = _fit_trace(trace, args)
    metrics = metrics_from_model(result.model, trace.freqs)
    out = {}
    if args.emit_candidates:
        out[f"{prefix}_candidates.json"] = _dump_json(_candidates_doc(candidates))
    out[f"{prefix}_model.json"] = _dump_json(model_to_dict(result.model))
    out[f"{prefix}_metrics.json"] = _dump_json({
        "source": path.name,
        "embedding": "shunt" if args.shunt else "series",
        "metrics": metrics.as_dict(),
        "fit": {
            "converged": result.converged,
            "cost": result.cost,
            "iterations": result.iterations,
            "n_branches": len(result.model.branches),
            "residual_rms": result.residual_rms,
        },
    })
    if args.trace_fit:
        out[f"{prefix}_fit_trace.json"] = _dump_json({"cost_trace": list(result.cost_trace)})
    fitted = synthesize_admittance(result.model, trace.freqs)
    out[f"{prefix}_fit.csv"] = _admittance_csv(trace.freqs, trace.values, fitted.values)
    out[f"{prefix}_fit.svg"] = line_plot(
        [Series("measured", trace.freqs, _db20(trace.values)),
         Series("fitted", trace.freqs, _db20(fitted.values))],
        xlabel="frequency [Hz]", ylabel="|Y| [dB S]", title=path.name)
    out[f"{prefix}_table.md"] = render_table([(None, metrics)], labels=[prefix]).markdown
    return EXIT_OK if result.converged else EXIT_NOCONV, [str(path)], prefix, out


def _cmd_batch(args: argparse.Namespace) -> Outcome:
    _check_fit_flags(args)
    directory = Path(args.directory)
    if not directory.is_dir():
        raise ToolkitError(f"not a directory: {directory}")
    files = sorted(directory.glob("*.s2p"))
    if not files:
        raise ToolkitError(f"no .s2p files in {directory}")
    prefix = args.prefix or "batch"

    rows: list[tuple[None, ResonatorMetrics]] = []
    labels: list[str] = []
    row_docs: list[dict] = []
    failures: list[dict] = []
    for path in files:
        try:
            trace = _load_device_trace(path, args.shunt)
            result, _ = _fit_trace(trace, args)
            # metrics first, as fit does: a fitted resonance off the span
            # reports the same error in both commands
            metrics = metrics_from_model(result.model, trace.freqs)
            if not result.converged:
                raise FitError("fit did not converge", iteration=result.iterations)
        except (ToolkitError, ValueError) as exc:
            failures.append({"file": path.name, "error": str(exc)})
            continue
        rows.append((None, metrics))
        labels.append(path.stem)
        row_docs.append({"file": path.name, "metrics": metrics.as_dict()})

    out = {}
    if rows:
        report = render_table(rows, labels=labels)
        out[f"{prefix}_batch.md"] = report.markdown
        out[f"{prefix}_batch.csv"] = report.csv
    out[f"{prefix}_batch.json"] = _dump_json({"rows": row_docs, "failures": failures})
    return EXIT_PARTIAL if failures else EXIT_OK, [str(directory)], prefix, out


def _parse_grid(spec: str) -> np.ndarray:
    try:
        lo, hi, n = spec.split(":")
        lo, hi, n = float(lo), float(hi), int(n)
    except ValueError:
        raise ValueError(f"--grid lo:hi:n wants two numbers and an integer, got {spec!r}") from None
    if not 0.0 < lo < hi < np.inf:
        raise ValueError(f"--grid lo:hi:n needs 0 < lo < hi < inf, got {spec!r}")
    if n < 2:
        raise ValueError(f"--grid lo:hi:n needs at least 2 points, got {spec!r}")
    return _linspace(lo, hi, n, f"--grid {spec!r}")


def _linspace(lo: float, hi: float, n: int, flag: str) -> np.ndarray:
    """np.linspace(lo, hi, n); a grid too large to allocate is an input error."""
    try:
        return np.linspace(lo, hi, n)
    except MemoryError:
        raise ValueError(f"{flag}: {n} grid points do not fit in memory") from None


def _parse_sweep(spec: str) -> range:
    try:
        a, b, step = (int(p) for p in spec.split(":"))
    except ValueError:
        raise ValueError(f"--sweep-n A:B:STEP wants three integers, got {spec!r}") from None
    if a < 2 or step < 1 or b < a:
        raise ValueError(f"--sweep-n A:B:STEP needs 2 <= A <= B and STEP >= 1, got {spec!r}")
    return range(a, b + 1, step)


def _cmd_synth(args: argparse.Namespace) -> Outcome:
    _check_flags([("--z0", args.z0, _POSITIVE_FINITE), ("--unit", args.unit, _UNIT)])
    model_path = Path(args.model)
    prefix = args.prefix or model_path.stem
    name = _output_name(args, prefix, f"{prefix}.s2p")
    model = _config_entry(model_path, model_from_dict, _load_json(model_path))
    grid = _parse_grid(args.grid)
    try:
        trace = synthesize_admittance(model, grid)
    except ValueError as exc:
        raise ValueError(f"--grid {args.grid!r}: {exc}") from None
    try:
        net = y_to_s(series_element_network(trace, z0=args.z0))
    except SingularNetworkError as exc:
        raise ValueError(f"--grid {args.grid!r} with --z0 {args.z0!r}: {exc}") from None
    text = write_touchstone(net, fmt=args.fmt, unit=args.unit)
    return EXIT_OK, [str(model_path)], prefix, {name: text}


_MODE_HEADER = "N,n,f_n_Hz,eta_n,nodes"


def _mode_rows(n_elements: int, modes, tail: str = "") -> list[str]:
    """One CSV row per mode under _MODE_HEADER, each followed by tail."""
    return [f"{n_elements},{m.n},{m.f_n!r},{m.eta!r},{m.nodes}{tail}" for m in modes]


def _layout(geom: DeviceGeometry, flags: str) -> ElectrodeLayout:
    """build_layout(geom); a geometry it refuses is an input error naming flags."""
    try:
        return build_layout(geom)
    except GeometryError as exc:
        raise ValueError(f"{flags}: {exc}") from None


def _cmd_modes(args: argparse.Namespace) -> Outcome:
    sweep = _parse_sweep(args.sweep_n) if args.sweep_n else range(0)
    _check_flags([
        ("--n", args.n, _ELECTRODE_COUNT),
        ("--lambda", args.wavelength, _POSITIVE_FINITE),
        ("--c", args.coverage, _FRACTION),
        ("--vp", args.vp, _POSITIVE_FINITE),
    ])
    geom = DeviceGeometry(
        wavelength=args.wavelength, topology=args.topology,
        n_elements=args.n, coverage=args.coverage)
    layout = _layout(geom, f"--lambda {args.wavelength!r}, --n {args.n} and --c {args.coverage!r}")
    geoms = [dataclasses.replace(geom, n_elements=n) for n in sweep]
    # only the plate width grows with the count, so only it can fail here
    sweep_index = max((_layout(g, f"--lambda {args.wavelength!r} and --sweep-n "
                                  f"{args.sweep_n!r}").design_index for g in geoms), default=0)
    _check_flags([
        ("--n-max", args.n_max, (lambda v: v is None or v >= 2 * layout.design_index,
                                 f"must be at least twice the design index "
                                 f"({layout.design_index})")),
        ("--n-max", args.n_max, (lambda v: v is None or v >= 2 * sweep_index,
                                 f"must be at least twice the largest design index over "
                                 f"--sweep-n ({sweep_index})")),
        ("--c0", args.c0, _POSITIVE_FINITE),
        ("--kt2", args.kt2, _FRACTION),
        ("--q", args.q, (lambda v: v > 0.0, "must be > 0")),  # inf is lossless
        ("--grid-points", args.grid_points, (lambda v: v >= 2, "needs at least 2 points")),
    ])
    field_model = "delta" if args.delta_electrodes else "tophat"
    n_max = args.n_max if args.n_max is not None else 2 * layout.design_index
    # modes 1..n_max in plain floats, which overflow to inf without a warning;
    # a frequency below the normal range would merge with its neighbours
    f_lo, f_hi = (_mode_frequency(layout, args.vp, n) for n in (1, n_max))
    if not sys.float_info.min <= f_lo <= f_hi < np.inf:
        raise ValueError(f"--vp {args.vp!r} and --lambda {args.wavelength!r} put the mode "
                         f"frequencies outside the float range ({f_lo:.6g} to {f_hi:.6g} Hz)")
    try:
        spectrum = mode_couplings(layout, args.vp, n_max, field_model)
    except ValueError as exc:  # n_max beyond the mode-index range
        flag = f"--n-max {args.n_max}" if args.n_max is not None else f"--n {args.n}"
        raise ValueError(f"{flag}: {exc}") from None
    try:
        model = spectrum_to_mbvd(spectrum, c0=args.c0, kt2_total=args.kt2, q_assumed=args.q)
    except ValueError as exc:
        raise ValueError(f"--c0 {args.c0!r} gives no representable motional branch at these "
                         f"mode frequencies ({exc})") from None
    except DegenerateCouplingError as exc:
        raise ValueError(f"--c0 {args.c0!r} and --kt2 {args.kt2!r}: {exc}") from None
    dominant = spectrum.dominant_modes()
    lo = 0.80 * min(m.f_n for m in dominant)
    hi = 1.25 * max(m.f_n for m in dominant)
    grid = _linspace(lo, hi, args.grid_points, "--grid-points")
    ytrace = synthesize_admittance(model, grid)
    records = split_study(geoms, args.vp, n_max=args.n_max,
                          field_model=field_model) if geoms else None
    prefix = args.prefix or f"modes_{geom.topology}_n{geom.n_elements}"
    title = f"{geom.topology} N={geom.n_elements}"
    out = {
        f"{prefix}_spectrum.csv":
            "\n".join([_MODE_HEADER] + _mode_rows(geom.n_elements, spectrum.modes)) + "\n",
        f"{prefix}_spectrum.svg": line_plot(
            [stem_series("eta_n", spectrum.frequencies, spectrum.weights)],
            xlabel="frequency [Hz]", ylabel="coupling weight", title=title),
        f"{prefix}_admittance.csv": _admittance_csv(grid, ytrace.values, None),
        f"{prefix}_admittance.svg": line_plot(
            [Series("model |Y|", grid, _db20(ytrace.values))],
            xlabel="frequency [Hz]", ylabel="|Y| [dB S]", title=title),
    }

    if records is not None:
        lines = [_MODE_HEADER + ",f_design_Hz,offset"]
        for rec in records:
            lines += _mode_rows(rec.n_elements, rec.modes,
                                f",{rec.design_frequency!r},{rec.offset!r}")
        out[f"{prefix}_sweep.csv"] = "\n".join(lines) + "\n"
        out[f"{prefix}_sweep.json"] = _dump_json([rec.as_dict() for rec in records])
        counts = np.array([rec.n_elements for rec in records], dtype=float)
        offsets = np.array([rec.offset for rec in records])
        logy = bool(np.all(offsets > 0.0))
        out[f"{prefix}_sweep.svg"] = line_plot(
            [Series("dominant-mode offset", counts, offsets)],
            xlabel="electrode count N", ylabel="fractional offset",
            title=f"{geom.topology} convergence", logy=logy)
    return EXIT_OK, [], prefix, out


def _config_entry(path: Path, read, *args):
    """read(*args) on an entry of the JSON file at path (a --config file or
    a model), whose ValueError becomes a ToolkitError that names the file."""
    try:
        return read(*args)
    except ValueError as exc:
        raise ToolkitError(f"{path}: {exc}") from None


def _cmd_design(args: argparse.Namespace) -> Outcome:
    _check_flags([
        # optional: without it the velocity comes from --config or the survey
        ("--vp", args.vp, (lambda v: v is None or 0.0 < v < np.inf, "must be positive and finite")),
        ("--n", args.n, _ELECTRODE_COUNT),
        ("--coverage", args.coverage, _FRACTION),
    ])
    targets_path = Path(args.targets)
    doc = _load_json(targets_path)
    targets = doc.get("targets_hz") if isinstance(doc, dict) else doc
    if (not isinstance(targets, list) or not targets
            or not all(isinstance(t, (int, float)) and not isinstance(t, bool) for t in targets)):
        raise ToolkitError(f"{targets_path}: expected a non-empty list of target frequencies (Hz)")
    try:
        targets = [float(t) for t in targets]
    except OverflowError:
        raise ToolkitError(f"{targets_path}: a target frequency is too large for a float") from None

    rules = ProcessRules()
    velocity_map: dict = {}
    inputs = [str(targets_path)]
    if args.config:
        cfg_path = Path(args.config)
        cfg = _load_json(cfg_path)
        inputs.append(str(cfg_path))
        velocity_map = cfg.get("velocity", {}) if isinstance(cfg, dict) else None
        if not isinstance(velocity_map, dict):
            raise ToolkitError(f"{cfg_path}: expected an object with an optional "
                               "\"velocity\" object of m/s by mode")
        if "rules" in cfg:
            rules = _config_entry(cfg_path, ProcessRules.from_dict, cfg["rules"])

    if args.vp is not None:
        v_p = args.vp
    elif args.mode in velocity_map:
        v_p = _config_entry(cfg_path, _json_number, f"velocity.{args.mode}",
                            velocity_map[args.mode], "m/s")
    else:
        # fall back to the bundled survey; the median is robust to its outliers
        v_p, _ = calibrate_velocity(velocity_observations(mode=args.mode))

    policy = args.topology_policy
    try:
        policy = float(policy)
    except ValueError:
        pass
    entries = plan_bank(targets, v_p, rules, policy, n_elements=args.n, coverage=args.coverage)

    prefix = args.prefix or targets_path.stem
    csv_lines = ["targets_Hz,wavelength_nm,topology,status,findings"]
    doc_entries = []
    for e in entries:
        findings = "; ".join(f.message for f in e.findings)
        status = "ok" if e.ok else "error"
        csv_lines.append(",".join([
            "|".join(repr(t) for t in e.targets),
            f"{e.wavelength * 1e9:.0f}",
            e.geometry.topology if e.geometry is not None else "-",
            status,
            f'"{e.error or findings}"' if (e.error or findings) else "",
        ]))
        doc_entries.append({
            "targets_hz": list(e.targets),
            # a target low enough to overflow the wavelength plans to inf
            "wavelength_m": e.wavelength if e.wavelength < np.inf else "inf",
            "topology": e.geometry.topology if e.geometry is not None else None,
            "n_elements": e.geometry.n_elements if e.geometry is not None else None,
            "coverage": e.geometry.coverage if e.geometry is not None else None,
            "findings": [{"code": f.code, "message": f.message,
                          "value": f.value, "limit": f.limit} for f in e.findings],
            "error": e.error,
        })
    out = {
        f"{prefix}_plan.csv": "\n".join(csv_lines) + "\n",
        f"{prefix}_plan.json": _dump_json({"v_p": v_p, "entries": doc_entries}),
    }
    return EXIT_PARTIAL if any(not e.ok for e in entries) else EXIT_OK, inputs, prefix, out


def _cmd_convert(args: argparse.Namespace) -> Outcome:
    _check_flags([("--unit", args.unit, _UNIT)])
    path = Path(args.input)
    prefix = args.prefix or path.stem
    name = _output_name(args, prefix, f"{prefix}_{args.fmt.lower()}.s2p")
    net = parse_touchstone(_read_text(path))
    text = write_touchstone(net, fmt=args.fmt, unit=args.unit)
    return EXIT_OK, [str(path)], prefix, {name: text}


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--outdir", default=".", help="directory for all outputs (default: cwd)")
    p.add_argument("--prefix", default=None, help="output filename prefix (default: derived from input)")


def _add_fit_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--shunt", action="store_true",
                   help="device is embedded shunt-to-ground (default: series through)")
    p.add_argument("--branches", type=int, default=None,
                   help="fix the motional branch count (default: automatic selection)")
    p.add_argument("--threshold-db", type=float, default=3.0,
                   help="peak prominence threshold for resonance detection")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="resokit",
        description="Resonator admittance fitting, transduction modelling and bank planning.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="fit one .s2p measurement")
    p.add_argument("input", help="Touchstone .s2p file")
    _add_fit_flags(p)
    p.add_argument("--emit-candidates", action="store_true",
                   help="dump the detected resonance candidates as JSON")
    p.add_argument("--trace-fit", action="store_true",
                   help="dump the per-iteration cost trace as JSON")
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_fit)

    p = sub.add_parser("batch", help="fit every .s2p in a directory")
    p.add_argument("directory")
    _add_fit_flags(p)
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_batch)

    p = sub.add_parser("synth", help="synthesize a .s2p from a model JSON")
    p.add_argument("model", help="model JSON (as written by fit)")
    p.add_argument("--grid", required=True, help="frequency grid lo:hi:n in Hz")
    p.add_argument("--z0", type=float, default=50.0)
    p.add_argument("--fmt", choices=("RI", "MA", "DB"), default="RI")
    p.add_argument("--unit", default="GHz", help="frequency unit of the output file")
    p.add_argument("-o", "--output", default=None, help="output filename (within --outdir)")
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_synth)

    p = sub.add_parser("modes", help="electrode-sampling mode spectrum and admittance")
    p.add_argument("--topology", choices=("lvr", "dlvr"), required=True)
    p.add_argument("--n", type=int, required=True, help="electrode count N")
    p.add_argument("--lambda", dest="wavelength", type=float, required=True,
                   help="design wavelength in metres")
    p.add_argument("--c", dest="coverage", type=float, default=0.5, help="metal coverage fraction")
    p.add_argument("--vp", type=float, required=True, help="phase velocity in m/s")
    p.add_argument("--n-max", type=int, default=None,
                   help="highest mode index (default: twice the design index)")
    p.add_argument("--delta-electrodes", action="store_true",
                   help="sample the field at gap centres instead of finite-width gaps")
    p.add_argument("--c0", type=float, default=100e-15, help="static capacitance for synthesis [F]")
    p.add_argument("--kt2", type=float, default=0.20, help="total coupling for synthesis")
    p.add_argument("--q", type=float, default=500.0, help="per-branch Q for synthesis")
    p.add_argument("--grid-points", type=int, default=2001)
    p.add_argument("--sweep-n", default=None, metavar="A:B:STEP",
                   help="also run the element-count convergence study")
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_modes)

    p = sub.add_parser("design", help="plan a multi-frequency bank")
    p.add_argument("targets", help="JSON file: list of target frequencies in Hz")
    p.add_argument("--config", default=None,
                   help="JSON config with process rules and calibrated velocities")
    p.add_argument("--vp", type=float, default=None,
                   help="phase velocity override in m/s (default: calibrate from bundled survey)")
    p.add_argument("--mode", choices=("S0", "SH0"), default="S0")
    p.add_argument("--topology-policy", default="auto",
                   help='"lvr", "dlvr", "auto", or a frequency threshold in Hz')
    p.add_argument("--n", type=int, default=20, help="electrode count per device")
    p.add_argument("--coverage", type=float, default=0.5)
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_design)

    p = sub.add_parser("convert", help="rewrite a Touchstone file in another format")
    p.add_argument("input")
    p.add_argument("--fmt", choices=("RI", "MA", "DB"), default="RI")
    p.add_argument("--unit", default="GHz")
    p.add_argument("-o", "--output", default=None, help="output filename (within --outdir)")
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_convert)

    return parser


# built on the first run; every parse_args call returns a new namespace
_parser: argparse.ArgumentParser | None = None


def run(argv: Sequence[str] | None = None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        code, inputs, prefix, outputs = args.handler(args)
        _write_outputs(args, inputs, prefix, outputs)
        return code
    except FitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOCONV
    except (ToolkitError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MemoryError as exc:
        # numpy's error says how much it could not allocate; a bare one says nothing
        print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:
        # anything else is a bug; keep it apart from the partial-batch code
        print(f"error: internal {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_CRASH


if __name__ == "__main__":
    sys.exit(run())
