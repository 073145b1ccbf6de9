"""resokit benchmark: one workload, measured from outside the program.

    python3 perfbench/run.py --workload cli-roundtrip --seed 100 --seconds 50 --trace 0

Run from the root of a checkout; the program is imported from ``src/`` and
run as ``python -m resokit`` child processes. ``--workload all`` runs the
four workloads in turn. The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of a traced
run with ``--trace 1``. The lines above it are a human-readable report and
one ``record`` JSON line (environment, bases, digests, every metric).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

import measure
import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOAD_NAMES = ("survey-clean", "survey-noisy", "cli-roundtrip", "modes-sweep")

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_ms_p50": "ms",
    "item_ms_p90": "ms",
    "cli_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "numpy.import_ms": "ms",
    "resokit.import_ms": "ms",
    "extract.import_ms": "ms",
    "mbvd.import_ms": "ms",
    "transduce.import_ms": "ms",
    "cli.import_ms": "ms",
    "netparams.parse_ms": "ms",
    "netparams.parse_MBps": "MB/s",
    "netparams.s_to_y_ms": "ms",
    "netparams.write_ms": "ms",
    "netparams.points": "count",
    "extract.detect_ms": "ms",
    "extract.seed_ms": "ms",
    "extract.candidates": "count",
    "fitkernel.select_ms": "ms",
    "fitkernel.fit_ms": "ms",
    "fitkernel.fit_calls": "count",
    "fitkernel.lm_iterations": "count",
    "fitkernel.ms_per_iteration": "ms",
    "fitkernel.useful_fit_ratio": "ratio",
    "fitkernel.converged_frac": "ratio",
    "mbvd.metrics_ms": "ms",
    "mbvd.synth_ms": "ms",
    "svgplot.line_plot_ms": "ms",
    "designkit.render_table_ms": "ms",
    "cli.self_ms": "ms",
    "cli.output_bytes": "count",
    "transduce.split_study_ms": "ms",
    "transduce.mode_couplings_ms": "ms",
    "transduce.modes_per_geometry": "count",
    **{f"{layer}.self_share": "ratio" for layer in (
        "netparams", "extract", "fitkernel", "mbvd", "svgplot", "designkit", "cli", "transduce")},
    "trace.overhead_frac": "ratio",
}

# what the generic end-to-end names mean on each workload
ALIASES = {
    "survey-clean": {"items_per_s": "devices_per_s", "item_ms_p50": "device_ms_p50",
                     "item_ms_p90": "device_ms_p90", "cli_s": "batch_cli_s"},
    "cli-roundtrip": {"items_per_s": "roundtrips_per_s", "item_ms_p50": "roundtrip_ms_p50",
                      "item_ms_p90": "roundtrip_ms_p90", "cli_s": "roundtrip_cli_s"},
    "modes-sweep": {"items_per_s": "geometries_per_s", "item_ms_p50": "geometry_ms_p50",
                    "item_ms_p90": "geometry_ms_p90", "cli_s": "modes_cli_s"},
}
ALIASES["survey-noisy"] = ALIASES["survey-clean"]

SETUP_REPEATS = 3
IMPORTTIME_REPEATS = 3
MIN_CLI_OPS = 3
MIN_ITEMS = 100  # p90 needs ten samples beyond it
RUN_DEADLINE_S = 140.0  # plus one child timeout, a run ends within 180 s
IMPORT_MODULES = {"numpy": "numpy", "resokit": "resokit", "extract": "resokit.extract",
                  "mbvd": "resokit.mbvd", "transduce": "resokit.transduce", "cli": "resokit.cli"}


def _import_program() -> None:
    """Make ``src/`` of this checkout the only place resokit is imported from."""
    if not (SRC / "resokit" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'resokit'} not found; run from the root of a resokit checkout")
    sys.path.insert(0, str(SRC))
    import resokit

    if Path(resokit.__file__).resolve().parent != (SRC / "resokit").resolve():
        sys.exit(f"error: resokit imported from {resokit.__file__}, not from {SRC}")


def _measure_window(wl, ledger, seconds: float, deadline: float):
    """Interleave CLI child processes and in-process passes for ``seconds``.

    CLI work takes ``wl.cli_share`` of the window. A pass comes first: it
    records the in-process results the CLI outputs are checked against. The
    window is extended until there are MIN_CLI_OPS CLI units and MIN_ITEMS
    item latencies.
    """
    cli_ops, rates, latencies = [], [], []
    spent_cli = spent_pass = 0.0
    start = time.perf_counter()
    while time.perf_counter() < deadline:
        elapsed = time.perf_counter() - start
        need_cli = len(cli_ops) < MIN_CLI_OPS
        need_items = len(latencies) < MIN_ITEMS
        balanced = spent_cli < wl.cli_share * (spent_cli + spent_pass)
        if elapsed < seconds:
            do_cli = balanced
        elif need_cli or need_items:
            do_cli = need_cli and (balanced or not need_items)
        else:
            break
        t0 = time.perf_counter()
        if do_cli:
            cli_ops.append(wl.cli_op(ledger))
            spent_cli += time.perf_counter() - t0
        else:
            lat, counted, wall = wl.run_pass(ledger)
            latencies += lat
            rates.append(counted / wall)
            spent_pass += time.perf_counter() - t0
    return cli_ops, rates, latencies


def _setup_s(wl, ledger, env) -> list[float]:
    walls = []
    for _ in range(SETUP_REPEATS):
        wall, proc = measure.run_child(["-c", f"import {wl.entry_module}"], env, wl.work)
        if ledger.op(f"import {wl.entry_module}", None if proc.returncode == 0 else proc.stderr[-300:]):
            walls.append(wall)
    return walls


def _import_breakdown(wl, ledger, env) -> dict[str, float]:
    runs = []
    for _ in range(IMPORTTIME_REPEATS):
        _, proc = measure.run_child(["-X", "importtime", "-c", "import resokit.cli"], env, wl.work)
        if ledger.op("python -X importtime", None if proc.returncode == 0 else proc.stderr[-300:]):
            runs.append(measure.parse_importtime(proc.stderr))
    return {f"{layer}.import_ms": measure.median([r[mod] for r in runs if mod in r]) if runs else 0.0
            for layer, mod in IMPORT_MODULES.items()}


def _traced_phase(wl, ledger, seconds: float, deadline: float, spans_path: Path):
    """Alternate untraced and traced passes, then trace the CLI command once in-process."""
    tracer = spans.Tracer()
    untraced, traced = [], []
    start = time.perf_counter()
    while time.perf_counter() < deadline and (
            time.perf_counter() - start < seconds or len(traced) < 2):
        _, counted, wall = wl.run_pass(ledger)
        untraced.append(counted / wall)
        with spans.installed(tracer):
            _, counted, wall = wl.run_pass(ledger, tracer)
        traced.append(counted / wall)
    with spans.installed(tracer):
        out_bytes = wl.traced_cli(ledger, tracer)
    metrics = spans.layer_metrics(tracer.spans, len(traced) * wl.items_per_pass)
    metrics["cli.output_bytes"] = out_bytes
    metrics["trace.overhead_frac"] = 1.0 - statistics.median(traced) / statistics.median(untraced)
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    spans_path.write_text(json.dumps([s.as_dict() for s in tracer.spans]))
    return metrics, {"traced_passes": len(traced), "untraced_items_per_s": statistics.median(untraced),
                     "traced_items_per_s": statistics.median(traced), "spans": len(tracer.spans)}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from workloads import WORKLOADS, Ledger  # imports resokit

    t_start = time.perf_counter()
    deadline = t_start + RUN_DEADLINE_S
    env_record = measure.environment(seed)
    env = measure.child_env(SRC)
    work = ROOT / ".perfbench_work" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ledger = Ledger()
    wl = WORKLOADS[name](work, env, seed)
    try:
        setup = _setup_s(wl, ledger, env)
        wl.prepare()
        cli_ops, rates, latencies = _measure_window(wl, ledger, seconds, deadline)
        layer, trace_info = {}, {}
        if trace:
            layer = _import_breakdown(wl, ledger, env)
            more, trace_info = _traced_phase(wl, ledger, seconds / 2, deadline,
                                             ROOT / ".perfbench_out" / f"spans-{name}-{seed}.json")
            layer.update(more)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lat_ms = [t * 1e3 for t in latencies]
    unit_s = [sum(w for _, w in op) for op in cli_ops]
    p90 = measure.percentile(lat_ms, 0.9)
    if p90 is None:
        print(f"warning: p90 from {len(lat_ms)} samples, fewer than {MIN_ITEMS}", file=sys.stderr)
        p90 = measure.quantile(lat_ms, 0.9) if lat_ms else float("nan")
    e2e = {
        "setup_s": measure.median(setup),
        "items_per_s": measure.median(rates),
        "item_ms_p50": measure.quantile(lat_ms, 0.5) if lat_ms else float("nan"),
        "item_ms_p90": p90,
        "cli_s": measure.median(unit_s),
        "peak_rss_mb": measure.peak_child_rss_mb(),
    }
    by_command: dict[str, list[float]] = {}
    for op in cli_ops:
        for command, wall in op:
            by_command.setdefault(command, []).append(wall)
    env_record["loadavg_end"] = list(os.getloadavg())
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "environment": env_record,
        "end_to_end": e2e,
        "per_layer": layer,
        "cli_command_s": {f"{c}_cli_s": measure.median(w) for c, w in by_command.items()},
        "samples": {"pass_items_per_s": rates, "cli_unit_s": unit_s},
        "bases": {
            "setup_runs": len(setup), "passes": len(rates), "item_samples": len(lat_ms),
            "cli_units": len(cli_ops),
            "cli_children": {c: len(w) for c, w in by_command.items()},
            "devices": ledger.devices, "recovered": ledger.recovered, **trace_info,
        },
        "recovered_frac": ledger.recovered / ledger.devices if ledger.devices else None,
        "failed_frac": ledger.failed / ledger.attempted if ledger.attempted else None,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "wrong": ledger.wrong,
        "digests": ledger.digests,
        "correct": ledger.failed == 0 and not ledger.wrong,
        "run_s": time.perf_counter() - t_start,
    }


def print_report(rec: dict) -> None:
    name = rec["workload"]
    aliases = ALIASES[name]
    bases = rec["bases"]
    print(f"== {name}  seed={rec['seed']}  seconds={rec['seconds']}  trace={rec['trace']}  "
          f"(closed loop, 1 client, run took {rec['run_s']:.1f} s)")
    env = rec["environment"]
    print(f"   python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
          f"nproc {env['nproc']}, {env['cpu']}, loadavg {env['loadavg_start']} -> {env['loadavg_end']}")
    notes = {
        "setup_s": f"median of {bases['setup_runs']} fresh interpreters",
        "items_per_s": f"median of {bases['passes']} passes",
        "item_ms_p50": f"n={bases['item_samples']}",
        "item_ms_p90": f"n={bases['item_samples']}",
        "cli_s": f"median of {bases['cli_units']} CLI units, children {bases['cli_children']}",
        "peak_rss_mb": "largest child process",
    }
    for metric, value in rec["end_to_end"].items():
        alias = aliases.get(metric, "")
        print(f"   {metric:<14} {value:14.6g} {END_TO_END[metric]:<5} {alias:<18} {notes[metric]}")
    for command, value in rec["cli_command_s"].items():
        print(f"   {'':<14} {value:14.6g} s     {command:<18} median per child")
    if rec["recovered_frac"] is not None:
        print(f"   recovered_frac {rec['recovered_frac']:.6g}  ({bases['recovered']}/{bases['devices']} "
              f"devices attempted, within criterion 2 tolerances)")
    print(f"   failed_frac    {rec['failed_frac']:.6g}  ({rec['failed']}/{rec['attempted']} operations)")
    for key, value in rec["digests"].items():
        print(f"   digest {key}: {value}")
    if rec["per_layer"]:
        print(f"   per layer (traced run, {bases['traced_passes']} traced passes, {bases['spans']} spans; "
              f"untraced {bases['untraced_items_per_s']:.6g}/s, traced {bases['traced_items_per_s']:.6g}/s):")
        for metric, value in rec["per_layer"].items():
            print(f"     {metric:<30} {value:14.6g} {PER_LAYER[metric]}")
    print(f"   correct: {rec['correct']}" + (f"  wrong: {rec['wrong']}" if rec["wrong"] else ""))


def contract_line(records: list[dict], trace: bool) -> dict:
    units = PER_LAYER if trace else END_TO_END
    key = "per_layer" if trace else "end_to_end"
    metrics = {}
    for rec in records:
        prefix = "" if len(records) == 1 else f"{rec['workload']}/"
        for metric, unit in units.items():
            metrics[prefix + metric] = {"value": rec[key][metric], "unit": unit}
    return {
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=100,
                        help="base seed; survey device i draws noise seed+i (default 100)")
    parser.add_argument("--seconds", type=float, default=50.0, help="length of the measured window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: also make the traced run and print per-layer metrics")
    args = parser.parse_args(argv)

    _import_program()
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    records = []
    for name in names:
        rec = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print_report(rec)
        print("record " + json.dumps(rec, sort_keys=True))
        records.append(rec)
    sys.stdout.flush()
    print(json.dumps(contract_line(records, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
