"""The four workloads: their inputs, in-process passes, CLI child processes and checks.

Every workload is a closed loop with one client: one bench process, and at
most one resokit child process at a time.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import sys
import time
from pathlib import Path

import numpy as np

from resokit import cli, extract, fitkernel, mbvd, netparams, transduce
from resokit.fitkernel import FitOptions

import corpus
from measure import digest_outputs, output_bytes, run_child
from spans import CLI_ITEM

# criterion 2's recovery tolerances (relative), by ResonatorMetrics.as_dict key
TOL = {"fs_hz": 1e-4, "kt2": 0.02, "q_m": 0.05, "c0_f": 0.01}


def tolerance_misses(found: dict, truth: dict) -> list[str]:
    """Metrics of ``found`` outside criterion 2's tolerances of ``truth``."""
    misses = []
    for key, tol in TOL.items():
        value = found.get(key)
        if not isinstance(value, float) or not abs(value / truth[key] - 1.0) <= tol:
            misses.append(f"{key} {value!r} vs {truth[key]!r}")
    return misses


class Ledger:
    """Operations attempted and failed, wrong outputs, and output digests of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []
        self.digests: dict[str, str] = {}
        self.recovered = 0
        self.devices = 0

    def op(self, where: str, error: str | None = None) -> bool:
        self.attempted += 1
        if error is None:
            return True
        self.failed += 1
        print(f"FAILED {where}: {error}", file=sys.stderr)
        return False

    def exception(self, where: str, exc: Exception) -> None:
        self.op(where, f"{type(exc).__name__}: {exc}")

    def check(self, ok: bool, where: str, what: str) -> None:
        if not ok:
            self.wrong.append(f"{where}: {what}")
            print(f"WRONG {where}: {what}", file=sys.stderr)

    def digest(self, key: str, value: str) -> str | None:
        """Record an output digest; a different digest for the same key is an error."""
        first = self.digests.setdefault(key, value)
        return None if first == value else f"output digest {value[:12]} differs from {first[:12]}"


def _child_error(proc) -> str | None:
    if proc.returncode == 0:
        return None
    return f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True)


class Workload:
    name = ""
    entry_module = "resokit.cli"
    # share of the measured window spent on CLI child processes
    cli_share = 0.5

    def __init__(self, work: Path, env: dict, seed: int):
        self.work = work
        self.env = env
        self.seed = seed
        self.cli_runs = 0

    def prepare(self) -> None:
        raise NotImplementedError

    @property
    def items_per_pass(self) -> int:
        raise NotImplementedError

    def run_pass(self, ledger: Ledger, tracer=None) -> tuple[list[float], int, float]:
        """One pass over the items: (latencies in s, items counted, wall s)."""
        raise NotImplementedError

    def cli_op(self, ledger: Ledger) -> list[tuple[str, float]]:
        """One unit of CLI work: (command, wall seconds) of each child process it ran."""
        raise NotImplementedError

    def traced_cli(self, ledger: Ledger, tracer) -> int:
        """The workload's CLI command once in-process under the tracer; returns output bytes."""
        raise NotImplementedError

    def _outdir(self, tag: str) -> Path:
        path = self.work / "out" / tag
        shutil.rmtree(path, ignore_errors=True)
        return path


class Survey(Workload):
    """The survey devices through the library pipeline, plus ``resokit batch`` on draw 0."""

    noise_db = -80.0
    fmt, unit = "RI", "GHz"
    # noise draws per device in-process; more draws average out how much
    # fitting one seed's noise happens to cause
    draws = 1

    def prepare(self) -> None:
        self.devices = corpus.survey_corpus(self.seed, self.noise_db, self.fmt, self.unit, self.draws)
        self.corpus_dir = self.work / "corpus"
        corpus.write_corpus([d for d in self.devices if d.draw == 0], self.corpus_dir)
        self.reference: dict[str, str] = {}  # in-process metrics that batch must reproduce

    @property
    def items_per_pass(self):
        return len(self.devices)

    def run_pass(self, ledger, tracer=None):
        latencies, counted = [], 0
        t_pass = time.perf_counter()
        for dev in self.devices:
            if tracer is not None:
                tracer.item = dev.label
            ledger.devices += 1
            t0 = time.perf_counter()
            try:
                net = netparams.parse_touchstone(dev.text)
                trace = netparams.device_admittance(netparams.s_to_y(net), "series")
                candidates = extract.detect_resonances(trace, 3.0)
                result = fitkernel.select_branch_count(trace, candidates, FitOptions())
                met = mbvd.metrics_from_model(result.model, trace.freqs)
            except Exception as exc:  # a failing device must not stop the run
                ledger.exception(f"{dev.label}.s2p", exc)
                continue
            dt = time.perf_counter() - t0
            if not ledger.op(f"{dev.label}.s2p", None if result.converged else
                             f"FitError: not converged after {result.iterations} iterations"):
                continue
            misses = tolerance_misses(met.as_dict(), dev.truth)
            if not misses:
                ledger.recovered += 1
                counted += 1
                latencies.append(dt)
            elif self.noise_db <= -80.0:
                # criterion 2 guarantees recovery at -80 dB; at -20 dB it is only reported
                ledger.check(False, f"{dev.label}.s2p", f"outside criterion 2 tolerances: {misses}")
            self.reference.setdefault(dev.label, _canonical(met.as_dict()))
        return latencies, counted, time.perf_counter() - t_pass

    def _batch_args(self, outdir: Path) -> list[str]:
        return ["batch", str(self.corpus_dir), "--outdir", str(outdir), "--prefix", "batch"]

    def cli_op(self, ledger):
        outdir = self._outdir(f"batch-{self.cli_runs}")
        self.cli_runs += 1
        wall, proc = run_child(["-m", "resokit", *self._batch_args(outdir)], self.env, self.work)
        error = _child_error(proc) or ledger.digest("batch", digest_outputs(outdir))
        if ledger.op("resokit batch", error) and self.cli_runs == 1:
            self._check_batch(ledger, outdir / "batch_batch.json")
        shutil.rmtree(outdir, ignore_errors=True)
        return [("batch", wall)]

    def _check_batch(self, ledger, path: Path) -> None:
        doc = json.loads(path.read_text())
        rows = {row["file"]: _canonical(row["metrics"]) for row in doc["rows"]}
        ledger.check(not doc["failures"], path.name, f"failures {doc['failures']}")
        for name in sorted(p.name for p in self.corpus_dir.iterdir()):
            ledger.check(rows.get(name) == self.reference.get(name[:-len(".s2p")]), path.name,
                         f"{name} metrics differ from the in-process pipeline")

    def traced_cli(self, ledger, tracer):
        outdir = self._outdir("batch-traced")
        tracer.item = CLI_ITEM
        code = cli.run(self._batch_args(outdir))
        ledger.op("cli.run batch", None if code == 0 else f"exit {code}")
        return output_bytes(outdir)


class SurveyClean(Survey):
    name = "survey-clean"


class SurveyNoisy(Survey):
    name = "survey-noisy"
    noise_db = -20.0
    fmt, unit = "MA", "MHz"
    draws = 3


class CliRoundTrip(Workload):
    """synth then fit --emit-candidates per survey family, in fresh processes."""

    name = "cli-roundtrip"
    cli_share = 0.6

    def prepare(self):
        self.trips = corpus.roundtrip_inputs(self.work / "models")

    @property
    def items_per_pass(self):
        return len(self.trips)

    def _round_trip(self, trip, base: Path) -> tuple[list[str], list[str]]:
        synth = ["synth", str(trip.model_path), "--grid", trip.grid_spec, "--fmt", "DB",
                 "--outdir", str(base / "synth"), "--prefix", trip.label]
        fit = ["fit", str(base / "synth" / f"{trip.label}.s2p"), "--emit-candidates",
               "--outdir", str(base / "fit"), "--prefix", trip.label]
        return synth, fit

    def _digest(self, ledger, trip, base: Path) -> str | None:
        return ledger.digest(trip.label, digest_outputs(base / "synth", base / "fit"))

    def run_pass(self, ledger, tracer=None):
        latencies = []
        t_pass = time.perf_counter()
        for trip in self.trips:
            if tracer is not None:
                tracer.item = trip.label
            base = self.work / "out" / "inproc" / trip.label
            synth, fit = self._round_trip(trip, base)
            t0 = time.perf_counter()
            try:
                codes = (cli.run(synth), cli.run(fit))
            except Exception as exc:
                ledger.exception(f"round trip {trip.label}", exc)
                continue
            dt = time.perf_counter() - t0
            error = (None if codes == (0, 0) else f"exit codes {codes}") or self._digest(ledger, trip, base)
            if ledger.op(f"round trip {trip.label}", error):
                latencies.append(dt)
                self._check_fixed_point(ledger, trip, base / "fit")
        return latencies, len(latencies), time.perf_counter() - t_pass

    def _check_fixed_point(self, ledger, trip, fitdir: Path) -> None:
        met = json.loads((fitdir / f"{trip.label}_metrics.json").read_text())["metrics"]
        misses = tolerance_misses(met, trip.truth)
        ledger.check(not misses, f"{trip.label}_metrics.json", f"outside criterion 2 tolerances: {misses}")

    def cli_op(self, ledger):
        trip = self.trips[self.cli_runs % len(self.trips)]
        self.cli_runs += 1
        base = self._outdir(f"child-{self.cli_runs}")
        walls = []
        for args in self._round_trip(trip, base):
            wall, proc = run_child(["-m", "resokit", *args], self.env, self.work)
            walls.append((args[0], wall))
            if not ledger.op(f"resokit {args[0]} {trip.label}", _child_error(proc)):
                return walls
        ledger.op(f"digest {trip.label}", self._digest(ledger, trip, base))
        shutil.rmtree(base, ignore_errors=True)
        return walls

    def traced_cli(self, ledger, tracer):
        # the passes already run in-process cli.run calls; only the output size is left
        base = self.work / "out" / "inproc"
        dirs = [base / t.label / d for t in self.trips for d in ("synth", "fit")]
        return output_bytes(*dirs) // len(self.trips)


class ModesSweep(Workload):
    """split_study over N = 5..400 for lvr/dlvr x tophat/delta, plus ``resokit modes --sweep-n``."""

    name = "modes-sweep"
    entry_module = "resokit.transduce"
    MODES_ARGS = ["modes", "--topology", "dlvr", "--n", "5", "--lambda", repr(corpus.SWEEP_WAVELENGTH),
                  "--vp", repr(corpus.SWEEP_VP), "--sweep-n", "5:400:5", "--prefix", "sweep"]

    def prepare(self):
        self.geoms = corpus.sweep_geometries()
        self.records = {}  # in-process split_study results that the CLI sweep must reproduce

    @property
    def items_per_pass(self):
        return len(self.geoms)

    def run_pass(self, ledger, tracer=None):
        latencies = []
        t_pass = time.perf_counter()
        for i, (field, geom) in enumerate(self.geoms):
            where = f"{geom.topology}/{field} N={geom.n_elements}"
            if tracer is not None:
                tracer.item = where
            t0 = time.perf_counter()
            try:
                rec = transduce.split_study([geom], corpus.SWEEP_VP, field_model=field)[0]
                weight = sum(m.eta for m in rec.modes)
                pair = transduce.ModeSpectrum(modes=tuple(
                    dataclasses.replace(m, eta=m.eta / weight) for m in rec.modes))
                model = transduce.spectrum_to_mbvd(pair, c0=100e-15, kt2_total=0.20, q_assumed=500.0)
                lo = 0.80 * min(m.f_n for m in rec.modes)
                hi = 1.25 * max(m.f_n for m in rec.modes)
                y = mbvd.synthesize_admittance(model, np.linspace(lo, hi, 2001))
            except Exception as exc:
                ledger.exception(where, exc)
                continue
            dt = time.perf_counter() - t0
            if ledger.op(where, None if np.all(np.isfinite(y.values)) else "non-finite admittance"):
                latencies.append(dt)
                self.records.setdefault(i, rec)
                # a dLVR splits the design mode by exactly 1/N; an ideal LVR does not split
                expected = 1.0 / geom.n_elements if geom.topology == "dlvr" else 0.0
                ledger.check(math.isclose(rec.offset, expected, rel_tol=1e-9, abs_tol=1e-12), where,
                             f"split offset {rec.offset!r}, expected {expected!r}")
        return latencies, len(latencies), time.perf_counter() - t_pass

    def cli_op(self, ledger):
        outdir = self._outdir(f"modes-{self.cli_runs}")
        self.cli_runs += 1
        wall, proc = run_child(["-m", "resokit", *self.MODES_ARGS, "--outdir", str(outdir)],
                               self.env, self.work)
        error = _child_error(proc) or ledger.digest("modes", digest_outputs(outdir))
        if ledger.op("resokit modes", error) and self.cli_runs == 1:
            expected = [rec.as_dict() for i, rec in self.records.items()
                        if self.geoms[i][0] == "tophat" and self.geoms[i][1].topology == "dlvr"]
            got = json.loads((outdir / "sweep_sweep.json").read_text())
            ledger.check(_canonical(got) == _canonical(expected), "sweep_sweep.json",
                         "sweep differs from the in-process split_study")
        shutil.rmtree(outdir, ignore_errors=True)
        return [("modes", wall)]

    def traced_cli(self, ledger, tracer):
        outdir = self._outdir("modes-traced")
        tracer.item = CLI_ITEM
        code = cli.run([*self.MODES_ARGS, "--outdir", str(outdir)])
        ledger.op("cli.run modes", None if code == 0 else f"exit {code}")
        return output_bytes(outdir)


WORKLOADS = {w.name: w for w in (SurveyClean, SurveyNoisy, CliRoundTrip, ModesSweep)}
