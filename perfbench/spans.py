"""Span tracing from outside the program, and the per-layer metrics made from it.

``installed(tracer)`` replaces every public function of each resokit layer
module with a recording wrapper, at every module attribute that refers to
it, so calls are seen where callers look names up (``fitkernel.fit`` as
called by ``select_branch_count``, ``cli.parse_touchstone`` as called by
the CLI). Spans stay in memory until the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

LAYERS = ("netparams", "extract", "fitkernel", "mbvd", "svgplot", "designkit", "cli", "transduce")

# item tag of the one traced CLI call made beside the traced passes
CLI_ITEM = "cli-call"

# per-call duration medians: metric -> span name
CALL_MS = {
    "netparams.parse_ms": "netparams.parse_touchstone",
    "netparams.s_to_y_ms": "netparams.s_to_y",
    "netparams.write_ms": "netparams.write_touchstone",
    "extract.detect_ms": "extract.detect_resonances",
    "extract.seed_ms": "extract.initial_guess",
    "fitkernel.select_ms": "fitkernel.select_branch_count",
    "fitkernel.fit_ms": "fitkernel.fit",
    "mbvd.metrics_ms": "mbvd.metrics_from_model",
    "mbvd.synth_ms": "mbvd.synthesize_admittance",
    "svgplot.line_plot_ms": "svgplot.line_plot",
    "designkit.render_table_ms": "designkit.render_table",
    "transduce.split_study_ms": "transduce.split_study",
    "transduce.mode_couplings_ms": "transduce.mode_couplings",
}

# what a wrapper keeps from a call's arguments and result
OBSERVERS = {
    "netparams.parse_touchstone": lambda args, res: {
        "bytes": len(args[0]) if args and isinstance(args[0], str) else 0,
        "points": int(res.freqs.size)},
    "extract.detect_resonances": lambda args, res: {"candidates": len(res)},
    "fitkernel.fit": lambda args, res: {"iterations": res.iterations, "converged": res.converged},
    "transduce.mode_couplings": lambda args, res: {"modes": len(res.modes)},
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    item: str | None
    info: dict | None = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    def as_dict(self) -> dict:
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "item": self.item, "info": self.info}


class Tracer:
    """Records nested spans; ``item`` tags every span with the work item in progress."""

    def __init__(self):
        self.spans: list[Span] = []
        self.item: str | None = None
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = Span(name, 0.0, 0.0, parent, self.item)
            self.spans.append(span)
            self._stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if observe is not None:
                span.info = observe(args, result)
            return result

        return traced


def _public_functions(module) -> dict[str, object]:
    return {name: obj for name, obj in vars(module).items()
            if inspect.isfunction(obj) and obj.__module__ == module.__name__
            and not name.startswith("_")}


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Route every public layer function through ``tracer`` until the block exits."""
    wrappers = {}
    for layer in LAYERS:
        module = importlib.import_module(f"resokit.{layer}")
        for name, fn in _public_functions(module).items():
            wrappers[id(fn)] = tracer.wrap(f"{layer}.{name}", fn)
    patched = []
    for modname, module in list(sys.modules.items()):
        if modname != "resokit" and not modname.startswith("resokit."):
            continue
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and id(obj) in wrappers:
                setattr(module, attr, wrappers[id(obj)])
                patched.append((module, attr, obj))
    try:
        yield tracer
    finally:
        for module, attr, obj in patched:
            setattr(module, attr, obj)


def covered_length(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    return [s.end - s.start - covered_length(children[i], s.start, s.end)
            for i, s in enumerate(spans)]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], items: int) -> dict[str, float]:
    """Per-layer metrics from traced passes over ``items`` work items plus one traced CLI call.

    Durations are per-call medians over every span. Counts and self-time
    shares come from the passes alone; counts are per work item (device,
    round trip or geometry). Functions that never ran read 0.
    """
    selfs = self_times(spans)
    durations: dict[str, list[float]] = defaultdict(list)
    for s in spans:
        durations[s.name].append(s.end - s.start)
    out = {metric: statistics.median(durations[name]) * 1e3 if durations[name] else 0.0
           for metric, name in CALL_MS.items()}

    parses = [s for s in spans if s.name == "netparams.parse_touchstone"]
    out["netparams.parse_MBps"] = _ratio(sum(s.info["bytes"] for s in parses) / 1e6,
                                         sum(s.end - s.start for s in parses))
    out["netparams.points"] = statistics.median(s.info["points"] for s in parses) if parses else 0

    in_pass = [s.item != CLI_ITEM for s in spans]
    pass_spans = [s for s, keep in zip(spans, in_pass) if keep]
    detects = [s.info["candidates"] for s in pass_spans if s.name == "extract.detect_resonances"]
    out["extract.candidates"] = _ratio(sum(detects), len(detects))

    fits = [s for s in pass_spans if s.name == "fitkernel.fit"]
    iterations = sum(s.info["iterations"] for s in fits)
    # each entry into fitkernel hands exactly one fit result back to its caller
    entries = sum(1 for s in pass_spans if s.layer == "fitkernel"
                  and (s.parent < 0 or spans[s.parent].layer != "fitkernel"))
    out["fitkernel.fit_calls"] = _ratio(len(fits), items)
    out["fitkernel.lm_iterations"] = _ratio(iterations, items)
    out["fitkernel.ms_per_iteration"] = _ratio(sum(s.end - s.start for s in fits) * 1e3, iterations)
    out["fitkernel.useful_fit_ratio"] = _ratio(entries, len(fits))
    out["fitkernel.converged_frac"] = _ratio(sum(1 for s in fits if s.info["converged"]), len(fits))

    couplings = [s.info["modes"] for s in pass_spans if s.name == "transduce.mode_couplings"]
    out["transduce.modes_per_geometry"] = _ratio(sum(couplings), len(couplings))

    cli_self = [t for s, t in zip(spans, selfs) if s.name == "cli.run"]
    out["cli.self_ms"] = _ratio(sum(cli_self) * 1e3, len(cli_self))

    layer_self = dict.fromkeys(LAYERS, 0.0)
    for s, t, keep in zip(spans, selfs, in_pass):
        if keep:
            layer_self[s.layer] += t
    total = sum(layer_self.values())
    for layer, t in layer_self.items():
        out[f"{layer}.self_share"] = _ratio(t, total)
    return out
