"""Small measuring helpers: percentiles, child processes, import times, digests."""

from __future__ import annotations

import hashlib
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy
import scipy

CHILD_TIMEOUT_S = 25.0  # ten times the slowest child; keeps a run within 180 s
TAIL_SAMPLES = 10


def percentile(samples: list[float], q: float) -> float | None:
    """The q-quantile, or None unless at least ten samples lie beyond it.

    p90 therefore needs 100 samples and p50 needs 20.
    """
    if math.floor(len(samples) * (1.0 - q) + 1e-9) < TAIL_SAMPLES:
        return None
    return quantile(samples, q)


def quantile(samples: list[float], q: float) -> float:
    """The q-quantile by linear interpolation between order statistics."""
    n = len(samples)
    ordered = sorted(samples)
    pos = q * (n - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, n - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(samples: list[float]) -> float:
    return statistics.median(samples) if samples else float("nan")


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(args: list[str], env: dict, cwd: Path) -> tuple[float, subprocess.CompletedProcess]:
    """Run ``python <args>`` to completion; returns (wall seconds, completed process).

    A child still running after CHILD_TIMEOUT_S is killed and reaped by
    subprocess.run and reported with return code -9.
    """
    t0 = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, *args], env=env, cwd=cwd, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc = subprocess.CompletedProcess(args, -9, "", f"timed out after {CHILD_TIMEOUT_S} s")
    return time.perf_counter() - t0, proc


def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative import milliseconds per module from ``python -X importtime`` output."""
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3:
            continue
        try:
            cumulative_us = float(parts[1])
        except ValueError:
            continue  # the header line
        out[parts[2].strip()] = cumulative_us / 1000.0
    return out


def _outputs(directories) -> list[Path]:
    # manifests embed the output directory, which differs between repeats
    return [p for d in directories for p in sorted(d.iterdir()) if not p.name.endswith("_manifest.json")]


def digest_outputs(*directories: Path) -> str:
    """SHA-256 over the names and bytes of commands' outputs, manifests excluded."""
    blob = hashlib.sha256()
    for path in _outputs(directories):
        blob.update(path.name.encode())
        blob.update(path.read_bytes())
    return blob.hexdigest()


def output_bytes(*directories: Path) -> int:
    return sum(p.stat().st_size for p in _outputs(directories))


def peak_child_rss_mb() -> float:
    """Peak resident set of any waited-for child process so far, in MB."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "seed": seed,
        "loadavg_start": list(os.getloadavg()),
    }
