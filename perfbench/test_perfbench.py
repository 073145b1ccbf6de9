"""Self-tests of the benchmark's own arithmetic and input generation.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import corpus  # noqa: E402
import measure  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from spans import Span  # noqa: E402


def test_corpus_is_byte_identical_for_a_seed_and_differs_for_another():
    first = corpus.survey_corpus(100, -20.0, "MA", "MHz")
    again = corpus.survey_corpus(100, -20.0, "MA", "MHz")
    other = corpus.survey_corpus(101, -20.0, "MA", "MHz")
    assert len(first) == 22
    assert [d.text for d in first] == [d.text for d in again]
    assert all(a.text != b.text for a, b in zip(first, other))
    assert first[0].truth == other[0].truth  # only the noise draw depends on the seed


def test_self_time_subtracts_the_union_of_children():
    tree = [
        Span("cli.run", 0.0, 10.0, -1, "x"),
        Span("netparams.parse_touchstone", 1.0, 3.0, 0, "x"),
        Span("svgplot.line_plot", 2.0, 5.0, 0, "x"),  # overlaps its sibling: union is [1, 5]
        Span("fitkernel.select_branch_count", 7.0, 8.0, 0, "x"),
        Span("fitkernel.fit", 7.25, 7.75, 3, "x"),  # grandchild: only its parent subtracts it
    ]
    assert spans.self_times(tree) == pytest.approx([5.0, 2.0, 3.0, 0.5, 0.5])


def test_covered_length_clips_to_the_parent():
    assert spans.covered_length([(-1.0, 2.0), (4.0, 20.0)], 0.0, 10.0) == pytest.approx(8.0)
    assert spans.covered_length([], 0.0, 10.0) == 0.0


def test_layer_metrics_counts_fits_and_useful_results():
    def fit(start, parent, iterations, converged=True, item="dev"):
        return Span("fitkernel.fit", start, start + 1.0, parent, item,
                    {"iterations": iterations, "converged": converged})

    tree = [
        Span("fitkernel.select_branch_count", 0.0, 4.0, -1, "dev"),
        fit(0.5, 0, 4),
        fit(2.0, 0, 6, converged=False),
        Span("cli.run", 10.0, 12.0, -1, spans.CLI_ITEM),
        fit(10.5, 3, 5, item=spans.CLI_ITEM),
    ]
    m = spans.layer_metrics(tree, items=1)
    assert m["fitkernel.fit_calls"] == 2  # the traced CLI call is not part of the pass
    assert m["fitkernel.lm_iterations"] == 10
    assert m["fitkernel.useful_fit_ratio"] == 0.5
    assert m["fitkernel.converged_frac"] == 0.5
    assert m["fitkernel.fit_ms"] == pytest.approx(1000.0)
    assert m["cli.self_ms"] == pytest.approx(1000.0)
    assert m["fitkernel.self_share"] == pytest.approx(1.0)
    assert m["transduce.split_study_ms"] == 0.0


def test_p90_needs_ten_samples_beyond_it():
    assert measure.percentile([float(i) for i in range(99)], 0.9) is None
    assert measure.percentile([float(i) for i in range(100)], 0.9) == pytest.approx(89.1)
    assert measure.percentile([float(i) for i in range(19)], 0.5) is None
    assert measure.percentile([float(i) for i in range(20)], 0.5) == pytest.approx(9.5)


def test_importtime_parser_reads_cumulative_milliseconds():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       120 |        120 |   _io",
        "import time:      2000 |      81277 | numpy",
        "import time:       300 |     473950 |   resokit.extract",
        "something else",
    ])
    assert measure.parse_importtime(text) == {"_io": 0.12, "numpy": 81.277, "resokit.extract": 473.95}


def test_tracer_wraps_functions_where_callers_look_them_up():
    from resokit import cli, designkit, fitkernel, netparams

    originals = (fitkernel.fit, fitkernel.initial_guess, cli.parse_touchstone)
    tracer = spans.Tracer()
    with spans.installed(tracer):
        assert fitkernel.fit is not originals[0]
        assert fitkernel.initial_guess is not originals[1]
        assert cli.parse_touchstone is netparams.parse_touchstone is not originals[2]
        tracer.item = "probe"
        designkit.predict_fs(1e-6, 3000.0)
    assert (fitkernel.fit, fitkernel.initial_guess, cli.parse_touchstone) == originals
    assert [(s.name, s.parent, s.item) for s in tracer.spans] == [("designkit.predict_fs", -1, "probe")]


def test_benchmark_json_matches_the_metrics_the_bench_prints():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in doc["workloads"]} <= set(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER
