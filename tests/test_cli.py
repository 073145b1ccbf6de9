"""End-to-end command line tests run in-process through cli.run."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from resokit import cli
from resokit.errors import FitError
from resokit.extract import detect_resonances
from resokit.fitkernel import FitResult
from resokit.mbvd import metrics_from_model, model_to_dict
from resokit.netparams import (ComplexTrace, NetworkRecord, device_admittance, parse_touchstone,
                               s_to_y, series_element_network, write_touchstone, y_to_s)
from resokit.refdata import SURVEY, display_model, roundtrip_model, synthesis_grid

from conftest import PAIR_GRID, golden_text, noisy_trace, pair_model
from test_acceptance import TOL_C0, TOL_FS, TOL_KT2, TOL_QM


def write_golden(path, label="L", fmt="RI", noise_db=-80.0, seed=3):
    model = roundtrip_model(label)
    grid = synthesis_grid(label)
    path.write_text(golden_text(model, grid, fmt=fmt, unit="GHz",
                                noise_db=noise_db, seed=seed))
    return model, grid


# ----------------------------------------------------------------------- fit

def test_fit_outputs_and_metrics(tmp_path):
    src = tmp_path / "rowL.s2p"
    model, grid = write_golden(src)
    outdir = tmp_path / "out"
    rc = cli.run(["fit", str(src), "--outdir", str(outdir), "--emit-candidates"])
    assert rc == 0

    names = {p.name for p in outdir.iterdir()}
    assert names == {
        "rowL_candidates.json", "rowL_model.json", "rowL_metrics.json",
        "rowL_fit.csv", "rowL_fit.svg", "rowL_table.md", "rowL_manifest.json",
    }

    doc = json.loads((outdir / "rowL_metrics.json").read_text())
    assert set(doc) == {"embedding", "fit", "metrics", "source"}
    assert doc["source"] == "rowL.s2p"
    assert doc["embedding"] == "series"
    assert set(doc["fit"]) == {"converged", "cost", "iterations", "n_branches", "residual_rms"}
    assert doc["fit"]["converged"] is True
    assert doc["fit"]["n_branches"] == 1

    truth = metrics_from_model(model, grid)
    got = doc["metrics"]
    assert got["fs_hz"] == pytest.approx(truth.fs, rel=1e-4)
    assert got["kt2"] == pytest.approx(truth.kt2, rel=0.02)
    assert got["q_m"] == pytest.approx(truth.qm, rel=0.05)
    assert got["c0_f"] == pytest.approx(truth.c0, rel=0.01)

    cands = json.loads((outdir / "rowL_candidates.json").read_text())
    assert len(cands) == 1
    assert set(cands[0]) == {"fs_est_hz", "fp_est_hz", "prominence_db", "significance", "span"}
    assert cands[0]["fs_est_hz"] == pytest.approx(truth.fs, rel=2e-3)
    assert cands[0]["significance"] > 1e4

    manifest = json.loads((outdir / "rowL_manifest.json").read_text())
    assert manifest["command"] == "fit"
    assert manifest["inputs"] == [str(src)]
    assert manifest["outputs"][-1] == "rowL_manifest.json"
    assert set(manifest["outputs"]) == names

    # fit csv carries measured and fitted columns over the same grid
    lines = (outdir / "rowL_fit.csv").read_text().splitlines()
    assert lines[0] == "freq_Hz,ReY_S,ImY_S,ReYfit_S,ImYfit_S"
    assert len(lines) == 1 + grid.size


def test_fit_missing_file(tmp_path):
    rc = cli.run(["fit", str(tmp_path / "nope.s2p"), "--outdir", str(tmp_path)])
    assert rc == 2


def test_fit_corrupt_file(tmp_path):
    src = tmp_path / "bad.s2p"
    src.write_text("# GHZ S RI R 50\n1.0 bogus 0 0 0 0 0 0 0\n")
    rc = cli.run(["fit", str(src), "--outdir", str(tmp_path / "o")])
    assert rc == 2


def stuck_fit():
    """A fit of row L's displayed model that stopped unconverged after 40
    iterations."""
    return FitResult(model=display_model("L"), cost=1.0, iterations=40,
                     converged=False, residual_rms=1.0, cost_trace=(1.0,))


def test_fit_nonconvergence_exit_code(tmp_path, monkeypatch):
    src = tmp_path / "rowL.s2p"
    write_golden(src)
    monkeypatch.setattr(cli, "select_branch_count", lambda *a, **k: stuck_fit())
    rc = cli.run(["fit", str(src), "--outdir", str(tmp_path / "o")])
    assert rc == 3


def test_fit_error_exits_3_and_writes_nothing(tmp_path, capsys, monkeypatch):
    src = tmp_path / "rowL.s2p"
    write_golden(src)

    def fail(*args, **kwargs):
        raise FitError("cost became non-finite", iteration=7)

    monkeypatch.setattr(cli, "select_branch_count", fail)
    outdir = tmp_path / "o"
    assert cli.run(["fit", str(src), "--outdir", str(outdir)]) == 3
    assert capsys.readouterr().err == "error: iteration 7: cost became non-finite\n"
    assert not outdir.exists()


def test_fit_without_a_peak_is_an_input_error(tmp_path, capsys):
    # a model with no motional branch: |Y| of c0 alone rises without a peak
    model = tmp_path / "flat.json"
    model.write_text(json.dumps({"topology": "mbvd/1", "c0_f": 5e-14, "r0_ohm": 0.0,
                                 "rs_ohm": 0.0, "branches": []}))
    assert cli.run(["synth", str(model), "--grid", "1e9:5e9:401", "--outdir", str(tmp_path)]) == 0
    outdir = tmp_path / "o"
    assert cli.run(["fit", str(tmp_path / "flat.s2p"), "--outdir", str(outdir)]) == 2
    assert capsys.readouterr().err == "error: no resonant peaks found above the prominence threshold\n"
    assert not outdir.exists()


def test_fit_branches_pins_the_count(tmp_path):
    src = tmp_path / "rowL.s2p"
    write_golden(src)
    runs = {"auto": [], "pinned": ["--branches", "1"]}
    for sub, extra in runs.items():
        rc = cli.run(["fit", str(src), "--outdir", str(tmp_path / sub), "--prefix", "d", *extra])
        assert rc == 0
    # one candidate: automatic selection stops at the same single-branch fit
    auto = (tmp_path / "auto" / "d_model.json").read_bytes()
    assert (tmp_path / "pinned" / "d_model.json").read_bytes() == auto
    assert cli.run(["fit", str(src), "--outdir", str(tmp_path / "two"), "--branches", "2"]) == 2


def test_fit_branches_1_returns_the_dominant_branch_of_a_pair(tmp_path):
    # criterion 3's pair, clean: the weaker 3.3 GHz peak rises from the
    # 3.0 GHz notch, so it has the larger dB prominence but not the larger
    # height in linear |Y|
    src = tmp_path / "pair.s2p"
    src.write_text(golden_text(pair_model(), PAIR_GRID))
    outdir = tmp_path / "o"
    assert cli.run(["fit", str(src), "--branches", "1", "--outdir", str(outdir)]) == 0
    got = json.loads((outdir / "pair_metrics.json").read_text())["metrics"]
    assert got["fs_hz"] == pytest.approx(3.0e9, rel=1e-4)
    assert got["kt2"] == pytest.approx(0.10, rel=0.02)


FIT_FLAG_ERRORS = [
    (["--branches", "0"], "error: --branches must be >= 1"),
    (["--branches", "-3"], "error: --branches must be >= 1"),
    (["--threshold-db", "nan"], "error: --threshold-db must be positive and finite, got nan"),
    (["--threshold-db", "0"], "error: --threshold-db must be positive and finite, got 0.0"),
    (["--threshold-db", "-5"], "error: --threshold-db must be positive and finite, got -5.0"),
]
FIT_FLAG_IDS = ["zero-branches", "negative-branches", "nan-threshold", "zero-threshold",
                "negative-threshold"]


@pytest.mark.parametrize("command", ["fit", "batch"])
@pytest.mark.parametrize("flags,message", FIT_FLAG_ERRORS, ids=FIT_FLAG_IDS)
def test_fit_flag_errors_come_before_the_input(tmp_path, capsys, command, flags, message):
    # the input does not exist: a flag error must win over the read error
    outdir = tmp_path / "o"
    rc = cli.run([command, str(tmp_path / "missing"), *flags, "--outdir", str(outdir)])
    assert rc == 2
    assert capsys.readouterr().err == message + "\n"
    assert not outdir.exists()


@pytest.mark.parametrize("command", ["fit", "batch"])
def test_fit_has_one_residual_and_no_weighting_flag(tmp_path, capsys, command):
    with pytest.raises(SystemExit) as exc:
        cli.run([command, str(tmp_path / "missing"), "--weighting", "complex"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --weighting complex" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["fit", "batch"])
def test_fit_has_no_restarts_flag(tmp_path, capsys, command):
    with pytest.raises(SystemExit) as exc:
        cli.run([command, str(tmp_path / "missing"), "--branches", "1", "--restarts", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --restarts 2" in capsys.readouterr().err


def test_batch_has_no_trace_fit_flag(tmp_path, capsys):
    # batch recorded the flag in its manifest and wrote no trace
    with pytest.raises(SystemExit) as exc:
        cli.run(["batch", str(tmp_path / "missing"), "--trace-fit"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --trace-fit" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["fit", "batch"])
def test_fit_flag_errors_on_a_good_input(tmp_path, capsys, command):
    # these used to run: batch failed every file on --branches 0 (exit 1)
    d = tmp_path / "meas"
    d.mkdir()
    write_golden(d / "a.s2p")
    target = d / "a.s2p" if command == "fit" else d
    for flags, message in FIT_FLAG_ERRORS:
        outdir = tmp_path / "o"
        assert cli.run([command, str(target), *flags, "--outdir", str(outdir)]) == 2
        assert capsys.readouterr().err == message + "\n"
        assert not outdir.exists()


def test_fit_prefix_override(tmp_path):
    src = tmp_path / "rowL.s2p"
    write_golden(src)
    outdir = tmp_path / "o"
    rc = cli.run(["fit", str(src), "--outdir", str(outdir), "--prefix", "dev"])
    assert rc == 0
    assert (outdir / "dev_model.json").exists()
    assert not (outdir / "rowL_model.json").exists()


def test_fit_outputs_in_manifest_order(tmp_path):
    src = tmp_path / "rowL.s2p"
    write_golden(src)
    outdir = tmp_path / "o"
    assert cli.run(["fit", str(src), "--outdir", str(outdir),
                    "--emit-candidates", "--trace-fit"]) == 0
    manifest = json.loads((outdir / "rowL_manifest.json").read_text())
    assert manifest["outputs"] == [
        "rowL_candidates.json", "rowL_model.json", "rowL_metrics.json",
        "rowL_fit_trace.json", "rowL_fit.csv", "rowL_fit.svg", "rowL_table.md",
        "rowL_manifest.json",
    ]


def test_fit_off_span_resonance_is_an_input_error(tmp_path, capsys):
    # survey row V on a grid ending 0.05% above f_s, at -20 dB: no candidate
    # clears the noise, and with --branches 1 the fitted dominant branch
    # lands below the grid, so no metrics can be reported
    model = roundtrip_model("V")
    fs = model.branches[model.dominant_index].fs
    d = tmp_path / "meas"
    d.mkdir()
    (d / "v.s2p").write_text(golden_text(model, np.linspace(0.9 * fs, 1.0005 * fs, 2001),
                                         noise_db=-20.0, seed=1048))
    outdir = tmp_path / "o"
    assert cli.run(["fit", str(d / "v.s2p"), "--emit-candidates", "--outdir", str(outdir)]) == 2
    assert capsys.readouterr().err == "error: no resonance candidate clears the noise\n"
    assert not outdir.exists()
    assert cli.run(["fit", str(d / "v.s2p"), "--branches", "1", "--emit-candidates",
                    "--outdir", str(outdir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: fitted dominant resonance ")
    assert err.endswith(" Hz lies outside the measured span [8.082e+09, 8.98449e+09] Hz\n")
    assert err.count("\n") == 1
    assert not outdir.exists()
    # in a batch the same file is one failure
    assert cli.run(["batch", str(d), "--branches", "1", "--outdir", str(outdir)]) == 1
    failures = json.loads((outdir / "batch_batch.json").read_text())["failures"]
    assert [(f["file"], f["error"]) for f in failures] == [("v.s2p", err[len("error: "):-1])]


@pytest.mark.parametrize("label", ["B", "F", "H", "N"])
def test_fit_refuses_a_grid_edge_resonance_that_makes_no_peak(tmp_path, capsys, label):
    # the grid starts at 0.999 fs (-40 dB, criterion 2's seed): the
    # resonance makes no peak and only noise candidates are left, which
    # once seeded a fit 5-20% above fs with exit 0 and no flag
    i = [r.label for r in SURVEY].index(label)
    model, top = roundtrip_model(label), synthesis_grid(label)
    fs = metrics_from_model(model, top).fs
    src = tmp_path / f"{label}.s2p"
    src.write_text(golden_text(model, np.linspace(0.999 * fs, top[-1], top.size),
                               noise_db=-40.0, seed=100 + i))
    outdir = tmp_path / "o"
    assert cli.run(["fit", str(src), "--emit-candidates", "--outdir", str(outdir)]) == 2
    assert capsys.readouterr().err == "error: no resonance candidate clears the noise\n"
    assert not outdir.exists()


def test_candidates_file_writes_an_infinite_significance_as_strict_json():
    # on a noiseless plateau most third differences are exactly 0, and so is
    # the noise estimate: the significance is inf, with no warning
    f = np.linspace(1e9, 2e9, 64)
    y = np.full(f.size, 1e-3 + 0j)
    y[30:33] = [2e-3, 3e-3, 2e-3]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cands = detect_resonances(ComplexTrace(freqs=f, values=y))
    assert [(c.fs_est, c.significance) for c in cands] == [(f[31], float("inf"))]
    doc = cli._candidates_doc(cands)
    assert [c["significance"] for c in doc] == ["inf"]
    json.dumps(doc, allow_nan=False)


@pytest.mark.parametrize("entry", ["1.5e308 1.5e308", "2e154 0", "0 -1e200"])
def test_an_s_entry_too_large_to_invert_is_a_located_input_error(tmp_path, capsys, entry):
    # |S11|**2 overflows the determinant's scale; before, the conversion
    # spread NaN into an unlocated "values must be finite", with warnings
    d = tmp_path / "meas"
    d.mkdir()
    write_golden(d / "a.s2p")
    (d / "b.s2p").write_text("# GHZ S RI R 50\n"
                             "1.0 0.1 0 0 0 0 0 0.1 0\n"
                             f"2.0 {entry} 0 0 0 0 0.1 0\n")
    message = "(I + S) is too large to invert at 2e+09 Hz"
    outdir = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert cli.run(["fit", str(d / "b.s2p"), "--outdir", str(outdir)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not outdir.exists()
        assert cli.run(["batch", str(d), "--outdir", str(outdir)]) == 1
    doc = json.loads((outdir / "batch_batch.json").read_text())
    assert [r["file"] for r in doc["rows"]] == ["a.s2p"]
    assert doc["failures"] == [{"file": "b.s2p", "error": message}]


def test_fit_flags_a_resonance_at_the_grid_edge(tmp_path):
    # survey row L on a grid starting 0.1% below f_s, about one linewidth
    model = roundtrip_model("L")
    fs = model.branches[0].fs
    src = tmp_path / "l.s2p"
    src.write_text(golden_text(model, np.linspace(0.999 * fs, 2.05 * fs, 2001),
                               noise_db=-40.0, seed=111))
    outdir = tmp_path / "o"
    assert cli.run(["fit", str(src), "--outdir", str(outdir)]) == 0
    doc = json.loads((outdir / "l_metrics.json").read_text())
    assert doc["metrics"]["flags"] == ["fs-near-edge"]


# --------------------------------------------------------------------- batch

def test_batch_partial_failure(tmp_path):
    d = tmp_path / "meas"
    d.mkdir()
    write_golden(d / "a.s2p", label="L")
    write_golden(d / "b.s2p", label="P")
    (d / "c.s2p").write_text("# GHZ S RI R 50\nnot numbers\n")
    outdir = tmp_path / "out"
    rc = cli.run(["batch", str(d), "--outdir", str(outdir)])
    assert rc == 1

    doc = json.loads((outdir / "batch_batch.json").read_text())
    assert [r["file"] for r in doc["rows"]] == ["a.s2p", "b.s2p"]
    assert len(doc["failures"]) == 1
    assert doc["failures"][0]["file"] == "c.s2p"
    assert "line" in doc["failures"][0]["error"]

    md = (outdir / "batch_batch.md").read_text().splitlines()
    assert md[0].startswith("| device |")
    assert len(md) == 4
    assert (outdir / "batch_batch.csv").exists()
    assert (outdir / "batch_manifest.json").exists()


def test_batch_all_good(tmp_path):
    d = tmp_path / "meas"
    d.mkdir()
    write_golden(d / "a.s2p", label="L")
    rc = cli.run(["batch", str(d), "--outdir", str(tmp_path / "o")])
    assert rc == 0


def test_batch_lists_a_fit_that_did_not_converge(tmp_path, monkeypatch):
    d = tmp_path / "meas"
    d.mkdir()
    write_golden(d / "a.s2p")
    monkeypatch.setattr(cli, "select_branch_count", lambda *a, **k: stuck_fit())
    outdir = tmp_path / "o"
    assert cli.run(["batch", str(d), "--outdir", str(outdir)]) == 1
    doc = json.loads((outdir / "batch_batch.json").read_text())
    assert doc == {"rows": [],
                   "failures": [{"file": "a.s2p", "error": "iteration 40: fit did not converge"}]}


def test_fit_and_batch_read_a_shunt_embedding(tmp_path):
    # row A at -80 dB with criterion 2's seed, written once as the series
    # element and once as a shunt element at port 1: Y11 = Y_dev, the rest 0
    trace = noisy_trace(roundtrip_model("A"), synthesis_grid("A"), noise_db=-80.0, seed=100)
    shunt = np.zeros((trace.npoints, 2, 2), dtype=complex)
    shunt[:, 0, 0] = trace.values
    texts = {"series": write_touchstone(y_to_s(series_element_network(trace))),
             "shunt": write_touchstone(y_to_s(NetworkRecord(trace.freqs, shunt, "Y")))}
    metrics = {}
    for embedding, text in texts.items():
        d = tmp_path / embedding
        d.mkdir()
        (d / "A.s2p").write_text(text)
        flags = ["--shunt"] if embedding == "shunt" else []
        assert cli.run(["fit", str(d / "A.s2p"), *flags, "--outdir", str(d / "fit")]) == 0
        assert cli.run(["batch", str(d), *flags, "--outdir", str(d / "batch")]) == 0
        doc = json.loads((d / "fit" / "A_metrics.json").read_text())
        assert doc["embedding"] == embedding
        [row] = json.loads((d / "batch" / "batch_batch.json").read_text())["rows"]
        assert row["metrics"] == doc["metrics"]
        metrics[embedding] = doc["metrics"]
    for key, tol in [("fs_hz", TOL_FS), ("kt2", TOL_KT2), ("q_m", TOL_QM), ("c0_f", TOL_C0)]:
        assert metrics["shunt"][key] == pytest.approx(metrics["series"][key], rel=tol, abs=0.0)


def test_batch_rejects_non_directory(tmp_path):
    f = tmp_path / "a.s2p"
    write_golden(f)
    assert cli.run(["batch", str(f)]) == 2
    empty = tmp_path / "empty"
    empty.mkdir()
    assert cli.run(["batch", str(empty)]) == 2


# --------------------------------------------------------------------- synth

def test_synth_writes_touchstone(tmp_path):
    model = display_model("P")
    mj = tmp_path / "modelP.json"
    mj.write_text(json.dumps(model_to_dict(model)))
    outdir = tmp_path / "o"
    rc = cli.run(["synth", str(mj), "--outdir", str(outdir),
                  "--grid", "1.6e9:3.9e9:501", "--fmt", "MA"])
    assert rc == 0
    net = parse_touchstone((outdir / "modelP.s2p").read_text())
    assert net.freqs.size == 501
    assert net.freqs[0] == pytest.approx(1.6e9)
    assert net.freqs[-1] == pytest.approx(3.9e9)
    # the file reproduces the model's through admittance
    y = device_admittance(s_to_y(net), "series")
    from resokit.mbvd import synthesize_admittance
    ref = synthesize_admittance(model, net.freqs)
    assert np.max(np.abs(y.values - ref.values)) < 1e-9 * np.max(np.abs(ref.values))


def test_synth_bad_grid(tmp_path, capsys):
    mj = tmp_path / "m.json"
    mj.write_text(json.dumps(model_to_dict(display_model("L"))))
    for spec in ("2e9:1e9:100", "1e9:2e9", "1e9:abc:11", "1e9:2e9:1.5", "1e9:2e9:1", "1e9:inf:11"):
        assert cli.run(["synth", str(mj), "--outdir", str(tmp_path / "o"), "--grid", spec]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --grid lo:hi:n ") and repr(spec) in err
    assert not (tmp_path / "o").exists()


MODEL_L = model_to_dict(display_model("L"))


@pytest.mark.parametrize("text, message", [
    ("[]", "expected a model object, got []"),
    (json.dumps({**MODEL_L, "branches": {"a": 1}}),
     "branches must be a list of branch objects, got {'a': 1}"),
    (json.dumps({**MODEL_L, "branches": [3]}), "branches[0] must be a branch object, got 3"),
    (json.dumps({k: v for k, v in MODEL_L.items() if k != "c0_f"}), "c0_f is missing"),
    (json.dumps({**MODEL_L, "branches": [{**MODEL_L["branches"][0], "rm_ohm": "x"}]}),
     "branches[0].rm_ohm must be a non-negative finite number of ohm, got 'x'"),
    (json.dumps({**MODEL_L, "c0_f": True}), "c0_f must be a positive finite number of F, got True"),
    # JSON's 1e400 parses to inf, which the grid check would otherwise blame
    (json.dumps({**MODEL_L, "c0_f": "X"}).replace('"X"', "1e400"),
     "c0_f must be a positive finite number of F, got inf"),
    # lm*cm underflows to 0 (fs divided by zero) or overflows (fs read 0 Hz)
    (json.dumps({**MODEL_L, "branches": [{"rm_ohm": 1.0, "lm_h": 1e-200, "cm_f": 1e-200}]}),
     "branches[0]: lm*cm = 0.0 is not a positive finite normal float, so the series "
     "resonance is not representable"),
    (json.dumps({**MODEL_L, "branches": [{"rm_ohm": 1.0, "lm_h": 1e200, "cm_f": 1e200}]}),
     "branches[0]: lm*cm = inf is not a positive finite normal float, so the series "
     "resonance is not representable"),
    (json.dumps({**MODEL_L, "branches": MODEL_L["branches"] * 2}),
     f"branches[0] and branches[1] share the series resonance {display_model('L').branches[0].fs!r} Hz"),
], ids=["document", "branches-object", "branch-number", "c0-missing", "rm-text", "c0-boolean",
        "c0-overflow", "lm-cm-underflow", "lm-cm-overflow", "equal-fs"])
def test_synth_malformed_model_is_an_input_error_naming_file_and_key(tmp_path, capsys, text,
                                                                     message):
    mj = tmp_path / "m.json"
    mj.write_text(text)
    outdir = tmp_path / "o"
    assert cli.run(["synth", str(mj), "--outdir", str(outdir), "--grid", "1e9:3e9:11"]) == 2
    assert capsys.readouterr().err == f"error: {mj}: {message}\n"
    assert not outdir.exists()


@pytest.mark.parametrize("spec, first", [("1e-300:2e-300:3", "1e-300"),
                                         ("1e300:1.7e308:3", "8.5e+307")], ids=["bottom", "top"])
def test_synth_grid_whose_admittance_overflows(tmp_path, capsys, spec, first):
    # 1/(j w c0) overflows at the bottom, w at the top; the filter makes a
    # numpy overflow warning an error, as CI's -W error::RuntimeWarning does
    mj = tmp_path / "m.json"
    mj.write_text(json.dumps(model_to_dict(display_model("L"))))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert cli.run(["synth", str(mj), "--outdir", str(tmp_path / "o"), "--grid", spec]) == 2
    assert capsys.readouterr().err == (
        f"error: --grid {spec!r}: the model's admittance leaves the float range at {first} Hz\n")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("spec", ["1e300:1e301:3", "1e200:1e201:3"])
def test_synth_grid_whose_s_parameters_overflow(tmp_path, capsys, spec):
    # the admittance is finite, but z0 Y is too large for the S conversion
    mj = tmp_path / "m.json"
    mj.write_text(json.dumps(model_to_dict(display_model("L"))))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert cli.run(["synth", str(mj), "--outdir", str(tmp_path / "o"), "--grid", spec]) == 2
    assert capsys.readouterr().err == (
        f"error: --grid {spec!r} with --z0 50.0: (I + z0 Y) is too large to invert "
        f"at {float(spec.split(':')[0]):.6g} Hz\n")
    assert not (tmp_path / "o").exists()


def linspace_out_of_memory(monkeypatch):
    """np.linspace that fails as numpy does for a grid of 10**11 points or
    more, without trying to allocate it."""
    linspace = np.linspace

    def fake(lo, hi, n, *args, **kwargs):
        if n >= 10**11:
            raise MemoryError(f"Unable to allocate {8 * n / 2**30:.0f} GiB for an array")
        return linspace(lo, hi, n, *args, **kwargs)

    monkeypatch.setattr(np, "linspace", fake)


def test_synth_grid_too_large(tmp_path, capsys, monkeypatch):
    linspace_out_of_memory(monkeypatch)
    mj = tmp_path / "m.json"
    mj.write_text(json.dumps(model_to_dict(display_model("L"))))
    spec = "1e9:2e9:100000000000"
    assert cli.run(["synth", str(mj), "--outdir", str(tmp_path / "o"), "--grid", spec]) == 2
    assert capsys.readouterr().err == (
        f"error: --grid {spec!r}: 100000000000 grid points do not fit in memory\n")
    assert not (tmp_path / "o").exists()


def test_out_of_memory_is_an_input_error(tmp_path, capsys, monkeypatch):
    mj = tmp_path / "m.json"
    mj.write_text(json.dumps(model_to_dict(display_model("L"))))
    argv = ["synth", str(mj), "--outdir", str(tmp_path / "o"), "--grid", "1e9:2e9:11"]
    for exc, err in ((MemoryError(), "error: out of memory\n"),
                     (MemoryError("Unable to allocate 8 GiB"),
                      "error: out of memory: Unable to allocate 8 GiB\n")):
        def raiser(*args, exc=exc):
            raise exc
        monkeypatch.setattr(cli, "synthesize_admittance", raiser)
        assert cli.run(argv) == 2
        assert capsys.readouterr().err == err


# --------------------------------------------------------------------- modes

MODES = ["modes", "--topology", "dlvr", "--n", "5", "--lambda", "1.8e-6", "--vp", "3426"]


def test_modes_outputs(tmp_path):
    outdir = tmp_path / "o"
    rc = cli.run(["modes", "--outdir", str(outdir), "--topology", "dlvr",
                  "--n", "5", "--lambda", "1.8e-6", "--vp", "3426"])
    assert rc == 0
    names = {p.name for p in outdir.iterdir()}
    assert names == {
        "modes_dlvr_n5_spectrum.csv", "modes_dlvr_n5_spectrum.svg",
        "modes_dlvr_n5_admittance.csv", "modes_dlvr_n5_admittance.svg",
        "modes_dlvr_n5_manifest.json",
    }
    lines = (outdir / "modes_dlvr_n5_spectrum.csv").read_text().splitlines()
    assert lines[0] == "N,n,f_n_Hz,eta_n,nodes"
    rows = [ln.split(",") for ln in lines[1:]]
    nodes = [int(r[4]) for r in rows]
    etas = {int(r[4]): float(r[3]) for r in rows}
    # even sampled modes around the design point; 4 and 6 dominate
    assert set(nodes) <= {2, 4, 6, 8}
    assert etas[4] + etas[6] > 0.9
    assert all(int(r[0]) == 5 for r in rows)


def test_modes_sweep(tmp_path):
    outdir = tmp_path / "o"
    rc = cli.run(["modes", "--outdir", str(outdir), "--topology", "dlvr",
                  "--n", "5", "--lambda", "1.8e-6", "--vp", "3426",
                  "--sweep-n", "5:20:5"])
    assert rc == 0
    lines = (outdir / "modes_dlvr_n5_sweep.csv").read_text().splitlines()
    assert lines[0] == "N,n,f_n_Hz,eta_n,nodes,f_design_Hz,offset"
    doc = json.loads((outdir / "modes_dlvr_n5_sweep.json").read_text())
    counts = [rec["n_elements"] for rec in doc]
    offsets = [rec["offset"] for rec in doc]
    assert counts == [5, 10, 15, 20]
    assert all(a > b for a, b in zip(offsets, offsets[1:]))
    # electrode sampling puts the dominant pair exactly 1/N off design
    for rec in doc:
        assert rec["offset"] * rec["n_elements"] == pytest.approx(1.0, rel=1e-12)
    assert (outdir / "modes_dlvr_n5_sweep.svg").exists()


def test_modes_sweep_outputs_in_manifest_order(tmp_path):
    outdir = tmp_path / "o"
    assert cli.run([*MODES, "--outdir", str(outdir), "--sweep-n", "5:20:5"]) == 0
    manifest = json.loads((outdir / "modes_dlvr_n5_manifest.json").read_text())
    assert manifest["command"] == "modes"
    assert manifest["inputs"] == []
    assert manifest["outputs"] == [
        "modes_dlvr_n5_spectrum.csv", "modes_dlvr_n5_spectrum.svg",
        "modes_dlvr_n5_admittance.csv", "modes_dlvr_n5_admittance.svg",
        "modes_dlvr_n5_sweep.csv", "modes_dlvr_n5_sweep.json", "modes_dlvr_n5_sweep.svg",
        "modes_dlvr_n5_manifest.json",
    ]


@pytest.mark.parametrize("flag, value", [
    ("--vp", "nan"), ("--vp", "inf"), ("--vp", "0"), ("--vp", "-3426"),
    ("--c0", "nan"), ("--c0", "inf"), ("--c0", "0"), ("--c0", "-1e-13"),
])
def test_modes_rejects_non_positive_or_non_finite_vp_and_c0(tmp_path, capsys, flag, value):
    outdir = tmp_path / "o"
    assert cli.run([*MODES, f"{flag}={value}", "--outdir", str(outdir)]) == 2
    assert capsys.readouterr().err == (
        f"error: {flag} must be positive and finite, got {float(value)!r}\n")
    assert not outdir.exists()


@pytest.mark.parametrize("wavelength, vp, span", [("1e-300", "1e300", "inf to inf"),
                                                  ("1e300", "1e-300", "0 to 0")],
                         ids=["overflow", "underflow"])
def test_modes_frequencies_outside_the_float_range(tmp_path, capsys, wavelength, vp, span):
    # v_p / plate width overflows to inf or underflows to 0
    outdir = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = cli.run(["modes", "--topology", "dlvr", "--n", "5", "--lambda", wavelength,
                      "--vp", vp, "--outdir", str(outdir)])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: --vp {float(vp)!r} and --lambda {float(wavelength)!r} put the mode "
        f"frequencies outside the float range ({span} Hz)\n")
    assert not outdir.exists()


def test_modes_c0_too_large_for_a_motional_branch(tmp_path, capsys):
    # lm = 1/((2 pi fs)^2 cm) underflows to 0
    outdir = tmp_path / "o"
    assert cli.run([*MODES, "--c0", "1e300", "--outdir", str(outdir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --c0 1e+300 gives no representable motional branch at these "
                          "mode frequencies (lm = 1/((2 pi fs)^2 cm) leaves the float range at fs ")
    assert err.count("\n") == 1
    assert not outdir.exists()


def test_modes_c0_too_small_for_any_motional_branch(tmp_path, capsys):
    # every mode's cm = c0 r/(1 - r) falls below the 1e-21 F floor
    outdir = tmp_path / "o"
    assert cli.run([*MODES, "--c0", "1e-200", "--outdir", str(outdir)]) == 2
    assert capsys.readouterr().err == (
        "error: --c0 1e-200 and --kt2 0.2: every mode fell below the representable "
        "coupling floor\n")
    assert not outdir.exists()


def test_modes_bad_sweep_spec(tmp_path, capsys):
    outdir = tmp_path / "o"
    for spec in ("1:20:5", "5:400", "5:x:5", "5:400:0", "20:5:5", "5:10:5:1"):
        rc = cli.run(["modes", "--outdir", str(outdir), "--topology", "dlvr",
                      "--n", "5", "--lambda", "1.8e-6", "--vp", "3426",
                      "--sweep-n", spec])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --sweep-n A:B:STEP ") and repr(spec) in err
    # the spec is checked before any output is written
    assert not outdir.exists()


def test_modes_bad_grid_points(tmp_path, capsys):
    outdir = tmp_path / "o"
    for n in ("1", "0", "-5"):
        assert cli.run([*MODES, "--outdir", str(outdir), "--grid-points", n]) == 2
        assert capsys.readouterr().err == f"error: --grid-points needs at least 2 points, got {n}\n"
    # checked before any output is written
    assert not outdir.exists()


def test_modes_grid_points_too_large(tmp_path, capsys, monkeypatch):
    linspace_out_of_memory(monkeypatch)
    outdir = tmp_path / "o"
    assert cli.run([*MODES, "--outdir", str(outdir), "--grid-points", "100000000000"]) == 2
    assert capsys.readouterr().err == (
        "error: --grid-points: 100000000000 grid points do not fit in memory\n")
    # the admittance grid is built before any output is written
    assert not outdir.exists()


def test_modes_n_max_too_large(tmp_path, capsys, monkeypatch):
    # the mode indices 1..n_max are one array; numpy's allocation error for
    # it is one error line and exit 2, and modes writes nothing
    arange = np.arange

    def fake(start, stop=None, *args, **kwargs):
        n = 0 if stop is None else stop - start
        if n >= 10**11:
            raise MemoryError(f"Unable to allocate {8 * n / 2**30:.0f} GiB for an array")
        return arange(start, stop, *args, **kwargs)

    monkeypatch.setattr(np, "arange", fake)
    outdir = tmp_path / "o"
    assert cli.run([*MODES, "--outdir", str(outdir), "--n-max", "100000000000"]) == 2
    assert capsys.readouterr().err == (
        "error: out of memory: Unable to allocate 745 GiB for an array\n")
    assert not outdir.exists()


@pytest.mark.parametrize("argv, err", [
    (["--topology", "dlvr", "--n", "5", "--lambda", "1e308", "--vp", "3426"],
     "--lambda 1e+308, --n 5 and --c 0.5: plate width overflows a float for 5 electrodes at "
     "wavelength 1e+308 m"),
    (["--topology", "dlvr", "--n", "5", "--lambda", "5e-324", "--vp", "3426"],
     "--lambda 5e-324, --n 5 and --c 0.5: finger width 0.0 m is below the normal float range"),
    (["--topology", "dlvr", "--n", "5", "--lambda", "2e-323", "--c", "0.9", "--vp", "3426"],
     "--lambda 2e-323, --n 5 and --c 0.9: finger width 1e-323 m is below the normal float "
     "range"),
    (["--topology", "lvr", "--n", "5", "--lambda", "1e307", "--vp", "1e170",
      "--sweep-n", "5:100:5"],
     "--lambda 1e+307 and --sweep-n '5:100:5': plate width overflows a float for 40 "
     "electrodes at wavelength 1e+307 m"),
], ids=["plate", "finger", "narrow-gap-finger", "sweep-plate"])
def test_modes_layout_outside_the_float_range(tmp_path, capsys, argv, err):
    outdir = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert cli.run(["modes", *argv, "--outdir", str(outdir)]) == 2
    assert capsys.readouterr().err == f"error: {err}\n"
    assert not outdir.exists()


def test_modes_bad_geometry(tmp_path):
    rc = cli.run(["modes", "--outdir", str(tmp_path), "--topology", "dlvr",
                  "--n", "1", "--lambda", "1.8e-6", "--vp", "3426"])
    assert rc == 2


# -------------------------------------------------------------------- design

def test_design_plan(tmp_path):
    tj = tmp_path / "targets.json"
    tj.write_text(json.dumps([3.0e9, 4.5e9, 6.1e9]))
    outdir = tmp_path / "o"
    rc = cli.run(["design", str(tj), "--outdir", str(outdir), "--vp", "5382"])
    assert rc == 0
    lines = (outdir / "targets_plan.csv").read_text().splitlines()
    assert lines[0] == "targets_Hz,wavelength_nm,topology,status,findings"
    assert lines[1] == "3000000000.0,1794,lvr,ok,"
    doc = json.loads((outdir / "targets_plan.json").read_text())
    assert doc["v_p"] == 5382.0
    assert len(doc["entries"]) == 3
    e = doc["entries"][0]
    assert set(e) == {"targets_hz", "wavelength_m", "topology", "n_elements",
                      "coverage", "findings", "error"}
    assert e["topology"] == "lvr"
    assert e["error"] is None


def test_design_frequency_threshold_policy(tmp_path):
    # a target below the threshold gets lvr, one above it dlvr
    tj = tmp_path / "t.json"
    tj.write_text(json.dumps([3e9, 6e9]))
    outdir = tmp_path / "o"
    assert cli.run(["design", str(tj), "--vp", "5382", "--topology-policy", "4e9",
                    "--outdir", str(outdir)]) == 0
    lines = (outdir / "t_plan.csv").read_text().splitlines()
    assert lines[1:] == ["3000000000.0,1794,lvr,ok,", "6000000000.0,897,dlvr,ok,"]


def test_design_partial_on_out_of_range_target(tmp_path):
    tj = tmp_path / "targets.json"
    tj.write_text(json.dumps({"targets_hz": [3.0e9, 15.4e9]}))
    outdir = tmp_path / "o"
    rc = cli.run(["design", str(tj), "--outdir", str(outdir), "--vp", "5382"])
    assert rc == 1
    doc = json.loads((outdir / "targets_plan.json").read_text())
    bad = doc["entries"][1]
    assert bad["topology"] is None
    assert "349" in bad["error"]


def test_design_fallback_velocity_from_survey(tmp_path):
    # no --vp: the planner calibrates from the bundled survey (median 5508)
    tj = tmp_path / "t.json"
    tj.write_text(json.dumps([4.0e9]))
    outdir = tmp_path / "o"
    rc = cli.run(["design", str(tj), "--outdir", str(outdir), "--mode", "S0"])
    assert rc == 0
    doc = json.loads((outdir / "t_plan.json").read_text())
    assert doc["v_p"] == 5508.0


def test_design_rejects_bad_targets(tmp_path):
    tj = tmp_path / "t.json"
    tj.write_text(json.dumps([]))
    assert cli.run(["design", str(tj), "--vp", "5382"]) == 2
    tj.write_text(json.dumps(["3e9"]))
    assert cli.run(["design", str(tj), "--vp", "5382"]) == 2
    tj.write_text("{broken")
    assert cli.run(["design", str(tj), "--vp", "5382"]) == 2


@pytest.mark.parametrize("targets,flags,message", [
    ([3e9], ["--vp", "inf"], "error: --vp must be positive and finite, got inf"),
    ([3e9], ["--vp", "nan"], "error: --vp must be positive and finite, got nan"),
    ([float("nan")], ["--vp", "5382"], "error: non-finite target frequency nan"),
    ([3e9, float("inf")], ["--vp", "5382"], "error: non-finite target frequency inf"),
    ([3e9], ["--vp", "5382", "--topology-policy", "nan"],
     "error: frequency threshold policy must be finite, got nan"),
    ([3e9], ["--vp", "5382", "--topology-policy", "inf"],
     "error: frequency threshold policy must be finite, got inf"),
    # every entry out of range: the policy is still checked
    ([30e9], ["--vp", "5382", "--topology-policy", "xyz"], "error: unknown topology policy 'xyz'"),
], ids=["vp-inf", "vp-nan", "target-nan", "target-inf", "policy-nan", "policy-inf",
        "policy-unknown"])
def test_design_rejects_bad_velocity_target_or_policy(tmp_path, capsys, targets, flags, message):
    tj = tmp_path / "t.json"
    tj.write_text(json.dumps(targets))
    outdir = tmp_path / "o"
    assert cli.run(["design", str(tj), *flags, "--outdir", str(outdir)]) == 2
    assert capsys.readouterr().err == message + "\n"
    assert not outdir.exists()


@pytest.mark.parametrize("value, shown", [
    ('"abc"', "'abc'"), ("-1", "-1"), ("NaN", "nan"), ("Infinity", "inf"),
], ids=["string", "negative", "nan", "infinity"])
def test_design_rejects_a_bad_config_velocity(tmp_path, capsys, value, shown):
    tj = tmp_path / "t.json"
    tj.write_text(json.dumps([3e9]))
    cj = tmp_path / "c.json"
    cj.write_text('{"velocity": {"S0": %s}}' % value)
    outdir = tmp_path / "o"
    assert cli.run(["design", str(tj), "--config", str(cj), "--outdir", str(outdir)]) == 2
    assert capsys.readouterr().err == (
        f"error: {cj}: velocity.S0 must be a positive finite number of m/s, got {shown}\n")
    assert not outdir.exists()


@pytest.mark.parametrize("rules, message", [
    ("5", "rules must be an object of lengths in m, got 5"),
    ('{"min_gap": "x"}', "rules.min_gap must be a positive finite number of m, got 'x'"),
    ('{"min_feature": -1e-7}',
     "rules.min_feature must be a positive finite number of m, got -1e-07"),
    ('{"lambda_range": [1]}', "rules.lambda_range must be a list of two lengths in m, got [1]"),
    ('{"lambda_range": [1e-6, NaN]}',
     "rules.lambda_range[1] must be a positive finite number of m, got nan"),
    ('{"lambda_range": [2e-6, 1e-6]}', "rules.lambda_range must not decrease, got [2e-06, 1e-06]"),
], ids=["not-an-object", "gap-string", "feature-negative", "range-short", "range-nan",
        "range-decreasing"])
def test_design_rejects_bad_config_rules(tmp_path, capsys, rules, message):
    tj = tmp_path / "t.json"
    tj.write_text(json.dumps([3e9]))
    cj = tmp_path / "c.json"
    cj.write_text('{"rules": %s}' % rules)
    outdir = tmp_path / "o"
    assert cli.run(["design", str(tj), "--config", str(cj), "--vp", "5382",
                    "--outdir", str(outdir)]) == 2
    assert capsys.readouterr().err == f"error: {cj}: {message}\n"
    assert not outdir.exists()


def test_design_takes_config_rules(tmp_path, capsys):
    tj = tmp_path / "t.json"
    tj.write_text(json.dumps([3e9]))
    cj = tmp_path / "c.json"
    cj.write_text('{"rules": {"min_feature": 1e-9, "min_gap": 1e-9, "lambda_range": [1e-7, 1e-4]}}')
    outdir = tmp_path / "o"
    assert cli.run(["design", str(tj), "--config", str(cj), "--vp", "5382",
                    "--outdir", str(outdir)]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("config", ["[5500]", '{"velocity": "S0"}'], ids=["list", "string"])
def test_design_rejects_a_config_that_is_not_an_object(tmp_path, capsys, config):
    tj = tmp_path / "t.json"
    tj.write_text(json.dumps([3e9]))
    cj = tmp_path / "c.json"
    cj.write_text(config)
    outdir = tmp_path / "o"
    assert cli.run(["design", str(tj), "--config", str(cj), "--outdir", str(outdir)]) == 2
    assert capsys.readouterr().err == (
        f'error: {cj}: expected an object with an optional "velocity" object of m/s by mode\n')
    assert not outdir.exists()


def test_design_rejects_an_integer_target_too_large_for_a_float(tmp_path, capsys):
    tj = tmp_path / "t.json"
    tj.write_text("[3000000000, 1" + "0" * 400 + "]")
    assert cli.run(["design", str(tj), "--vp", "5382", "--outdir", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"error: {tj}: a target frequency is too large for a float\n"
    assert not (tmp_path / "o").exists()


def test_design_overflowing_wavelength_is_an_out_of_range_entry(tmp_path, capsys):
    # v_p / 1e-300 Hz overflows to an infinite wavelength
    tj = tmp_path / "t.json"
    tj.write_text(json.dumps([3e9, 1e-300, 5e-324]))
    outdir = tmp_path / "o"
    assert cli.run(["design", str(tj), "--vp", "5382", "--outdir", str(outdir)]) == 1
    assert capsys.readouterr().err == ""
    doc = json.loads((outdir / "t_plan.json").read_text())
    good, bad = doc["entries"]
    assert good["error"] is None
    assert bad["targets_hz"] == [1e-300, 5e-324]
    assert bad["wavelength_m"] == "inf"
    assert bad["error"] == "wavelength inf nm outside process range [400.0 nm, 1800.0 nm]"
    assert (outdir / "t_plan.csv").read_text().splitlines()[2].startswith("1e-300|5e-324,inf,-,error,")


# ------------------------------------------------------------------- convert

def test_convert_formats_agree(tmp_path):
    src = tmp_path / "rowP.s2p"
    write_golden(src, label="P", fmt="RI", noise_db=None)
    outdir = tmp_path / "o"
    rc = cli.run(["convert", str(src), "--outdir", str(outdir), "--fmt", "MA"])
    assert rc == 0
    a = parse_touchstone(src.read_text())
    b = parse_touchstone((outdir / "rowP_ma.s2p").read_text())
    assert np.max(np.abs(a.matrices - b.matrices)) < 1e-9
    rc = cli.run(["convert", str(src), "--outdir", str(outdir), "--fmt", "DB",
                  "-o", "deci.s2p"])
    assert rc == 0
    c = parse_touchstone((outdir / "deci.s2p").read_text())
    assert np.max(np.abs(a.matrices - c.matrices)) < 1e-9


@pytest.mark.parametrize("fmt", ["MA", "DB"])
def test_convert_magnitude_overflow_is_an_input_error(tmp_path, capsys, fmt):
    # |1.5e308 + 1.5e308j| is finite in RI but not as a float magnitude
    src = tmp_path / "big.s2p"
    src.write_text("# GHZ S RI R 50\n"
                   "1.0 0.1 0 0.2 0 0.2 0 0.1 0\n"
                   "2.0 1.5e308 1.5e308 0 0 0 0 0 0\n")
    outdir = tmp_path / "o"
    assert cli.run(["convert", str(src), "--outdir", str(outdir), "--fmt", fmt]) == 2
    assert capsys.readouterr().err == (
        "error: S-parameter magnitude overflows a float at 2e+09 Hz\n")
    assert not outdir.exists()


def test_convert_dc_frequency_is_a_located_input_error(tmp_path, capsys):
    src = tmp_path / "dc.s2p"
    src.write_text("# GHZ S RI R 50\n"
                   "0 0.1 0 0.2 0 0.2 0 0.1 0\n"
                   "1.0 0.1 0 0.2 0 0.2 0 0.1 0\n")
    outdir = tmp_path / "o"
    assert cli.run(["convert", str(src), "--outdir", str(outdir), "--fmt", "MA"]) == 2
    assert capsys.readouterr().err == (
        "error: line 2: frequency 0 Hz is not positive\n")
    assert not outdir.exists()


# --------------------------------------------------------------------- misc

def test_unknown_subcommand_exits_via_argparse():
    with pytest.raises(SystemExit) as exc:
        cli.run(["frobnicate"])
    assert exc.value.code == 2


def test_unexpected_exception_has_its_own_exit_code(tmp_path, capsys, monkeypatch):
    mj = tmp_path / "m.json"
    mj.write_text(json.dumps(model_to_dict(display_model("L"))))

    def raiser(*args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "synthesize_admittance", raiser)
    argv = ["synth", str(mj), "--outdir", str(tmp_path / "o"), "--grid", "1e9:2e9:11"]
    assert cli.run(argv) == 4
    assert capsys.readouterr().err == "error: internal RuntimeError: boom\n"


def test_run_builds_its_parser_once_and_parses_each_call_afresh(tmp_path, monkeypatch):
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    mj = tmp_path / "m.json"
    mj.write_text(json.dumps(model_to_dict(display_model("L"))))
    tj = tmp_path / "t.json"
    tj.write_text(json.dumps([3.0e9]))
    plain = ["synth", str(mj), "--grid", "1e9:2e9:11", "--outdir", str(tmp_path / "b")]
    runs = [
        ["synth", str(mj), "--grid", "1e9:2e9:11", "--z0", "75", "--fmt", "DB", "--unit", "MHz",
         "-o", "x.s2p", "--prefix", "p", "--outdir", str(tmp_path / "a")],
        plain,
        ["design", str(tj), "--vp", "5382", "--n", "12", "--outdir", str(tmp_path / "c")],
    ]
    assert [cli.run(argv) for argv in runs] == [0, 0, 0]
    assert built == [1]
    # the second synth sees none of the first one's flags
    options = json.loads((tmp_path / "b" / "m_manifest.json").read_text())["options"]
    fresh = vars(build().parse_args(plain))
    assert options == {k: v for k, v in fresh.items() if k not in ("command", "handler")}
    assert options["z0"] == 50.0 and options["fmt"] == "RI" and options["output"] is None
    # a helper patched after the parser was built still takes effect
    monkeypatch.setattr(cli, "write_touchstone", lambda *a, **k: "patched\n")
    assert cli.run(plain) == 0
    assert (tmp_path / "b" / "m.s2p").read_text() == "patched\n"
    assert built == [1]


def failing_commands(tmp_path):
    """(argv, name of the cli function its last output is rendered with) per command."""
    d = tmp_path / "meas"
    d.mkdir()
    write_golden(d / "a.s2p")
    mj = tmp_path / "m.json"
    mj.write_text(json.dumps(model_to_dict(display_model("L"))))
    tj = tmp_path / "t.json"
    tj.write_text(json.dumps([3.0e9]))
    return {
        "fit": (["fit", str(d / "a.s2p"), "--emit-candidates", "--trace-fit"], "render_table"),
        "batch": (["batch", str(d)], "render_table"),
        "synth": (["synth", str(mj), "--grid", "1e9:2e9:11"], "write_touchstone"),
        "modes": ([*MODES, "--sweep-n", "5:20:5"], "line_plot"),
        "design": (["design", str(tj), "--vp", "5382"], "_dump_json"),
        "convert": (["convert", str(d / "a.s2p"), "--fmt", "DB"], "write_touchstone"),
    }


@pytest.mark.parametrize("command", ["fit", "batch", "synth", "modes", "design", "convert"])
def test_a_failing_command_writes_nothing(tmp_path, capsys, monkeypatch, command):
    argv, last_step = failing_commands(tmp_path)[command]

    def raiser(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, last_step, raiser)
    outdir = tmp_path / "o"
    assert cli.run([*argv, "--outdir", str(outdir)]) == 4
    assert capsys.readouterr().err == "error: internal RuntimeError: boom\n"
    assert not outdir.exists()


@pytest.mark.parametrize("command", ["synth", "convert"])
@pytest.mark.parametrize("name", ["a_manifest.json", "./a_manifest.json"])
def test_output_may_not_take_the_manifest_name(tmp_path, capsys, command, name):
    argv = failing_commands(tmp_path)[command][0]
    outdir = tmp_path / "o"
    assert cli.run([*argv, "--prefix", "a", "-o", name, "--outdir", str(outdir)]) == 2
    assert capsys.readouterr().err == (
        f"error: -o {name!r} collides with the manifest a_manifest.json\n")
    assert not outdir.exists()


@pytest.mark.parametrize("command, flag, value, message", [
    ("modes", "--kt2", "nan", "must lie in (0, 1), got nan"),
    ("modes", "--q", "0", "must be > 0, got 0.0"),
    ("modes", "--c", "nan", "must lie in (0, 1), got nan"),
    ("modes", "--lambda", "inf", "must be positive and finite, got inf"),
    ("modes", "--n", "1", "must be >= 2, got 1"),
    ("modes", "--n-max", "9", "must be at least twice the design index (5), got 9"),
    # enough for --n 5, too few for the sweep's N = 20
    ("modes", "--n-max", "10",
     "must be at least twice the largest design index over --sweep-n (20), got 10"),
    # refused before any index array is made, alike on every numpy
    ("modes", "--n-max", "9223372036854775808",
     "9223372036854775808: n_max=9223372036854775808 is beyond the int64 mode-index range"),
    ("modes", "--n-max", "100000000000000000000",
     "100000000000000000000: n_max=100000000000000000000 is beyond the int64 mode-index range"),
    ("design", "--n", "1", "must be >= 2, got 1"),
    ("design", "--coverage", "1", "must lie in (0, 1), got 1.0"),
    ("design", "--vp", "-1", "must be positive and finite, got -1.0"),
    ("synth", "--z0", "0", "must be positive and finite, got 0.0"),
    ("synth", "--z0", "nan", "must be positive and finite, got nan"),
    ("synth", "--unit", "furlong", "must be one of Hz/kHz/MHz/GHz, got 'furlong'"),
    ("convert", "--unit", "furlong", "must be one of Hz/kHz/MHz/GHz, got 'furlong'"),
])
def test_flag_errors_name_the_flag(tmp_path, capsys, command, flag, value, message):
    argv = failing_commands(tmp_path)[command][0]
    outdir = tmp_path / "o"
    assert cli.run([*argv, f"{flag}={value}", "--outdir", str(outdir)]) == 2
    assert capsys.readouterr().err == f"error: {flag} {message}\n"
    assert not outdir.exists()


@pytest.mark.parametrize("command, flag, value", [
    ("synth", "--z0", "0"), ("synth", "--unit", "furlong"), ("convert", "--unit", "furlong"),
    ("design", "--vp", "inf"),
])
def test_flag_errors_come_before_the_input(tmp_path, capsys, command, flag, value):
    # the input does not exist: the flag error must win over the read error
    outdir = tmp_path / "o"
    extra = ["--grid", "1e9:2e9:11"] if command == "synth" else []
    argv = [command, str(tmp_path / "missing"), *extra, f"{flag}={value}", "--outdir", str(outdir)]
    assert cli.run(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: {flag} must be ")
    assert not outdir.exists()


def test_modes_accepts_lossless_q(tmp_path):
    outdir = tmp_path / "o"
    assert cli.run([*MODES, "--q", "inf", "--sweep-n", "5:9:2", "--outdir", str(outdir)]) == 0
    # every JSON file is strict JSON: the manifest records --q as "inf"
    docs = {p.name: json.loads(p.read_text(), parse_constant=pytest.fail)
            for p in outdir.glob("*.json")}
    assert len(docs) == 2
    [manifest] = [d for name, d in docs.items() if name.endswith("_manifest.json")]
    assert manifest["options"]["q"] == "inf"


def test_cli_is_deterministic(tmp_path):
    # each run has its own working directory and the same relative paths, so
    # the manifests, which record the input path and --outdir, are compared too
    write_golden(tmp_path / "rowL.s2p")
    src_root = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src_root, *filter(None, [os.environ.get("PYTHONPATH")])]))
    digests = []
    for sub in ("r1", "r2"):
        cwd = tmp_path / sub
        cwd.mkdir()
        proc = subprocess.run(
            [sys.executable, "-m", "resokit", "fit", os.path.join("..", "rowL.s2p"),
             "--outdir", "out", "--prefix", "dev", "--emit-candidates"],
            capture_output=True, text=True, cwd=cwd, env=env)
        assert proc.returncode == 0, proc.stderr
        outdir = cwd / "out"
        assert (outdir / "dev_manifest.json").exists()
        blob = hashlib.sha256()
        for p in sorted(outdir.iterdir()):
            blob.update(p.name.encode())
            blob.update(p.read_bytes())
        digests.append(blob.hexdigest())
    assert digests[0] == digests[1]


def test_cli_reads_and_writes_utf8_under_ascii_locale(tmp_path):
    # an ASCII locale must not decide how input is decoded or output encoded
    env = dict(os.environ, PYTHONUTF8="0", LC_ALL="C")
    text = "! résonateur\n" + golden_text(roundtrip_model("L"), synthesis_grid("L"),
                                           noise_db=-80.0, seed=3)
    good = tmp_path / "good.s2p"
    good.write_bytes(text.encode("utf-8"))
    lines = text.encode("utf-8").split(b"\n")
    lines[4] = lines[4].replace(b" ", b" 0\xff", 1)  # a byte that is not UTF-8
    bad = tmp_path / "bad.s2p"
    bad.write_bytes(b"\n".join(lines))
    for src, code, message in ((good, 0, ""), (bad, 2, "error: line 5: non-numeric token")):
        proc = subprocess.run(
            [sys.executable, "-m", "resokit", "fit", str(src), "--outdir", str(tmp_path / "out")],
            capture_output=True, env=env)
        assert proc.returncode == code, proc.stderr
        assert proc.stderr.decode("ascii", "backslashreplace").startswith(message)
    csv = (tmp_path / "out" / "good_fit.csv").read_bytes()
    assert csv.startswith(b"freq_Hz,") and b"\r" not in csv


def test_fit_batch_and_design_load_no_numpy_ma(tmp_path):
    # np.median imports numpy.ma, about 12 ms of every process that calls it.
    # numpy 1.x imports numpy.ma with numpy itself, so the check is that the
    # run adds no numpy.ma module to those the import left loaded.
    write_golden(tmp_path / "rowL.s2p")
    (tmp_path / "t.json").write_text(json.dumps([4.0e9]))
    out = tmp_path / "o"
    src_root = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src_root, *filter(None, [os.environ.get("PYTHONPATH")])]))
    # a non-ASCII file takes the tokenizer's code-point lookup too
    (tmp_path / "ohm.s2p").write_text("! Z0 = 50 \u03a9\n" + (tmp_path / "rowL.s2p").read_text())
    runs = [["fit", "rowL.s2p", "--outdir", str(out)],
            ["fit", "ohm.s2p", "--outdir", str(out)],
            ["batch", ".", "--outdir", str(out)],
            ["design", "t.json", "--outdir", str(out)]]
    for argv in runs:
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from resokit import cli\n"
             "ma = lambda: {m for m in sys.modules if m.split('.')[:2] == ['numpy', 'ma']}\n"
             "before = ma(); rc = cli.run(sys.argv[1:]); print(rc, sorted(ma() - before))",
             *argv],
            capture_output=True, text=True, cwd=tmp_path, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "0 []", (argv, proc.stdout)


def test_cli_import_loads_no_scipy():
    # SciPy's import alone used to cost about a second of every CLI process;
    # xml.sax.saxutils pulled in urllib.request, http, email, ssl and socket.
    # urllib.parse is left out: the interpreter loads it at startup anyway.
    proc = subprocess.run(
        [sys.executable, "-c",
         "import resokit.cli, sys; "
         "heavy = ('scipy', 'xml', 'http', 'email', 'ssl', 'socket'); "
         "print(sorted(m for m in sys.modules "
         "if m.split('.')[0] in heavy or m.startswith('urllib.request')))"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
