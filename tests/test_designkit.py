"""Velocity calibration, geometry planning, and table rendering tests."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from resokit.designkit import (
    ProcessRules,
    calibrate_velocity,
    check_lithography,
    plan_bank,
    predict_fs,
    render_table,
    velocity_outliers,
)
from resokit.mbvd import metrics_from_model
from resokit.refdata import display_model, row, synthesis_grid, velocity_observations
from resokit.transduce import DeviceGeometry


# -------------------------------------------------------------- calibration

def test_calibrate_velocity_four_point_set():
    # wavelengths x frequencies give 5382/5448/5508/5508 m/s; median 5478
    v, spread = calibrate_velocity(velocity_observations(mode="S0", topology="lvr"))
    assert v == pytest.approx(5478.0, rel=1e-9)
    assert spread == pytest.approx(0.0230011, rel=1e-4)
    assert spread < 0.03


def test_calibrate_velocity_shear_set():
    v, spread = calibrate_velocity(velocity_observations(mode="SH0", topology="lvr"))
    assert v == pytest.approx(3426.0, rel=1e-9)
    assert spread == pytest.approx(0.0661996, rel=1e-4)
    assert spread < 0.08


def test_calibrate_velocity_rejects_empty():
    with pytest.raises(ValueError):
        calibrate_velocity([])


@pytest.mark.parametrize("observations, bad", [
    ([(math.nan, 1e9)], "(nan, 1000000000.0)"),
    ([(1.8e-6, math.inf), (1.8e-6, 2e9)], "(1.8e-06, inf)"),
    ([(1.8e-6, 2e9), (-math.inf, 2e9)], "(-inf, 2000000000.0)"),
], ids=["nan-wavelength", "inf-frequency", "minus-inf-wavelength"])
def test_calibrate_velocity_rejects_non_finite_observations(observations, bad):
    with pytest.raises(ValueError) as err:
        calibrate_velocity(observations)
    assert str(err.value) == f"non-finite observation {bad}"


@pytest.mark.parametrize("observations, bad", [
    ([(1e300, 1e300)], "(1e+300, 1e+300)"),
    ([(1.8e-6, 2e9), (2.0, 1.7e308)], "(2.0, 1.7e+308)"),
], ids=["alone", "after-a-good-one"])
def test_calibrate_velocity_rejects_an_overflowing_product(observations, bad):
    with pytest.raises(ValueError) as err:
        calibrate_velocity(observations)
    assert str(err.value) == f"observation {bad} overflows wavelength * fs"


def test_process_rules_from_dict():
    rules = ProcessRules.from_dict({"min_gap": 2e-7, "lambda_range": (5e-7, 1e-6)})
    assert rules == ProcessRules(min_gap=2e-7, lambda_range=(5e-7, 1e-6))
    assert ProcessRules.from_dict({}) == ProcessRules()


@pytest.mark.parametrize("data, message", [
    ([], "rules must be an object of lengths in m, got []"),
    ({"min_feature": "1e-7"}, "rules.min_feature must be a positive finite number of m, got '1e-7'"),
    ({"min_gap": True}, "rules.min_gap must be a positive finite number of m, got True"),
    ({"lambda_range": [1e-6, 10**400]},
     f"rules.lambda_range[1] must be a positive finite number of m, got {10**400!r}"),
])
def test_process_rules_from_dict_names_a_bad_entry(data, message):
    with pytest.raises(ValueError) as err:
        ProcessRules.from_dict(data)
    assert str(err.value) == message


def test_calibrate_velocity_rejects_an_overflowing_median():
    # each product is finite, the mean of the two middle ones is not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as err:
            calibrate_velocity([(1.0, 1.7e308), (1.0, 1.7e308)])
    assert str(err.value) == "the median of wavelength * fs overflows a float"


def test_velocity_outliers_flags_last_two():
    obs = velocity_observations(mode="S0")
    assert len(obs) == 11
    v_med = float(np.median([lam * fs for lam, fs in obs]))
    assert v_med == pytest.approx(5508.0, rel=1e-9)
    out = velocity_outliers(obs, v_med)
    assert out == (9, 10)
    devs = [(lam * fs - v_med) / v_med for lam, fs in obs]
    assert devs[9] == pytest.approx(0.2610, abs=2e-4)
    assert devs[10] == pytest.approx(0.1772, abs=2e-4)


def test_velocity_outliers_threshold():
    obs = [(1e-6, 1000.0e6), (1e-6, 1100.0e6)]
    assert velocity_outliers(obs, 1000.0, rel_threshold=0.15) == ()
    assert velocity_outliers(obs, 1000.0, rel_threshold=0.05) == (1,)


def test_predict_fs():
    assert predict_fs(1.794e-6, 5382.0) == pytest.approx(3.0e9, rel=1e-9)
    with pytest.raises(ValueError):
        predict_fs(0.0, 5382.0)


# ----------------------------------------------------------------- planning

def test_plan_bank_pinned_wavelengths():
    plan = plan_bank([3.0e9, 4.5e9, 6.1e9], v_p=5382.0)
    lams = [round(e.wavelength * 1e9) for e in plan]
    assert lams == [1794, 1196, 882]
    for e in plan:
        assert e.error is None
        assert e.geometry is not None
        assert e.geometry.topology == "lvr"
        assert e.findings == ()


def test_plan_bank_merges_near_duplicate_targets():
    plan = plan_bank([3.0e9, 3.0001e9, 4.5e9], v_p=5382.0)
    assert len(plan) == 2
    assert plan[0].targets == (3.0e9, 3.0001e9)


def test_plan_bank_out_of_range_entry():
    plan = plan_bank([3.0e9, 15.4e9], v_p=5382.0)
    good, bad = plan
    assert good.error is None
    assert bad.error is not None
    assert "349" in bad.error
    assert bad.geometry is None


def test_plan_bank_lambda_range_inclusive():
    # a target that lands exactly on the 400 nm floor stays valid
    v = 5382.0
    plan = plan_bank([v / 400e-9], v_p=v)
    assert plan[0].error is None
    assert plan[0].wavelength == pytest.approx(400e-9, rel=1e-6)


def test_plan_bank_auto_topology_switches():
    # small pitch: a half-width lvr edge electrode would print below the
    # minimum feature, so the planner falls back to the dlvr variant
    lam_small = 448.0e-9
    plan = plan_bank([5382.0 / lam_small], v_p=5382.0)
    assert plan[0].geometry.topology == "dlvr"
    rules = ProcessRules(min_feature=250e-9)
    plan2 = plan_bank([3.0e9], v_p=5382.0, rules=rules)
    assert plan2[0].geometry.topology == "dlvr"


def test_plan_bank_forced_topology():
    plan = plan_bank([3.0e9], v_p=5382.0, topology_policy="dlvr")
    assert plan[0].geometry.topology == "dlvr"
    plan = plan_bank([3.0e9], v_p=5382.0, topology_policy="lvr")
    assert plan[0].geometry.topology == "lvr"


def test_plan_bank_rejects_empty_targets():
    with pytest.raises(ValueError):
        plan_bank([], v_p=5382.0)


# --------------------------------------------------------------- lithography

def test_check_lithography_flags_thin_edge():
    rules = ProcessRules()
    geom = DeviceGeometry(wavelength=410e-9, topology="lvr", n_elements=5, coverage=0.5)
    findings = check_lithography(geom, rules)
    codes = {f.code for f in findings}
    assert "edge-width" in codes
    f = next(f for f in findings if f.code == "edge-width")
    assert f.value == pytest.approx(0.5 * 410e-9 / 4.0, rel=1e-9)
    assert f.limit == 100e-9


def test_check_lithography_boundary_passes():
    # violations are strict: a feature exactly at the limit prints
    rules = ProcessRules()
    geom = DeviceGeometry(wavelength=400e-9, topology="dlvr", n_elements=5, coverage=0.5)
    assert check_lithography(geom, rules) == ()


def test_check_lithography_gap_violation():
    rules = ProcessRules(min_feature=10e-9, min_gap=300e-9)
    geom = DeviceGeometry(wavelength=1.0e-6, topology="dlvr", n_elements=5, coverage=0.6)
    codes = {f.code for f in check_lithography(geom, rules)}
    assert "gap-width" in codes


# ----------------------------------------------------------------- rendering

def display_fixture(label):
    r = row(label)
    met = metrics_from_model(display_model(label), synthesis_grid(label))
    geom = DeviceGeometry(wavelength=r.wavelength, topology=r.topology)
    return geom, met


def test_render_table_header_and_row():
    geom, met = display_fixture("L")
    rep = render_table([(geom, met)], ["L"])
    lines = rep.markdown.splitlines()
    assert lines[0] == ("| device | lambda [nm] | f_s [GHz] | Q_s | Q_p | Q_m "
                        "| k_t^2 | C_0 [fF] | FoM |")
    assert lines[1] == "| ---: | ---: | ---: | ---: | ---: | ---: | ---: | ---: | ---: |"
    cells = [c.strip() for c in lines[2].strip("|").split("|")]
    assert cells[0] == "L"
    assert cells[1] == "1800"
    assert cells[2] == "1.870"
    assert cells[3] == "477"
    assert cells[6] == "29.7%"
    assert cells[7] == "51.4"
    assert cells[8] == "142"


def test_render_table_csv_matches_markdown():
    geom, met = display_fixture("L")
    rep = render_table([(geom, met)], ["L"])
    lines = rep.csv.splitlines()
    assert lines[0] == "device,lambda_nm,fs_GHz,Q_s,Q_p,Q_m,kt2_pct,C0_fF,FoM"
    assert lines[1].split(",")[:4] == ["L", "1800", "1.870", "477"]


def test_render_table_row_order_follows_input():
    rows = [display_fixture("M"), display_fixture("L")]
    rep = render_table(rows, ["M", "L"])
    lines = rep.markdown.splitlines()
    assert lines[2].split("|")[1].strip() == "M"
    assert lines[3].split("|")[1].strip() == "L"


def test_render_table_missing_geometry_dashes():
    _, met = display_fixture("L")
    rep = render_table([(None, met)], ["x"])
    cells = [c.strip() for c in rep.markdown.splitlines()[2].strip("|").split("|")]
    assert cells[1] == "-"


def test_render_table_without_labels_drops_device_column():
    geom, met = display_fixture("L")
    rep = render_table([(geom, met)])
    header = rep.markdown.splitlines()[0]
    assert "device" not in header
    assert header.startswith("| lambda [nm] |")
    assert rep.csv.splitlines()[0] == "lambda_nm,fs_GHz,Q_s,Q_p,Q_m,kt2_pct,C0_fF,FoM"


def test_render_table_survey_q_and_fom_reproduced():
    # the fixture models regenerate every printed Q_s and FoM across the
    # survey after display rounding
    for label in "ABCDEFGHIJKLMNOPQRSTUV":
        r = row(label)
        met = metrics_from_model(display_model(label), synthesis_grid(label))
        assert abs(met.qs - r.qs) < 0.5, label
        assert met.kt2 == pytest.approx(r.kt2, rel=1e-6), label
        assert abs(met.qs * met.kt2 - round(r.qs * r.kt2)) < 0.5, label
