"""Touchstone parsing, serialization, and S<->Y conversion tests."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from resokit import ComplexTrace
from resokit.errors import SingularNetworkError, TouchstoneError
from resokit.netparams import (
    NetworkRecord,
    device_admittance,
    parse_touchstone,
    s_to_y,
    series_element_network,
    write_touchstone,
    y_to_s,
)


def make_net(freqs, matrices, kind="S", z0=50.0):
    return NetworkRecord(
        freqs=np.asarray(freqs, dtype=float),
        matrices=np.asarray(matrices, dtype=complex),
        kind=kind,
        z0=z0,
    )


def random_passive_net(rng, n_freqs=7):
    """Random S data with spectral norm below 1 (strictly passive)."""
    freqs = np.linspace(1e9, 2e9, n_freqs)
    mats = []
    for _ in range(n_freqs):
        s = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        s *= 0.45 / max(np.linalg.norm(s, 2), 1e-9)
        mats.append(s)
    return make_net(freqs, mats)


# ---------------------------------------------------------------- parsing

def test_parse_ri_basic():
    text = "! demo\n# MHZ S RI R 75\n100 0.5 0 0.1 0 0.1 0 0.5 0\n"
    net = parse_touchstone(text)
    assert net.kind == "S"
    assert net.z0 == 75.0
    assert net.freqs[0] == 100e6
    assert net.matrices[0][0, 0] == 0.5 + 0j


def test_parse_column_order_is_s11_s21_s12_s22():
    net = parse_touchstone("# GHZ S RI R 50\n1.0 0.11 0 0.21 0 0.12 0 0.22 0\n")
    m = net.matrices[0]
    assert m[0, 0].real == pytest.approx(0.11)
    assert m[1, 0].real == pytest.approx(0.21)
    assert m[0, 1].real == pytest.approx(0.12)
    assert m[1, 1].real == pytest.approx(0.22)


def test_parse_defaults_for_bare_option_line():
    # omitted fields fall back to GHZ / S / MA / 50 ohm
    net = parse_touchstone("#\n1.0 0.5 0 0.1 0 0.1 0 0.5 0\n")
    assert net.freqs[0] == 1e9
    assert net.z0 == 50.0
    assert net.matrices[0][0, 0] == 0.5 + 0j


def test_parse_ma_angle_degrees():
    net = parse_touchstone("# GHZ S MA R 50\n1.0 0.5 90 0.1 0 0.1 0 0.5 0\n")
    assert net.matrices[0][0, 0] == pytest.approx(0.5j, abs=1e-12)


def test_parse_db_pinned_half():
    # 20*log10(0.5) = -6.020599913279624
    text = "# GHZ S DB R 50\n1.0 -6.020599913279624 0 -20 0 -20 0 -6.020599913279624 0\n"
    net = parse_touchstone(text)
    assert net.matrices[0][0, 0] == pytest.approx(0.5 + 0j, rel=1e-12)
    assert net.matrices[0][0, 1] == pytest.approx(0.1 + 0j, rel=1e-12)


def test_parse_unit_case_insensitive():
    for unit, scale in (("hz", 1.0), ("khz", 1e3), ("mhz", 1e6), ("ghz", 1e9)):
        net = parse_touchstone(f"# {unit} S RI R 50\n2.0 0 0 0 0 0 0 0 0\n")
        assert net.freqs[0] == pytest.approx(2.0 * scale)


def test_parse_wrapped_rows():
    # the 9 values of one frequency may be split across physical lines
    net = parse_touchstone("# GHZ S RI R 50\n1.0 0.5 0 0.1 0\n0.1 0 0.5 0\n")
    assert net.matrices.shape == (1, 2, 2)
    assert net.matrices[0][1, 1] == 0.5 + 0j


def test_parse_comments_and_blanks_ignored():
    text = "! header\n\n# GHZ S RI R 50\n! mid comment\n1.0 0 0 0 0 0 0 0 0\n\n2.0 0 0 0 0 0 0 0 0 ! trailing\n"
    net = parse_touchstone(text)
    assert net.freqs.tolist() == [1e9, 2e9]


def test_parse_error_carries_line_number():
    with pytest.raises(TouchstoneError, match="line 2"):
        parse_touchstone("# GHZ S RI R 50\n1.0 bogus\n")


def test_parse_rejects_one_port_rows():
    with pytest.raises(TouchstoneError, match="1-port"):
        parse_touchstone("# GHZ S RI R 50\n1.0 0.1 0.2\n")


def test_parse_rejects_non_monotonic_frequency():
    text = "# GHZ S RI R 50\n1.0 0 0 0 0 0 0 0 0\n0.9 0 0 0 0 0 0 0 0\n"
    with pytest.raises(TouchstoneError, match="line 3"):
        parse_touchstone(text)


ROW = "0 0 0 0 0 0 0 0"


@pytest.mark.parametrize("text, line, message", [
    (f"# GHZ S RI R 50\n0 {ROW}\n1.0 {ROW}\n", 2, "frequency 0 Hz is not positive"),
    (f"# GHZ S RI R 50\n-1.0 {ROW}\n", 2, "frequency -1e+09 Hz is not positive"),
    # a bad token anywhere in the file comes first
    (f"# GHZ S RI R 50\n0 {ROW}\n1.0 x {ROW[2:]}\n", 3, "non-numeric token 'x'"),
], ids=["dc", "negative", "bad-token-after-dc"])
def test_parse_rejects_non_positive_first_frequency(text, line, message):
    with pytest.raises(TouchstoneError) as err:
        parse_touchstone(text)
    assert type(err.value) is TouchstoneError
    assert str(err.value) == f"line {line}: {message}"
    assert err.value.line == line


@pytest.mark.parametrize("text, where, what", [
    (f"# GHZ S RI R 50\n1.0 {ROW}\nnan {ROW}\n3.0 {ROW}\n", "line 3", "non-finite"),
    (f"# GHZ S RI R 50\n1.0 0 0 0 inf 0 0 0 0\n", "line 2", "non-finite"),
    (f"# GHZ S MA R 50\n1.0 0 0 0 0 0 0 0 -Infinity\n", "line 2", "non-finite"),
    (f"# GHZ S RI R inf\n1.0 {ROW}\n", "line 1", "finite"),
    (f"# GHZ S RI R 50\n1e300 {ROW}\n", "line 2", "overflows"),
    (f"# GHZ S DB R 50\n1.0 9000 0 0 0 0 0 0 0\n", "line 2", "overflows"),
    # two faults each: the one met first in the file is reported
    (f"# GHZ S RI R 50\n1.0 x 0 0 0 0 0 0 0\n2.0 {ROW} 0\n", "line 2", "non-numeric"),
    (f"# GHZ S RI R 50\n2.0 {ROW} 0\n1.0 x 0 0 0 0 0 0 0\n", "line 2", "10 columns"),
    (f"# GHZ S RI R 50\n1.0 nan {ROW[2:]}\n# GHZ S RI R 50\n", "line 2", "non-finite"),
    (f"# GHZ S DB R 50\n2.0 {ROW}\n1.0 {ROW}\n3.0 9000 {ROW[2:]}\n", "line 3", "not above"),
    (f"# GHZ S DB R 50\n1.0 {ROW}\n2.0 9000 {ROW[2:]}\n1.5 {ROW}\n", "line 3", "overflows"),
    (f"# GHZ S RI R 50\n1.0 {ROW} x\n", "line 2", "non-numeric"),
    (f"# GHZ S RI R 50\n1.0 0 0 0 0\n0 0 0 0 0 x\n", "line 3", "non-numeric"),
], ids=["nan-frequency", "inf-sample", "minus-infinity-angle", "inf-z0",
        "frequency-overflow", "db-overflow",
        "bad-token-before-wide-row", "wide-row-before-bad-token",
        "non-finite-before-late-option-line", "unordered-frequency-before-db-overflow",
        "db-overflow-before-unordered-frequency", "bad-token-in-wide-row",
        "bad-token-in-wrapped-overflow"])
def test_parse_rejects_non_finite_samples(text, where, what):
    # overflow must surface as the located error, never as a numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TouchstoneError, match=f"{where}.*{what}"):
            parse_touchstone(text)


@pytest.mark.parametrize("freqs, values", [
    ([1e9, np.nan, 3e9], [1, 1, 1]),
    ([1e9, 2e9, np.inf], [1, 1, 1]),
    ([1e9, 2e9, 3e9], [1, complex(0, np.nan), 1]),
    ([1e9, 2e9, 3e9], [1, np.inf, 1]),
], ids=["nan-freq", "inf-freq", "nan-value", "inf-value"])
def test_records_reject_non_finite(freqs, values):
    with pytest.raises(ValueError, match="finite"):
        ComplexTrace(freqs=freqs, values=values)
    with pytest.raises(ValueError, match="finite"):
        make_net(freqs, np.repeat(np.asarray(values, dtype=complex), 4))


def test_network_record_rejects_infinite_z0():
    with pytest.raises(ValueError, match="finite"):
        make_net([1e9], np.zeros((1, 2, 2)), z0=np.inf)


def test_parse_rejects_empty_body():
    with pytest.raises(TouchstoneError):
        parse_touchstone("# GHZ S RI R 50\n")


# ---------------------------------------------------------------- writing

def test_write_parse_roundtrip_is_exact():
    rng = np.random.default_rng(7)
    net = random_passive_net(rng)
    back = parse_touchstone(write_touchstone(net, fmt="RI"))
    # %.17e (18 significant digits) reproduces doubles exactly
    assert np.array_equal(back.freqs, net.freqs)
    np.testing.assert_allclose(back.matrices, net.matrices, rtol=0, atol=1e-300)


def test_write_formats_agree_within_1e9():
    rng = np.random.default_rng(11)
    net = random_passive_net(rng)
    ref = parse_touchstone(write_touchstone(net, fmt="RI")).matrices
    for fmt in ("MA", "DB"):
        got = parse_touchstone(write_touchstone(net, fmt=fmt)).matrices
        np.testing.assert_allclose(got, ref, rtol=1e-9, atol=1e-15)


def test_write_respects_unit():
    net = make_net([1.5e9], [np.zeros((2, 2))])
    text = write_touchstone(net, unit="MHz")
    assert "# MHZ" in text.upper()
    assert parse_touchstone(text).freqs[0] == pytest.approx(1.5e9)


def test_write_rejects_unknown_format():
    net = make_net([1e9], [np.zeros((2, 2))])
    with pytest.raises(ValueError):
        write_touchstone(net, fmt="XX")


# ------------------------------------------------------------- conversion

def test_s_to_y_pinned_pair():
    # hand-checked: S = [[.5,.5],[.5,.5]] at 50 ohm is a 100 ohm series element
    s = make_net([1e9], [[[0.5, 0.5], [0.5, 0.5]]])
    y = s_to_y(s)
    assert y.kind == "Y"
    expect = np.array([[0.01, -0.01], [-0.01, 0.01]])
    np.testing.assert_allclose(y.matrices[0], expect, rtol=1e-12, atol=1e-15)
    back = y_to_s(y)
    np.testing.assert_allclose(back.matrices[0], s.matrices[0], rtol=1e-12, atol=1e-15)


def test_s_to_y_zero_matrix_is_matched_load():
    y = s_to_y(make_net([1e9], [np.zeros((2, 2))]))
    np.testing.assert_allclose(y.matrices[0], np.eye(2) / 50.0, rtol=1e-12)


def test_s_y_roundtrip_random_passive():
    rng = np.random.default_rng(42)
    for _ in range(100):
        net = random_passive_net(rng, n_freqs=3)
        back = y_to_s(s_to_y(net))
        err = np.max(np.abs(back.matrices - net.matrices))
        assert err < 1e-12


def test_s_to_y_preserves_reciprocity():
    rng = np.random.default_rng(3)
    s = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    s = 0.3 * (s + s.T) / 2.0
    y = s_to_y(make_net([1e9], [s]))
    assert y.matrices[0][0, 1] == pytest.approx(y.matrices[0][1, 0], rel=1e-12)


def test_s_to_y_singular_raises():
    # S = -I makes (I + S) exactly singular
    with pytest.raises(SingularNetworkError):
        s_to_y(make_net([1e9], [-np.eye(2)]))


def test_y_to_s_requires_y_kind():
    with pytest.raises(ValueError):
        y_to_s(make_net([1e9], [np.zeros((2, 2))], kind="S"))


# -------------------------------------------------------------- embedding

def test_series_element_network_structure():
    f = np.linspace(1e9, 2e9, 5)
    y = (1.0 + 0.5j) * np.ones(5) * 1e-3
    net = series_element_network(ComplexTrace(freqs=f, values=y))
    assert net.kind == "Y"
    np.testing.assert_allclose(net.matrices[:, 0, 0], y)
    np.testing.assert_allclose(net.matrices[:, 0, 1], -y)
    np.testing.assert_allclose(net.matrices[:, 1, 0], -y)
    np.testing.assert_allclose(net.matrices[:, 1, 1], y)


def test_device_admittance_series_recovers_element():
    # full loop: embed as two-port, convert to S and back, then de-embed
    f = np.linspace(1e9, 2e9, 5)
    y = (2.0 - 1.0j) * np.ones(5) * 1e-3
    net = s_to_y(y_to_s(series_element_network(ComplexTrace(freqs=f, values=y))))
    dev = device_admittance(net, embedding="series")
    np.testing.assert_allclose(dev.values, y, rtol=1e-10)


def test_device_admittance_shunt_embedding():
    # one-port element hanging off port 1: Y = [[y, 0], [0, 0]]
    f = np.linspace(1e9, 2e9, 5)
    y = (1.0 + 2.0j) * np.ones(5) * 1e-3
    mats = np.zeros((5, 2, 2), dtype=complex)
    mats[:, 0, 0] = y
    dev = device_admittance(make_net(f, mats, kind="Y"), embedding="shunt")
    np.testing.assert_allclose(dev.values, y, rtol=1e-10)


def test_device_admittance_requires_y_kind():
    with pytest.raises(ValueError):
        device_admittance(make_net([1e9, 2e9], np.zeros((2, 2, 2)), kind="S"))


def test_device_admittance_rejects_unknown_embedding():
    net = make_net([1e9, 2e9], np.zeros((2, 2, 2)), kind="Y")
    with pytest.raises(ValueError):
        device_admittance(net, embedding="diagonal")
