"""Signal-layer checks.

Proof groups:
  1. synthesis matches the closed-form sample values
  2. class parameters extracted from ground truth are exact for the presets
  3. admissibility guards catch bad truth
  4. CSV round trip is lossless and byte-deterministic; the table writer
     every output file goes through writes 17-digit floats, integer
     int/bool columns, broadcast columns row-major, and LF line endings
"""
from __future__ import annotations

import math

import numpy as np
import pytest

from adassq.signals import (
    ClassParams,
    ComponentTruth,
    SignalSpec,
    class_params,
    example1_spec,
    example2_spec,
    linear_chirp,
    poly_phase,
    signal_from_csv,
    signal_to_csv,
    synthesize,
    tone,
    write_table,
)


def test_example1_synthesis_matches_closed_form():
    spec = example1_spec()
    sig = synthesize(spec)
    t = sig.t
    expect = np.cos(2 * np.pi * (12 * t + 0.25 * t ** 2)) \
        + np.cos(2 * np.pi * (26 * t - 0.25 * t ** 2))
    assert sig.x.dtype == np.float64
    assert np.max(np.abs(sig.x - expect)) < 1e-14


def test_example2_synthesis_matches_closed_form():
    sig = synthesize(example2_spec())
    t = sig.t
    expect = np.cos(2 * np.pi * (20 * t + 9 * t ** 2)) \
        + np.cos(2 * np.pi * (42 * t + 18 * t ** 2))
    assert np.max(np.abs(sig.x - expect)) < 1e-14


def test_complex_mode_is_analytic_version():
    spec = example1_spec().with_mode("complex")
    sig = synthesize(spec)
    assert sig.x.dtype == np.complex128
    assert np.max(np.abs(sig.x.real - synthesize(example1_spec()).x)) < 1e-14


def test_poly_phase_matches_linear_chirp():
    a = linear_chirp(12.0, 0.5)
    b = poly_phase([0.0, 12.0, 0.25])
    t = np.linspace(0.0, 1.0, 17)
    assert np.allclose(a.phase(t), b.phase(t), rtol=0, atol=1e-13)
    assert np.allclose(a.dphase(t), b.dphase(t), rtol=0, atol=1e-13)
    assert np.allclose(a.d2phase(t), b.d2phase(t), rtol=0, atol=1e-13)


def test_class_params_example1():
    cp = class_params(example1_spec())
    assert cp.eps1 == 0.0
    assert cp.eps2 == pytest.approx(0.5, rel=1e-14)
    assert cp.eps3 == 0.0
    # separation ratio (14 - t)/38 is minimized at the last grid point
    t_last = (256 * 8 - 1) / (256.0 * 8)
    assert cp.sep_ratio == pytest.approx((14.0 - t_last) / 38.0, rel=1e-13)


def test_class_params_example2():
    cp = class_params(example2_spec())
    assert cp.eps1 == 0.0
    assert cp.eps2 == pytest.approx(36.0, rel=1e-14)
    assert cp.eps3 == 0.0
    # (22 + 18 t)/(62 + 54 t) is minimized as t -> 1
    t_last = (256 * 8 - 1) / (256.0 * 8)
    assert cp.sep_ratio == pytest.approx(
        (22.0 + 18.0 * t_last) / (62.0 + 54.0 * t_last), rel=1e-13)


def test_single_component_gets_unit_separation():
    spec = SignalSpec(components=(tone(40.0),), fs=128.0, n=128)
    assert class_params(spec).sep_ratio == 1.0


def test_misordered_components_rejected():
    spec = SignalSpec(
        components=(linear_chirp(26.0, -0.5), linear_chirp(12.0, 0.5)),
        fs=256.0, n=256)
    with pytest.raises(ValueError, match="increasing"):
        class_params(spec)


def test_nonpositive_amplitude_rejected():
    bad = ComponentTruth(
        amp=lambda t: np.asarray(t) - 0.5,   # crosses zero mid-interval
        phase=lambda t: 30.0 * np.asarray(t),
        dphase=lambda t: np.full_like(np.asarray(t, float), 30.0),
        d2phase=lambda t: np.zeros_like(np.asarray(t, float)),
    )
    spec = SignalSpec(components=(bad,), fs=128.0, n=128)
    with pytest.raises(ValueError, match="positive"):
        class_params(spec)


def test_spec_validation():
    with pytest.raises(ValueError):
        SignalSpec(components=(), fs=256.0, n=256)
    with pytest.raises(ValueError):
        SignalSpec(components=(tone(1.0),), fs=-1.0, n=256)
    with pytest.raises(ValueError):
        SignalSpec(components=(tone(1.0),), fs=256.0, n=256, mode="both")
    with pytest.raises(ValueError):
        tone(-3.0)


def test_csv_round_trip_lossless_and_deterministic(tmp_path):
    sig = synthesize(example1_spec())
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    signal_to_csv(sig, p1)
    signal_to_csv(sig, p2)
    assert p1.read_bytes() == p2.read_bytes()
    back = signal_from_csv(p1)
    assert np.array_equal(back.t, sig.t)
    assert np.array_equal(back.x, sig.x)
    assert back.x.dtype == np.float64  # all-zero imag column folds to real


def test_csv_round_trip_complex(tmp_path):
    sig = synthesize(example2_spec().with_mode("complex"))
    p = tmp_path / "c.csv"
    signal_to_csv(sig, p)
    back = signal_from_csv(p)
    assert back.x.dtype == np.complex128
    assert np.array_equal(back.x, sig.x)


def test_csv_header_enforced(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("time,value\n0,1\n")
    with pytest.raises(ValueError, match="header"):
        signal_from_csv(p)


def test_write_table_header_only_is_one_lf_line(tmp_path):
    p = tmp_path / "h.csv"
    write_table(p, "b,k,lower,upper,valid")
    assert p.read_bytes() == b"b,k,lower,upper,valid\n"


def test_write_table_digits_and_one_based_k(tmp_path):
    b = np.array([0.0, 0.5, 1.0])
    values = np.array([[0.25, math.pi, 1e-17], [np.nan, -2.0, 3.5]])
    k = np.arange(1, 3)[:, None]            # (K, 1) against (n,) and (K, n)
    p1, p2 = tmp_path / "c1.csv", tmp_path / "c2.csv"
    for p in (p1, p2):
        write_table(p, "b,k,value,ok", b, k, values, values > 0.1)
    assert p1.read_bytes() == p2.read_bytes()
    assert b"\r" not in p1.read_bytes()
    lines = p1.read_text().splitlines()
    assert lines == ["b,k,value,ok",
                     "0,1,0.25,1",
                     "0.5,1,3.1415926535897931,1",
                     "1,1,1.0000000000000001e-17,0",
                     "0,2,nan,0",
                     "0.5,2,-2,0",
                     "1,2,3.5,1"]
    # 17 significant digits round-trip exactly
    assert float(lines[2].split(",")[2]) == math.pi
    assert float(lines[3].split(",")[2]) == 1e-17
