"""Signal-layer checks.

Proof groups:
  1. synthesis matches the closed-form sample values
  2. class parameters extracted from ground truth are exact for the presets
  3. admissibility guards catch bad truth
  4. CSV round trip is lossless and byte-deterministic; the table writer
     every output file goes through writes 17-digit floats, integer
     int/bool columns, broadcast columns row-major, and LF line endings;
     over random finite floats (signed zeros and subnormals included) the
     writer and the reader round-trip every value bit for bit
  5. the chunked table writer writes the same bytes as the per-cell loop
     it replaced (kept here as the oracle), over random broadcast tables
     of signed zeros, NaN payloads, infinities, subnormals, exact int64
     and bool columns, rows shorter and longer than a chunk, and no rows,
     and on the tf.csv and omega.csv of a real analyze run
"""
from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from adassq import cli, sst
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
    read_table,
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
    spec = dataclasses.replace(example1_spec(), mode="complex")
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


def test_class_params_cubic_phase():
    # phi = 30 t + 2 t**3 has curvature drift eps3 = sup|phi'''| = 12
    spec = SignalSpec(components=(poly_phase((0.0, 30.0, 0.0, 2.0)),),
                      fs=256.0, n=256, mode="complex")
    assert class_params(spec).eps3 == pytest.approx(12.0, rel=1e-12)


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
    sig = synthesize(dataclasses.replace(example2_spec(), mode="complex"))
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


_FINITE = st.floats(allow_nan=False, allow_infinity=False,
                    allow_subnormal=True)


@settings(max_examples=200, deadline=None)
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2,
                                               max_side=6),
                  elements=_FINITE | st.sampled_from(
                      [0.0, -0.0, 5e-324, -2.2250738585072009e-308])))
def test_write_table_read_table_round_trip_bit_for_bit(tmp_path_factory,
                                                       table):
    rows, ncols = table.shape
    header = ",".join(f"c{j}" for j in range(ncols))
    p = tmp_path_factory.mktemp("rt") / "t.csv"
    write_table(p, header, *table.T)
    raw = p.read_bytes()
    assert raw.endswith(b"\n") and b"\r" not in raw
    assert raw.count(b"\n") == rows + 1
    back = read_table(p, header)
    assert back.shape == table.shape
    assert np.array_equal(back.view(np.int64), table.view(np.int64))


def _oracle_write_table(path, header: str, *columns) -> None:
    """The per-row writer write_table replaced: one fmt.format per cell."""
    cols = np.broadcast_arrays(*map(np.atleast_2d, columns))
    fmt = ",".join("{:d}" if c.dtype.kind in "biu" else "{:.17g}"
                   for c in cols) + "\n"
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        for block in zip(*cols):
            fh.writelines(map(fmt.format, *(c.tolist() for c in block)))


# NaNs with the sign bit set and with other payloads, quiet and signaling
_NANS = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001,
                  0xFFF4000000000ABC, 0x7FF8DEAD0000BEEF],
                 dtype=np.uint64).view(np.float64).tolist()
_FLOAT_CELLS = st.sampled_from([0.0, -0.0, math.inf, -math.inf, 5e-324,
                                -2.2250738585072009e-308, *_NANS]) \
    | st.floats(allow_subnormal=True)
# past 2**53 an integer that went through a float would change
_INT_CELLS = st.sampled_from([0, -1, 2 ** 53 + 1, -2 ** 63, 2 ** 63 - 1]) \
    | st.integers(-2 ** 63, 2 ** 63 - 1)


@st.composite
def _tables(draw):
    """Broadcast columns of one dominant value mixed with others.

    Widths 1024 and 1100 make rows as long as and longer than one
    1024-cell chunk; narrower tables get up to ~3000 cells, so several
    chunks of many rows, and 0 rows or 0 columns occur too.
    """
    width = draw(st.sampled_from([0, 1, 3, 31, 1024, 1100]))
    height = draw(st.integers(0, 3000 // max(width, 1)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    columns = []
    for kind in draw(st.lists(st.sampled_from(
            ["rows", "cols", "flat", "float", "int", "bool"]),
            min_size=1, max_size=5)):
        shape = {"rows": (height, 1), "cols": (1, width), "flat": (width,)}\
            .get(kind, (height, width))
        if kind == "bool":
            columns.append(rng.random(shape) < draw(st.floats(0, 1)))
            continue
        cells, dtype = (_INT_CELLS, np.int64) if kind == "int" \
            else (_FLOAT_CELLS, np.float64)
        pool = np.array(draw(st.lists(cells, min_size=1, max_size=6)),
                        dtype=dtype)
        col = np.full(shape, draw(cells), dtype=dtype)
        mixed = rng.random(shape) < draw(st.sampled_from([0.0, 0.05, 0.5]))
        col[mixed] = pool[rng.integers(len(pool), size=int(mixed.sum()))]
        columns.append(col)
    return columns


@settings(max_examples=100, deadline=None)
@given(_tables())
def test_write_table_matches_per_cell_oracle(tmp_path_factory, columns):
    header = ",".join(f"c{j}" for j in range(len(columns)))
    d = tmp_path_factory.mktemp("oracle")
    write_table(d / "new.csv", header, *columns)
    _oracle_write_table(d / "old.csv", header, *columns)
    assert (d / "new.csv").read_bytes() == (d / "old.csv").read_bytes()


def test_write_table_matches_oracle_on_an_analyze_run(tmp_path, monkeypatch):
    # a mostly-zero squeezed plane and a phase lattice of numbers and nan
    res = cli.run_analysis(cli.load_config(None, {
        ("signal", "components"): "chirp:20:10; tone:60"}))
    assert np.mean(res.tf.values == 0) > 0.8
    assert 0 < np.mean(res.plane.valid) < 1
    for name in ("new", "old"):
        if name == "old":
            monkeypatch.setattr(sst, "write_table", _oracle_write_table)
            monkeypatch.setattr(cli, "write_table", _oracle_write_table)
        sst.tf_to_csv(res.tf, tmp_path / f"tf-{name}.csv")
        cli._omega_to_csv(res.stack, res.plane, tmp_path / f"omega-{name}.csv")
    for stem in ("tf", "omega"):
        assert (tmp_path / f"{stem}-new.csv").read_bytes() == \
            (tmp_path / f"{stem}-old.csv").read_bytes(), stem
