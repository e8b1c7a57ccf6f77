"""Signal-layer checks.

Proof groups:
  1. synthesis matches the closed-form sample values
  2. class parameters extracted from ground truth are exact for the presets
  3. admissibility guards catch bad truth: misordered components, and a
     negative amplitude, named by its component; a zero one is admitted
  4. CSV round trip is lossless and byte-deterministic; the table writer
     every output file goes through writes 17-digit floats, integer
     int/bool columns, broadcast columns row-major, and LF line endings;
     over random finite floats (signed zeros and subnormals included) the
     writer and the reader round-trip every value bit for bit
  5. the chunked table writer writes the same bytes as the per-cell loop
     it replaced (kept here as the oracle), over random broadcast tables
     of signed zeros, NaN payloads, infinities, subnormals, exact int64
     and bool columns, rows shorter and longer than a chunk, and no rows,
     over sparse planes whose blank cells (+0.0, 0, False in every full
     column) share a string while -0.0 and partly zero cells do not, in
     the tf.csv (xi, b) and report.csv (b, k) axis orders, over
     omega-like float planes that are NaN off their support (all-NaN
     cells share a string while cells that mix NaN with numbers do not),
     with full-size float columns also given as functions of the rows
     (tf.csv's abs), and on the tf.csv and omega.csv of a real analyze
     run; its "%.17g" and "%d" slots print what "{:.17g}" and "{:d}"
     printed, over signed zeros, NaN payloads, infinities, subnormals,
     exact int64 and bools;
     its tracemalloc peak on a mostly blank plane does not grow with the
     plane's height
  6. tone and linear_chirp, shorthands for poly_phase, give A and phi to
     phi''' bit for bit what their old hand-written closures (kept
     here as the oracle) gave, over random frequencies, rates, amplitudes
     and time grids, negative times included
  7. a component is its data: phase(t, m) for m = 0..3 and amp give bit
     for bit, -0.0 included, what the closures poly_phase built before
     (kept here as the oracle) gave, over random coefficients,
     amplitudes and time grids; equal data compare and hash equal
"""
from __future__ import annotations

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from adassq import cli, sst
from adassq.signals import (
    _CHUNK_CELLS,
    ClassParams,
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
    assert np.allclose(a.phase(t, 2), b.phase(t, 2), rtol=0, atol=1e-13)


def test_class_params_example1():
    cp = class_params(example1_spec())
    assert cp.eps2 == pytest.approx(0.5, rel=1e-14)
    assert cp.eps3 == 0.0


def test_class_params_example2():
    cp = class_params(example2_spec())
    assert cp.eps2 == pytest.approx(36.0, rel=1e-14)
    assert cp.eps3 == 0.0


def test_class_params_cubic_phase():
    # phi = 30 t + 2 t**3 has curvature drift eps3 = sup|phi'''| = 12
    spec = SignalSpec(components=(poly_phase((0.0, 30.0, 0.0, 2.0)),),
                      fs=256.0, n=256, mode="complex")
    assert class_params(spec).eps3 == pytest.approx(12.0, rel=1e-12)


def test_misordered_components_rejected():
    spec = SignalSpec(
        components=(linear_chirp(26.0, -0.5), linear_chirp(12.0, 0.5)),
        fs=256.0, n=256)
    with pytest.raises(ValueError, match="increasing"):
        class_params(spec)


def test_negative_amplitude_rejected():
    # a silent component is in the class; a negative one is named
    def spec(amp):
        return SignalSpec(components=(tone(30.0), tone(60.0, amp)),
                          fs=128.0, n=128)
    with pytest.raises(ValueError, match="component 2: amplitude must not "
                                         "be negative, got -1"):
        class_params(spec(-1.0))
    for amp in (0.0, -0.0):
        assert class_params(spec(amp)) == ClassParams(0.0, 0.0)


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
    """The per-row writer write_table replaced: one fmt.format per cell.
    A column given as a function of a row slice is taken whole."""
    cols = np.broadcast_arrays(*(np.atleast_2d(c(slice(None)) if callable(c)
                                               else c) for c in columns))
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


def _plane(draw, rng, height, width):
    """Axes in the tf.csv order (xi, b) or the report.csv order (b, k: a
    row axis after a column axis), then full float, int and bool columns
    that share one support and are blank (+0.0, 0, False) off it.  On the
    support some columns are zero and others not, and one cell is -0.0 in
    one column, a live cell that prints -0."""
    axes = [np.arange(height)[:, None] / 8.0, np.arange(width) / 256.0]
    if draw(st.booleans()):
        axes.reverse()
    support = rng.random((height, width)) < draw(
        st.sampled_from([0.0, 0.05, 0.5]))
    columns = []
    for kind in draw(st.lists(st.sampled_from(["float", "int", "bool"]),
                              min_size=1, max_size=4)):
        cells, dtype = {"float": (_FLOAT_CELLS, np.float64),
                        "int": (_INT_CELLS, np.int64),
                        "bool": (st.booleans(), np.bool_)}[kind]
        pool = np.array(draw(st.lists(cells, min_size=1, max_size=6)),
                        dtype=dtype)
        col = np.zeros((height, width), dtype=dtype)
        on = support & (rng.random(support.shape) < 0.8)
        col[on] = pool[rng.integers(len(pool), size=int(on.sum()))]
        columns.append(col)
    floats = [c for c in columns if c.dtype == np.float64]
    if floats and support.size:
        floats[0].flat[rng.integers(support.size)] = -0.0
    return axes + columns


@settings(max_examples=500, deadline=None)
@given(_FLOAT_CELLS, _INT_CELLS | st.booleans())
def test_percent_slots_print_what_str_format_printed(x, v):
    assert "%.17g" % x == "{:.17g}".format(x)
    assert "%d" % v == "{:d}".format(v)


def _omega_plane(draw, rng, height, width):
    """omega.csv's layout: axes (a, b), then one to three float columns
    that are NaN, of either sign and any payload, off one support.  On the
    support a column's cell is NaN with probability 0.3, so some cells mix
    NaN with numbers and some are NaN in every column."""
    axes = [np.arange(height)[:, None] / 8.0, np.arange(width) / 256.0]
    support = rng.random((height, width)) < draw(
        st.sampled_from([0.0, 0.3, 0.6, 1.0]))
    nans = np.array(_NANS)
    columns = []
    for _ in range(draw(st.integers(1, 3))):
        pool = np.array(draw(st.lists(_FLOAT_CELLS, min_size=1, max_size=6)))
        col = nans[rng.integers(len(nans), size=support.shape)]
        on = support & (rng.random(support.shape) < 0.7)
        col[on] = pool[rng.integers(len(pool), size=int(on.sum()))]
        columns.append(col)
    return axes + columns


@st.composite
def _tables(draw):
    """Broadcast columns of one dominant value mixed with others and
    sparse planes, or (a quarter of the tables) an omega-like plane.

    Widths of one chunk and more make rows as long as and longer than a
    chunk; narrower tables get up to three chunks' worth of cells, so
    several chunks of many rows, and 0 rows or 0 columns occur too.
    """
    width = draw(st.sampled_from([0, 1, 3, 31, _CHUNK_CELLS,
                                  _CHUNK_CELLS + 76]))
    height = draw(st.integers(0, 3 * _CHUNK_CELLS // max(width, 1)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.integers(0, 3)) == 0:
        return _omega_plane(draw, rng, height, width)
    columns = []
    for kind in draw(st.lists(st.sampled_from(
            ["rows", "cols", "flat", "float", "int", "bool", "plane"]),
            min_size=1, max_size=5)):
        if kind == "plane":
            columns.extend(_plane(draw, rng, height, width))
            continue
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
    # every full-size float column but the first, given as a function of
    # the rows, as tf.csv gives its abs column
    shape = np.broadcast_shapes((1, 1), *(np.shape(c) for c in columns))
    full = [i for i, c in enumerate(columns) if np.shape(c) == shape
            and len(shape) == 2][1:]
    rows = [(lambda r, c=c: c[r]) if i in full and c.dtype == np.float64
            else c for i, c in enumerate(columns)]
    write_table(d / "rows.csv", header, *rows)
    assert (d / "rows.csv").read_bytes() == (d / "old.csv").read_bytes()


def _plane_peak(path, rows: int) -> int:
    """tracemalloc peak of writing a 5%-live 1,024-column plane, tf.csv's
    layout, with the columns allocated before tracing starts."""
    rng = np.random.default_rng(0)
    v = np.zeros((rows, 1024), dtype=complex)
    on = rng.random(v.shape) < 0.05
    v[on] = rng.normal(size=(int(on.sum()), 2)) @ [1, 1j]
    cols = (np.arange(rows)[:, None] / 8.0, np.arange(1024) / 256.0,
            v.real, v.imag, np.hypot(v.real, v.imag))
    tracemalloc.start()
    try:
        write_table(path, "xi,b,re,im,abs", *cols)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_write_table_memory_is_bounded_by_the_chunk(tmp_path):
    # 1,400 more rows are 1.4M more cells: a writer holding one 8-byte
    # reference per cell would peak 11 MB higher, where one bounded by
    # the chunk and the axes peaks a fraction of a MB higher
    low, high = (_plane_peak(tmp_path / "p.csv", rows) for rows in (200, 1600))
    assert high - low < 1_000_000, (low, high)


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
        cli._omega_to_csv(res, tmp_path / f"omega-{name}.csv")
    for stem in ("tf", "omega"):
        assert (tmp_path / f"{stem}-new.csv").read_bytes() == \
            (tmp_path / f"{stem}-old.csv").read_bytes(), stem


def _const(value):
    return lambda t: np.full_like(np.asarray(t, dtype=float), value)


def _oracle_tone(freq, amp):
    """tone as it was written before it became poly_phase((0, freq)):
    closures for A and phi to phi'''."""
    return (_const(amp), lambda t: freq * np.asarray(t, dtype=float),
            _const(freq), _const(0.0), _const(0.0))


def _oracle_chirp(f0, rate, amp):
    """linear_chirp as it was written before it became
    poly_phase((0, f0, rate/2))."""
    return (_const(amp),
            lambda t: (f0 + 0.5 * rate * np.asarray(t, dtype=float))
            * np.asarray(t, dtype=float),
            lambda t: f0 + rate * np.asarray(t, dtype=float),
            _const(rate), _const(0.0))


def _oracle_poly_phase(coeffs, amp):
    """poly_phase as it was before a component became its data: closures
    for A and phi to phi''' over one Polynomial and its derivatives."""
    p = np.polynomial.Polynomial(list(coeffs))
    d1, d2, d3 = p.deriv(1), p.deriv(2), p.deriv(3)
    return (_const(amp), lambda t: p(np.asarray(t, dtype=float)),
            lambda t: d1(np.asarray(t, dtype=float)),
            lambda t: d2(np.asarray(t, dtype=float)),
            lambda t: d3(np.asarray(t, dtype=float)))


def _functions(comp):
    """A and phi to phi''' of a component, in the oracles' order."""
    return (comp.amp, *(lambda t, m=m: comp.phase(t, m) for m in range(4)))


_NAMES = ("A", "phi", "phi'", "phi''", "phi'''")
# finite, and 0 or at least 1e-300 in size, so that rate/2 is exact and no
# product of two draws overflows or leaves the normal range; -0.0 included
_VALUES = st.sampled_from([0.0, -0.0, 1.0, -1.0]) | st.floats(
    -1e6, 1e6, allow_subnormal=False).filter(lambda v: v == 0 or
                                               abs(v) >= 1e-300)
_TIMES = hnp.arrays(np.float64, st.integers(0, 40),
                    elements=_VALUES | st.floats(-1e3, 1e3))


@settings(max_examples=300, deadline=None)
@given(st.floats(1e-300, 1e6), _VALUES, _VALUES, _VALUES, _TIMES)
def test_tone_and_chirp_equal_their_old_closures(freq, f0, rate, amp, t):
    # np.array_equal compares -0.0 and 0.0 equal, which covers the one
    # sign that moves (see the test below)
    for new, old in ((tone(freq, amp), _oracle_tone(freq, amp)),
                     (linear_chirp(f0, rate, amp),
                      _oracle_chirp(f0, rate, amp))):
        for name, f, g in zip(_NAMES, _functions(new), old):
            got, want = f(t), g(t)
            assert got.shape == want.shape and got.dtype == want.dtype
            assert np.array_equal(got, want), name


def test_chirp_rate_minus_zero_is_the_one_moved_sign():
    # the old closure returned the rate itself; Horner's -0.0 + t*0 is
    # +0.0 for t >= +0.0, and stays -0.0 only where t*0 is -0.0
    t = np.array([-1.0, 0.0, 1.0])
    old = _oracle_chirp(10.0, -0.0, 1.0)[3](t)
    new = linear_chirp(10.0, -0.0).phase(t, 2)
    assert np.array_equal(np.signbit(old), [True, True, True])
    assert np.array_equal(np.signbit(new), [True, False, False])


@settings(max_examples=300, deadline=None)
@given(st.lists(_VALUES, min_size=1, max_size=5), _VALUES, _TIMES)
def test_component_data_give_the_closures_bits(coeffs, amp, t):
    # bit patterns, so a -0.0 for +0.0 (or back) fails too
    comp = poly_phase(coeffs, amp)
    for name, f, g in zip(_NAMES, _functions(comp),
                          _oracle_poly_phase(coeffs, amp)):
        got, want = f(t), g(t)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), name


def test_equal_components_compare_and_hash_equal():
    a, b = linear_chirp(12.0, 0.5), poly_phase([0, 12, 0.25])
    assert a == b and hash(a) == hash(b)
    assert tone(40.0) == poly_phase((0.0, 40.0), 1.0)
    assert tone(40.0) != tone(40.0, 2.0) and tone(40.0) != tone(41.0)
    assert len({tone(40.0), tone(40.0), tone(40.0, 2.0), tone(41.0)}) == 3
