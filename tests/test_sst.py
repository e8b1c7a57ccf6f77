"""Phase-transform and reassignment checks.

Proof groups:
  1. exactness on tones -- the width-drift corrections cancel the moving
     window exactly, so a pure tone's estimate is its frequency
  2. chirp sharpening -- the second-order estimate beats first order on a
     fast linear chirp
  3. constant-width degeneracy -- both estimates collapse to the
     conventional formulas when sigma is constant
  4. squeezing bookkeeping -- mass conservation, tie-to-lower binning,
     range clipping, NaN skipping
  5. output -- CSV/PGM determinism, validation (default_gamma2 rejects
     a nonpositive gamma1 as both phase transforms do)
  6. one statement of each fact -- a plane's valid mask, read from its
     NaN pattern, is the threshold mask each variant applies, and
     SecondOrderCells carry the gamma1 mask only as NaNs; and the
     sigma'-free forms: with the time-derivative identity substituted,
     dadb_w and both phase transforms are built from w, w_tg, da_w and
     da_w_tg alone, sigma' cancelling
  7. blocks equal the whole -- a stack taken in blocks of columns (kernel
     product) or of scales (inverse FFT), 37, 5 and 1 wide, gives
     phase_second's gamma2 and omega bytes, strict and hybrid, through
     its blocks' SecondOrderCells; squeeze's chunks of columns give the
     bytes of one scatter over the whole lattice; the writers'
     tracemalloc peak does not grow with the plane's height
"""
from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from adassq import sst
from adassq.cwt import CwtStack, ScaleGrid, compute_stack, takes_fft
from adassq.separation import (
    SigmaProfile,
    constant_profile,
    sigma1,
    sigma2,
    zones,
)
from adassq.signals import (
    SampledSignal,
    SignalSpec,
    example1_spec,
    example2_spec,
    linear_chirp,
    synthesize,
    tone,
)
from adassq.sst import (
    PhasePlane,
    _first_order,
    SecondOrderCells,
    SqueezeConfig,
    TfPlane,
    chirp_rate_estimate,
    conservation_defect,
    default_gamma2,
    lattice_index,
    phase_first,
    phase_second,
    scatter_add,
    squeeze,
    tf_to_csv,
    tf_to_pgm,
)
from adassq.windows import WindowModel

TWO_PI = 2.0 * math.pi


@pytest.fixture(scope="module")
def wm():
    return WindowModel(mu=1.0, tau0=0.05)


def _tone_stack(wm, mode="complex", sigma_varying=True):
    spec = SignalSpec(components=(tone(40.0),), fs=128.0, n=128, mode=mode)
    sig = synthesize(spec)
    if sigma_varying:
        t = sig.t
        prof = SigmaProfile(
            b=t, sigma=1.0 + 0.2 * np.sin(TWO_PI * t),
            dsigma=0.2 * TWO_PI * np.cos(TWO_PI * t), kind="custom")
    else:
        prof = constant_profile(sig.t, 1.0)
    grid = ScaleGrid.from_range(1.0 / 70.0, 1.0 / 22.0, voices=16)
    return compute_stack(sig, prof, wm, grid)


# ---------------------------------------------------------------- group 1

def test_first_order_exact_on_tone_with_moving_window(wm):
    st = _tone_stack(wm, sigma_varying=True)
    plane = phase_first(st, gamma1=0.01)
    err = np.abs(plane.omega[plane.valid] - 40.0)
    assert plane.valid.any()
    assert np.max(err) < 1e-9


def test_first_order_exact_on_real_tone(wm):
    st = _tone_stack(wm, mode="real", sigma_varying=True)
    plane = phase_first(st, gamma1=0.01)
    assert np.max(np.abs(plane.omega[plane.valid] - 40.0)) < 1e-9


def test_second_order_exact_on_tone(wm):
    st = _tone_stack(wm, sigma_varying=True)
    plane = phase_second(st, gamma1=0.01, hybrid=True)
    assert np.max(np.abs(plane.omega[plane.valid] - 40.0)) < 1e-7


# ---------------------------------------------------------------- group 2

def test_second_order_sharpens_fast_chirp(wm):
    spec = SignalSpec(components=(linear_chirp(20.0, 18.0),), fs=256.0,
                      n=256, mode="complex")
    sig = synthesize(spec)
    prof = constant_profile(sig.t, 0.8)
    grid = ScaleGrid.from_range(1.0 / 50.0, 1.0 / 14.0, voices=32)
    st = compute_stack(sig, prof, wm, grid)
    p1 = phase_first(st, gamma1=0.01)
    p2 = phase_second(st, gamma1=0.01)
    comp = spec.components[0]
    e1, e2, used = [], [], []
    for i in range(26, 231):            # b in [0.1, 0.9]
        f = float(comp.dphase(sig.t[i]))
        j = int(np.argmin(np.abs(grid.a - wm.mu / f)))
        if p1.valid[j, i] and p2.valid[j, i]:
            e1.append(abs(p1.omega[j, i] - f))
            e2.append(abs(p2.omega[j, i] - f))
            used.append(i)
    assert len(e2) > 150
    assert max(e2) < 0.1                # chirp-corrected stays sharp
    assert max(e2) < max(e1)            # and beats first order outright
    # Away from the segment ends the wrap-around leakage dies off and the
    # chirp-rate correction is the whole story: order 2 wins by orders of
    # magnitude, not percent.
    inner1 = [v for v, i in zip(e1, used) if 52 <= i <= 204]
    inner2 = [v for v, i in zip(e2, used) if 52 <= i <= 204]
    assert max(inner2) < 0.01 * max(inner1)
    assert max(inner1) > 1e-3           # the chirp really does bias order 1


def test_chirp_rate_estimate_recovers_rate(wm):
    # r0 should equal i*2*pi*sigma*phi'' on the ridge of a linear chirp
    spec = SignalSpec(components=(linear_chirp(20.0, 18.0),), fs=256.0,
                      n=256, mode="complex")
    sig = synthesize(spec)
    prof = constant_profile(sig.t, 1.3)
    grid = ScaleGrid.from_range(1.0 / 30.0, 1.0 / 14.0, voices=16)
    st = compute_stack(sig, prof, wm, grid)
    r0, cond = chirp_rate_estimate(st)
    comp = spec.components[0]
    i = 128                             # b = 0.5
    f = float(comp.dphase(sig.t[i]))
    j = int(np.argmin(np.abs(grid.a - wm.mu / f)))
    expect = 2j * np.pi * prof.sigma[i] * 18.0
    assert abs(r0[j, i] - expect) < 1e-3 * abs(expect)
    assert cond[j, i] > 0.1


# ---------------------------------------------------------------- group 3

def test_constant_width_first_order_is_conventional(wm):
    st = _tone_stack(wm, mode="real", sigma_varying=False)
    plane = phase_first(st, gamma1=0.01)
    with np.errstate(divide="ignore", invalid="ignore"):
        conventional = (st.db_w / (2j * np.pi * st.w)).real
    diff = np.abs(plane.omega - conventional)[plane.valid]
    assert np.max(diff) < 1e-12 * 40.0


def test_constant_width_second_order_is_conventional(wm):
    spec = example2_spec()
    sig = synthesize(spec)
    prof = constant_profile(sig.t, 1.25)
    grid = ScaleGrid.from_range(1.0 / 90.0, 1.0 / 15.0, voices=16)
    st = compute_stack(sig, prof, wm, grid)
    plane = phase_second(st, gamma1=0.01, gamma2=1e-8)
    a = st.a[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        denom = st.w * st.w_tg + a * (st.w * st.da_w_tg - st.w_tg * st.da_w)
        r0 = (st.w * st.dadb_w - st.da_w * st.db_w) / denom
        conventional = (st.db_w / (2j * np.pi * st.w)
                        - a * st.w_tg * r0 / (2j * np.pi * st.w)).real
    sel = plane.valid
    diff = np.abs(plane.omega - conventional)[sel]
    assert np.max(diff) < 1e-10


# ---------------------------------------------------------------- group 4

def test_squeeze_conserves_masked_mass(wm):
    spec = example1_spec()
    sig = synthesize(spec)
    prof = sigma1(spec, wm)
    grid = ScaleGrid.from_range(1.0 / 40.0, 1.0 / 6.0, voices=32)
    st = compute_stack(sig, prof, wm, grid)
    plane = phase_first(st, gamma1=0.01)
    cfg = SqueezeConfig(xi_min=5.0, xi_max=40.0, dxi=0.25)
    tf = squeeze(st, plane, cfg)
    defect = conservation_defect(st, plane, tf)
    masked_mass = np.abs(np.where(plane.valid, st.w, 0.0)
                         .sum(axis=0)) * grid.dlog
    assert np.max(defect) < 1e-12 * max(1.0, np.max(masked_mass))


def test_squeeze_conserves_mass_hybrid_variant(wm):
    spec = example2_spec()
    sig = synthesize(spec)
    prof = sigma2(spec, wm)
    grid = ScaleGrid.from_range(1.0 / 100.0, 1.0 / 12.0, voices=32)
    st = compute_stack(sig, prof, wm, grid)
    plane = phase_second(st, gamma1=0.01, hybrid=True)
    cfg = SqueezeConfig.for_stack(st)
    tf = squeeze(st, plane, cfg)
    assert np.max(conservation_defect(st, plane, tf)) < 1e-12


def _single_cell_stack(wm, omega_value):
    """Stack with one coefficient and a hand-set phase plane."""
    grid = ScaleGrid(a=np.array([0.025]), dlog=0.1)
    prof = SigmaProfile(b=np.array([0.0]), sigma=np.array([1.0]),
                        dsigma=np.array([0.0]), kind="custom")
    sig = SampledSignal(t=np.array([0.0]), x=np.array([0.0]))
    one = np.array([[1.0 + 0.0j]])
    zero = np.zeros((1, 1), dtype=complex)
    st = CwtStack(grid=grid, profile=prof, wm=wm, sig=sig, w=one,
                  w_tg=zero, w_tgp=zero, da_w=zero, db_w=zero,
                  da_w_tg=zero, da_w_tgp=zero, dadb_w=zero)
    return st, PhasePlane(omega=np.array([[omega_value]]))


def test_halfway_tie_goes_to_lower_bin(wm):
    st, plane = _single_cell_stack(wm, 0.375)   # halfway between 0.25, 0.5
    cfg = SqueezeConfig(xi_min=0.0, xi_max=1.0, dxi=0.25)
    tf = squeeze(st, plane, cfg)
    l = int(np.argmax(np.abs(tf.values[:, 0])))
    assert tf.xi[l] == pytest.approx(0.25)


def test_just_above_tie_goes_to_upper_bin(wm):
    st, plane = _single_cell_stack(wm, 0.3750001)
    cfg = SqueezeConfig(xi_min=0.0, xi_max=1.0, dxi=0.25)
    tf = squeeze(st, plane, cfg)
    l = int(np.argmax(np.abs(tf.values[:, 0])))
    assert tf.xi[l] == pytest.approx(0.5)


def test_out_of_range_estimates_clip_to_end_bins(wm):
    cfg = SqueezeConfig(xi_min=10.0, xi_max=20.0, dxi=0.5)
    st, plane = _single_cell_stack(wm, 500.0)
    tf = squeeze(st, plane, cfg)
    assert abs(tf.values[-1, 0]) > 0.0
    st, plane = _single_cell_stack(wm, -3.0)
    tf = squeeze(st, plane, cfg)
    assert abs(tf.values[0, 0]) > 0.0


def test_invalid_cells_are_skipped_not_zero_binned(wm):
    st, plane = _single_cell_stack(wm, float("nan"))
    cfg = SqueezeConfig(xi_min=0.0, xi_max=1.0, dxi=0.25)
    tf = squeeze(st, plane, cfg)
    assert np.all(tf.values == 0.0)


def test_hybrid_falls_back_to_first_order(wm):
    st = _tone_stack(wm, sigma_varying=True)
    huge = 1e12                          # conditioning never passes
    strict = phase_second(st, gamma1=0.01, gamma2=huge)
    assert not strict.valid.any()
    assert np.all(np.isnan(strict.omega))
    hybrid = phase_second(st, gamma1=0.01, gamma2=huge, hybrid=True)
    first = phase_first(st, gamma1=0.01)
    sel = hybrid.valid
    assert sel.any()
    # one first-order estimate: the fallback is phase_first bit for bit
    np.testing.assert_array_equal(hybrid.omega[sel], first.omega[sel])


def test_default_gamma2_positive_and_small(wm):
    st = _tone_stack(wm, sigma_varying=False)
    g2 = default_gamma2(st, gamma1=0.01)
    assert 0.0 < g2 < 1.0


# ---------------------------------------------------------------- group 5

def test_outputs_deterministic(tmp_path, wm):
    st = _tone_stack(wm, mode="real", sigma_varying=False)
    plane = phase_first(st, gamma1=0.01)
    tf = squeeze(st, plane, SqueezeConfig(xi_min=20.0, xi_max=60.0))
    c1, c2 = tmp_path / "a.csv", tmp_path / "b.csv"
    tf_to_csv(tf, c1)
    tf_to_csv(tf, c2)
    assert c1.read_bytes() == c2.read_bytes()
    assert c1.read_text().splitlines()[0] == "xi,b,re,im,abs"
    p1, p2 = tmp_path / "a.pgm", tmp_path / "b.pgm"
    tf_to_pgm(tf, p1)
    tf_to_pgm(tf, p2)
    b1 = p1.read_bytes()
    assert b1 == p2.read_bytes()
    assert b1.startswith(b"P5\n")
    w, h = len(tf.b), len(tf.xi)
    assert f"{w} {h}".encode() in b1


def test_validation_errors(wm):
    st = _tone_stack(wm, sigma_varying=False)
    with pytest.raises(ValueError):
        phase_first(st, gamma1=0.0)
    with pytest.raises(ValueError):
        phase_second(st, gamma1=-1.0)
    with pytest.raises(ValueError):
        phase_second(st, gamma1=0.01, gamma2=-2.0)
    with pytest.raises(ValueError):
        SqueezeConfig(xi_min=0.0, xi_max=1.0, dxi=-0.25)
    with pytest.raises(ValueError):
        SqueezeConfig(xi_min=2.0, xi_max=1.0)


@pytest.mark.parametrize("gamma1", [0.0, -1.0])
def test_default_gamma2_rejects_nonpositive_gamma1(wm, gamma1):
    st = _tone_stack(wm, sigma_varying=False)
    with pytest.raises(ValueError, match="gamma1 must be positive"):
        default_gamma2(st, gamma1)


# ---------------------------------------------------------------- group 6

def _zone_case(spec, profile, order=1):
    def make(wm):
        prof = profile(spec, wm)
        zs = zones(spec, wm, prof, order=order)
        return compute_stack(synthesize(spec), prof, wm,
                             ScaleGrid.from_zones(zs))
    return make


def _constant(sigma):
    return lambda spec, wm: constant_profile(spec.times(), sigma)


_MASK_CASES = {
    "example1-sigma1": _zone_case(example1_spec(), sigma1),
    "example2-sigma2": _zone_case(example2_spec(), sigma2, 2),
    "constant-256": _zone_case(example1_spec(), _constant(1.0)),
}


@pytest.mark.parametrize("variant", ["T1", "T2", "S2"])
@pytest.mark.parametrize("case", list(_MASK_CASES))
def test_valid_is_the_threshold_mask(wm, case, variant):
    # the masks the phase transforms applied: |w| > gamma1 for T1 and
    # S2, and that with finite conditioning above gamma2 for T2
    st = _MASK_CASES[case](wm)
    mask = np.abs(st.w) > 0.01
    if variant == "T1":
        plane = phase_first(st, gamma1=0.01)
    else:
        plane = phase_second(st, gamma1=0.01, hybrid=(variant == "S2"))
    if variant == "T2":
        cond = chirp_rate_estimate(st)[1]
        with np.errstate(invalid="ignore"):
            mask &= np.isfinite(cond) & (cond > plane.gamma2)
    assert mask.any() and not mask.all()
    np.testing.assert_array_equal(plane.valid, mask)


@pytest.mark.parametrize("case", list(_MASK_CASES))
def test_second_order_cells_keep_gamma1_in_their_nans(wm, case):
    # no mask array beside the cells: the conditioning and the
    # first-order estimate are NaN exactly where |w| <= gamma1
    st = _MASK_CASES[case](wm)
    cells = SecondOrderCells.of(st, 0.01)
    assert all(field.dtype != bool for field in cells)
    below = np.abs(st.w) <= 0.01
    assert below.any() and not below.all()
    np.testing.assert_array_equal(np.isnan(cells.cond), below)
    np.testing.assert_array_equal(np.isnan(cells.first), below)


_THREE = SignalSpec(components=(tone(20.0), linear_chirp(40.0, 5.0),
                                tone(80.0)), fs=256.0, n=256)
_IDENTITY_CASES = {
    "example1-sigma1": _zone_case(example1_spec(), sigma1),
    "example2-sigma2": _zone_case(example2_spec(), sigma2, 2),
    "sinusoidal-tone": lambda wm: _tone_stack(wm, sigma_varying=True),
    "three-sigma1": _zone_case(_THREE, sigma1),
    "constant-1024": _zone_case(
        SignalSpec(components=(linear_chirp(20.0, 1.0),
                               linear_chirp(50.0, 2.0), tone(90.0)),
                   fs=256.0, n=1024), _constant(1.0)),
}


@pytest.mark.parametrize("case", list(_IDENTITY_CASES))
def test_phase_transforms_are_sigma_prime_free(wm, case):
    st = _IDENTITY_CASES[case](wm)
    a = st.a[:, None]
    sig = st.profile.sigma[None, :]
    dln = (st.profile.dsigma / st.profile.sigma)[None, :]
    w, w_tg, da_w, da_w_tg = st.w, st.w_tg, st.da_w, st.da_w_tg
    i2pmu = 2j * np.pi * st.wm.mu

    # dadb_w is the scale derivative of the time-derivative identity
    dadb = (-(i2pmu / a ** 2) * w + (i2pmu / a - dln) * da_w
            - dln * st.da_w_tgp - w_tg / (a * a * sig)
            + da_w_tg / (a * sig))
    assert np.max(np.abs(st.dadb_w - dadb)) \
        <= 1e-13 * np.max(np.abs(st.dadb_w))

    with np.errstate(divide="ignore", invalid="ignore"):
        # first order: mu/a + Im(w_tg/w)/(2*pi*a*sigma)
        valid = np.abs(w) > 0.01
        first = st.wm.mu / a + (w_tg / w).imag / (TWO_PI * a * sig)
        assert np.max(np.abs(_first_order(st).real - first)[valid]) <= 1e-10

        # second order: r0 from the four fields, on the conditioned cells
        denom = w * w_tg + a * (w * da_w_tg - w_tg * da_w)
        r0 = (-(i2pmu / a ** 2) * w * w
              + (denom - 2.0 * w * w_tg) / (a * a * sig)) / denom
        second = (st.wm.mu / a + w_tg / (2j * np.pi * a * sig * w)
                  - a * (w_tg / (2j * np.pi * w)) * r0).real
    plane = phase_second(st, gamma1=0.01)
    assert plane.valid.any()
    assert np.max(np.abs(plane.omega - second)[plane.valid]) <= 1e-8


# ---------------------------------------------------------------- group 7

def _blocks(st, width):
    """(cells, stack) of consecutive blocks of st, width columns each on
    the kernel-product path and width scales each on the inverse-FFT
    path, as run_analysis walks them."""
    fft = takes_fft(st.sig, st.profile)
    p = st.profile
    for k in range(0, len(st.a) if fft else len(st.b), width):
        part = slice(k, k + width)
        if fft:
            yield (part, slice(None)), compute_stack(
                st.sig, p, st.wm, ScaleGrid(a=st.a[part], dlog=st.grid.dlog))
        else:
            yield (slice(None), part), compute_stack(
                st.sig, SigmaProfile(b=p.b[part], sigma=p.sigma[part],
                                     dsigma=p.dsigma[part], kind=p.kind),
                st.wm, st.grid)


@pytest.mark.parametrize("hybrid", [False, True], ids=["T2", "S2"])
@pytest.mark.parametrize("width", [37, 5, 1])
@pytest.mark.parametrize("case", ["example2-sigma2", "constant-256"])
def test_blocked_second_order_cells_give_phase_second(wm, case, width,
                                                      hybrid):
    st = _MASK_CASES[case](wm)
    assert takes_fft(st.sig, st.profile) == (case == "constant-256")
    cells = SecondOrderCells(*(np.empty_like(c) for c in
                               SecondOrderCells.of(st, 0.01)))
    for at, block in _blocks(st, width):
        for whole, part in zip(cells, SecondOrderCells.of(block, 0.01)):
            whole[at] = part
    got = phase_second(cells, 0.01, hybrid=hybrid)
    want = phase_second(st, 0.01, hybrid=hybrid)
    assert got.gamma2 == want.gamma2
    assert got.omega.tobytes() == want.omega.tobytes()


@pytest.mark.parametrize("width", [37, 5, 1])
@pytest.mark.parametrize("case", ["example1-sigma1", "constant-256"])
def test_blocked_scatter_add_gives_squeeze(wm, case, width):
    st = _MASK_CASES[case](wm)
    cfg = SqueezeConfig.for_stack(st)
    want = squeeze(st, phase_first(st, 0.01), cfg).values
    T = np.zeros_like(want)
    for (rows, cols), block in _blocks(st, width):
        scatter_add(T, phase_first(block, 0.01).omega, block.w,
                    st.grid.dlog, cfg, first=cols.start or 0)
    assert T.tobytes() == want.tobytes()


@pytest.mark.parametrize("chunk", [1, 7, 1000, 10 ** 9])
@pytest.mark.parametrize("case", ["example1-sigma1", "constant-256"])
def test_squeeze_chunks_give_one_scatters_bytes(wm, monkeypatch, case,
                                                chunk):
    # columns of one cell (one column a chunk), of a few cells, and the
    # whole lattice in one chunk: every plane cell gets its column's cells
    # in ascending scale order, so the bits are one np.add.at's
    st = _MASK_CASES[case](wm)
    plane, cfg = phase_first(st, 0.01), SqueezeConfig.for_stack(st)
    idx = lattice_index(plane.omega, cfg)
    sel = idx >= 0
    want = np.zeros((len(cfg.bin_centers()), len(st.b)), dtype=complex)
    np.add.at(want, (idx[sel], np.nonzero(sel)[1]),
              st.w[sel] * (st.grid.dlog / cfg.dxi))
    monkeypatch.setattr(sst, "_CHUNK_CELLS", chunk)
    assert squeeze(st, plane, cfg).values.tobytes() == want.tobytes()


def _writer_peak(write, path, rows: int) -> int:
    """tracemalloc peak of writing a 5%-live plane of rows by 1,024
    cells, allocated before tracing starts."""
    rng = np.random.default_rng(0)
    v = np.zeros((rows, 1024), dtype=complex)
    on = rng.random(v.shape) < 0.05
    v[on] = rng.normal(size=(int(on.sum()), 2)) @ [1, 1j]
    tf = TfPlane(xi=np.arange(rows) / 8.0, b=np.arange(1024) / 256.0,
                 values=v, dxi=0.125)
    tracemalloc.start()
    try:
        write(tf, path)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("write", [tf_to_csv, tf_to_pgm])
def test_tf_writers_memory_is_bounded_by_the_chunk(tmp_path, write):
    # 800 more rows are 819k more cells: a full-size |T| would peak
    # 6.5 MB higher (and the image 0.8 MB), where a writer bounded by the
    # chunk and the axes peaks a fraction of a MB higher
    low, high = (_writer_peak(write, tmp_path / "tf", rows)
                 for rows in (100, 900))
    assert high - low < 1_000_000, (low, high)
