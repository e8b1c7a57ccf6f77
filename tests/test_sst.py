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
  5. output -- CSV/PGM determinism, validation
"""
from __future__ import annotations

import math

import numpy as np
import pytest

from adassq.cwt import CwtStack, ScaleGrid, compute_stack
from adassq.separation import SigmaProfile, constant_profile, sigma1, sigma2
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
    SqueezeConfig,
    chirp_rate_estimate,
    conservation_defect,
    default_gamma2,
    phase_first,
    phase_second,
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
    plane = PhasePlane(omega=np.array([[omega_value]]),
                       valid=np.array([[np.isfinite(omega_value)]]))
    return st, plane


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
