"""Transform-stack checks.

Proof groups:
  1. the vectorized lattice equals a naive reimplementation of the
     spectral sum (independent double loop), and up to n = 4096 an oracle
     whose phase factors are reduced to exact integer multiples of 1/N;
     every column of a stack equals that column computed alone: bit for
     bit under a kernel product, to rounding under the inverse FFT; and
     the closed-form kernels give every field bit for bit what numpy's
     polyval of the spectral-derivative polynomials gave
  2. closed forms -- on-grid tones and interior chirps match the exact
     transform values predicted by the window layer
  3. derivative lattices match central finite differences of the value
     lattices in scale and time (including time-varying sigma)
  4. the exact time-derivative identity holds at rounding level
  5. conventions -- real-mode folding, grid construction (its scale
     count exact where a float product would round)
  6. structure -- constant sigma on the sample grid, and only it, builds
     its kernels once and takes one inverse FFT per field
  7. blocks and subsets -- stacks of consecutive blocks of scales (inverse
     FFT) or of columns (kernel product), 1, 2 and 7 wide, concatenate to
     the whole stack bit for bit; a fields= subset is those fields of the
     whole stack bit for bit, on both paths, and a field not asked for is
     None
  8. the gamma1 mask -- on the kernel-product path (sigma1, sigma2, a
     width table; T1's three fields and all eight) w is the whole stack's
     on every cell and every other field on each cell with |w| > gamma1,
     bit for bit, for a threshold that leaves a column one scale above it
     (a one-row product would move bits), one that leaves a column none
     (no product, zeros), and one below every |w| (the whole stack);
     column blocks of the masked stack concatenate to it, and the
     inverse-FFT path ignores gamma1
  9. the walk -- stack_walk's blocks tile the lattice exactly once, in
     walk order: scales on the inverse-FFT path, columns on the
     kernel-product path; a block holds at most 1 MiB of fields unless one
     scale or column alone is larger, the largest block's cells are
     counted, and a one-column tail is its own block; the kernel bytes
     follow the spectrum's bin count (N/2 + 1 real, N complex); and a
     scale count past any memory comes back as counts without allocating
"""
from __future__ import annotations

import dataclasses
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from adassq import cwt
from adassq.cwt import (
    CwtStack,
    ScaleGrid,
    compute_stack,
    time_derivative_residual,
    spectral_coefficients,
)
from adassq.separation import (
    SigmaProfile,
    constant_profile,
    sigma1,
    sigma2,
    zones,
)
from adassq.signals import (
    SignalSpec,
    example1_spec,
    example2_spec,
    linear_chirp,
    synthesize,
    tone,
)
from adassq.windows import (
    _HAT_POLY,
    FOUR_PI2,
    WindowKind,
    WindowModel,
    chirped_transform_G,
    gauss_hat,
    window_hat_eval,
)

TWO_PI = 2.0 * math.pi
FIELDS = ("w", "w_tg", "w_tgp", "da_w", "db_w", "da_w_tg", "da_w_tgp",
          "dadb_w")


@pytest.fixture(scope="module")
def wm():
    return WindowModel(mu=1.0, tau0=0.05)


def naive_stack_value(sig, profile, wm, a):
    """Independent double-loop evaluation of the spectral sum."""
    x = np.asarray(sig.x)
    n = len(x)
    fs = (n - 1) / (sig.t[-1] - sig.t[0])
    X = np.fft.fft(x) / n
    if np.iscomplexobj(x):
        xi = np.arange(n) * fs / n
        c = X
    else:
        half = n // 2
        xi = np.arange(half + 1) * fs / n
        c = 2.0 * X[: half + 1]
        c[0] = X[0]
        if n % 2 == 0:
            c[half] = X[half]
    out = np.zeros((len(a), len(profile.b)), dtype=complex)
    for j, aj in enumerate(a):
        for i, bi in enumerate(profile.b):
            s = profile.sigma[i]
            acc = 0.0 + 0.0j
            for m in range(len(xi)):
                nu = s * (wm.mu - aj * xi[m])
                acc += c[m] * math.exp(-TWO_PI * math.pi * nu * nu) \
                    * np.exp(1j * TWO_PI * xi[m] * (bi - sig.t[0]))
            out[j, i] = acc
    return out


# ---------------------------------------------------------------- group 1

def test_stack_matches_naive_reimplementation_real(wm):
    spec = SignalSpec(components=(tone(9.0), tone(21.0)), fs=64.0, n=64)
    sig = synthesize(spec)
    prof = constant_profile(sig.t, 1.1)
    grid = ScaleGrid.from_range(1.0 / 30.0, 1.0 / 5.0, voices=8)
    st = compute_stack(sig, prof, wm, grid)
    ref = naive_stack_value(sig, prof, wm, grid.a)
    assert np.max(np.abs(st.w - ref)) < 1e-13 * np.max(np.abs(ref))


def test_stack_matches_naive_reimplementation_complex(wm):
    spec = SignalSpec(components=(linear_chirp(12.0, 3.0),), fs=64.0, n=64,
                      mode="complex")
    sig = synthesize(spec)
    prof = constant_profile(sig.t, 0.9)
    grid = ScaleGrid.from_range(1.0 / 25.0, 1.0 / 6.0, voices=8)
    st = compute_stack(sig, prof, wm, grid)
    ref = naive_stack_value(sig, prof, wm, grid.a)
    assert np.max(np.abs(st.w - ref)) < 1e-13 * np.max(np.abs(ref))


def exact_phase_stack(sig, sigma, wm, a, cols=None):
    """Spectral sum on the sample-grid columns b_i = t_0 + i/fs.

    There xi_m*(b_i - t_0) = m*i/N, so each phase factor is taken of the
    integer-reduced angle ((m*i) mod N)/N and carries no error that grows
    with n.  cols picks the columns i (default: all of them).
    """
    xi, c = spectral_coefficients(sig)
    n = len(sig.t)
    cols = np.arange(n) if cols is None else np.asarray(cols)
    phase = np.exp(1j * TWO_PI * (np.outer(np.arange(len(xi)), cols) % n)
                   / n)
    nu = sigma * (wm.mu - np.outer(a, xi))
    return (np.exp(-TWO_PI * math.pi * nu * nu) * c) @ phase


@pytest.mark.parametrize("mode", ["real", "complex"])
@pytest.mark.parametrize("n", [64, 1023, 1024, 4096])
def test_stack_matches_exact_phase_oracle(wm, n, mode):
    # the analyze grid without zones (1 Hz to 1.25x Nyquist, 246 scales);
    # the inverse FFT measures at most 1.0e-15 relative at every n here,
    # where the direct sum (still used for varying sigma) rounds its phase
    # by b*xi: 1.4e-14 at n = 64, 2.3e-13 at 1024, 6.7e-13 at 4096.  At
    # n = 4096 the oracle takes 32 probe columns, not its 2049 x 4096
    # phase matrix.
    spec = SignalSpec(components=(linear_chirp(20.0, 1.0),
                                  linear_chirp(50.0, 2.0), tone(90.0)),
                      fs=256.0, n=n, mode=mode)
    sig = synthesize(spec)
    grid = ScaleGrid.from_range(1.0 / 128.0 / 1.25, 1.25, voices=32)
    assert len(grid) == 246
    st = compute_stack(sig, constant_profile(sig.t, 1.0), wm, grid)
    cols = np.linspace(0, n - 1, 32).astype(int) if n > 1024 else \
        np.arange(n)
    ref = exact_phase_stack(sig, 1.0, wm, grid.a, cols)
    assert np.max(np.abs(st.w[:, cols] - ref)) < 1e-14 * np.max(np.abs(ref))


def _repeated_pairs(t, wm):
    # one (sigma, sigma') pair over most columns and not contiguous, two
    # pairs with equal sigma but opposite sigma', and singleton columns
    sigma = np.full(t.size, 1.1)
    dsigma = np.zeros(t.size)
    sigma[40:60] = 1.2
    dsigma[40:60:2], dsigma[41:60:2] = 0.3, -0.3
    k = np.arange(20)
    sigma[60:80], dsigma[60:80] = 1.0 + 0.01 * k, 0.05 * k
    return SigmaProfile(b=t, sigma=sigma, dsigma=dsigma)


_TWO_TONES = (linear_chirp(9.0, 4.0), tone(21.0))
# case -> (components, fs, n, profile of the sample times and window)
_COLUMN_CASES = {
    "repeated-pairs": (_TWO_TONES, 64.0, 96, _repeated_pairs),
    "example1-sigma1": (example1_spec().components, 256.0, 256,
                        lambda t, wm: sigma1(example1_spec(), wm)),
    "constant-off-grid": (_TWO_TONES, 64.0, 96,
                          lambda t, wm: constant_profile(t + 0.3 / 64.0,
                                                         1.1)),
}


@pytest.mark.parametrize("mode", ["real", "complex"])
@pytest.mark.parametrize("case", sorted(_COLUMN_CASES))
def test_columns_equal_single_column_stacks(wm, case, mode):
    # every column takes its own kernel product, so every column of every
    # field equals the stack of a one-column profile bit for bit.  The
    # direct spectral sum and the exact time-derivative identity hold on
    # all of them.
    comps, fs, n, make = _COLUMN_CASES[case]
    sig = synthesize(SignalSpec(components=comps, fs=fs, n=n, mode=mode))
    prof = make(sig.t, wm)
    grid = ScaleGrid.from_range(1.0 / 30.0, 1.0 / 5.0, voices=8)
    st = compute_stack(sig, prof, wm, grid)

    names = {f.name for f in dataclasses.fields(CwtStack)}
    assert names - {"grid", "profile", "wm", "sig"} == set(FIELDS)
    for i in range(n):
        one = SigmaProfile(b=prof.b[i:i + 1], sigma=prof.sigma[i:i + 1],
                           dsigma=prof.dsigma[i:i + 1])
        alone = compute_stack(sig, one, wm, grid)
        for name in FIELDS:
            np.testing.assert_array_equal(getattr(st, name)[:, i],
                                          getattr(alone, name)[:, 0],
                                          (name, i))
    cols = np.arange(0, n, max(1, n // 48))
    ref = naive_stack_value(sig, SigmaProfile(
        b=prof.b[cols], sigma=prof.sigma[cols], dsigma=prof.dsigma[cols]),
        wm, grid.a)
    assert np.max(np.abs(st.w[:, cols] - ref)) < 1e-13 * np.max(np.abs(ref))
    res = time_derivative_residual(st)
    assert np.max(np.abs(res)) <= 1e-12 * np.max(np.abs(st.db_w))


@pytest.mark.parametrize("mode", ["real", "complex"])
@pytest.mark.parametrize("n", [95, 96])
def test_sample_grid_fields_equal_single_column_stacks(wm, n, mode):
    # constant sigma on the sample grid takes the inverse FFT; each of its
    # eight fields equals, column by column and within rounding, the direct
    # sum of a one-column profile, and the direct spectral sum and the
    # exact time-derivative identity hold on it
    sig = synthesize(SignalSpec(components=_TWO_TONES, fs=64.0, n=n,
                                mode=mode))
    prof = constant_profile(sig.t, 1.1)
    grid = ScaleGrid.from_range(1.0 / 30.0, 1.0 / 5.0, voices=8)
    st = compute_stack(sig, prof, wm, grid)
    for i in range(n):
        one = SigmaProfile(b=sig.t[i:i + 1], sigma=prof.sigma[i:i + 1],
                           dsigma=prof.dsigma[i:i + 1])
        alone = compute_stack(sig, one, wm, grid)
        for name in FIELDS:
            field = getattr(st, name)
            assert np.max(np.abs(field[:, i] - getattr(alone, name)[:, 0])) \
                <= 1e-13 * np.max(np.abs(field)), (name, i)
    ref = naive_stack_value(sig, prof, wm, grid.a)
    assert np.max(np.abs(st.w - ref)) < 1e-13 * np.max(np.abs(ref))
    res = time_derivative_residual(st)
    assert np.max(np.abs(res)) <= 1e-12 * np.max(np.abs(st.db_w))


def _hat_deriv(p):
    """Q with d/dxi [P*FTg] = Q*FTg: Q = P' - 4*pi**2*xi*P, as
    FTg' = -4*pi**2*xi*FTg."""
    p = np.asarray(p, dtype=complex)
    out = np.zeros(len(p) + 1, dtype=complex)
    if len(p) > 1:
        dp = npoly.polyder(p)
        out[: len(dp)] += dp
    out[1 : len(p) + 1] -= FOUR_PI2 * p
    return out


def polyval_stack(sig, profile, wm, grid):
    """The eight fields with each kernel P(nu)*FTg(nu) evaluated by numpy's
    complex polyval of _HAT_POLY and its derivative polynomials, taking
    the columns as compute_stack does (one inverse FFT per field for
    constant sigma on the sample grid, else one product per column)."""
    xi, coef = spectral_coefficients(sig)
    p_tg = _HAT_POLY[WindowKind.TG]
    p_tgp = _HAT_POLY[WindowKind.TGP]
    d_g = _hat_deriv(_HAT_POLY[WindowKind.G])
    d_tg, d_tgp, dd_g = _hat_deriv(p_tg), _hat_deriv(p_tgp), _hat_deriv(d_g)
    out = {name: np.empty((len(grid.a), len(profile.b)), dtype=complex)
           for name in FIELDS}
    i2pix = 1j * TWO_PI * xi
    detune = wm.mu - np.outer(grid.a, xi)
    n = len(sig.t)
    on_grid = (np.all(profile.sigma == profile.sigma[0])
               and np.all(profile.dsigma == profile.dsigma[0])
               and np.array_equal(profile.b, sig.t))
    for i, shift in enumerate(profile.b - float(sig.t[0])):
        s = profile.sigma[i]
        dln = profile.dsigma[i] / s
        nu = s * detune
        gh = np.exp(-TWO_PI * math.pi * nu * nu)
        dscale = -s * xi
        v_dg = npoly.polyval(nu, d_g)
        kernels = {
            "w": gh,
            "w_tg": npoly.polyval(nu, p_tg) * gh,
            "w_tgp": npoly.polyval(nu, p_tgp) * gh,
            "da_w": dscale * v_dg * gh,
            "db_w": i2pix * gh + dln * nu * v_dg * gh,
            "da_w_tg": dscale * npoly.polyval(nu, d_tg) * gh,
            "da_w_tgp": dscale * npoly.polyval(nu, d_tgp) * gh,
            "dadb_w": dscale * (
                i2pix * v_dg
                + dln * (v_dg + nu * npoly.polyval(nu, dd_g))) * gh,
        }
        if on_grid:
            for name in FIELDS:
                np.multiply(np.fft.ifft(kernels[name] * coef, n=n, axis=1),
                            n, out=out[name])
            return out
        ce = coef[:, None] * np.exp(np.outer(i2pix, [shift]))
        for name, kern in kernels.items():
            out[name][:, i:i + 1] = kern @ ce
    return out


def _zone_case(spec, profile, order):
    def make(wm):
        prof = profile(spec, wm)
        zs = zones(spec, wm, prof, order=order)
        return synthesize(spec), prof, ScaleGrid.from_zones(zs)
    return make


def _band_case(spec, profile):
    # the analyze grid without zones: 1 Hz to 1.25x Nyquist
    def make(wm):
        sig = synthesize(spec)
        grid = ScaleGrid.from_range(1.0 / (spec.fs / 2.0) / 1.25, 1.25)
        return sig, profile(sig.t), grid
    return make


def _sinusoidal(t):
    return SigmaProfile(b=t, sigma=1.2 + 0.1 * np.sin(TWO_PI * t),
                        dsigma=0.1 * TWO_PI * np.cos(TWO_PI * t),
                        kind="custom")


_THREE = SignalSpec(components=(tone(20.0), linear_chirp(40.0, 5.0),
                                tone(80.0)), fs=256.0, n=256)
_EX1_CHIRPS = example1_spec().components
# case -> wm -> (signal, profile, grid)
_POLYVAL_CASES = {
    "example2-sigma2": _zone_case(example2_spec(), sigma2, 2),
    "example1-sigma1": _zone_case(example1_spec(), sigma1, 1),
    "three-sigma1": _zone_case(_THREE, sigma1, 1),
    "sinusoidal": _band_case(example1_spec(), _sinusoidal),
    "fft-real-1024": _band_case(
        SignalSpec(components=(linear_chirp(20.0, 1.0),
                               linear_chirp(50.0, 2.0), tone(90.0)),
                   fs=256.0, n=1024),
        lambda t: constant_profile(t, 1.0)),
    "fft-complex-256": _band_case(
        SignalSpec(components=_EX1_CHIRPS, fs=256.0, n=256, mode="complex"),
        lambda t: constant_profile(t, 1.0)),
    "constant-off-grid": _band_case(
        example1_spec(), lambda t: constant_profile(t + 0.3 / 256.0, 1.1)),
}


@pytest.mark.parametrize("case", list(_POLYVAL_CASES))
def test_closed_form_kernels_equal_polyval_bit_for_bit(wm, case):
    # every word of every field, zero signs included; FOUR_PI2 * (nu * nu)
    # in place of FOUR_PI2 * nu * nu already moves the last bit of about
    # a third of the w_tgp kernel values
    sig, prof, grid = _POLYVAL_CASES[case](wm)
    st = compute_stack(sig, prof, wm, grid)
    ref = polyval_stack(sig, prof, wm, grid)
    for name in FIELDS:
        np.testing.assert_array_equal(getattr(st, name).view(np.uint64),
                                      ref[name].view(np.uint64), name)


# ---------------------------------------------------------------- group 2

def test_on_grid_tone_closed_form(wm):
    # a 40 Hz complex tone occupies one DFT bin, so every lattice field
    # collapses to a single closed-form term
    spec = SignalSpec(components=(tone(40.0),), fs=128.0, n=128,
                      mode="complex")
    sig = synthesize(spec)
    prof = constant_profile(sig.t, 0.9)
    grid = ScaleGrid.from_range(1.0 / 80.0, 1.0 / 20.0, voices=16)
    st = compute_stack(sig, prof, wm, grid)
    nu = 0.9 * (wm.mu - np.outer(grid.a, np.full(len(sig.t), 40.0)))
    osc = np.exp(1j * TWO_PI * 40.0 * (sig.t - sig.t[0]))[None, :]
    assert np.max(np.abs(st.w - gauss_hat(nu) * osc)) < 1e-13
    assert np.max(np.abs(st.w_tg
                         - window_hat_eval(WindowKind.TG, nu) * osc)) < 1e-13
    assert np.max(np.abs(st.db_w - 1j * TWO_PI * 40.0 * st.w)) < 1e-10
    # d(nu)/da = -sigma*xi and FTg' = -4 pi^2 nu FTg
    expect_da = -0.9 * 40.0 * (-2.0 * TWO_PI * math.pi * nu) \
        * gauss_hat(nu) * osc
    assert np.max(np.abs(st.da_w - expect_da)) < 1e-10


def test_real_tone_doubling_matches_analytic_tone(wm):
    # on-grid cosine folds to exactly the analytic tone's coefficients
    real = synthesize(SignalSpec(components=(tone(40.0),), fs=128.0, n=128))
    cplx = synthesize(SignalSpec(components=(tone(40.0),), fs=128.0, n=128,
                                 mode="complex"))
    prof = constant_profile(real.t, 0.9)
    grid = ScaleGrid.from_range(1.0 / 80.0, 1.0 / 20.0, voices=8)
    sr = compute_stack(real, prof, wm, grid)
    sc = compute_stack(cplx, prof, wm, grid)
    assert np.max(np.abs(sr.w - sc.w)) < 1e-13
    assert np.max(np.abs(sr.db_w - sc.db_w)) < 1e-10


def test_interior_chirp_matches_closed_form(wm):
    # away from the segment ends the transform of a linear chirp equals
    # amplitude * phase factor * chirped-Gaussian transform
    spec = SignalSpec(components=(linear_chirp(20.0, 18.0),), fs=256.0,
                      n=256, mode="complex")
    sig = synthesize(spec)
    prof = constant_profile(sig.t, 1.3)
    comp = spec.components[0]
    cols = np.arange(115, 141)          # b in [0.45, 0.55]
    grid = ScaleGrid.from_range(1.0 / 45.0, 1.0 / 18.0, voices=16)
    st = compute_stack(sig, prof, wm, grid)
    scale = np.max(np.abs(st.w))
    for i in cols:
        f = float(comp.dphase(sig.t[i]))
        u = prof.sigma[i] * (wm.mu - grid.a * f)
        lam = TWO_PI * 18.0 * grid.a ** 2 * prof.sigma[i] ** 2
        pred = np.exp(2j * np.pi * float(comp.phase(sig.t[i]))) \
            * chirped_transform_G(u, lam)
        assert np.max(np.abs(st.w[:, i] - pred)) < 1e-5 * scale


def test_real_mode_approximates_analytic_mode_interior(wm):
    spec_r = SignalSpec(
        components=(linear_chirp(20.0, 18.0), linear_chirp(42.0, 36.0)),
        fs=256.0, n=256)
    sr = synthesize(spec_r)
    sc = synthesize(dataclasses.replace(spec_r, mode="complex"))
    prof = constant_profile(sr.t, 1.3)
    grid = ScaleGrid.from_range(1.0 / 80.0, 1.0 / 15.0, voices=16)
    str_ = compute_stack(sr, prof, wm, grid)
    stc = compute_stack(sc, prof, wm, grid)
    mid = slice(102, 154)               # b in [0.4, 0.6]
    diff = np.max(np.abs(str_.w[:, mid] - stc.w[:, mid]))
    assert diff < 1e-3 * np.max(np.abs(stc.w))


# ---------------------------------------------------------------- group 3

def _fd_pair(sig, wm, base_grid, profile, h):
    lo = ScaleGrid(a=base_grid.a - h, dlog=base_grid.dlog)
    hi = ScaleGrid(a=base_grid.a + h, dlog=base_grid.dlog)
    return compute_stack(sig, profile, wm, lo), \
        compute_stack(sig, profile, wm, hi)


def test_scale_derivatives_match_finite_differences(wm):
    spec = example1_spec()
    sig = synthesize(spec)
    prof = sigma1(spec, wm)
    grid = ScaleGrid.from_range(1.0 / 30.0, 1.0 / 10.0, voices=8)
    st = compute_stack(sig, prof, wm, grid)
    h = 1e-8
    lo, hi = _fd_pair(sig, wm, grid, prof, h)
    for field, dfield in (("w", "da_w"), ("w_tg", "da_w_tg"),
                          ("w_tgp", "da_w_tgp"), ("db_w", "dadb_w")):
        fd = (getattr(hi, field) - getattr(lo, field)) / (2.0 * h)
        exact = getattr(st, dfield)
        denom = np.max(np.abs(exact))
        assert np.max(np.abs(fd - exact)) < 1e-6 * denom, field


def test_time_derivative_matches_finite_differences_varying_sigma(wm):
    # time-varying sigma exercises the window-drift term in db_w
    spec = example1_spec()
    sig = synthesize(spec)
    grid = ScaleGrid.from_range(1.0 / 30.0, 1.0 / 10.0, voices=8)
    st = compute_stack(sig, sigma1(spec, wm), wm, grid)
    h = 1e-8
    lo = compute_stack(sig, sigma1(spec, wm, b=sig.t - h), wm, grid)
    hi = compute_stack(sig, sigma1(spec, wm, b=sig.t + h), wm, grid)
    fd = (hi.w - lo.w) / (2.0 * h)
    assert np.max(np.abs(fd - st.db_w)) < 1e-6 * np.max(np.abs(st.db_w))


def test_time_derivative_matches_finite_differences_constant_sigma(wm):
    spec = example1_spec()
    sig = synthesize(spec)
    grid = ScaleGrid.from_range(1.0 / 30.0, 1.0 / 10.0, voices=8)
    prof = constant_profile(sig.t, 1.1)
    st = compute_stack(sig, prof, wm, grid)
    h = 1e-8
    lo = compute_stack(sig, constant_profile(sig.t - h, 1.1), wm, grid)
    hi = compute_stack(sig, constant_profile(sig.t + h, 1.1), wm, grid)
    fd = (hi.w - lo.w) / (2.0 * h)
    assert np.max(np.abs(fd - st.db_w)) < 1e-6 * np.max(np.abs(st.db_w))


# ---------------------------------------------------------------- group 4

def test_time_derivative_identity_is_exact(wm):
    spec = example1_spec()
    sig = synthesize(spec)
    prof = sigma1(spec, wm)
    grid = ScaleGrid.from_range(1.0 / 30.0, 1.0 / 8.0, voices=16)
    st = compute_stack(sig, prof, wm, grid)
    res = time_derivative_residual(st)
    assert np.max(np.abs(res)) < 1e-12 * np.max(np.abs(st.db_w))


def test_time_derivative_identity_exact_for_noise(wm):
    # the identity is structural (per frequency bin), not signal-dependent
    rng = np.random.default_rng(5)
    t = np.arange(128) / 128.0
    sig_obj = synthesize(SignalSpec(components=(tone(20.0),),
                                    fs=128.0, n=128))
    noisy = type(sig_obj)(t=t, x=rng.standard_normal(128))
    prof = SigmaProfile(b=t, sigma=1.0 + 0.1 * np.sin(TWO_PI * t),
                        dsigma=0.1 * TWO_PI * np.cos(TWO_PI * t),
                        kind="custom")
    grid = ScaleGrid.from_range(1.0 / 50.0, 1.0 / 5.0, voices=8)
    st = compute_stack(noisy, prof, wm, grid)
    res = time_derivative_residual(st)
    assert np.max(np.abs(res)) < 1e-12 * np.max(np.abs(st.db_w))


# ---------------------------------------------------------------- group 5

def test_spectral_coefficients_folding():
    spec = SignalSpec(components=(tone(10.0),), fs=64.0, n=64)
    sig = synthesize(spec)
    xi, c = spectral_coefficients(sig)
    X = np.fft.fft(sig.x) / 64
    assert len(xi) == 33
    assert xi[1] == pytest.approx(1.0)
    assert c[0] == pytest.approx(X[0])
    assert c[32] == pytest.approx(X[32])          # half-band bin undoubled
    np.testing.assert_allclose(c[1:32], 2.0 * X[1:32], rtol=1e-15)


def test_spectral_coefficients_complex_keeps_all_bins():
    spec = SignalSpec(components=(tone(10.0),), fs=64.0, n=64,
                      mode="complex")
    sig = synthesize(spec)
    xi, c = spectral_coefficients(sig)
    assert len(xi) == 64
    np.testing.assert_allclose(c, np.fft.fft(sig.x) / 64, rtol=1e-15)


def test_scale_grid_construction():
    g = ScaleGrid.from_range(0.01, 0.08, voices=32)
    assert len(g) == ScaleGrid.size(0.01, 0.08, 32) == 97
    assert g.a[0] == pytest.approx(0.01)
    assert g.a[-1] >= 0.08
    ratios = g.a[1:] / g.a[:-1]
    np.testing.assert_allclose(ratios, 2.0 ** (1.0 / 32.0), rtol=1e-12)
    assert g.dlog == pytest.approx(math.log(2.0) / 32.0)
    with pytest.raises(ValueError):
        ScaleGrid.from_range(-1.0, 0.1)
    with pytest.raises(ValueError):
        ScaleGrid.from_range(0.1, 0.05)
    with pytest.raises(ValueError):
        ScaleGrid.from_range(0.01, 0.08, voices=0)
    # past the float range the count is exact: 3 octaves of 10**400 voices
    assert ScaleGrid.size(0.01, 0.08, 10 ** 400) == 3 * 10 ** 400 + 1


def test_scale_count_is_exact_where_the_float_product_rounds():
    # log2 of this a_max is a hair above 1/3, and 3 times it rounds to 1.0
    # in floats: the exact count is 3 scales, not 2
    a_max = 1.2599210498948732
    octaves = Fraction(math.log2(a_max))
    assert 3 * math.log2(a_max) == 1.0 and 3 * octaves > 1
    assert ScaleGrid.size(1.0, a_max, 3) == 3
    assert ScaleGrid.from_range(1.0, a_max, 3).a[-1] >= a_max
    voices = 10 ** 17
    assert ScaleGrid.size(1.0, a_max, voices) == \
        math.ceil(voices * octaves) + 1 == 33333333333333339


def test_scale_grid_covers_zones(wm):
    spec = example1_spec()
    prof = sigma1(spec, wm)
    zs = zones(spec, wm, prof, order=1)
    g = ScaleGrid.from_zones(zs, voices=16, margin=1.25)
    assert g.a[0] <= np.min(zs.lower[zs.valid])
    assert g.a[-1] >= np.max(zs.upper[zs.valid])


# ---------------------------------------------------------------- group 6

def test_constant_sigma_builds_its_kernels_once(wm, monkeypatch):
    # one Gaussian per kernel build, whatever the number of columns
    calls = []
    exp = cwt.np.exp

    def counted(*args, **kwargs):
        calls.append(1)
        return exp(*args, **kwargs)
    grid = ScaleGrid.from_range(1.0 / 30.0, 1.0 / 5.0, voices=8)
    counts = []
    for n in (2, 64, 128):
        sig = synthesize(SignalSpec(components=(tone(9.0),), fs=64.0, n=n))
        with monkeypatch.context() as patch:
            patch.setattr(cwt.np, "exp", counted)
            calls.clear()
            compute_stack(sig, constant_profile(sig.t, 1.1), wm, grid)
        counts.append(len(calls))
    assert counts == [1, 1, 1]


def test_only_constant_sigma_on_the_sample_grid_takes_the_fft(wm,
                                                              monkeypatch):
    # one inverse FFT per field; varying sigma (example2's sigma2, whose
    # pinned outputs sit on half-bin ties) and off-grid columns keep the
    # per-column kernel product
    calls = []
    ifft = cwt.np.fft.ifft

    def counted(*args, **kwargs):
        calls.append(1)
        return ifft(*args, **kwargs)
    monkeypatch.setattr(cwt.np.fft, "ifft", counted)
    grid = ScaleGrid.from_range(1.0 / 30.0, 1.0 / 5.0, voices=8)

    def count(sig, prof):
        calls.clear()
        compute_stack(sig, prof, wm, grid)
        return len(calls)
    for n in (2, 64, 128):
        sig = synthesize(SignalSpec(components=(tone(9.0),), fs=64.0, n=n))
        assert count(sig, constant_profile(sig.t, 1.1)) == len(FIELDS)
    # and one per field built: T1's three
    calls.clear()
    compute_stack(sig, constant_profile(sig.t, 1.1), wm, grid,
                  fields=("w", "db_w", "w_tgp"))
    assert len(calls) == 3
    assert count(sig, constant_profile(sig.t + 1e-8, 1.1)) == 0
    spec = example2_spec()
    assert count(synthesize(spec), sigma2(spec, wm)) == 0


# ---------------------------------------------------------------- group 7

_BLOCK_CASES = {
    # constant sigma on the sample grid: blocks of scales
    "constant-fft": (lambda sig, wm: constant_profile(sig.t, 1.1), True),
    # varying sigma: blocks of columns
    "sigma1": (lambda sig, wm: sigma1(example1_spec(), wm), False),
}


@pytest.mark.parametrize("width", [1, 2, 7])
@pytest.mark.parametrize("case", sorted(_BLOCK_CASES))
def test_blocks_concatenate_to_the_whole_stack(wm, case, width):
    make, fft = _BLOCK_CASES[case]
    sig = synthesize(example1_spec())
    prof = make(sig, wm)
    assert cwt.takes_fft(sig, prof) == fft
    grid = ScaleGrid.from_range(1.0 / 30.0, 1.0 / 5.0, voices=8)
    whole = compute_stack(sig, prof, wm, grid)
    blocks = []
    for k in range(0, len(grid) if fft else sig.t.size, width):
        part = slice(k, k + width)
        if fft:
            blocks.append(compute_stack(
                sig, prof, wm, ScaleGrid(a=grid.a[part], dlog=grid.dlog)))
        else:
            blocks.append(compute_stack(sig, SigmaProfile(
                b=prof.b[part], sigma=prof.sigma[part],
                dsigma=prof.dsigma[part]), wm, grid))
    for name in FIELDS:
        joined = np.concatenate([getattr(b, name) for b in blocks],
                                axis=0 if fft else 1)
        assert joined.tobytes() == getattr(whole, name).tobytes(), name


@pytest.mark.parametrize("fields", [("w",), ("w", "db_w", "w_tgp"),
                                    ("dadb_w", "da_w_tg"), ()])
@pytest.mark.parametrize("case", sorted(_BLOCK_CASES))
def test_field_subset_equals_the_whole_stack(wm, case, fields):
    # w is always built; every other field not named is None
    make, _ = _BLOCK_CASES[case]
    sig = synthesize(example1_spec())
    prof = make(sig, wm)
    grid = ScaleGrid.from_range(1.0 / 30.0, 1.0 / 5.0, voices=8)
    whole = compute_stack(sig, prof, wm, grid)
    part = compute_stack(sig, prof, wm, grid, fields=fields)
    for name in FIELDS:
        got = getattr(part, name)
        if name == "w" or name in fields:
            assert got.tobytes() == getattr(whole, name).tobytes(), name
        else:
            assert got is None, name


def test_unknown_field_is_refused(wm):
    sig = synthesize(example1_spec())
    grid = ScaleGrid.from_range(1.0 / 30.0, 1.0 / 5.0, voices=8)
    with pytest.raises(ValueError, match="unknown stack fields"):
        compute_stack(sig, constant_profile(sig.t, 1.1), wm, grid,
                      fields=("w", "dbw"))


# ---------------------------------------------------------------- group 8

_MASK_PROFILES = {
    "sigma1": (example1_spec, sigma1),
    "sigma2": (example2_spec, sigma2),
    "table": (example1_spec, lambda spec, wm: _sinusoidal(spec.times())),
}


def _mask_case(wm, profile):
    spec, make = _MASK_PROFILES[profile]
    spec = spec()
    sig, prof = synthesize(spec), make(spec, wm)
    assert not cwt.takes_fft(sig, prof)
    return sig, prof, ScaleGrid.from_range(1.0 / 30.0, 1.0 / 5.0, voices=8)


def _gamma1(mag, case):
    """A threshold that leaves the column of the lowest peak |w| with one
    scale above it ("one"), with none ("none"), or is below every |w|."""
    low = mag[:, np.argmin(np.max(mag, axis=0))]
    return {"one": np.sort(low)[-2], "none": np.max(low),
            "below-min": 0.5 * np.min(mag)}[case]


@pytest.mark.parametrize("case", ["one", "none", "below-min"])
@pytest.mark.parametrize("fields", [("w", "db_w", "w_tgp"), FIELDS],
                         ids=["T1", "all"])
@pytest.mark.parametrize("profile", sorted(_MASK_PROFILES))
def test_masked_stack_is_exact_above_gamma1(wm, profile, fields, case):
    # w is exact everywhere; every other field on each cell |w| > gamma1,
    # and below every |w| the masked stack is the whole one
    sig, prof, grid = _mask_case(wm, profile)
    whole = compute_stack(sig, prof, wm, grid, fields=fields)
    mag = np.abs(whole.w)
    gamma1 = _gamma1(mag, case)
    above = mag > gamma1
    counts = np.count_nonzero(above, axis=0)
    if case == "below-min":
        assert above.all()
    else:
        assert (counts == (1 if case == "one" else 0)).any()
        assert (counts >= 2).any()
    masked = compute_stack(sig, prof, wm, grid, fields=fields,
                           gamma1=gamma1)
    assert masked.w.tobytes() == whole.w.tobytes()
    for name in fields:
        got, want = getattr(masked, name), getattr(whole, name)
        assert got[above].tobytes() == want[above].tobytes(), name
        if case == "below-min":
            assert got.tobytes() == want.tobytes(), name
        # a column with no scale above gamma1 takes no product
        assert not got[:, counts == 0].any() or name == "w", name


@pytest.mark.parametrize("width", [1, 2, 7])
def test_masked_column_blocks_concatenate_to_the_masked_stack(wm, width):
    sig, prof, grid = _mask_case(wm, "sigma2")
    gamma1 = _gamma1(np.abs(compute_stack(sig, prof, wm, grid,
                                          fields=()).w), "one")
    whole = compute_stack(sig, prof, wm, grid, gamma1=gamma1)
    blocks = [compute_stack(sig, SigmaProfile(
        b=prof.b[k:k + width], sigma=prof.sigma[k:k + width],
        dsigma=prof.dsigma[k:k + width]), wm, grid, gamma1=gamma1)
        for k in range(0, sig.t.size, width)]
    for name in FIELDS:
        joined = np.concatenate([getattr(b, name) for b in blocks], axis=1)
        assert joined.tobytes() == getattr(whole, name).tobytes(), name


def test_gamma1_leaves_the_inverse_fft_stack_whole(wm):
    sig = synthesize(example1_spec())
    prof = constant_profile(sig.t, 1.1)
    grid = ScaleGrid.from_range(1.0 / 30.0, 1.0 / 5.0, voices=8)
    whole = compute_stack(sig, prof, wm, grid)
    masked = compute_stack(sig, prof, wm, grid,
                           gamma1=float(np.max(np.abs(whole.w))))
    for name in FIELDS:
        assert getattr(masked, name).tobytes() == \
            getattr(whole, name).tobytes(), name


# ---------------------------------------------------------------- group 9

def _walk_case(n, fft, mode="real"):
    """A signal of n samples and a profile on its sample grid: constant
    sigma (the inverse FFT) or a sinusoidal one (the kernel product)."""
    sig = synthesize(SignalSpec(components=(tone(20.0),), fs=256.0, n=n,
                                mode=mode))
    prof = constant_profile(sig.t, 1.1) if fft else _sinusoidal(sig.t)
    assert cwt.takes_fft(sig, prof) == fft
    return sig, prof


@pytest.mark.parametrize("fields", [3, 8])
@pytest.mark.parametrize("scales, n", [(1, 64), (118, 277), (40, 4096),
                                       (3000, 64)])
@pytest.mark.parametrize("fft", [True, False], ids=["fft", "columns"])
def test_walk_tiles_the_lattice_once_in_order(fft, scales, n, fields):
    sig, prof = _walk_case(n, fft)
    blocks, cells, kernel_bytes = cwt.stack_walk(sig, prof, scales, fields)
    blocks = list(blocks)
    hits = np.zeros((scales, n), dtype=int)
    edge = 0
    for rows, cols in blocks:
        # only the walked axis is sliced, and each block starts where the
        # last one ended
        walked, whole = (rows, cols) if fft else (cols, rows)
        assert whole == slice(None) and walked.start == edge
        edge = min(walked.stop, scales if fft else n)
        hits[rows, cols] += 1
        block = hits[rows, cols].size
        assert block <= cells
        assert 16 * fields * block <= cwt._BLOCK_BYTES \
            or block == (n if fft else scales)
    assert (hits == 1).all() and edge == (scales if fft else n)
    assert cells == max(hits[r, c].size for r, c in blocks)
    assert kernel_bytes == (0 if fft else
                            cwt._KERNEL_BYTES[fields] * scales * (n // 2 + 1))


def test_walk_keeps_a_one_column_tail():
    # the audited analyze-three-sigma2-s2-277 shape: 69 columns of 118
    # scales hold 8 fields within 1 MiB, and 277 = 4 * 69 + 1
    sig, prof = _walk_case(277, fft=False)
    blocks, cells, _ = cwt.stack_walk(sig, prof, 118, 8)
    assert [len(range(277)[c]) for _, c in blocks] == [69, 69, 69, 69, 1]
    assert cells == 69 * 118


def test_walk_counts_the_complex_spectrum():
    # a complex signal keeps all n bins
    sig, prof = _walk_case(64, fft=False, mode="complex")
    assert cwt.stack_walk(sig, prof, 10, 3)[2] == \
        cwt._KERNEL_BYTES[3] * 10 * len(spectral_coefficients(sig)[0])


@pytest.mark.parametrize("fft", [True, False], ids=["fft", "columns"])
def test_walk_counts_unallocatable_scales(fft):
    # 10**17 scales: numpy would refuse the scale array at once, and the
    # walk only counts
    sig, prof = _walk_case(256, fft)
    tracemalloc.start()
    try:
        blocks, cells, kernel_bytes = cwt.stack_walk(sig, prof, 10 ** 17, 3)
        first = next(blocks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    if fft:
        step = cwt._BLOCK_BYTES // (16 * 3 * 256)
        assert first == (slice(0, step), slice(None))
        assert (cells, kernel_bytes) == (step * 256, 0)
    else:
        assert first == (slice(None), slice(0, 1))
        assert (cells, kernel_bytes) == \
            (10 ** 17, cwt._KERNEL_BYTES[3] * 10 ** 17 * 129)
