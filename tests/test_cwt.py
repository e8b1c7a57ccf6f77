"""Transform-stack checks.

Proof groups:
  1. the vectorized lattice equals a naive reimplementation of the
     spectral sum (independent double loop), and up to n = 4096 an oracle
     whose phase factors are reduced to exact integer multiples of 1/N;
     columns that share a window width, computed together (by one inverse
     FFT per field on the sample grid), equal each column computed alone
  2. closed forms -- on-grid tones and interior chirps match the exact
     transform values predicted by the window layer
  3. derivative lattices match central finite differences of the value
     lattices in scale and time (including time-varying sigma)
  4. the exact time-derivative identity holds at rounding level
  5. conventions -- real-mode folding, grid construction
  6. structure -- the kernels are built once per distinct window width,
     not once per column; constant sigma on the sample grid, and only it,
     takes one inverse FFT per field
"""
from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

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


def test_grouped_columns_equal_single_column_stacks(wm):
    # one (sigma, sigma') group wider than a column block and not
    # contiguous, two groups with equal sigma but opposite sigma', and
    # singleton columns
    sig = synthesize(SignalSpec(components=(tone(9.0), tone(21.0)),
                                fs=64.0, n=96))
    sigma = np.full(96, 1.1)
    dsigma = np.zeros(96)
    sigma[40:60] = 1.2
    dsigma[40:60:2], dsigma[41:60:2] = 0.3, -0.3
    k = np.arange(20)
    sigma[60:80], dsigma[60:80] = 1.0 + 0.01 * k, 0.05 * k
    prof = SigmaProfile(b=sig.t, sigma=sigma, dsigma=dsigma)
    assert np.count_nonzero(sigma == 1.1) > cwt._BLOCK
    grid = ScaleGrid.from_range(1.0 / 30.0, 1.0 / 5.0, voices=8)
    st = compute_stack(sig, prof, wm, grid)

    names = {f.name for f in dataclasses.fields(CwtStack)}
    assert names - {"grid", "profile", "wm", "sig"} == set(FIELDS)
    for i in range(96):
        one = SigmaProfile(b=sig.t[i:i + 1], sigma=sigma[i:i + 1],
                           dsigma=dsigma[i:i + 1])
        alone = compute_stack(sig, one, wm, grid)
        for name in FIELDS:
            field = getattr(st, name)
            assert np.max(np.abs(field[:, i] - getattr(alone, name)[:, 0])) \
                <= 1e-13 * np.max(np.abs(field)), (name, i)
    ref = naive_stack_value(sig, prof, wm, grid.a)
    assert np.max(np.abs(st.w - ref)) < 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("mode", ["real", "complex"])
@pytest.mark.parametrize("n", [95, 96])
def test_sample_grid_fields_equal_single_column_stacks(wm, n, mode):
    # constant sigma on the sample grid takes the inverse FFT; each of its
    # eight fields equals, column by column, the direct sum of a one-column
    # profile, and the exact time-derivative identity holds on it
    sig = synthesize(SignalSpec(components=(linear_chirp(9.0, 4.0),
                                            tone(21.0)),
                                fs=64.0, n=n, mode=mode))
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
    res = time_derivative_residual(st)
    assert np.max(np.abs(res)) <= 1e-12 * np.max(np.abs(st.db_w))


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
    lo = ScaleGrid(a=base_grid.a - h, voices=base_grid.voices,
                   dlog=base_grid.dlog)
    hi = ScaleGrid(a=base_grid.a + h, voices=base_grid.voices,
                   dlog=base_grid.dlog)
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


def test_scale_grid_covers_zones(wm):
    spec = example1_spec()
    prof = sigma1(spec, wm)
    zs = zones(spec, wm, prof, order=1)
    g = ScaleGrid.from_zones(zs, voices=16, margin=1.25)
    assert g.a[0] <= np.min(zs.lower[zs.valid])
    assert g.a[-1] >= np.max(zs.upper[zs.valid])


# ---------------------------------------------------------------- group 6

def test_constant_sigma_builds_its_kernels_once(wm, monkeypatch):
    calls = []
    polyval = cwt.npoly.polyval

    def counted(*args, **kwargs):
        calls.append(1)
        return polyval(*args, **kwargs)
    monkeypatch.setattr(cwt.npoly, "polyval", counted)
    grid = ScaleGrid.from_range(1.0 / 30.0, 1.0 / 5.0, voices=8)
    counts = []
    for n in (2, 64, 128):
        sig = synthesize(SignalSpec(components=(tone(9.0),), fs=64.0, n=n))
        calls.clear()
        compute_stack(sig, constant_profile(sig.t, 1.1), wm, grid)
        counts.append(len(calls))
    assert counts[0] > 0
    assert counts == [counts[0]] * 3


def test_only_constant_sigma_on_the_sample_grid_takes_the_fft(wm,
                                                              monkeypatch):
    # one inverse FFT per field; varying sigma (example2's sigma2, whose
    # pinned outputs sit on half-bin ties) and off-grid columns keep the
    # per-group kernel product
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
    assert count(sig, constant_profile(sig.t + 1e-8, 1.1)) == 0
    spec = example2_spec()
    assert count(synthesize(spec), sigma2(spec, wm)) == 0
