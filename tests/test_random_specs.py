"""Random ordered multicomponent specs: pair broadcasts and pipeline invariants.

Proof groups:
  1. pair broadcasts -- separation and bound quantities, computed as
     (K, K, n) broadcasts over component pairs, equal bit for bit the
     per-pair loops kept here as the oracle
  2. invariants -- squeezing conserves the masked mass and the time
     derivative identity holds, on random specs at n = 64; with constant
     sigma the stack (an inverse FFT per field) equals the exact-phase
     spectral sum for any n from 2 to 300
  3. a known defect -- sigma2 loses its digits for chirp rates near 0
     (a strict xfail, so fixing it fails the suite until the mark goes)
  4. an exact relation -- scaling every amplitude and gamma1 by 2**k keeps
     omega, sigma and the zones bit for bit and scales the squeezed plane
     and the report's abs_error and bound by exactly 2**k, in process on
     random specs under T1 constant, T1 sigma1, T2 sigma2 and S2 sigma2,
     and through the command line's files
  5. an exact relation -- dilation: doubling fs and every instantaneous
     frequency and multiplying every chirp rate by 4, n kept, samples the
     same signal twice as fast, so the scales and times halve exactly,
     omega and sigma' double exactly on the same valid cells and sigma is
     unchanged bit for bit, in process on random specs under T1
     constant, T1 sigma1, T2 sigma2 and S2 sigma2, and through the
     command line's files
"""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adassq.bounds import (_NODES, _WEIGHTS, _band_normalizer, bounds_first,
                           bounds_second, normalizers, quad)
from adassq.cli import _report, load_config, main, run_analysis
from adassq.cwt import ScaleGrid, compute_stack, time_derivative_residual
from adassq.separation import (constant_profile, sigma1, sigma2,
                               sigma2_coefficients, spectral_distance, zones)
from adassq.signals import (SignalSpec, class_params, linear_chirp,
                            synthesize, tone)
from adassq.sst import (SqueezeConfig, conservation_defect, phase_first,
                        phase_second, squeeze)
from adassq.windows import (WindowModel, chirped_transform_G, gauss_hat,
                            moment)
from test_cwt import exact_phase_stack

TWO_PI = 2.0 * math.pi
WM = WindowModel(mu=1.0, tau0=0.05)


@st.composite
def _specs(draw):
    """2-3 tones and linear chirps at n = 64, fs = 64, in frequency order.

    Start frequencies 8-10 Hz apart and chirp rates within 1.5 Hz/s keep
    every adjacent pair ordered and chirp-separable (so sigma2 exists) and
    every frequency in (1.5, 28) Hz over the 1 s span.  A chirp rate is at
    least 0.25 Hz/s in size: below that sigma2's lower root loses its
    digits (see test_sigma2_tends_to_sigma1_as_the_chirp_vanishes).
    """
    K = draw(st.integers(2, 3))
    f0 = draw(st.floats(3.0, 6.0))
    comps = []
    for _ in range(K):
        amp = draw(st.floats(0.5, 2.0))
        if draw(st.booleans()):
            comps.append(tone(f0, amp))
        else:
            rate = draw(st.floats(0.25, 1.5)) * draw(st.sampled_from([-1, 1]))
            comps.append(linear_chirp(f0, rate, amp))
        f0 += draw(st.floats(8.0, 10.0))
    mode = draw(st.sampled_from(["real", "complex"]))
    return SignalSpec(components=tuple(comps), fs=64.0, n=64, mode=mode)


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


# ------------------------------------------------- the per-pair loop oracle

def _loop_quad(f, lo, hi):
    """The fixed rule on all cells in one call of f (no chunks)."""
    vlo, vhi = np.log(lo), np.log(hi)
    half = 0.5 * (vhi - vlo)
    a = np.exp((0.5 * (vhi + vlo))[..., None] + half[..., None] * _NODES)
    return half * np.sum(f(a) * _WEIGHTS, axis=-1)


def _loop_tracks(spec, b):
    return ([c.dphase(b) for c in spec.components],
            [c.phase(b, 2) for c in spec.components])


def _loop_sigma1(spec, wm, b):
    freqs, rates = _loop_tracks(spec, b)
    ratios, dratios = [], []
    for (flo, fhi), (clo, chi) in zip(zip(freqs[:-1], freqs[1:]),
                                      zip(rates[:-1], rates[1:])):
        diff = fhi - flo
        ratios.append((fhi + flo) / diff)
        dratios.append(2.0 * (clo * fhi - chi * flo) / diff ** 2)
    ratios, dratios = np.stack(ratios), np.stack(dratios)
    active, cols = np.argmax(ratios, axis=0), np.arange(len(b))
    scale = wm.alpha / wm.mu
    return scale * ratios[active, cols], scale * dratios[active, cols]


def _loop_sigma2_value(spec, wm, bv):
    freqs, rates = _loop_tracks(spec, bv)
    best = np.full_like(bv, wm.alpha / wm.mu)
    for (flo, fhi), (clo, chi) in zip(zip(freqs[:-1], freqs[1:]),
                                      zip(rates[:-1], rates[1:])):
        qa, qb, qc, disc = sigma2_coefficients(flo, clo, fhi, chi,
                                               wm.alpha, wm.mu)
        chirped = qa > 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            pair = np.where(
                chirped,
                (qb - np.sqrt(disc)) / np.where(chirped, 2.0 * qa, 1.0),
                (wm.alpha / wm.mu) * (fhi + flo)
                / np.maximum(fhi - flo, 1e-300))
        best = np.maximum(best, pair)
    return best


def _loop_zones(spec, wm, profile, order):
    b, sig = profile.b, profile.sigma
    alpha, mu = wm.alpha, wm.mu
    lo_edge, hi_edge = mu - alpha / sig, mu + alpha / sig
    admissible = lo_edge > 0.0
    lowers, uppers, valids = [], [], []
    for comp in spec.components:
        f = comp.dphase(b)
        if order == 1:
            lowers.append(lo_edge / f)
            uppers.append(hi_edge / f)
            valids.append(admissible & (f > 0.0))
        else:
            c = np.abs(comp.phase(b, 2))
            arg_u = f ** 2 - 8.0 * math.pi * alpha * (alpha + mu * sig) * c
            arg_l = f ** 2 + 8.0 * math.pi * alpha * (mu * sig - alpha) * c
            ok = admissible & (arg_u >= 0.0) & (arg_l >= 0.0) & (f > 0.0)
            with np.errstate(invalid="ignore"):
                uppers.append(2.0 * hi_edge / (f + np.sqrt(arg_u)))
                lowers.append(2.0 * lo_edge / (f + np.sqrt(arg_l)))
            valids.append(ok)
    return np.stack(lowers), np.stack(uppers), np.stack(valids)


def _loop_spectral_distance(spec, wm, profile):
    b, sig = profile.b, profile.sigma
    alpha, mu = wm.alpha, wm.mu
    freqs = _loop_tracks(spec, b)[0]
    K = len(freqs)
    out = np.zeros((K, K, len(b)))
    for k in range(K):
        for l in range(K):
            if l == k:
                continue
            ratio = freqs[l] / freqs[k]
            if l < k:
                out[l, k] = sig * mu - (sig * mu + alpha) * ratio
            else:
                out[l, k] = (sig * mu - alpha) * ratio - sig * mu
    return out


def _loop_window(wm, sig, f, fpp):
    s, f, fpp = sig[:, None], f[:, None], fpp[:, None]
    return lambda a: chirped_transform_G(s * (wm.mu - a * f),
                                         TWO_PI * fpp * a * a * s * s)


def _loop_c_k(spec, wm, profile, zs):
    b, sig = profile.b, profile.sigma
    c_k = np.full(zs.valid.shape, np.nan, dtype=complex)
    for k, comp in enumerate(spec.components):
        v = zs.valid[k]
        c_k[k, v] = _loop_quad(_loop_window(wm, sig[v], comp.dphase(b)[v],
                                      comp.phase(b, 2)[v]),
                         zs.lower[k, v], zs.upper[k, v])
    return c_k


def _loop_bounds_first(spec, wm, profile, eps1_tilde):
    cp = class_params(spec)
    K = len(spec.components)
    b, sig = profile.b, profile.sigma
    n = len(b)
    alpha, mu = wm.alpha, wm.mu
    f = np.stack([c.dphase(b) for c in spec.components])
    A = np.stack([c.amp(b) for c in spec.components])
    amp_total = A.sum(axis=0)
    shape_term = (mu * sig + alpha)[None, :] / f * amp_total[None, :]
    res_env = math.pi * cp.eps2 * moment(2) * shape_term
    res_env_deriv = math.pi * cp.eps2 * moment(2, of_derivative=True) \
        * shape_term

    rho = _loop_spectral_distance(spec, wm, profile)
    omega_bound = (alpha * res_env + res_env_deriv / TWO_PI) / eps1_tilde
    for k in range(K):
        for l in range(K):
            if l == k:
                continue
            omega_bound[k] += (A[l] * np.abs(f[l] - f[k])
                               * gauss_hat(rho[l, k])) / eps1_tilde

    cross_mass = np.zeros((K, K, n))
    s, half = sig[:, None], alpha / sig
    for k in range(K):
        for l in range(K):
            if l == k:
                continue
            ratio = (f[l] / f[k])[:, None]
            cross_mass[l, k] = _loop_quad(
                lambda xi: gauss_hat(s * (mu - ratio * xi)),
                mu - half, mu + half)

    c_alpha = np.abs(_band_normalizer(wm, sig))
    log_term = np.log((mu * sig + alpha) / (mu * sig - alpha))
    recovery_bound = np.empty((K, n))
    for k in range(K):
        cross = sum(A[l] * cross_mass[l, k] for l in range(K) if l != k)
        recovery_bound[k] = (eps1_tilde * log_term
                             + (2.0 * alpha / f[k]) * res_env[k]
                             + cross) / c_alpha
    return cross_mass, omega_bound, recovery_bound


def _loop_bounds_second(spec, wm, profile, zs, eps1_tilde):
    cp = class_params(spec)
    K = len(spec.components)
    b, sig = profile.b, profile.sigma
    n = len(b)
    f = np.stack([c.dphase(b) for c in spec.components])
    fpp = np.stack([c.phase(b, 2) for c in spec.components])
    A = np.stack([c.amp(b) for c in spec.components])
    amp_total = A.sum(axis=0)
    width = np.where(zs.valid, zs.upper - zs.lower, np.nan)
    log_term = np.where(zs.valid, np.log(zs.upper / zs.lower), np.nan)
    curvature = ((math.pi / 9.0) * cp.eps3 * moment(3) * width ** 3
                 * (sig ** 3 * amp_total)[None, :])

    cross_mass_strict = np.zeros((K, K, n))
    for k in range(K):
        v = zs.valid[k]
        for l in range(K):
            if l == k:
                continue
            window = _loop_window(wm, sig[v], f[l, v], fpp[l, v])
            cross_mass_strict[l, k] = np.nan
            cross_mass_strict[l, k, v] = _loop_quad(
                lambda a: np.abs(window(a)), zs.lower[k, v], zs.upper[k, v])

    cross = np.zeros((K, n))
    for k in range(K):
        cross[k] = sum(A[l] * cross_mass_strict[l, k]
                       for l in range(K) if l != k)
    main = eps1_tilde * log_term + curvature + cross
    return cross_mass_strict, main


# ---------------------------------------------------------------- group 1

@settings(max_examples=40, deadline=None)
@given(_specs(), st.sampled_from([sigma1, sigma2]))
def test_pair_broadcasts_match_per_pair_loops(spec, select):
    b = spec.times()
    profile = select(spec, WM)
    if select is sigma1:
        sig, dsig = _loop_sigma1(spec, WM, b)
        _same_bits(profile.sigma, sig)
        _same_bits(profile.dsigma, dsig)
    else:
        _same_bits(profile.sigma, _loop_sigma2_value(spec, WM, b))

    _same_bits(spectral_distance(spec, WM, profile),
               _loop_spectral_distance(spec, WM, profile))
    zs = {}
    for order in (1, 2):
        zs[order] = zones(spec, WM, profile, order=order)
        for got, want in zip((zs[order].lower, zs[order].upper,
                              zs[order].valid),
                             _loop_zones(spec, WM, profile, order)):
            _same_bits(got, want)
        _same_bits(normalizers(spec, WM, profile, zs[order]).c_k,
                   _loop_c_k(spec, WM, profile, zs[order]))

    rep = bounds_first(spec, WM, profile, zs[1], 0.01)
    for got, want in zip((rep.cross_mass, rep.omega_bound,
                          rep.recovery_bound),
                         _loop_bounds_first(spec, WM, profile, 0.01)):
        _same_bits(got, want)
    rep = bounds_second(spec, WM, profile, zs[2], 0.01, 1e-3)
    for got, want in zip((rep.cross_mass_strict, rep.recovery_bound_main),
                         _loop_bounds_second(spec, WM, profile, zs[2], 0.01)):
        _same_bits(got, want)


def test_quad_chunks_leave_every_cell_unchanged():
    # 1,300 cells take six calls of the integrand; every cell comes out as
    # from one call on all of them
    rng = np.random.default_rng(1)
    s, f = rng.uniform(1.0, 2.0, 1300), rng.uniform(5.0, 50.0, 1300)
    fpp = rng.uniform(-20.0, 20.0, 1300)
    lo = rng.uniform(0.005, 0.02, 1300)
    hi = lo * rng.uniform(1.1, 3.0, 1300)
    calls = []

    def window(a, *cell):
        calls.append(len(a))
        return _loop_window(WM, *(p[:, 0] for p in cell))(a)

    got = quad(window, lo, hi, s, f, fpp)
    assert calls == [256] * 5 + [20]
    _same_bits(got, _loop_quad(_loop_window(WM, s, f, fpp), lo, hi))


# ---------------------------------------------------------------- group 2

@settings(max_examples=25, deadline=None)
@given(_specs(), st.sampled_from([sigma1, sigma2]),
       st.sampled_from(["T1", "T2", "S2"]))
def test_squeeze_conserves_mass_and_derivative_identity_holds(spec, select,
                                                              variant):
    profile = select(spec, WM)
    grid = ScaleGrid.from_zones(zones(spec, WM, profile), voices=16)
    stack = compute_stack(synthesize(spec), profile, WM, grid)
    res = time_derivative_residual(stack)
    assert np.max(np.abs(res)) <= 1e-10 * np.max(np.abs(stack.db_w))

    if variant == "T1":
        plane = phase_first(stack, 0.01)
    else:
        plane = phase_second(stack, 0.01, hybrid=(variant == "S2"))
    tf = squeeze(stack, plane, SqueezeConfig.for_stack(stack))
    mass = np.abs(np.where(plane.valid, stack.w, 0.0).sum(axis=0)) \
        * stack.grid.dlog
    assert np.max(conservation_defect(stack, plane, tf)) \
        <= 1e-12 * max(1.0, np.max(mass))


@st.composite
def _any_length_specs(draw):
    """1-3 tones and linear chirps starting below Nyquist, n = 2..300.

    fs = 64; a chirp may leave the band, as the stack does not care.
    """
    n = draw(st.integers(2, 300))
    comps = []
    for _ in range(draw(st.integers(1, 3))):
        f0 = draw(st.floats(0.5, 31.5))
        amp = draw(st.floats(0.5, 2.0))
        if draw(st.booleans()):
            comps.append(tone(f0, amp))
        else:
            comps.append(linear_chirp(f0, draw(st.floats(-20.0, 20.0)), amp))
    mode = draw(st.sampled_from(["real", "complex"]))
    return SignalSpec(components=tuple(comps), fs=64.0, n=n, mode=mode)


@settings(max_examples=60, deadline=None)
@given(_any_length_specs(), st.floats(0.3, 3.0))
def test_constant_sigma_stack_equals_exact_phase_sum(spec, sigma):
    sig = synthesize(spec)
    grid = ScaleGrid.from_range(1.0 / 32.0 / 1.25, 1.25, voices=8)
    stack = compute_stack(sig, constant_profile(sig.t, sigma), WM, grid)
    ref = exact_phase_stack(sig, sigma, WM, grid.a)
    assert np.max(np.abs(stack.w - ref)) <= 1e-13 * np.max(np.abs(ref))


# ---------------------------------------------------------------- group 3

@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="sigma2 takes the lower root as "
                   "(qb - sqrt(disc)) / (2 qa), which cancels as qa -> 0")
@pytest.mark.parametrize("rate", [1e-12, 1e-100, 1e-160])
def test_sigma2_tends_to_sigma1_as_the_chirp_vanishes(rate):
    # rate 0 takes the first-order branch and equals sigma1 exactly; a tiny
    # rate gives 1.6e-3 relative error at 1e-12, alpha/mu (no admissible
    # zone) at 1e-100 and 1.4e155 at 1e-160
    spec = SignalSpec(components=(linear_chirp(5.0, rate), tone(14.0)),
                      fs=64.0, n=64)
    np.testing.assert_allclose(sigma2(spec, WM).sigma,
                               sigma1(spec, WM).sigma, rtol=1e-6)


# ---------------------------------------------------------------- group 4

def _scaled_run(spec, variant, kind, scale):
    """run_analysis and _report of spec with every amplitude and gamma1
    (0.01) multiplied by scale."""
    comps = "; ".join(
        f"poly:{','.join(repr(float(c)) for c in comp.coeffs)}:"
        f"{float(comp.amplitude) * scale!r}" for comp in spec.components)
    cfg = load_config(None, {
        ("signal", "components"): comps, ("signal", "fs"): "64",
        ("signal", "n"): "64", ("signal", "mode"): spec.mode,
        ("sigma", "kind"): kind, ("run", "variant"): variant,
        ("thresholds", "gamma1"): repr(0.01 * scale)})
    res = run_analysis(cfg)
    return res, _report(cfg, res)


# From a base level 2**j, not 1: at j = -40 the threshold is about 1e-14,
# so an absolute offset in it (the relation's target) shows at any k.
@settings(max_examples=25, deadline=None)
@given(_specs(), st.integers(-40, 0), st.integers(-8, 8),
       st.sampled_from([("T1", "constant"), ("T1", "sigma1"),
                        ("T2", "sigma2"), ("S2", "sigma2")]))
def test_amplitude_scaling_is_exact(spec, j, k, setting):
    res, (rec, bound) = _scaled_run(spec, *setting, 2.0 ** j)
    res2, (rec2, bound2) = _scaled_run(spec, *setting, 2.0 ** (j + k))
    for got, want in ((res2.plane.omega, res.plane.omega),
                      (res2.profile.sigma, res.profile.sigma),
                      (res2.profile.dsigma, res.profile.dsigma),
                      (res2.zs.lower, res.zs.lower),
                      (res2.zs.upper, res.zs.upper),
                      (res2.zs.valid, res.zs.valid),
                      (res2.tf.values, res.tf.values * 2.0 ** k),
                      (rec2.abs_error, rec.abs_error * 2.0 ** k),
                      (bound2, bound * 2.0 ** k)):
        _same_bits(got, want)


def _cells(path):
    """A CSV's header and its cells, parsed by Python's float."""
    head, *rows = path.read_text().splitlines()
    return head, np.array([[float(v) for v in row.split(",")]
                           for row in rows])


def test_amplitude_scaling_is_exact_through_the_files(tmp_path):
    k = -3
    for scale in (1.0, 2.0 ** k):
        for command in ("analyze", "recover"):
            assert main([command, "--n", "128", "--components",
                         f"chirp:20:5:{scale!r}; tone:60:{1.5 * scale!r}",
                         "--sigma", "sigma1", "--gamma1", repr(0.01 * scale),
                         "--xi-bins", "200", "--pgm", "no",
                         "--outdir", str(tmp_path / repr(scale))]) == 0
    one, scaled = tmp_path / "1.0", tmp_path / repr(2.0 ** k)
    for name in ("omega.csv", "sigma.csv", "zones.csv"):
        assert (scaled / name).read_bytes() == (one / name).read_bytes()
    # tf.csv: xi,b,re,im,abs; report.csv: b,k,abs_error,bound,within_bound
    for name, kept in (("tf.csv", [0, 1]), ("report.csv", [0, 1, 4])):
        (head, want), (head2, got) = _cells(one / name), _cells(scaled / name)
        moved = [i for i in range(want.shape[1]) if i not in kept]
        assert head2 == head
        _same_bits(got[:, kept], want[:, kept])
        _same_bits(got[:, moved], want[:, moved] * 2.0 ** k)


# ---------------------------------------------------------------- group 5

def _dilated_run(spec, variant, kind, d):
    """run_analysis of spec sampled d times as fast over 1/d of the time:
    fs and each phase coefficient c_k times d**k, so every instantaneous
    frequency is d times and every chirp rate d**2 times spec's."""
    comps = "; ".join(
        "poly:" + ",".join(repr(float(c) * d ** k)
                           for k, c in enumerate(comp.coeffs))
        + f":{float(comp.amplitude)!r}" for comp in spec.components)
    return run_analysis(load_config(None, {
        ("signal", "components"): comps, ("signal", "fs"): repr(64.0 * d),
        ("signal", "n"): "64", ("signal", "mode"): spec.mode,
        ("sigma", "kind"): kind, ("run", "variant"): variant}))


@settings(max_examples=20, deadline=None)
@given(_specs(), st.sampled_from([("T1", "constant"), ("T1", "sigma1"),
                                  ("T2", "sigma2"), ("S2", "sigma2")]))
def test_dilation_is_exact(spec, setting):
    res, res2 = _dilated_run(spec, *setting, 1.0), \
        _dilated_run(spec, *setting, 2.0)
    assert res.plane.valid.any()
    for got, want in ((res2.grid.a, res.grid.a / 2.0),
                      (res2.profile.b, res.profile.b / 2.0),
                      (res2.plane.valid, res.plane.valid),
                      (res2.plane.omega, res.plane.omega * 2.0),
                      (res2.profile.sigma, res.profile.sigma),
                      (res2.profile.dsigma, res.profile.dsigma * 2.0)):
        _same_bits(got, want)


def test_dilation_is_exact_through_the_files(tmp_path):
    for d in (1.0, 2.0):
        assert main(["analyze", "--n", "128", "--fs", repr(256.0 * d),
                     "--components", f"chirp:{20 * d!r}:{5 * d * d!r}; "
                     f"tone:{60 * d!r}:1.5", "--sigma", "sigma1",
                     "--pgm", "no", "--outdir", str(tmp_path / repr(d))]) == 0
    one, fast = tmp_path / "1.0", tmp_path / "2.0"
    # omega.csv: a,b,omega; sigma.csv: b,sigma,dsigma
    for name, factors in (("omega.csv", [0.5, 0.5, 2.0]),
                          ("sigma.csv", [0.5, 1.0, 2.0])):
        (head, want), (head2, got) = _cells(one / name), _cells(fast / name)
        assert head2 == head and np.isfinite(want).any()
        _same_bits(got, want * factors)
