"""Recovery, normalizer, error-budget, and residual-identity checks.

Proof groups:
  1. normalizers -- frozen quadrature anchors, an independent dense
     Gauss-Legendre cross-check, quad's 64-node rule bit for bit
     numpy.polynomial's leggauss(64) (the oracle) and read only, the fixed log-scale rule against adaptive
     quadrature (normalizers and leakage masses on both presets, bands
     next to the pole, very wide windows), the large-width asymptotic,
     tone degeneracy, band shrinkage, and admissibility guards
  2. mode recovery -- tone end-to-end accuracy, zero-signal and
     empty-window bookkeeping, exact agreement between the recovered line
     integral and the unsqueezed cells it came from, the window sums taken
     over only the rows the windows reach, a chunk of columns at a time
     and a one-column tail joined to the chunk before it, equal to the
     whole plane's bit for bit with no temporary larger than a chunk's,
     input validation; certify takes order 1, or 2 with gamma2, and a
     lone tone's automatic window is half its frequency
  3. first-order budgets -- frozen anchors on the two-chirp preset,
     single-tone closed form, a silent tone's budget equal to the
     threshold term alone (both orders), separation plateau caps on the
     cross terms, monotonicity in the coefficient floor; the frequency
     bound holds on every zone cell above the threshold of both presets
     under sigma1, and fails for a tone whose bound underflows (a strict
     xfail, so mending it fails the suite until the mark goes)
  4. second-order budgets -- frozen anchors, single-chirp reduction to
     the pure log term, plateau caps
  5. residual identities -- the time-derivative defects vanish for a
     single chirp, match their structured forms on the two-chirp preset,
     scale-differencing ties the first and second defects together, and
     the triangle envelope dominates
  6. CSV export -- bound flags, validation
"""
from __future__ import annotations

import math
import tracemalloc
from functools import cache

import numpy as np
import pytest
from scipy.integrate import quad as adaptive_quad

from adassq.bounds import (
    Normalizers,
    RecoveryResult,
    _band_normalizer,
    _rule,
    bounds_first,
    bounds_second,
    certify,
    normalizers,
    recover,
    report_to_csv,
    residual_diagnostics,
)
from adassq.cwt import ScaleGrid, compute_stack
from adassq.separation import (
    constant_profile,
    separation_report,
    sigma1,
    sigma2,
    spectral_distance,
    zones,
)
from adassq.signals import (
    _CHUNK_CELLS,
    SignalSpec,
    example1_spec,
    example2_spec,
    linear_chirp,
    synthesize,
    tone,
    tracks,
)
from adassq.sst import (
    SqueezeConfig,
    chirp_rate_estimate,
    default_gamma2,
    lattice_index,
    phase_first,
    squeeze,
)
from adassq.windows import WindowModel, chirped_transform_G, essential_alpha, gauss_hat
from test_sst import compact

WM = WindowModel(mu=1.0, tau0=0.05)
T = np.arange(256) / 256.0
MID = 128  # column at b = 0.5


@cache
def first_order_setup():
    spec = example1_spec()
    profile = sigma1(spec, WM, T)
    zs = zones(spec, WM, profile, order=1)
    return spec, profile, zs, normalizers(spec, WM, profile), bounds_first(spec, WM, profile, zs, 0.01)


@cache
def second_order_setup():
    spec = example2_spec()
    profile = sigma2(spec, WM, T)
    zs = zones(spec, WM, profile, order=2)
    return spec, profile, zs, normalizers(spec, WM, profile, zs), bounds_second(spec, WM, profile, zs, 0.01, 1e-3)


@cache
def example2_stack():
    spec, profile, zs, _, _ = second_order_setup()
    grid = ScaleGrid.from_zones(zs, voices=32, margin=1.25)
    stack = compute_stack(synthesize(spec), profile, WM, grid)
    diag = residual_diagnostics(stack, spec, WM, profile, zs)
    return stack, diag


@cache
def example2_fine_diag():
    spec, profile, zs, _, _ = second_order_setup()
    grid = ScaleGrid.from_zones(zs, voices=128, margin=1.25)
    stack = compute_stack(synthesize(spec), profile, WM, grid)
    return grid.a, residual_diagnostics(stack, spec, WM, profile, zs)


@cache
def single_chirp_diag():
    spec = SignalSpec(components=(linear_chirp(20.0, 18.0),), fs=256.0, n=256, mode="complex")
    profile = constant_profile(T, 1.0)
    zs = zones(spec, WM, profile, order=2)
    grid = ScaleGrid.from_zones(zs, voices=32, margin=1.25)
    stack = compute_stack(synthesize(spec), profile, WM, grid)
    return stack, residual_diagnostics(stack, spec, WM, profile, zs)


@cache
def tone_pipeline():
    spec = SignalSpec(components=(tone(40.0, 1.0),), fs=256.0, n=256, mode="complex")
    profile = constant_profile(T, 1.0)
    zs = zones(spec, WM, profile, order=1)
    grid = ScaleGrid.from_zones(zs, voices=32, margin=1.25)
    stack = compute_stack(synthesize(spec), profile, WM, grid)
    plane = phase_first(stack, 0.01)
    cfg = SqueezeConfig(20.0, 60.0, 0.25)
    return spec, profile, stack, plane, cfg, squeeze(stack, plane, cfg), normalizers(spec, WM, profile)


# ---------------------------------------------------------------------------
# 1. normalizers


def test_band_normalizer_frozen_value():
    _, _, _, norms, _ = first_order_setup()
    assert norms.c_alpha[MID].real == pytest.approx(0.36574567791488827, rel=1e-9)
    assert norms.c_alpha[MID].imag == 0.0


def test_band_normalizer_matches_dense_quadrature():
    _, profile, _, norms, _ = first_order_setup()
    nodes, weights = np.polynomial.legendre.leggauss(400)
    alpha = essential_alpha(WM.tau0)
    for i in (32, 96, 128, 200):
        s = profile.sigma[i]
        lo, hi = WM.mu - alpha / s, WM.mu + alpha / s
        xi = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
        ref = 0.5 * (hi - lo) * np.sum(weights * gauss_hat(s * (WM.mu - xi)) / xi)
        assert norms.c_alpha[i].real == pytest.approx(ref, rel=1e-9)


def test_quad_rule_is_numpys_gauss_legendre_rule():
    for got, want in zip(_rule(), np.polynomial.legendre.leggauss(64)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert not got.flags.writeable     # one array for every caller


def oracle(h, lo, hi):
    """Adaptive quadrature of h(a) da/a, real and imaginary parts apart.

    The real part dominates every integral checked here, so the target
    for the imaginary part is relative to it: roundoff in the chirped
    integrand keeps the imaginary part of c_k from a target of its own.
    """
    re = adaptive_quad(lambda a: h(a).real / a, lo, hi, epsabs=0.0, epsrel=1e-13, limit=200)[0]
    im = adaptive_quad(lambda a: h(a).imag / a, lo, hi, epsabs=1e-13 * abs(re), epsrel=1e-13, limit=200)[0]
    return complex(re, im)


def assert_oracle(got, h, lo, hi):
    ref = oracle(h, lo, hi)
    assert abs(got - ref) <= 1e-12 * abs(ref), (got, ref)


@pytest.mark.parametrize("make_spec", [example1_spec, example2_spec])
def test_fixed_rule_matches_adaptive_quadrature(make_spec):
    # every integral of bounds.py, cell by cell, against adaptive quadrature
    spec = make_spec()
    mu, alpha = WM.mu, WM.alpha
    p1 = sigma1(spec, WM, T)
    z1 = zones(spec, WM, p1, order=1)
    p2 = sigma2(spec, WM, T)
    z2 = zones(spec, WM, p2, order=2)
    c_alpha = normalizers(spec, WM, p1).c_alpha
    cross = bounds_first(spec, WM, p1, z1, 0.01).cross_mass
    c_k = normalizers(spec, WM, p2, z2).c_k
    strict = bounds_second(spec, WM, p2, z2, 0.01, 1e-3).cross_mass_strict
    f = [c.dphase(T) for c in spec.components]
    fpp = [c.phase(T, 2) for c in spec.components]
    for i in range(0, 256, 5):
        s = p1.sigma[i]
        band = (mu - alpha / s, mu + alpha / s)
        assert_oracle(c_alpha[i], lambda xi: gauss_hat(s * (mu - xi)), *band)
        for k, l in ((0, 1), (1, 0)):
            r = f[l][i] / f[k][i]
            assert_oracle(cross[l, k, i], lambda xi: gauss_hat(s * (mu - r * xi)), *band)
        s = p2.sigma[i]
        for k, l in ((0, 1), (1, 0)):
            if not z2.valid[k, i]:
                assert np.isnan(c_k[k, i]) and np.isnan(strict[l, k, i])
                continue
            zone = (z2.lower[k, i], z2.upper[k, i])

            def window(a, m):
                return chirped_transform_G(s * (mu - a * f[m][i]), 2.0 * math.pi * fpp[m][i] * a * a * s * s)
            assert_oracle(c_k[k, i], lambda a: window(a, k), *zone)
            assert_oracle(strict[l, k, i], lambda a: abs(window(a, l)), *zone)


@pytest.mark.parametrize("sigma", [1.02 * WM.alpha / WM.mu, 1.001 * WM.alpha / WM.mu, 1000.0],
                         ids=["ratio-1.02", "ratio-1.001", "sigma-1000"])
def test_fixed_rule_next_to_the_pole_and_for_wide_windows(sigma):
    # sigma*mu/alpha -> 1 pushes the band's lower edge onto the 1/xi pole;
    # sigma = 1000 shrinks the band to a sliver around mu
    half = WM.alpha / sigma
    assert_oracle(_band_normalizer(WM, sigma), lambda xi: gauss_hat(sigma * (WM.mu - xi)),
                  WM.mu - half, WM.mu + half)


def test_large_width_normalizer_asymptotic():
    # for very wide windows the 1/xi weight freezes at 1/mu and the band
    # integral collapses to erf(sqrt(2)*pi*alpha)/(sqrt(2*pi)*sigma*mu)
    spec = SignalSpec(components=(tone(40.0, 1.0),), fs=256.0, n=256, mode="complex")
    profile = constant_profile(T, 1000.0)
    norms = normalizers(spec, WM, profile)
    alpha = essential_alpha(WM.tau0)
    ref = math.erf(math.sqrt(2.0) * math.pi * alpha) / (math.sqrt(2.0 * math.pi) * 1000.0 * WM.mu)
    assert norms.c_alpha[MID].real == pytest.approx(ref, rel=1e-6)


def test_tone_chirped_normalizer_equals_band():
    # zero chirp rate turns the chirped kernel into the plain one, and the
    # zone edges map exactly onto the band, so both normalizers coincide
    spec = SignalSpec(components=(tone(40.0, 1.0),), fs=256.0, n=256, mode="complex")
    profile = constant_profile(T, 1.0)
    zs = zones(spec, WM, profile, order=2)
    norms = normalizers(spec, WM, profile, zs)
    assert np.abs(norms.c_k[0] - norms.c_alpha).max() < 1e-12


def test_band_shrinks_as_plateau_rises():
    spec = SignalSpec(components=(tone(40.0, 1.0),), fs=256.0, n=256, mode="complex")
    profile = constant_profile(T, 1.0)
    vals = []
    for tau0 in (0.05, 0.5, 0.99):
        norms = normalizers(spec, WindowModel(mu=1.0, tau0=tau0), profile)
        vals.append(abs(norms.c_alpha[MID]))
    assert vals[0] > vals[1] > vals[2] > 0.0


def test_admissibility_guards():
    spec = SignalSpec(components=(tone(40.0, 1.0),), fs=256.0, n=256, mode="complex")
    # sigma*mu <= alpha puts the pole inside the band integral
    narrow = constant_profile(T, 0.3)
    with pytest.raises(ValueError):
        normalizers(spec, WM, narrow)


# ---------------------------------------------------------------------------
# 2. mode recovery


def test_tone_recovery_interior():
    spec, _, _, _, _, tf, norms = tone_pipeline()
    truth = np.exp(2j * np.pi * 40.0 * T)[None, :]
    ridge = np.full((1, 256), 40.0)
    result = recover(tf, norms, ridge, eps3=5.0, mode="first", truth=truth)
    # the 1.5% floor is the window tail outside the band the normalizer
    # integrates; squeezed cells keep that tail, the normalizer does not
    assert result.abs_error[0, 26:231].max() < 0.02
    # bins are centered on xi_min + j*dxi, so the open window holds 39
    assert (result.bins_used == 39).all()


def test_zero_signal_recovers_zero():
    spec = SignalSpec(components=(tone(40.0, 0.0),), fs=256.0, n=256, mode="complex")
    profile = constant_profile(T, 1.0)
    zs = zones(spec, WM, profile, order=1)
    grid = ScaleGrid.from_zones(zs, voices=32, margin=1.25)
    stack = compute_stack(synthesize(spec), profile, WM, grid)
    plane = phase_first(stack, 0.01)
    tf = squeeze(stack, plane, SqueezeConfig(20.0, 60.0, 0.25))
    norms = normalizers(spec, WM, profile)
    result = recover(tf, norms, np.full((1, 256), 40.0), eps3=5.0)
    assert np.all(result.estimate == 0.0)


def test_empty_window_uses_no_bins():
    _, _, _, _, cfg, tf, norms = tone_pipeline()
    # 40.125 lies exactly between two bin centers, so a sub-bin window
    # catches nothing
    result = recover(tf, norms, np.full((1, 256), 40.125), eps3=1e-6)
    assert np.all(result.bins_used == 0)
    assert np.all(result.estimate == 0.0)


def test_line_integral_matches_unsqueezed_cells():
    _, _, stack, plane, cfg, tf, norms = tone_pipeline()
    ridge = np.full((1, 256), 40.0)
    result = recover(tf, norms, ridge, eps3=5.0)
    idx = lattice_index(plane.omega, cfg)
    centers = tf.xi
    sel_bins = np.abs(centers - 40.0) < 5.0
    for i in (40, 128, 200):
        lhs = result.estimate[0, i] * norms.c_alpha[i]
        cells = plane.valid[:, i] & (idx[:, i] >= 0)
        cells &= sel_bins[np.clip(idx[:, i], 0, len(centers) - 1)]
        rhs = (stack.w[cells, i] * stack.grid.dlog).sum()
        assert abs(lhs - rhs) <= 1e-12 * abs(rhs)


def _whole_plane_sums(tf, ridge, eps3):
    """recover's window sums and bin counts over every row of the plane."""
    sels = [np.abs(tf.xi[:, None] - r) < e for r, e in zip(ridge, eps3)]
    return (np.array([(tf.values * sel).sum(axis=0) * tf.dxi
                      for sel in sels]),
            np.array([sel.sum(axis=0) for sel in sels]))


@pytest.mark.parametrize("eps3", [0.3, 1.0, "per-time"])
def test_recover_sums_only_the_windows_rows(eps3):
    # a tall random plane with complex and (most of the time) empty
    # windows, and one window 800 Hz wide, 3,200 of its rows, so that its
    # chunks are two columns wide and n = 257 leaves a one-column tail
    # (whose sum over its rows numpy would take pairwise): the sums over
    # the rows the windows reach, a chunk of columns at a time, are the
    # whole-plane sums, bit for bit but for the sign of a zero sum, and no
    # temporary outgrows a chunk
    for n in (256, 257):
        rng = np.random.default_rng(7)
        rows = 4000
        values = rng.standard_normal((rows, n)) \
            + 1j * rng.standard_normal((rows, n))
        values[rng.random((rows, n)) < 0.5] = 0.0
        tf = compact(np.arange(rows) * 0.25, np.arange(n) / 256.0, values,
                     0.25)
        ridge = np.vstack([40.0 + 3.0 * np.sin(np.arange(n) / 9.0),
                           np.full(n, 44.125), np.full(n, -5.0),
                           np.full(n, 500.0)])
        widths = 0.1 + rng.random(ridge.shape) if eps3 == "per-time" \
            else np.full(ridge.shape, eps3)
        widths[3] = 400.0
        norms = Normalizers(c_alpha=np.ones(n, dtype=complex))
        tracemalloc.start()
        try:
            result = recover(tf, norms, ridge, widths)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a chunk is at most three of the wide window's columns, under
        # 2 * _CHUNK_CELLS cells, each with under 40 bytes of temporaries;
        # that window's rows by n would take 13 MB
        assert peak < 40 * 2 * _CHUNK_CELLS
        num, bins = _whole_plane_sums(tf, ridge, widths)
        np.testing.assert_array_equal(result.bins_used, bins)
        assert (result.bins_used == 0).any() and (result.bins_used > 1).any()
        assert np.array_equal(result.estimate, num)
        live = num != 0.0
        assert result.estimate[live].tobytes() == num[live].tobytes()


def test_recover_validates_inputs():
    _, _, _, _, _, tf, norms = tone_pipeline()
    ridge = np.full((1, 256), 40.0)
    with pytest.raises(ValueError):
        recover(tf, norms, ridge, eps3=0.0)
    with pytest.raises(ValueError):
        recover(tf, norms, ridge, eps3=-1.0)
    with pytest.raises(ValueError):
        recover(tf, norms, ridge, eps3=5.0, mode="zeroth")
    with pytest.raises(ValueError):
        recover(tf, norms, ridge, eps3=5.0, mode="second")  # no chirped normalizers
    with pytest.raises(ValueError):
        recover(tf, norms, ridge, eps3=5.0, truth=np.zeros((2, 256)))


def test_certify_takes_order_1_or_2_with_gamma2():
    # an order certify has no budget for fails before any work; a lone
    # tone's automatic eps3 is half its frequency
    spec, profile, _, _, _, tf, norms = tone_pipeline()
    zs = zones(spec, WM, profile, order=1)
    for order, gamma2 in ((0, None), (3, 1.0), (2, None)):
        with pytest.raises(ValueError, match="order must be 1, or 2 with"):
            certify(spec, WM, profile, zs, tf, order, 0.01, gamma2)
    result, bound = certify(spec, WM, profile, zs, tf, 1, 0.01)
    direct = recover(tf, norms, np.full((1, 256), 40.0), 20.0)
    assert result.estimate.tobytes() == direct.estimate.tobytes()
    assert bound.tobytes() == \
        bounds_first(spec, WM, profile, zs, 0.01).recovery_bound.tobytes()


# ---------------------------------------------------------------------------
# 3. first-order budgets


def test_first_order_budget_anchors():
    _, _, _, _, report = first_order_setup()
    assert report.res_env[0, MID] == pytest.approx(0.38113064786110984, rel=1e-9)
    assert report.cross_mass[0, 1, MID] == pytest.approx(0.0044049440271219644, rel=1e-9)
    assert report.cross_mass[1, 0, MID] == pytest.approx(0.0018658298723666345, rel=1e-9)
    assert report.recovery_bound[0, MID] == pytest.approx(0.091692493460387575, rel=1e-9)
    assert report.recovery_bound[1, MID] == pytest.approx(0.047355958201323892, rel=1e-9)


def test_single_tone_budget_closed_form():
    # one constant tone: no amplitude drift, no curvature, no neighbors --
    # the whole budget is the coefficient-floor log term over the band
    spec = SignalSpec(components=(tone(40.0, 1.0),), fs=256.0, n=256, mode="complex")
    profile = constant_profile(T, 1.0)
    zs = zones(spec, WM, profile, order=1)
    report = bounds_first(spec, WM, profile, zs, 0.01)
    norms = normalizers(spec, WM, profile)
    alpha = essential_alpha(WM.tau0)
    pred = 0.01 * math.log((WM.mu + alpha) / (WM.mu - alpha)) / abs(norms.c_alpha[MID])
    assert report.recovery_bound[0, MID] == pytest.approx(pred, rel=1e-12)
    assert np.all(report.omega_bound == 0.0)
    assert np.all(report.res_env == 0.0)


@pytest.mark.parametrize("sigma", [0.8, 1.0, 1.3])
def test_silent_tone_budget_is_the_threshold_term(sigma):
    # a zero amplitude adds exact zeros to every other term, so both budgets
    # are the threshold-only formula recover once kept for a silent signal
    # (the oracle here): gamma1 * log(u/l) over the zone, divided by |c|
    spec = SignalSpec(components=(tone(40.0, 0.0),), fs=256.0, n=256)
    profile = constant_profile(T, sigma)
    zs = zones(spec, WM, profile, order=1)
    c_alpha = np.abs(normalizers(spec, WM, profile).c_alpha)
    oracle = 0.01 * np.log(zs.upper / zs.lower) / c_alpha[None, :]
    bound = bounds_first(spec, WM, profile, zs, 0.01).recovery_bound
    np.testing.assert_allclose(bound, oracle, rtol=1e-15, atol=0.0)

    zs = zones(spec, WM, profile, order=2)
    c_k = np.abs(normalizers(spec, WM, profile, zs).c_k)
    oracle = 0.01 * np.log(zs.upper / zs.lower) / c_k
    main = bounds_second(spec, WM, profile, zs, 0.01, 1e-3).recovery_bound_main
    np.testing.assert_array_equal(main / c_k, oracle)


def test_separation_plateau_caps_cross_terms():
    spec, profile, _, _, report = first_order_setup()
    rho = spectral_distance(spec, WM, profile)
    for k, l in ((0, 1), (1, 0)):
        assert gauss_hat(rho[k, l]).max() <= WM.tau0 * (1.0 + 1e-9)
    alpha = essential_alpha(WM.tau0)
    log_term = np.log((WM.mu * profile.sigma + alpha) / (WM.mu * profile.sigma - alpha))
    cap = WM.tau0 * log_term
    for k, l in ((0, 1), (1, 0)):
        assert np.all(report.cross_mass[k, l] <= cap * (1.0 + 1e-9))


def _if_bound_ratios(spec):
    """|omega - phi_k'| / omega_bound on every cell of component k's
    first-order zone where |w| > gamma1 = 0.01: T1 under sigma1, on the
    CLI's scale grid.  The spec must pass separation_report."""
    sig = synthesize(spec)
    profile = sigma1(spec, WM, sig.t)
    assert separation_report(spec, WM, profile).ok()
    zs = zones(spec, WM, profile, order=1)
    stack = compute_stack(sig, profile, WM, ScaleGrid.from_zones(zs, voices=32, margin=1.25))
    plane = phase_first(stack, 0.01)
    bound = bounds_first(spec, WM, profile, zs, 0.01).omega_bound
    a = stack.a[None, :, None]
    cells = (a > zs.lower[:, None]) & (a < zs.upper[:, None]) & zs.valid[:, None] & plane.valid
    err = np.abs(plane.omega - tracks(spec, sig.t)[0][:, None])
    return (err / bound[:, None])[cells]


@pytest.mark.parametrize("make_spec", [example1_spec, example2_spec])
def test_frequency_bound_holds_on_its_zone(make_spec):
    # the largest ratio is 0.63 on example1 and 0.23 on example2, over some
    # 17,000 cells each
    ratios = _if_bound_ratios(make_spec())
    assert ratios.size > 17000
    assert np.max(ratios) <= 1.0


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the 4.465 Hz tone's omega_bound is 2.5e-26 Hz: "
                   "its neighbour's gauss_hat(rho) underflows and a tone "
                   "has eps2 = 0, and the bound has no rounding or "
                   "finite-record term")
def test_frequency_bound_for_a_tone_below_an_underflowing_neighbour():
    # a separated spec of test_random_specs' distribution (n = fs = 64);
    # |omega - phi'| on the lowest tone's zone falls with the record
    # length, but not to 2.5e-26 Hz
    spec = SignalSpec(components=(tone(4.465, 0.819), tone(13.477, 1.678),
                                  tone(23.015, 1.288)), fs=64.0, n=64)
    assert np.max(_if_bound_ratios(spec)) <= 1.0


def test_budgets_monotone_in_coefficient_floor():
    spec, profile, zs, _, _ = first_order_setup()
    reports = [bounds_first(spec, WM, profile, zs, e) for e in (0.005, 0.01, 0.02)]
    for lo, hi in zip(reports, reports[1:]):
        assert np.all(hi.recovery_bound > lo.recovery_bound)
        assert np.all(hi.omega_bound < lo.omega_bound)


# ---------------------------------------------------------------------------
# 4. second-order budgets


def test_second_order_budget_anchors():
    _, _, _, norms, report = second_order_setup()
    ck1 = 0.32127078912773288 + 0.00068429288306172311j
    ck2 = 0.32008712214970253 + 0.00076022639623249183j
    assert abs(norms.c_k[0, MID] - ck1) <= 1e-9 * abs(ck1)
    assert abs(norms.c_k[1, MID] - ck2) <= 1e-9 * abs(ck2)
    assert report.cross_mass_strict[0, 1, MID] == pytest.approx(0.0019709938468225807, rel=1e-9)
    assert report.cross_mass_strict[1, 0, MID] == pytest.approx(0.00050502717341075105, rel=1e-9)
    assert report.recovery_bound_main[0, MID] == pytest.approx(0.0083473154080190622, rel=1e-9)
    assert report.recovery_bound_main[1, MID] == pytest.approx(0.0090213406108982878, rel=1e-9)
    ratio1 = report.recovery_bound_main[0, MID] / abs(norms.c_k[0, MID])
    ratio2 = report.recovery_bound_main[1, MID] / abs(norms.c_k[1, MID])
    assert ratio1 == pytest.approx(0.025982120864608712, rel=1e-9)
    assert ratio2 == pytest.approx(0.028183936629862325, rel=1e-9)


def test_single_chirp_budget_is_pure_log_term():
    spec = SignalSpec(components=(linear_chirp(20.0, 18.0),), fs=256.0, n=256, mode="complex")
    profile = constant_profile(T, 1.0)
    zs = zones(spec, WM, profile, order=2)
    report = bounds_second(spec, WM, profile, zs, 0.01, 1e-3)
    ok = zs.valid[0]
    pred = 0.01 * np.log(zs.upper[0, ok] / zs.lower[0, ok])
    assert np.abs(report.recovery_bound_main[0, ok] - pred).max() < 1e-15


def test_strict_cross_mass_below_plateau_level():
    _, _, zs, _, report = second_order_setup()
    for k, l in ((0, 1), (1, 0)):
        ok = zs.valid[k]
        cap = WM.tau0 * np.log(zs.upper[k, ok] / zs.lower[k, ok])
        assert np.all(report.cross_mass_strict[k, l, ok] <= cap)


# ---------------------------------------------------------------------------
# 5. residual identities


def test_single_chirp_residuals_vanish_deep_interior():
    stack, diag = single_chirp_diag()
    cols = slice(103, 153)  # b in [0.4, 0.6]: periodization is below 1e-9
    zm = diag.zone_mask[0][:, cols]
    res1 = np.abs(diag.res1_emp[0][:, cols])[zm].max() / np.abs(stack.db_w[:, cols])[zm].max()
    res2 = np.abs(diag.res2_emp[0][:, cols])[zm].max() / np.abs(stack.dadb_w[:, cols])[zm].max()
    res3 = np.abs(diag.res3_emp[0][:, cols])[zm].max() / (2.0 * math.pi * 1.0 * 18.0)
    assert res1 < 1e-9
    assert res2 < 1e-9
    assert res3 < 1e-6
    # one component: nothing to leak across, structured parts are exactly zero
    assert np.all(diag.res1_struct == 0.0)
    assert np.all(diag.res2_struct == 0.0)


def test_class_residuals_match_structured_forms():
    stack, diag = example2_stack()
    r0, cond = chirp_rate_estimate(stack)
    g2 = default_gamma2(stack, 0.01)
    cols = slice(90, 166)  # b in [0.35, 0.65]
    for k in range(2):
        zm = diag.zone_mask[k][:, cols]
        d1 = np.abs((diag.res1_emp[k] - diag.res1_struct[k])[:, cols])[zm].max()
        assert d1 / np.abs(stack.db_w[:, cols])[zm].max() < 2e-5
        conded = zm & (np.abs(stack.w[:, cols]) > 0.01)
        conded &= np.isfinite(cond[:, cols]) & (cond[:, cols] > g2)
        d3 = np.abs((diag.res3_emp[k] - diag.res3_struct[k])[:, cols])[conded].max()
        assert d3 / np.abs(r0[:, cols])[conded].max() < 1e-3


def test_tone_chirp_rate_residual_vanishes():
    _, _, stack, _, _, _, _ = tone_pipeline()
    r0, cond = chirp_rate_estimate(stack)
    g2 = default_gamma2(stack, 0.01)
    mask = (np.abs(stack.w) > 0.01) & np.isfinite(cond) & (cond > g2)
    mask[:, :26] = False
    mask[:, 231:] = False
    assert np.abs(r0[mask]).max() < 1e-6


def test_scale_differencing_matches_second_residual():
    # d/da of the structured first defect must reproduce the second; a
    # quadratic-exact three-point stencil on the 128-voice grid keeps the
    # truncation error of the Gaussian tails below one percent
    a, diag = example2_fine_diag()
    hp = (a[2:] - a[1:-1])[None, :, None]
    hm = (a[1:-1] - a[:-2])[None, :, None]
    fd = (hm ** 2 * diag.res1_struct[:, 2:, :] - hp ** 2 * diag.res1_struct[:, :-2, :]
          + (hp ** 2 - hm ** 2) * diag.res1_struct[:, 1:-1, :]) / (hm * hp * (hp + hm))
    mid = diag.res2_struct[:, 1:-1, :]
    cols = slice(77, 180)  # b in [0.3, 0.7]
    for k in range(2):
        zm = diag.zone_mask[k][1:-1, cols]
        rel = np.abs((fd[k] - mid[k])[:, cols])[zm].max() / np.abs(mid[k][:, cols])[zm].max()
        assert rel < 1e-2


def test_structured_residual_triangle_envelope():
    stack, diag = example2_stack()
    asig = stack.a[:, None] * stack.profile.sigma[None, :]
    cols = slice(90, 166)
    slack = 1e-5 * np.abs(stack.db_w[:, cols]).max()
    for k in range(2):
        zm = diag.zone_mask[k][:, cols]
        lhs = np.abs(diag.res1_emp[k][:, cols])
        rhs = 2.0 * math.pi * (np.abs(diag.cross_freq[k]) + asig * np.abs(diag.cross_rate[k]))[:, cols]
        assert np.all(lhs[zm] <= rhs[zm] + slack)


# ---------------------------------------------------------------------------
# 6. CSV export


def test_report_csv_flags_and_validation(tmp_path):
    result = RecoveryResult(
        b=T[:2], estimate=np.array([[1 + 0j, 2 + 0j]]), bins_used=np.array([[3, 4]]),
        abs_error=np.array([[0.1, 0.3]]))
    path = tmp_path / "report.csv"
    report_to_csv(result, np.array([[0.2, 0.2]]), path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "b,k,abs_error,bound,within_bound"
    assert lines[1].endswith(",1") and lines[2].endswith(",0")
    bare = RecoveryResult(b=T[:2], estimate=result.estimate, bins_used=result.bins_used)
    with pytest.raises(ValueError):
        report_to_csv(bare, np.array([[0.2, 0.2]]), tmp_path / "x.csv")
    with pytest.raises(ValueError):
        report_to_csv(result, np.array([[0.2, 0.2, 0.2]]), tmp_path / "y.csv")
