"""Window-selection and zone-geometry checks.

Proof groups:
  1. frozen anchors  -- sigma1/sigma2 and chirp-corrected zone edges hit
     values computed independently (bisection on the tangency condition,
     adaptive quadrature) before this module was written
  2. structural identities -- discriminant factorization, tangency of
     adjacent zones at the minimal width, rho = alpha at first-order
     tangency, derivative consistency
  3. admissibility -- misordered/unseparable inputs raise (an unseparable
     pair named at a time of the requested grid), reports flag
     inadmissible widths and a pair whose discriminant is negative
  4. width tables -- profile_from_csv reads back what profile_to_csv
     writes bit for bit, and names the row count or the line of a b off
     the time grid or a sigma that is not positive
"""
from __future__ import annotations

import math
import re

import numpy as np
import pytest

from adassq.separation import (
    SigmaProfile,
    constant_profile,
    profile_from_csv,
    profile_to_csv,
    separation_report,
    sigma1,
    sigma2,
    sigma2_coefficients,
    spectral_distance,
    zone_margins,
    zones,
)
from adassq.signals import example1_spec, example2_spec, linear_chirp, \
    tone, tracks, SignalSpec
from adassq.windows import WindowModel


@pytest.fixture(scope="module")
def wm():
    return WindowModel(mu=1.0, tau0=0.05)


# ---------------------------------------------------------------- group 1

def test_sigma1_anchor_values(wm):
    prof = sigma1(example1_spec(), wm, b=np.array([0.0, 0.5]))
    # frozen from (alpha/mu) * 38/(14-b) evaluated independently
    assert prof.sigma[0] == pytest.approx(1.0574070204667254, rel=1e-14)
    assert prof.sigma[1] == pytest.approx(1.0965702434469746, rel=1e-14)
    assert prof.kind == "sigma1"


def test_sigma2_anchor_values(wm):
    prof = sigma2(example2_spec(), wm, b=np.array([0.0, 0.5, 1.0]))
    # frozen from an independent bisection on the tangency condition
    assert prof.sigma[0] == pytest.approx(1.5268716825410105, rel=1e-12)
    assert prof.sigma[1] == pytest.approx(1.2558957001977782, rel=1e-12)
    assert prof.sigma[2] == pytest.approx(1.2040323798671861, rel=1e-12)
    assert prof.kind == "sigma2"


def test_corrected_zone_anchor_values(wm):
    spec = example2_spec()
    b = np.array([0.5])
    zs = zones(spec, wm, sigma2(spec, wm, b=b), order=2)
    # frozen zone edges at b = 0.5 (component 1 low, component 2 high)
    assert zs.lower[0, 0] == pytest.approx(0.02279496814822388, rel=1e-12)
    assert zs.upper[0, 0] == pytest.approx(0.049937321038533537, rel=1e-12)
    assert zs.lower[1, 0] == pytest.approx(0.011262798651765054, rel=1e-12)
    assert zs.upper[1, 0] == pytest.approx(0.022794968148223876, rel=1e-12)
    assert zs.valid.all()


# ---------------------------------------------------------------- group 2

def test_discriminant_factorization_random():
    # factored discriminant == b**2 - 4 a c, across random pair parameters
    rng = np.random.default_rng(7)
    for _ in range(200):
        flo = rng.uniform(5.0, 40.0)
        fhi = flo + rng.uniform(5.0, 40.0)
        clo = rng.uniform(-20.0, 20.0)
        chi = rng.uniform(-20.0, 20.0)
        alpha = rng.uniform(0.2, 0.6)
        mu = rng.uniform(0.5, 2.0)
        qa, qb, qc, disc = sigma2_coefficients(flo, clo, fhi, chi, alpha, mu)
        expanded = qb * qb - 4.0 * qa * qc
        assert disc == pytest.approx(expanded, rel=1e-9, abs=1e-6)


def test_sigma2_zones_exactly_tangent(wm):
    # at the minimal chirp-corrected width, adjacent zones touch
    spec = example2_spec()
    prof = sigma2(spec, wm)
    zs = zones(spec, wm, prof, order=2)
    gaps = zone_margins(zs)
    assert np.max(np.abs(gaps)) < 1e-13
    assert zs.valid.all()


def test_sigma1_zones_exactly_tangent(wm):
    spec = example1_spec()
    prof = sigma1(spec, wm)
    zs = zones(spec, wm, prof, order=1)
    assert np.max(np.abs(zone_margins(zs))) < 1e-15


def test_first_order_zone_edges_formula(wm):
    spec = example1_spec()
    b = np.array([0.25, 0.75])
    prof = constant_profile(b, 1.3)
    zs = zones(spec, wm, prof, order=1)
    for k, comp in enumerate(spec.components):
        f = comp.dphase(b)
        np.testing.assert_allclose(
            zs.lower[k], (wm.mu - wm.alpha / 1.3) / f, rtol=1e-15)
        np.testing.assert_allclose(
            zs.upper[k], (wm.mu + wm.alpha / 1.3) / f, rtol=1e-15)


def test_corrected_zones_degenerate_without_chirp(wm):
    # zero chirp rate: corrected zones collapse onto first-order zones
    spec = SignalSpec(components=(tone(15.0), tone(45.0)), fs=128.0, n=128)
    prof = constant_profile(spec.times(), 1.0)
    z1 = zones(spec, wm, prof, order=1)
    z2 = zones(spec, wm, prof, order=2)
    np.testing.assert_allclose(z1.lower, z2.lower, rtol=1e-14)
    np.testing.assert_allclose(z1.upper, z2.upper, rtol=1e-14)


def test_sigma2_falls_back_to_sigma1_for_tones(wm):
    spec = SignalSpec(components=(tone(15.0), tone(45.0)), fs=128.0, n=128)
    p1 = sigma1(spec, wm)
    p2 = sigma2(spec, wm)
    np.testing.assert_allclose(p2.sigma, p1.sigma, rtol=1e-12)


def test_sigma1_derivative_is_analytic(wm):
    # d/db [alpha*38/(14-b)] = alpha*38/(14-b)**2 for the two-chirp preset
    spec = example1_spec()
    b = np.linspace(0.1, 0.9, 9)
    prof = sigma1(spec, wm, b=b)
    expect = wm.alpha * 38.0 / (14.0 - b) ** 2
    np.testing.assert_allclose(prof.dsigma, expect, rtol=1e-13)


def test_sigma2_derivative_matches_coarse_difference(wm):
    spec = example2_spec()
    b = np.linspace(0.2, 0.8, 5)
    prof = sigma2(spec, wm, b=b)
    h = 1e-5
    lo = sigma2(spec, wm, b=b - h).sigma
    hi = sigma2(spec, wm, b=b + h).sigma
    np.testing.assert_allclose(prof.dsigma, (hi - lo) / (2 * h),
                               rtol=1e-6, atol=1e-8)


def test_rho_equals_alpha_at_first_order_tangency(wm):
    # the minimal first-order width puts both neighbors exactly alpha away
    spec = example1_spec()
    prof = sigma1(spec, wm)
    rho = spectral_distance(spec, wm, prof)
    np.testing.assert_allclose(rho[0, 1], wm.alpha, rtol=1e-12)
    np.testing.assert_allclose(rho[1, 0], wm.alpha, rtol=1e-12)


def test_separation_report_passes_presets(wm):
    spec1 = example1_spec()
    rep1 = separation_report(spec1, wm, sigma1(spec1, wm), order=1)
    assert rep1.ok(), rep1
    spec2 = example2_spec()
    rep2 = separation_report(spec2, wm, sigma2(spec2, wm), order=2)
    assert rep2.ok(), rep2
    assert rep2.rho_min >= wm.alpha - 1e-12


# ---------------------------------------------------------------- group 3

def test_selectors_require_two_components(wm):
    spec = SignalSpec(components=(tone(40.0),), fs=128.0, n=128)
    with pytest.raises(ValueError, match="two components"):
        sigma1(spec, wm)
    with pytest.raises(ValueError, match="two components"):
        sigma2(spec, wm)


def test_selectors_reject_misordered_components(wm):
    # the one order check: the same message as class_params and recover
    spec = SignalSpec(components=(linear_chirp(26.0, -0.5),
                                  linear_chirp(12.0, 0.5)), fs=256.0, n=256)
    for select in (sigma1, sigma2):
        with pytest.raises(ValueError, match="^components must be ordered "
                           "with strictly increasing instantaneous "
                           "frequency$"):
            select(spec, wm)


def test_sigma2_rejects_unseparable_pair(wm):
    spec = SignalSpec(
        components=(linear_chirp(20.0, 30.0), linear_chirp(24.0, 30.0)),
        fs=256.0, n=256)
    with pytest.raises(ValueError, match="too close"):
        sigma2(spec, wm)


@pytest.mark.parametrize("b", [None, np.array([0.1, 0.35, 0.6])])
def test_sigma2_names_the_unseparable_time_on_its_grid(wm, b):
    # the gap stays 4 Hz while |phi''| sum and frequencies grow, so the
    # discriminant is smallest at the last time; the 5-point difference
    # for dsigma also evaluates b +- h and b +- 2h, off the grid
    spec = SignalSpec(
        components=(linear_chirp(20.0, 30.0), linear_chirp(24.0, 30.0)),
        fs=256.0, n=256)
    grid = spec.times() if b is None else b
    with pytest.raises(ValueError, match="too close") as err:
        sigma2(spec, wm, b=b)
    named = re.search(r"near b=(\S+);", str(err.value)).group(1)
    assert named in {f"{t:.6g}" for t in grid}
    assert named == f"{grid[-1]:.6g}"


def test_report_flags_inadmissible_width(wm):
    spec = example1_spec()
    prof = constant_profile(spec.times(), 0.3)   # below alpha/mu
    rep = separation_report(spec, wm, prof, order=1)
    assert not rep.sigma_admissible
    assert not rep.ok()
    assert rep.bad_times.size == spec.n


def test_report_flags_one_unseparable_pair(wm):
    # the lower pair is 4 Hz apart with 30 Hz/s chirps, inside the
    # 4*alpha*sqrt(pi*60) ~ 21 Hz its chirps need; the upper pair keeps
    # its gap of 26 Hz or more against the 15 Hz it needs
    spec = SignalSpec(components=(linear_chirp(20.0, 30.0),
                                  linear_chirp(24.0, 30.0), tone(80.0)),
                      fs=256.0, n=256)
    f, fpp, _ = tracks(spec, spec.times())
    disc = sigma2_coefficients(f[:-1], fpp[:-1], f[1:], fpp[1:],
                               wm.alpha, wm.mu)[3]
    assert np.all(disc[0] < 0.0) and np.all(disc[1] >= 0.0)
    rep = separation_report(spec, wm, constant_profile(spec.times(), 1.0))
    assert rep.freq_order_ok and rep.sigma_admissible
    assert not rep.pair_condition_ok
    assert not rep.ok()
    assert rep.bad_times.size > 0


def test_profile_validation():
    b = np.linspace(0.0, 1.0, 8)
    with pytest.raises(ValueError):
        SigmaProfile(b=b, sigma=np.zeros(8), dsigma=np.zeros(8))
    with pytest.raises(ValueError):
        SigmaProfile(b=b, sigma=np.ones(7), dsigma=np.zeros(8))
    with pytest.raises(ValueError):
        constant_profile(b, -1.0)


# ---------------------------------------------------------------- group 4

_SINUSOIDAL_T = np.arange(256) / 256.0

_PROFILES = {
    "example1-sigma1": lambda wm: sigma1(example1_spec(), wm),
    "example2-sigma2": lambda wm: sigma2(example2_spec(), wm),
    "sinusoidal": lambda wm: SigmaProfile(
        b=_SINUSOIDAL_T, sigma=1.0 + 0.2 * np.sin(2.0 * np.pi * _SINUSOIDAL_T),
        dsigma=0.4 * np.pi * np.cos(2.0 * np.pi * _SINUSOIDAL_T)),
}


@pytest.mark.parametrize("name", list(_PROFILES))
def test_width_table_round_trips_bit_for_bit(wm, tmp_path, name):
    prof = _PROFILES[name](wm)
    profile_to_csv(prof, tmp_path / "sigma.csv")
    back = profile_from_csv(tmp_path / "sigma.csv", prof.b)
    assert back.kind == "table" and back.b is prof.b
    assert back.sigma.tobytes() == prof.sigma.tobytes()
    assert back.dsigma.tobytes() == prof.dsigma.tobytes()


@pytest.mark.parametrize("edit, message", [
    (lambda lines: lines[:-1], "expected 8 rows, one per signal sample, "
                               "got 7"),
    (lambda lines: lines[:4] + ["0.4,1,0"] + lines[5:],
     "line 5: the b column must match the signal's time grid"),
    (lambda lines: lines[:6] + ["0.625,-1,0"] + lines[7:],
     "line 7: sigma must be positive"),
], ids=["one-row-short", "shifted-b", "negative-sigma"])
def test_width_table_names_what_is_wrong(tmp_path, edit, message):
    t = np.arange(8) / 8.0
    path = tmp_path / "sigma.csv"
    profile_to_csv(constant_profile(t, 1.0), path)
    path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        profile_from_csv(path, t)
