"""Window-layer checks.

Proof groups:
  1. frozen quadrature anchors  -- closed forms hit values computed
     independently by adaptive quadrature of the defining integrals
  2. random quadrature sweeps   -- spectra and chirped transforms agree with
     direct numerical Fourier integrals at seeded random arguments
  3. calculus identities        -- spectral-derivative polynomials, the
     t-weighting recursion, and the lam=0 degeneracy hold exactly
  4. input validation           -- bad orders / parameters raise
"""
from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.integrate import quad

from adassq.windows import (
    WindowKind,
    WindowModel,
    chirp_factor,
    chirped_transform_G,
    chirped_transform_Gj,
    essential_alpha,
    gauss_hat,
    hat_poly,
    hat_poly_deriv,
    moment,
    window_eval,
    window_hat_eval,
)

TWO_PI = 2.0 * math.pi


def fourier_quad(f, xi, support=12.0):
    """Direct O(eps) quadrature of integral f(t) exp(-i 2 pi xi t) dt."""
    re, _ = quad(lambda t: (f(t) * np.exp(-1j * TWO_PI * xi * t)).real,
                 -support, support, epsabs=1e-13, limit=400)
    im, _ = quad(lambda t: (f(t) * np.exp(-1j * TWO_PI * xi * t)).imag,
                 -support, support, epsabs=1e-13, limit=400)
    return re + 1j * im


# ---------------------------------------------------------------- group 1

def test_alpha_anchor_values():
    # roots of exp(-2 pi^2 a^2) = tau0, frozen from an independent bisection
    assert essential_alpha(1.0 / 20.0) == pytest.approx(
        0.38957100754037255, rel=1e-14)
    assert essential_alpha(0.1) == pytest.approx(
        0.34154110079122185, rel=1e-14)
    assert essential_alpha(0.001) == pytest.approx(
        0.5915665394433991, rel=1e-14)


def test_gauss_hat_tail_anchor():
    # exp(-2 pi^2) at xi = 1, frozen to full precision
    assert gauss_hat(1.0) == pytest.approx(2.675287991074243e-09, rel=1e-12)


def test_moment_anchors():
    # integral |t|^n g(t) dt, frozen from adaptive quadrature
    frozen = {
        1: 0.79788456080286552,
        2: 1.0,
        3: 1.595769121605731,
        4: 3.0000000000000004,
        5: 6.3830764864229232,
    }
    for n, val in frozen.items():
        assert moment(n) == pytest.approx(val, rel=1e-10)
    # |t|^n |g'| = |t|^(n+1) g shifts the ladder up by one
    for n in range(1, 5):
        assert moment(n, of_derivative=True) == pytest.approx(
            frozen[n + 1], rel=1e-10)
    assert moment(5, of_derivative=True) == pytest.approx(15.0, rel=1e-10)


def test_window_model_caches_moments():
    wm = WindowModel(mu=1.0, tau0=0.05)
    assert wm.alpha == pytest.approx(0.38957100754037255, rel=1e-14)
    assert wm.abs_moment(2) == pytest.approx(1.0, rel=1e-10)
    assert wm.abs_moment_deriv(1) == pytest.approx(1.0, rel=1e-10)
    assert wm.abs_moment_deriv(4) == pytest.approx(
        6.3830764864229232, rel=1e-10)


def test_chirped_transform_anchor_values():
    # frozen from 40-digit quadrature of the chirped Gaussian integral
    anchors = [
        ((0.3, 0.7), 0.23713656253739573 - 0.13870286110056345j),
        ((1.1, -2.3), -0.0041762152762878441 + 0.013535854936431040j),
        ((0.0, 5.0), 0.34247457832642301 + 0.28076199589389370j),
        ((0.25, 0.0), 0.29121293321402087 + 0.0j),
    ]
    for (u, lam), val in anchors:
        got = chirped_transform_G(u, lam)
        assert abs(got - val) < 1e-14 * max(1.0, abs(val))


def test_chirped_weighted_transform_anchor_values():
    # t**j weighted variants at (u, lam) = (0.37, 1.2), frozen from
    # 40-digit quadrature
    anchors = {
        0: 0.16618289917517943 - 0.20557663682509525j,
        1: -0.0058664051233945235 - 0.39337812779681122j,
        2: -0.21229831434424166 - 0.44669652116159329j,
        3: -0.28620970685913602 - 0.63666133353669465j,
    }
    for j, val in anchors.items():
        got = chirped_transform_Gj(j, 0.37, 1.2)
        assert abs(got - val) < 1e-13


def test_window_hat_anchor_values():
    # spectra at xi = 0.33, frozen from quadrature of f(t) exp(-2 pi i xi t)
    anchors = {
        WindowKind.G: 0.11653077956962812 + 0.0j,
        WindowKind.TG: -0.24162087906860324j,
        WindowKind.T2G: -0.38445831033002104 + 0.0j,
        WindowKind.TGP: 0.38445831033002104 + 0.0j,
        WindowKind.GP: 0.24162087906860324j,
    }
    for kind, val in anchors.items():
        got = window_hat_eval(kind, 0.33)
        assert abs(got - val) < 1e-14, kind


# ---------------------------------------------------------------- group 2

def test_window_hat_matches_quadrature_random():
    rng = np.random.default_rng(41)
    for kind in WindowKind:
        for xi in rng.uniform(-1.2, 1.2, size=4):
            direct = fourier_quad(lambda t: window_eval(kind, t), xi)
            got = complex(window_hat_eval(kind, xi))
            assert abs(got - direct) < 1e-11, (kind, xi)


def test_chirped_transform_matches_quadrature_random():
    # adaptive quadrature of the oscillatory integrand is good to ~1e-9
    # absolute; the 40-digit anchors above pin the tighter digits
    rng = np.random.default_rng(42)
    for _ in range(8):
        u = rng.uniform(-1.5, 1.5)
        lam = rng.uniform(-4.0, 4.0)
        direct = fourier_quad(
            lambda t: np.exp(0.5j * lam * t * t) * window_eval(WindowKind.G, t),
            u)
        got = complex(chirped_transform_G(u, lam))
        assert abs(got - direct) < 5e-9, (u, lam)


def test_chirped_weighted_transforms_match_quadrature_random():
    rng = np.random.default_rng(43)
    for j in range(4):
        for _ in range(3):
            u = rng.uniform(-1.0, 1.0)
            lam = rng.uniform(-3.0, 3.0)
            direct = fourier_quad(
                lambda t: t ** j * np.exp(0.5j * lam * t * t)
                * window_eval(WindowKind.G, t), u)
            got = complex(chirped_transform_Gj(j, u, lam))
            assert abs(got - direct) < 5e-9, (j, u, lam)


# ---------------------------------------------------------------- group 3

def test_alpha_inverts_tail_level():
    for tau0 in (0.3, 0.05, 1e-3, 1e-8):
        assert gauss_hat(essential_alpha(tau0)) == pytest.approx(
            tau0, rel=1e-12)


def test_hat_poly_deriv_matches_finite_difference():
    h = 1e-6
    xi = np.linspace(-1.1, 1.3, 7)
    for kind in WindowKind:
        p = hat_poly(kind)
        q = hat_poly_deriv(p)
        exact = np.polynomial.polynomial.polyval(xi, q) * gauss_hat(xi)
        fd = (window_hat_eval(kind, xi + h)
              - window_hat_eval(kind, xi - h)) / (2.0 * h)
        assert np.max(np.abs(exact - fd)) < 1e-7, kind


def test_reassignment_window_identity():
    # xi * d/dxi FT[g] + FT[g] + FT[t g'] = 0: the cancellation that makes
    # the adaptive phase transform exact on a pure tone.
    xi = np.linspace(-2.0, 2.0, 41)
    dg = np.polynomial.polynomial.polyval(
        xi, hat_poly_deriv(hat_poly(WindowKind.G))) * gauss_hat(xi)
    total = xi * dg + gauss_hat(xi) + window_hat_eval(WindowKind.TGP, xi)
    assert np.max(np.abs(total)) < 1e-15


def test_chirped_transform_weight_recursion():
    # G_{j+1}(u) = (i/2pi) dG_j/du, checked by central differences
    h = 1e-6
    u = np.linspace(-0.9, 0.9, 5)
    for lam in (0.0, 0.8, -2.5):
        for j in range(3):
            dfd = (chirped_transform_Gj(j, u + h, lam)
                   - chirped_transform_Gj(j, u - h, lam)) / (2.0 * h)
            lhs = chirped_transform_Gj(j + 1, u, lam)
            assert np.max(np.abs(lhs - (1j / TWO_PI) * dfd)) < 1e-7, (j, lam)


def test_chirped_transform_zero_lam_degenerates():
    u = np.linspace(-1.4, 1.4, 9)
    assert np.allclose(chirped_transform_G(u, 0.0), gauss_hat(u),
                       rtol=0, atol=1e-16)
    assert np.allclose(chirped_transform_Gj(1, u, 0.0),
                       window_hat_eval(WindowKind.TG, u), rtol=0, atol=1e-16)
    assert np.allclose(chirped_transform_Gj(2, u, 0.0),
                       window_hat_eval(WindowKind.T2G, u), rtol=0, atol=1e-16)


def test_chirped_transform_modulus_closed_form():
    u = np.linspace(-1.0, 1.0, 11)
    for lam in (0.3, -1.7, 6.0):
        expect = (1.0 + lam * lam) ** -0.25 \
            * np.exp(-TWO_PI * math.pi * u * u / (1.0 + lam * lam))
        assert np.allclose(np.abs(chirped_transform_G(u, lam)), expect,
                           rtol=1e-14, atol=0)


def test_chirp_factor_value():
    assert chirp_factor(18.0, 0.04, 1.3) == pytest.approx(
        TWO_PI * 18.0 * 0.04 ** 2 * 1.3 ** 2, rel=1e-15)


# ---------------------------------------------------------------- group 4

def test_bad_inputs_raise():
    with pytest.raises(ValueError):
        essential_alpha(0.0)
    with pytest.raises(ValueError):
        essential_alpha(1.5)
    with pytest.raises(ValueError):
        moment(-1)
    with pytest.raises(ValueError):
        WindowModel(mu=-2.0)
    with pytest.raises(ValueError):
        chirped_transform_Gj(4, 0.1, 0.5)
