"""Gaussian analysis windows: kernels, tail support, moments, chirp transforms.

The base window is the unit Gaussian

    g(t) = (2*pi)**-0.5 * exp(-t**2/2),    FT[g](xi) = exp(-2*pi**2*xi**2)

with the Fourier convention FT[f](xi) = integral f(t) exp(-i*2*pi*xi*t) dt.
The transform stack uses three kernels, g, t*g and t*g'; each has a
spectrum of the form P(xi)*FT[g](xi) with P a small polynomial.  The
polynomials are kept explicit so that spectral derivatives (needed for the
scale/time derivative lattices) stay exact instead of being
finite-differenced.

The closed forms for the transform of a linearly chirped Gaussian,

    G(u; lam) = FT[exp(i*lam*t**2/2) * g(t)](u)
              = (1 - i*lam)**-0.5 * exp(-2*pi**2*u**2 * (1+i*lam)/(1+lam**2))

and its t**j-weighted companions, are what make the per-component structured
predictions cheap; they are cross-checked against direct quadrature in the
test suite.  The absolute moments of g are closed forms too, so nothing in
this module integrates numerically.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import polynomial as npoly

TWO_PI = 2.0 * math.pi
FOUR_PI2 = 4.0 * math.pi ** 2
_SQRT_TWO_PI = math.sqrt(TWO_PI)


class WindowKind(enum.Enum):
    """Kernels derived from the unit Gaussian g."""

    G = "g"          # g(t)
    TG = "tg"        # t * g(t)
    TGP = "tgp"      # t * g'(t)


# Spectra as P(xi) * FT[g](xi), coefficients in ascending order.  Derived by
# repeated use of FT[t*f](xi) = (i/2pi) d/dxi FT[f](xi) and g' = -t*g.
_HAT_POLY: dict[WindowKind, np.ndarray] = {
    WindowKind.G: np.array([1.0], dtype=complex),
    WindowKind.TG: np.array([0.0, -1j * TWO_PI], dtype=complex),
    WindowKind.TGP: np.array([-1.0, 0.0, FOUR_PI2], dtype=complex),
}


def window_eval(kind: WindowKind, t) -> np.ndarray:
    """Time-domain kernel values."""
    t = np.asarray(t, dtype=float)
    base = np.exp(-0.5 * t * t) / _SQRT_TWO_PI
    if kind is WindowKind.G:
        return base
    if kind is WindowKind.TG:
        return t * base
    if kind is WindowKind.TGP:                # g' = -t*g
        return -(t * t) * base
    raise ValueError(f"unknown window kind: {kind!r}")


def gauss_hat(xi) -> np.ndarray:
    """FT[g](xi) = exp(-2*pi**2*xi**2)."""
    xi = np.asarray(xi, dtype=float)
    return np.exp(-TWO_PI * math.pi * xi * xi)


def window_hat_eval(kind: WindowKind, xi) -> np.ndarray:
    """Spectrum of the kernel at frequency xi (complex in general)."""
    xi = np.asarray(xi, dtype=float)
    return npoly.polyval(xi, _HAT_POLY[kind]) * gauss_hat(xi)


def hat_poly(kind: WindowKind) -> np.ndarray:
    """Polynomial P with spectrum(kind) = P(xi)*FT[g](xi); ascending coeffs."""
    return _HAT_POLY[kind].copy()


def hat_poly_deriv(p: np.ndarray) -> np.ndarray:
    """Coefficients Q with d/dxi [P(xi)*FT[g](xi)] = Q(xi)*FT[g](xi).

    Q = P' - 4*pi**2 * xi * P, using FT[g]' = -4*pi**2*xi*FT[g].
    """
    p = np.asarray(p, dtype=complex)
    out = np.zeros(len(p) + 1, dtype=complex)
    if len(p) > 1:
        dp = npoly.polyder(p)
        out[: len(dp)] += dp
    out[1 : len(p) + 1] -= FOUR_PI2 * p
    return out


def essential_alpha(tau0: float) -> float:
    """Half-width of the window's essential spectral support.

    Solves FT[g](alpha) = tau0, i.e. alpha = sqrt(2*ln(1/tau0)) / (2*pi).
    """
    if not 0.0 < tau0 < 1.0:
        raise ValueError(f"tau0 must lie in (0, 1), got {tau0}")
    return math.sqrt(2.0 * math.log(1.0 / tau0)) / TWO_PI


def moment(n: int, of_derivative: bool = False) -> float:
    """Absolute moment: integral of |t**n * g| (or |t**n * g'|) over t.

    The Gaussian absolute moment is 2**(n/2) * Gamma((n+1)/2) / sqrt(pi);
    since g' = -t*g, the derivative moment of order n is the plain moment
    of order n+1.
    """
    if n < 0:
        raise ValueError("moment order must be nonnegative")
    if of_derivative:
        n += 1
    return 2.0 ** (n / 2) * math.gamma((n + 1) / 2) / math.sqrt(math.pi)


@dataclass(frozen=True)
class WindowModel:
    """Window configuration: center frequency and tail level.

    mu    -- modulation frequency of the analysis wavelet (Hz)
    tau0  -- spectral tail level defining the essential support alpha
    """

    mu: float = 1.0
    tau0: float = 0.05
    alpha: float = field(init=False)

    def __post_init__(self):
        if self.mu <= 0.0:
            raise ValueError(f"mu must be positive, got {self.mu}")
        object.__setattr__(self, "alpha", essential_alpha(self.tau0))


def chirped_transform_G(u, lam) -> np.ndarray:
    """FT of the chirped Gaussian exp(i*lam*t**2/2)*g(t) at frequency u.

    Closed form (1-i*lam)**-0.5 * exp(-2*pi**2*u**2/(1-i*lam)); numpy's
    principal square root applies (Re(1-i*lam) = 1 > 0, never on the cut).
    """
    return chirped_transform_Gj(0, u, lam)


def chirped_transform_Gj(j: int, u, lam) -> np.ndarray:
    """FT of t**j * exp(i*lam*t**2/2)*g(t) at u, for j = 0..3.

    Obtained from j-fold differentiation of chirped_transform_G via
    FT[t*f](u) = (i/2pi) d/du FT[f](u); with beta = 2*pi**2/(1-i*lam):

        G1 = -(i*beta*u/pi) * G0
        G2 = (beta/(2*pi**2)) * (1 - 2*beta*u**2) * G0
        G3 = -(i*beta**2*u/(2*pi**3)) * (3 - 2*beta*u**2) * G0
    """
    u = np.asarray(u, dtype=float)
    q = 1.0 - 1j * np.asarray(lam, dtype=float)
    g0 = np.exp(-TWO_PI * math.pi * u * u / q) / np.sqrt(q)
    if j == 0:
        return g0
    beta = TWO_PI * math.pi / q
    if j == 1:
        return -(1j * beta * u / math.pi) * g0
    if j == 2:
        return (beta / (2.0 * math.pi ** 2)) * (1.0 - 2.0 * beta * u * u) * g0
    if j == 3:
        return -(1j * beta ** 2 * u / (2.0 * math.pi ** 3)) \
            * (3.0 - 2.0 * beta * u * u) * g0
    raise ValueError(f"j must be in 0..3, got {j}")
