"""Phase transforms and frequency reassignment (synchrosqueezing).

The phase transform estimates the instantaneous frequency that generated
each wavelet coefficient.  With a time-varying window two corrections enter
beyond the conventional d/db ratio: a term from the window-width drift
sigma'(b), and a second-order term that cancels the chirp-induced bias by
mixing in scale derivatives.  Where the window width is constant both
reduce exactly to the conventional formulas.

Reassignment then piles each coefficient onto the frequency bin nearest its
phase-transform value.  Binning is nearest-neighbor on the absolute lattice
xi = l*dxi with exact half-way ties resolved to the lower bin and
out-of-range values clipped to the end bins, so the squeezed plane
conserves the masked coefficient mass column by column to rounding.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cwt import CwtStack
from .signals import write_table

Array = np.ndarray
TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class PhasePlane:
    """Instantaneous-frequency estimates on the stack lattice.

    omega is in Hz with NaN marking cells where the estimate is undefined
    (threshold not met); valid is the corresponding boolean mask, and
    gamma2 the conditioning floor of a second-order plane.
    """

    omega: Array
    valid: Array
    gamma2: float | None = None


def _first_order(stack: CwtStack) -> Array:
    """db_w/(i*2*pi*w) + (sigma'/(i*2*pi*sigma))*(1 + w_tgp/w) on every
    cell: the one first-order estimate, phase_first's and the fallback's."""
    dln = (stack.profile.dsigma / stack.profile.sigma)[None, :]
    # one expression, so numpy reuses its temporaries
    with np.errstate(divide="ignore", invalid="ignore"):
        return stack.db_w / (2j * np.pi * stack.w) \
            + (dln / (2j * np.pi)) * (1.0 + stack.w_tgp / stack.w)


def phase_first(stack: CwtStack, gamma1: float) -> PhasePlane:
    """First-order adaptive phase transform.

    omega = Re[ db_w/(i*2*pi*w) + sigma'/(i*2*pi*sigma)
                + (sigma'/sigma) * w_tgp/(i*2*pi*w) ]
    on cells with |w| > gamma1.  The two sigma' terms vanish for constant
    window width, recovering the conventional estimate.
    """
    if gamma1 <= 0.0:
        raise ValueError(f"gamma1 must be positive, got {gamma1}")
    valid = np.abs(stack.w) > gamma1
    omega = np.where(valid, _first_order(stack).real, np.nan)
    return PhasePlane(omega=omega, valid=valid)


def chirp_rate_estimate(stack: CwtStack) -> tuple[Array, Array]:
    """Second-order auxiliary ratio and its conditioning denominator.

    Returns (r0, cond) where r0 estimates i*2*pi*sigma*phi'' on each cell
    and cond = |denominator| / |w|**2 measures how well-posed the local
    2x2 elimination is (it equals |d/da (a*w_tg/w)|).
    """
    a = stack.a[:, None]
    dln = (stack.profile.dsigma / stack.profile.sigma)[None, :]
    denom = stack.w * stack.w_tg \
        + a * (stack.w * stack.da_w_tg - stack.w_tg * stack.da_w)
    numer = stack.w * stack.dadb_w - stack.da_w * stack.db_w \
        + dln * (stack.w * stack.da_w_tgp - stack.w_tgp * stack.da_w)
    with np.errstate(divide="ignore", invalid="ignore"):
        r0 = numer / denom
        cond = np.abs(denom) / np.square(np.abs(stack.w))
    return r0, cond


def _gamma2_floor(cond: Array, mask: Array) -> float:
    vals = cond[mask]
    vals = vals[np.isfinite(vals)]
    if vals.size == 0:
        return 1e-4
    return 1e-4 * float(np.median(vals))


def default_gamma2(stack: CwtStack, gamma1: float) -> float:
    """Median-based conditioning floor: 1e-4 of the typical |d/da(a*w_tg/w)|."""
    _, cond = chirp_rate_estimate(stack)
    return _gamma2_floor(cond, np.abs(stack.w) > gamma1)


def phase_second(stack: CwtStack, gamma1: float,
                 gamma2: float | None = None,
                 hybrid: bool = False) -> PhasePlane:
    """Second-order adaptive phase transform (chirp-corrected).

    omega = Re[ db_w/(i*2*pi*w) + (sigma'/(i*2*pi*sigma))*(1 + w_tgp/w)
                - a*(w_tg/(i*2*pi*w))*r0 ]
    where r0 comes from chirp_rate_estimate.  Cells need |w| > gamma1 and
    conditioning above gamma2 (default: 1e-4 of the median conditioning on
    thresholded cells).  With hybrid=True, poorly conditioned cells fall
    back to the first-order estimate instead of NaN.
    """
    if gamma1 <= 0.0:
        raise ValueError(f"gamma1 must be positive, got {gamma1}")
    mask1 = np.abs(stack.w) > gamma1
    r0, cond = chirp_rate_estimate(stack)
    if gamma2 is None:
        gamma2 = _gamma2_floor(cond, mask1)
    if gamma2 < 0.0:
        raise ValueError(f"gamma2 must be nonnegative, got {gamma2}")
    with np.errstate(invalid="ignore"):
        mask2 = mask1 & np.isfinite(cond) & (cond > gamma2)

    a = stack.a[:, None]
    first = _first_order(stack)
    with np.errstate(divide="ignore", invalid="ignore"):
        omega2 = (first - a * (stack.w_tg / (2j * np.pi * stack.w)) * r0).real
    if hybrid:
        omega = np.where(mask2, omega2, np.where(mask1, first.real, np.nan))
        return PhasePlane(omega=omega, valid=mask1, gamma2=gamma2)
    omega = np.where(mask2, omega2, np.nan)
    return PhasePlane(omega=omega, valid=mask2, gamma2=gamma2)


@dataclass(frozen=True)
class SqueezeConfig:
    """Frequency lattice for reassignment: bins at xi = l*dxi, l integer,
    covering [xi_min, xi_max]."""

    xi_min: float
    xi_max: float
    dxi: float = 0.25

    def __post_init__(self):
        if self.dxi <= 0.0:
            raise ValueError(f"dxi must be positive, got {self.dxi}")
        if self.xi_max <= self.xi_min:
            raise ValueError("xi_max must exceed xi_min")

    @classmethod
    def for_stack(cls, stack: CwtStack) -> "SqueezeConfig":
        """0.25 Hz bins over the stack's frequencies mu/a, padded 25%."""
        return cls(xi_min=stack.wm.mu / stack.a[-1] / 1.25,
                   xi_max=stack.wm.mu / stack.a[0] * 1.25)

    def bin_centers(self) -> Array:
        l_min = int(math.floor(self.xi_min / self.dxi + 0.5))
        l_max = int(math.ceil(self.xi_max / self.dxi - 0.5))
        return np.arange(l_min, l_max + 1) * self.dxi


@dataclass(frozen=True)
class TfPlane:
    """Squeezed time-frequency plane: complex mass density per (xi, b)."""

    xi: Array
    b: Array
    values: Array
    dxi: float


def lattice_index(omega: Array, cfg: SqueezeConfig) -> Array:
    """Bin index on the squeeze lattice for each frequency estimate.

    Estimates round to the nearest bin center with exact half-way ties
    resolved toward the lower bin; out-of-range values are clipped to the
    end bins.  Non-finite estimates map to -1.  squeeze() uses exactly
    this rule, so window sums over the squeezed plane and direct sums
    over stack cells selected through lattice_index agree cell for cell.
    """
    centers = cfg.bin_centers()
    l_min = int(round(centers[0] / cfg.dxi))
    top = len(centers) - 1
    omega = np.asarray(omega, dtype=float)
    idx = np.full(omega.shape, -1, dtype=np.int64)
    ok = np.isfinite(omega)
    r = omega[ok] / cfg.dxi + 0.5
    j = np.floor(r).astype(np.int64)
    j[r == np.floor(r)] -= 1                # exact ties go to the lower bin
    idx[ok] = np.clip(j - l_min, 0, top)
    return idx


def squeeze(stack: CwtStack, plane: PhasePlane,
            cfg: SqueezeConfig) -> TfPlane:
    """Reassign masked coefficients onto the frequency lattice.

    T(xi_l, b) collects w * dlog / dxi from every valid cell whose
    phase-transform value rounds to bin l; summing T * dxi over l then
    reproduces the masked mass sum(w * dlog) exactly, column by column.
    """
    centers = cfg.bin_centers()
    L = len(centers)
    n = len(stack.b)
    T = np.zeros((L, n), dtype=complex)

    idx = lattice_index(plane.omega, cfg)
    sel = plane.valid & (idx >= 0)
    if np.any(sel):
        cols = np.broadcast_to(np.arange(n), idx.shape)[sel]
        np.add.at(T, (idx[sel], cols),
                  stack.w[sel] * (stack.grid.dlog / cfg.dxi))
    return TfPlane(xi=centers, b=stack.b, values=T, dxi=cfg.dxi)


def conservation_defect(stack: CwtStack, plane: PhasePlane,
                        tf: TfPlane) -> Array:
    """Per-column |sum_l T*dxi - sum_masked w*dlog| (should be ~rounding)."""
    sel = plane.valid & np.isfinite(plane.omega)
    masked = np.where(sel, stack.w, 0.0).sum(axis=0) * stack.grid.dlog
    squeezed = tf.values.sum(axis=0) * tf.dxi
    return np.abs(squeezed - masked)


# ------------------------------------------------------------------ output

def tf_to_csv(tf: TfPlane, path) -> None:
    v = tf.values
    # np.hypot matches Python's abs(complex) bit for bit; np.abs does not
    write_table(path, "xi,b,re,im,abs", tf.xi[:, None], tf.b, v.real, v.imag,
                np.hypot(v.real, v.imag))


def tf_to_pgm(tf: TfPlane, path) -> None:
    """8-bit grayscale heat map (high frequency at the top), binary PGM."""
    mag = np.abs(tf.values)[::-1, :]
    top = float(np.max(mag))
    if top != 0.0:
        # floor(256*mag/top) capped at 255, in place: no full-size
        # temporaries on top of the plane at the run's memory peak
        mag *= 256.0
        mag /= top
        np.floor(mag, out=mag)
        np.minimum(mag, 255.0, out=mag)
    img = mag.astype(np.uint8)
    header = f"P5\n{img.shape[1]} {img.shape[0]}\n255\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(img.tobytes())
