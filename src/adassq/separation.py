"""Time-varying window-width selection and scale-zone geometry.

For a multicomponent signal the analysis window must be wide enough in time
(narrow in frequency) that neighboring components do not bleed into each
other's scale zone, but no wider, since a wide window smears chirps.  Two
selectors are provided:

* sigma1 -- the smallest width keeping the *first-order* zones
  { a : |sigma*(mu - a*phi_k')| <= alpha } of adjacent components disjoint;
  adequate when chirp rates are mild.
* sigma2 -- the smallest width keeping the *chirp-corrected* zones disjoint.
  Each pair contributes the lower root of a quadratic in sigma; at that root
  the adjacent corrected zones touch exactly (tangency), so the maximum over
  pairs is the minimal admissible width.

Both return a SigmaProfile carrying sigma(b) and its derivative, which the
transform stack needs for its time-derivative lattice.

Component tracks are (K, n) arrays (signals.tracks), so adjacent pairs are
the row slices [:-1] (lower) and [1:] (upper), and a quantity over all
ordered pairs is a (K, K, n) array indexed [l, k]: component l seen in
component k's window, with the diagonal l == k masked.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .signals import SignalSpec, check_order, read_table, tracks, write_table
from .windows import WindowModel

Array = np.ndarray


@dataclass(frozen=True)
class SigmaProfile:
    """Window width sigma(b) and its time derivative on a time grid."""

    b: Array
    sigma: Array
    dsigma: Array
    kind: str = "custom"

    def __post_init__(self):
        if not (self.b.shape == self.sigma.shape == self.dsigma.shape):
            raise ValueError("b, sigma, dsigma must have matching shapes")
        if np.any(self.sigma <= 0.0):
            raise ValueError("sigma must be positive everywhere")

    def columns(self, cols: slice) -> "SigmaProfile":
        """The profile on the times cols selects."""
        return SigmaProfile(self.b[cols], self.sigma[cols], self.dsigma[cols],
                            self.kind)


def constant_profile(b, sigma: float) -> SigmaProfile:
    b = np.asarray(b, dtype=float)
    if sigma <= 0.0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    return SigmaProfile(b=b, sigma=np.full_like(b, float(sigma)),
                        dsigma=np.zeros_like(b), kind="const")


def sigma1(spec: SignalSpec, wm: WindowModel, b=None) -> SigmaProfile:
    """First-order minimal window width.

    sigma1(b) = (alpha/mu) * max_k (f_k + f_{k-1}) / (f_k - f_{k-1})
    over adjacent pairs of instantaneous frequencies; at this width the
    first-order zones of the tightest pair touch.  The derivative is the
    analytic derivative of the active branch (a.e. correct; at branch
    switches the left branch is used).
    """
    if len(spec.components) < 2:
        raise ValueError("sigma1 needs at least two components; use "
                         "constant_profile for single-component signals")
    b = spec.times() if b is None else np.asarray(b, dtype=float)
    f, fpp, _ = tracks(spec, b)
    flo, fhi, clo, chi = f[:-1], f[1:], fpp[:-1], fpp[1:]
    scale = wm.alpha / wm.mu

    check_order(f)
    diff = fhi - flo
    ratios = (fhi + flo) / diff
    # d/db [(f2+f1)/(f2-f1)] = 2 (c1 f2 - c2 f1) / (f2-f1)^2
    dratios = 2.0 * (clo * fhi - chi * flo) / diff ** 2
    active = np.argmax(ratios, axis=0)
    cols = np.arange(len(b))
    return SigmaProfile(
        b=b,
        sigma=scale * ratios[active, cols],
        dsigma=scale * dratios[active, cols],
        kind="sigma1",
    )


def sigma2_coefficients(flo, clo, fhi, chi, alpha: float, mu: float):
    """Quadratic a*sigma**2 - b*sigma + c = 0 for one adjacent pair.

    Returns (a, b, c, disc) where disc is the discriminant b**2 - 4*a*c in
    the numerically stable factored form; the identity with the expanded
    form is part of the test suite.  A nonnegative disc is the pair's
    separability: for ordered positive frequencies it states
    4*alpha*sqrt(pi*(|phi''_lo| + |phi''_hi|)) <= phi'_hi - phi'_lo,
    the condition under which some width separates the chirp-corrected
    zones.
    """
    flo, clo = np.asarray(flo, float), np.abs(np.asarray(clo, float))
    fhi, chi = np.asarray(fhi, float), np.abs(np.asarray(chi, float))
    s = fhi * clo + flo * chi
    qa = 2.0 * math.pi * alpha * mu * (chi + clo) ** 2
    qb = s * (fhi - flo) + 4.0 * math.pi * alpha ** 2 * (chi ** 2 - clo ** 2)
    qc = (alpha / mu) * (s * (fhi + flo)
                         + 2.0 * math.pi * alpha ** 2 * (chi - clo) ** 2)
    disc = s ** 2 * ((fhi - flo) ** 2
                     - 16.0 * math.pi * alpha ** 2 * (chi + clo))
    return qa, qb, qc, disc


def sigma2(spec: SignalSpec, wm: WindowModel, b=None) -> SigmaProfile:
    """Chirp-corrected minimal window width.

    Per adjacent pair: the lower root of the separation quadratic (at which
    the chirp-corrected zones are exactly tangent), falling back to the
    first-order pair value when both chirp rates vanish.  The profile is the
    maximum over pairs, floored at alpha/mu.  An unseparable pair raises,
    naming the time in b of the smallest discriminant of the first such pair.
    The derivative is a 5-point finite difference of the closed form (exact
    branches are smooth; at branch switches this yields an intermediate
    a.e.-valid slope).
    """
    if len(spec.components) < 2:
        raise ValueError("sigma2 needs at least two components; use "
                         "constant_profile for single-component signals")
    b = spec.times() if b is None else np.asarray(b, dtype=float)

    def value(bv: Array) -> Array:
        f, fpp, _ = tracks(spec, bv)
        check_order(f)
        flo, fhi, clo, chi = f[:-1], f[1:], fpp[:-1], fpp[1:]
        qa, qb, qc, disc = sigma2_coefficients(
            flo, clo, fhi, chi, wm.alpha, wm.mu)
        unseparable = np.any(disc < 0.0, axis=1)
        if np.any(unseparable):
            worst = bv[np.argmin(disc[np.argmax(unseparable)])]
            raise ValueError(
                "components are too close for their chirp rates near "
                f"b={worst:.6g}; no window width separates the "
                "chirp-corrected zones")
        chirped = qa > 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            pair = np.where(
                chirped,
                (qb - np.sqrt(disc)) / np.where(chirped, 2.0 * qa, 1.0),
                (wm.alpha / wm.mu) * (fhi + flo)
                / np.maximum(fhi - flo, 1e-300),
            )
        return np.maximum(wm.alpha / wm.mu, np.max(pair, axis=0))

    sigma = value(b)        # first, so a failure is named at a time of b
    h = 1e-4 * spec.duration
    dsig = (-value(b + 2 * h) + 8 * value(b + h)
            - 8 * value(b - h) + value(b - 2 * h)) / (12.0 * h)
    return SigmaProfile(b=b, sigma=sigma, dsigma=dsig, kind="sigma2")


@dataclass(frozen=True)
class ZoneSet:
    """Per-component scale intervals on a time grid.

    order=1: plain window-support zones; order=2: chirp-corrected zones.
    lower/upper have shape (K, len(b)); valid marks cells where the zone
    formula is defined (square-root argument nonnegative, admissible sigma).
    """

    b: Array
    order: int
    lower: Array
    upper: Array
    valid: Array

    def span(self, margin: float) -> tuple[float, float]:
        """Scale range covering every valid cell, widened by margin."""
        if not np.any(self.valid):
            raise ValueError("zone set has no valid cells to cover")
        return (float(np.min(self.lower[self.valid])) / margin,
                float(np.max(self.upper[self.valid])) * margin)


def zones(spec: SignalSpec, wm: WindowModel, profile: SigmaProfile,
          order: int = 1) -> ZoneSet:
    """Scale zones of each component at the given window profile."""
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order}")
    b = profile.b
    sig = profile.sigma
    alpha, mu = wm.alpha, wm.mu
    f, fpp, _ = tracks(spec, b)
    lo_edge = mu - alpha / sig
    hi_edge = mu + alpha / sig
    valid = (lo_edge > 0.0) & (f > 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        if order == 1:
            return ZoneSet(b=b, order=1, lower=lo_edge / f,
                           upper=hi_edge / f, valid=valid)
        c = np.abs(fpp)
        arg_u = f ** 2 - 8.0 * math.pi * alpha * (alpha + mu * sig) * c
        arg_l = f ** 2 + 8.0 * math.pi * alpha * (mu * sig - alpha) * c
        return ZoneSet(b=b, order=2,
                       lower=2.0 * lo_edge / (f + np.sqrt(arg_l)),
                       upper=2.0 * hi_edge / (f + np.sqrt(arg_u)),
                       valid=valid & (arg_u >= 0.0) & (arg_l >= 0.0))


def zone_margins(zs: ZoneSet) -> Array:
    """Gap upper_{k+1} ... lower_k between adjacent zones, shape (K-1, n).

    Component k+1 lives at higher frequency, hence smaller scale; the margin
    is lower_k - upper_{k+1} and separation means margin >= 0.
    """
    return zs.lower[:-1] - zs.upper[1:]


def spectral_distance(spec: SignalSpec, wm: WindowModel,
                      profile: SigmaProfile) -> Array:
    """Off-component spectral argument rho_{l,k}(b), shape (K, K, n).

    Entry (l, k) is the smallest |sigma*(mu - a*phi_l')| over a in component
    k's first-order zone: how far component l's ridge sits outside k's zone,
    in window-argument units.  Diagonal entries are 0.
    """
    sig = profile.sigma
    alpha, mu = wm.alpha, wm.mu
    f = tracks(spec, profile.b)[0]
    K = len(f)
    ratio = f[:, None] / f[None, :]
    l_idx, k_idx = np.indices((K, K))[..., None]
    # a lower frequency is seen at k's (smaller) scales, a higher one at
    # k's (larger) scales
    return np.where(l_idx == k_idx, 0.0,
                    np.where(l_idx < k_idx,
                             sig * mu - (sig * mu + alpha) * ratio,
                             (sig * mu - alpha) * ratio - sig * mu))


# Rounding allowed in the zone margins and in rho_min >= alpha, which
# minimal-width profiles meet with equality
_MARGIN_TOL = 1e-12


@dataclass(frozen=True)
class SeparationReport:
    """Admissibility and separation diagnostics for a (signal, profile) pair."""

    sigma_admissible: bool      # sigma*mu - alpha > 0 everywhere
    freq_order_ok: bool         # strictly increasing component frequencies
    pair_condition_ok: bool     # chirp-separability of each adjacent pair
    zones_disjoint: bool        # zone margins >= 0 (order per request)
    rho_min: float              # min off-diagonal spectral distance
    rho_ok: bool                # rho_min >= alpha
    bad_times: Array            # times where any check fails

    def ok(self) -> bool:
        return (self.sigma_admissible and self.freq_order_ok
                and self.pair_condition_ok and self.zones_disjoint
                and self.rho_ok)


def separation_report(spec: SignalSpec, wm: WindowModel, profile: SigmaProfile,
                      order: int = 1) -> SeparationReport:
    b = profile.b
    sig = profile.sigma
    admissible = sig * wm.mu - wm.alpha > 0.0

    f, fpp, _ = tracks(spec, b)
    order_ok = np.all(f[1:] > f[:-1], axis=0)
    disc = sigma2_coefficients(f[:-1], fpp[:-1], f[1:], fpp[1:],
                               wm.alpha, wm.mu)[3]
    cond_ok = np.all(disc >= 0.0, axis=0)

    zs = zones(spec, wm, profile, order=order)
    disjoint = np.all(zone_margins(zs) >= -_MARGIN_TOL, axis=0) \
        & np.all(zs.valid, axis=0)

    rho = spectral_distance(spec, wm, profile)
    off = ~np.eye(len(rho), dtype=bool)
    rho_min = float(np.min(rho[off], initial=math.inf))

    good = admissible & order_ok & cond_ok & disjoint
    return SeparationReport(
        sigma_admissible=bool(np.all(admissible)),
        freq_order_ok=bool(np.all(order_ok)),
        pair_condition_ok=bool(np.all(cond_ok)),
        zones_disjoint=bool(np.all(disjoint)),
        rho_min=rho_min,
        rho_ok=bool(rho_min >= wm.alpha - _MARGIN_TOL),
        bad_times=b[~good],
    )


# ------------------------------------------------------------------ CSV I/O

def profile_to_csv(profile: SigmaProfile, path) -> None:
    write_table(path, "b,sigma,dsigma", profile.b, profile.sigma,
                profile.dsigma)


def profile_from_csv(path, t: Array) -> SigmaProfile:
    """The "table" profile of a b,sigma,dsigma file, one row per time of t.
    A ValueError names a wrong row count, or the first line whose b is over
    1e-9 off t or whose sigma is not positive; read_table's pass through."""
    data = read_table(path, "b,sigma,dsigma")
    if data.shape[0] != t.size:
        raise ValueError(f"expected {t.size} rows, one per signal sample, "
                         f"got {data.shape[0]}")
    for bad, what in ((np.abs(data[:, 0] - t) > 1e-9,
                       "the b column must match the signal's time grid"),
                      (data[:, 1] <= 0.0, "sigma must be positive")):
        if np.any(bad):
            raise ValueError(f"line {np.argmax(bad) + 2}: {what}")
    return SigmaProfile(b=t, sigma=data[:, 1], dsigma=data[:, 2], kind="table")


def zones_to_csv(zs: ZoneSet | None, path) -> None:
    """b,k,lower,upper,valid rows, k-major; only the header without zones."""
    cols = () if zs is None else (
        zs.b, np.arange(1, len(zs.lower) + 1)[:, None], zs.lower, zs.upper,
        zs.valid)
    write_table(path, "b,k,lower,upper,valid", *cols)
