"""Component recovery, its normalizing constants, and certified error budgets.

Recovery sums the squeezed plane over a frequency window around a ridge and
divides by a normalizing constant: the band-limited constant (first-order
estimates) or a per-component constant that absorbs the chirp distortion of
the window (second-order estimates).  Both constants are quadratures of the
window's spectral profile against dxi/xi resp. da/a.

The error budgets certify those recoveries a priori: given the signal-class
parameters (bounds on amplitude drift and on phase curvature or its
derivative), each budget is a sum of a threshold term, residual-envelope
terms built from window moments, and cross-component leakage masses
computed by quadrature.  The residual diagnostics make the underlying
identities checkable on a computed stack: the time-derivative of the
transform equals a known combination of companion transforms up to a
residual that is itself an explicit sum of chirp-distorted window
evaluations of the other components.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .cwt import CwtStack
from .separation import SigmaProfile, ZoneSet, spectral_distance
from .signals import SignalSpec, class_params, write_table
from .sst import TfPlane, chirp_rate_estimate
from .windows import (WindowModel, chirped_transform_G,
                      chirped_transform_Gj, gauss_hat)

Array = np.ndarray
TWO_PI = 2.0 * math.pi

QUAD_EPSABS = 1e-12
QUAD_LIMIT = 200

# The analysis window has unit area by construction, so its L1 norm is 1.
WINDOW_L1_NORM = 1.0


# ------------------------------------------------------------- normalizers

@dataclass(frozen=True)
class Normalizers:
    """Recovery normalizing constants on a time grid.

    c_alpha: band-limited constant per b (real-valued integrand, stored
    complex for a uniform interface).  c_k: per-component constant per
    (k, b), a complex quadrature of the chirp-distorted spectral window
    over the component's own scale zone; None when built without zones.
    """

    b: Array
    c_alpha: Array
    c_k: Array | None = None


def _band_normalizer(wm: WindowModel, sigma: float) -> float:
    half = wm.alpha / sigma
    val, _ = quad(lambda xi: gauss_hat(sigma * (wm.mu - xi)) / xi,
                  wm.mu - half, wm.mu + half,
                  epsabs=QUAD_EPSABS, limit=QUAD_LIMIT)
    return val


def normalizers(spec: SignalSpec, wm: WindowModel, profile: SigmaProfile,
                zs: ZoneSet | None = None) -> Normalizers:
    """Recovery constants for the given window profile (and zones, if any).

    With a ZoneSet the per-component constants c_k are computed by complex
    quadrature of the chirp-distorted spectral window over [l_k, u_k] in
    da/a; cells whose zone is undefined get NaN.
    """
    sig = profile.sigma
    if np.any(sig * wm.mu <= wm.alpha):
        raise ValueError("sigma must exceed alpha/mu everywhere (the "
                         "integrand pole would enter the interval)")
    b = profile.b
    c_alpha = np.array([_band_normalizer(wm, s) for s in sig],
                       dtype=complex)

    c_k = None
    if zs is not None:
        K = len(spec.components)
        n = len(b)
        c_k = np.full((K, n), np.nan, dtype=complex)
        for k, comp in enumerate(spec.components):
            f = comp.dphase(b)
            fpp = comp.d2phase(b)
            for i in range(n):
                if not zs.valid[k, i]:
                    continue
                s = sig[i]

                def integrand(a, s=s, fi=float(f[i]), ci=float(fpp[i])):
                    u = s * (wm.mu - a * fi)
                    lam = TWO_PI * ci * a * a * s * s
                    return complex(chirped_transform_G(u, lam)) / a

                c_k[k, i] = quad(integrand, zs.lower[k, i], zs.upper[k, i],
                                 epsabs=QUAD_EPSABS, limit=QUAD_LIMIT,
                                 complex_func=True)[0]

    return Normalizers(b=b, c_alpha=c_alpha, c_k=c_k)


# ---------------------------------------------------------------- recovery

@dataclass(frozen=True)
class RecoveryResult:
    """Windowed-recovery output per component and time.

    estimate is the complex recovered value (its real part is the signal
    for real inputs, because the transform of a real signal is stored with
    folded, already-doubled coefficients).  bins_used counts the lattice
    bins the window captured; a zero means the window was narrower than
    the bin spacing there and the estimate is an empty sum, not a signal
    value.  abs_error is filled only when ground truth was supplied.
    """

    b: Array
    estimate: Array
    window: Array
    mode: str
    bins_used: Array
    abs_error: Array | None = None


def recover(tf: TfPlane, norms: Normalizers, ridge: Array, eps3,
            mode: str = "first", truth: Array | None = None,
            real_signal: bool = False) -> RecoveryResult:
    """Integrate the squeezed plane over |xi - ridge_k(b)| < eps3 and normalize.

    ridge has shape (K, n) in Hz (ground-truth instantaneous frequencies by
    default; an extracted track works too).  eps3 is a scalar or per-time
    array of window half-widths.  mode "first" divides by c_alpha, mode
    "second" by the per-component c_k.  truth, when given, has shape (K, n)
    and is compared against the estimate (against its real part when
    real_signal is set).
    """
    ridge = np.atleast_2d(np.asarray(ridge, dtype=float))
    K, n = ridge.shape
    if n != len(tf.b):
        raise ValueError("ridge length does not match the plane's time grid")
    eps3 = np.broadcast_to(np.asarray(eps3, dtype=float), (K, n))
    if np.any(eps3 <= 0.0):
        raise ValueError("eps3 must be positive")
    if mode not in ("first", "second"):
        raise ValueError(f"mode must be 'first' or 'second', got {mode!r}")
    if mode == "second" and norms.c_k is None:
        raise ValueError("mode 'second' needs per-component normalizers "
                         "(build Normalizers with a ZoneSet)")

    estimate = np.zeros((K, n), dtype=complex)
    bins_used = np.zeros((K, n), dtype=np.int64)
    for k in range(K):
        sel = np.abs(tf.xi[:, None] - ridge[k][None, :]) < eps3[k][None, :]
        bins_used[k] = sel.sum(axis=0)
        num = (tf.values * sel).sum(axis=0) * tf.dxi
        c = norms.c_alpha if mode == "first" else norms.c_k[k]
        estimate[k] = num / c

    abs_error = None
    if truth is not None:
        truth = np.asarray(truth)
        if truth.shape != (K, n):
            raise ValueError("truth must have shape (K, n)")
        got = estimate.real if real_signal else estimate
        abs_error = np.abs(got - truth)
    return RecoveryResult(b=tf.b, estimate=estimate, window=np.array(eps3),
                          mode=mode, bins_used=bins_used,
                          abs_error=abs_error)


# ------------------------------------------------------------ error budgets

@dataclass(frozen=True)
class BoundReport:
    """A priori error budgets on a time grid; unset parts are None.

    First-order part: res_env/res_env_deriv are the expansion-residual
    envelopes for the plain and derivative-window transforms (per k, b);
    omega_bound certifies the frequency estimate; recovery_bound certifies
    windowed recovery and already includes the 1/|c_alpha| factor;
    cross_mass[l, k] is the leakage mass of component l into component k's
    recovery window.

    Second-order part: recovery_bound_main is the budget matching the
    hybrid-squeezed recovery (to be divided by |c_k| by the caller, as the
    certified inequality states it); recovery_bound_gap adds the penalty
    for scale cells the strict variant skips; cross_mass_strict[l, k] is
    the chirp-aware leakage mass; skip_measure/keep_measure are the log-
    scale measures of the skipped/kept cell sets; env_const/env_curv give
    the five expansion-residual envelopes as const + curv * a**2 (rows:
    plain, t-, t^2-, derivative-, t*derivative-window).
    """

    b: Array
    eps1_tilde: float
    eps2_tilde: float | None = None
    res_env: Array | None = None
    res_env_deriv: Array | None = None
    omega_bound: Array | None = None
    recovery_bound: Array | None = None
    cross_mass: Array | None = None
    recovery_bound_main: Array | None = None
    recovery_bound_gap: Array | None = None
    cross_mass_strict: Array | None = None
    skip_measure: Array | None = None
    keep_measure: Array | None = None
    env_const: Array | None = None
    env_curv: Array | None = None


def expansion_envelopes(spec: SignalSpec,
                        wm: WindowModel,
                        profile: SigmaProfile) -> tuple[Array, Array]:
    """Envelopes of the five expansion residuals as const + curv * a**2.

    Row order: plain, t-, t^2-, derivative-, and t*derivative-window
    transforms.  The constant part scales with the amplitude-drift class
    parameter, the curvature part with the third-phase-derivative one.
    """
    cp = class_params(spec)
    K = len(spec.components)
    b = profile.b
    amp_total = sum(c.amp(b) for c in spec.components)
    sig2 = profile.sigma ** 2
    const = np.empty(5)
    curv = np.empty((5, len(b)))
    rows = ((1, 3, False), (2, 4, False), (3, 5, False),
            (1, 3, True), (2, 4, True))
    for r, (n_lo, n_hi, deriv) in enumerate(rows):
        lo = wm.abs_moment_deriv(n_lo) if deriv else wm.abs_moment(n_lo)
        hi = wm.abs_moment_deriv(n_hi) if deriv else wm.abs_moment(n_hi)
        const[r] = K * cp.eps1 * lo
        curv[r] = (math.pi / 3.0) * cp.eps3 * hi * sig2 * amp_total
    return const, curv


def bounds_first(spec: SignalSpec, wm: WindowModel, profile: SigmaProfile,
                 zs: ZoneSet | None, eps1_tilde: float) -> BoundReport:
    """First-order budgets: frequency-estimate and recovery bounds per (k, b)."""
    if eps1_tilde <= 0.0:
        raise ValueError("eps1_tilde must be positive")
    if zs is not None and zs.order != 1:
        raise ValueError("bounds_first expects first-order zones")
    cp = class_params(spec)
    K = len(spec.components)
    b = profile.b
    n = len(b)
    sig = profile.sigma
    alpha, mu = wm.alpha, wm.mu
    f = np.stack([c.dphase(b) for c in spec.components])
    A = np.stack([c.amp(b) for c in spec.components])
    amp_total = A.sum(axis=0)

    i1, i2 = wm.abs_moment(1), wm.abs_moment(2)
    d1, d2 = wm.abs_moment_deriv(1), wm.abs_moment_deriv(2)
    shape_term = (mu * sig + alpha)[None, :] / f * amp_total[None, :]
    res_env = K * cp.eps1 * i1 + math.pi * cp.eps2 * i2 * shape_term
    res_env_deriv = K * cp.eps1 * d1 + math.pi * cp.eps2 * d2 * shape_term

    rho = spectral_distance(spec, wm, profile)
    omega_bound = (alpha * res_env + res_env_deriv / TWO_PI) / eps1_tilde
    for k in range(K):
        for l in range(K):
            if l == k:
                continue
            omega_bound[k] += (A[l] * np.abs(f[l] - f[k])
                               * gauss_hat(rho[l, k])) / eps1_tilde

    cross_mass = np.zeros((K, K, n))
    for k in range(K):
        for l in range(K):
            if l == k:
                continue
            ratio = f[l] / f[k]
            for i in range(n):
                s = sig[i]
                half = alpha / s
                cross_mass[l, k, i] = quad(
                    lambda xi, s=s, r=float(ratio[i]):
                        gauss_hat(s * (mu - r * xi)) / xi,
                    mu - half, mu + half,
                    epsabs=QUAD_EPSABS, limit=QUAD_LIMIT)[0]

    c_alpha = np.abs(np.array([_band_normalizer(wm, s) for s in sig]))
    log_term = np.log((mu * sig + alpha) / (mu * sig - alpha))
    recovery_bound = np.empty((K, n))
    for k in range(K):
        cross = sum(A[l] * cross_mass[l, k] for l in range(K) if l != k)
        recovery_bound[k] = (eps1_tilde * log_term
                             + (2.0 * alpha / f[k]) * res_env[k]
                             + cross) / c_alpha
    return BoundReport(b=b, eps1_tilde=eps1_tilde, res_env=res_env,
                       res_env_deriv=res_env_deriv, omega_bound=omega_bound,
                       recovery_bound=recovery_bound, cross_mass=cross_mass)


def bounds_second(spec: SignalSpec, wm: WindowModel, profile: SigmaProfile,
                  zs: ZoneSet, eps1_tilde: float, eps2_tilde: float,
                  stack: CwtStack | None = None) -> BoundReport:
    """Second-order budgets: chirp-aware recovery bounds per (k, b).

    recovery_bound_main certifies the hybrid-squeezed windowed recovery
    once divided by |c_k|.  recovery_bound_gap needs the stack: it adds the
    mass of zone cells whose second-order denominator conditioning falls at
    or below eps2_tilde (the strict variant drops them), measured from the
    stack's masks.  Without a stack the gap part and the measures are None.
    """
    if eps1_tilde <= 0.0 or eps2_tilde <= 0.0:
        raise ValueError("thresholds must be positive")
    if zs.order != 2:
        raise ValueError("bounds_second expects second-order zones")
    cp = class_params(spec)
    K = len(spec.components)
    b = profile.b
    n = len(b)
    sig = profile.sigma
    alpha, mu = wm.alpha, wm.mu
    f = np.stack([c.dphase(b) for c in spec.components])
    fpp = np.stack([c.d2phase(b) for c in spec.components])
    A = np.stack([c.amp(b) for c in spec.components])
    amp_total = A.sum(axis=0)
    i1, i3 = wm.abs_moment(1), wm.abs_moment(3)

    width = np.where(zs.valid, zs.upper - zs.lower, np.nan)
    log_term = np.where(zs.valid, np.log(zs.upper / zs.lower), np.nan)
    drift = sig[None, :] * K * cp.eps1 * i1 * width
    curvature = ((math.pi / 9.0) * cp.eps3 * i3 * width ** 3
                 * (sig ** 3 * amp_total)[None, :])

    cross_mass_strict = np.zeros((K, K, n))
    for k in range(K):
        for l in range(K):
            if l == k:
                continue
            for i in range(n):
                if not zs.valid[k, i]:
                    cross_mass_strict[l, k, i] = np.nan
                    continue
                s = sig[i]

                def integrand(a, s=s, fi=float(f[l, i]),
                              ci=float(fpp[l, i])):
                    u = s * (mu - a * fi)
                    lam = TWO_PI * ci * a * a * s * s
                    mod = ((1.0 + lam * lam) ** -0.25
                           * math.exp(-2.0 * math.pi ** 2 * u * u
                                      / (1.0 + lam * lam)))
                    return mod / a

                cross_mass_strict[l, k, i] = quad(
                    integrand, zs.lower[k, i], zs.upper[k, i],
                    epsabs=QUAD_EPSABS, limit=QUAD_LIMIT)[0]

    cross = np.zeros((K, n))
    for k in range(K):
        cross[k] = sum(A[l] * cross_mass_strict[l, k]
                       for l in range(K) if l != k)
    main = eps1_tilde * log_term + drift + curvature + cross

    gap = skip = keep = None
    if stack is not None:
        _, cond = chirp_rate_estimate(stack)
        absw = np.abs(stack.w)
        a = stack.grid.a
        skip = np.zeros((K, n))
        keep = np.zeros((K, n))
        skipped_lin = np.zeros((K, n))
        in_zone = ((a[None, :, None] > zs.lower[:, None, :])
                   & (a[None, :, None] < zs.upper[:, None, :])
                   & zs.valid[:, None, :])
        masked = in_zone & (absw > eps1_tilde)[None, :, :]
        cond_ok = np.isfinite(cond) & (cond > eps2_tilde)
        dlog = stack.grid.dlog
        for k in range(K):
            u_set = masked[k] & ~cond_ok
            v_set = masked[k] & cond_ok
            skip[k] = u_set.sum(axis=0) * dlog
            keep[k] = v_set.sum(axis=0) * dlog
            skipped_lin[k] = (a[:, None] * u_set).sum(axis=0) * dlog
        gap = (A * skipped_lin / np.where(zs.valid, zs.lower, np.nan)
               * WINDOW_L1_NORM + drift + curvature + cross)

    const, curv = expansion_envelopes(spec, wm, profile)
    return BoundReport(b=b, eps1_tilde=eps1_tilde, eps2_tilde=eps2_tilde,
                       recovery_bound_main=main, recovery_bound_gap=gap,
                       cross_mass_strict=cross_mass_strict,
                       skip_measure=skip, keep_measure=keep,
                       env_const=const, env_curv=curv)


# ------------------------------------------------------ residual diagnostics

@dataclass(frozen=True)
class ResidualDiag:
    """Empirical and structured residuals of the derivative identities.

    All lattices have shape (K, J, n): the identity for component k is
    meaningful on the cells zone_mask[k] selects (that component's scale
    zone).  res1 is the defect of the time-derivative identity, res2 of
    its scale derivative, res3 of the chirp-rate ratio.  The *_struct
    fields assemble the same quantities from ground truth: cross_freq
    and cross_rate collect the other components' leakage weighted by
    frequency resp. chirp-rate gaps; cross_freq_scale/cross_rate_scale
    are their scale-derivative partners.  For constant-amplitude
    components with exactly quadratic phase the empirical and structured
    residuals agree up to discretization.
    """

    b: Array
    a: Array
    zone_mask: Array
    res1_emp: Array
    res2_emp: Array
    res3_emp: Array
    res1_struct: Array
    res2_struct: Array
    res3_struct: Array
    cross_freq: Array
    cross_rate: Array
    cross_freq_scale: Array
    cross_rate_scale: Array


def residual_diagnostics(stack: CwtStack, spec: SignalSpec, wm: WindowModel,
                         profile: SigmaProfile,
                         zs: ZoneSet) -> ResidualDiag:
    """Evaluate the derivative-identity residuals on a computed stack."""
    b = profile.b
    if len(b) != len(stack.b) or not np.allclose(b, stack.b):
        raise ValueError("profile and stack must share the time grid")
    K = len(spec.components)
    a = stack.grid.a
    J = len(a)
    n = len(b)
    sig = profile.sigma
    dln = profile.dsigma / sig
    aa = a[:, None]
    asig = aa * sig[None, :]

    f = np.stack([c.dphase(b) for c in spec.components])
    fpp = np.stack([c.d2phase(b) for c in spec.components])
    xval = np.stack([c.amp(b) * np.exp(2j * np.pi * c.phase(b))
                     for c in spec.components])

    shape = (K, J, n)
    res1_emp = np.empty(shape, dtype=complex)
    res2_emp = np.empty(shape, dtype=complex)
    res3_emp = np.empty(shape, dtype=complex)
    r0, _ = chirp_rate_estimate(stack)
    for k in range(K):
        lead = (2j * np.pi * f[k] - dln)[None, :]
        res1_emp[k] = stack.db_w - (lead * stack.w
                                    + 2j * np.pi * fpp[k][None, :] * asig
                                    * stack.w_tg
                                    - dln[None, :] * stack.w_tgp)
        res2_emp[k] = stack.dadb_w - (
            lead * stack.da_w
            + 2j * np.pi * (fpp[k] * sig)[None, :]
            * (stack.w_tg + aa * stack.da_w_tg)
            - dln[None, :] * stack.da_w_tgp)
        res3_emp[k] = r0 - 2j * np.pi * (sig * fpp[k])[None, :]

    G = np.empty((4, K, J, n), dtype=complex)
    for l in range(K):
        u = sig[None, :] * (wm.mu - aa * f[l][None, :])
        lam = TWO_PI * fpp[l][None, :] * asig ** 2
        for j in range(4):
            G[j, l] = chirped_transform_Gj(j, u, lam)

    cross_freq = np.zeros(shape, dtype=complex)
    cross_rate = np.zeros(shape, dtype=complex)
    cross_freq_scale = np.zeros(shape, dtype=complex)
    cross_rate_scale = np.zeros(shape, dtype=complex)
    for k in range(K):
        for l in range(K):
            if l == k:
                continue
            xl = xval[l][None, :]
            df = (f[l] - f[k])[None, :]
            dc = (fpp[l] - fpp[k])[None, :]
            cross_freq[k] += xl * df * G[0, l]
            cross_rate[k] += xl * dc * G[1, l]
            cross_freq_scale[k] += xl * df * (f[l][None, :] * G[1, l]
                                              + fpp[l][None, :] * asig
                                              * G[2, l])
            cross_rate_scale[k] += xl * dc * (f[l][None, :] * G[2, l]
                                              + fpp[l][None, :] * asig
                                              * G[3, l])

    res1_struct = 2j * np.pi * cross_freq + 2j * np.pi * asig * cross_rate
    res2_struct = (2j * np.pi * sig[None, None, :] * cross_rate
                   - 4.0 * np.pi ** 2 * sig[None, None, :] * cross_freq_scale
                   - 4.0 * np.pi ** 2 * aa[None, :, :]
                   * (sig ** 2)[None, None, :] * cross_rate_scale)
    denom = (stack.w * stack.w_tg
             + aa * (stack.w * stack.da_w_tg - stack.w_tg * stack.da_w))
    with np.errstate(divide="ignore", invalid="ignore"):
        res3_struct = ((stack.w[None] * res2_struct
                        - stack.da_w[None] * res1_struct) / denom[None])

    zone_mask = ((a[None, :, None] > zs.lower[:, None, :])
                 & (a[None, :, None] < zs.upper[:, None, :])
                 & zs.valid[:, None, :])
    return ResidualDiag(b=b, a=a, zone_mask=zone_mask,
                        res1_emp=res1_emp, res2_emp=res2_emp,
                        res3_emp=res3_emp, res1_struct=res1_struct,
                        res2_struct=res2_struct, res3_struct=res3_struct,
                        cross_freq=cross_freq, cross_rate=cross_rate,
                        cross_freq_scale=cross_freq_scale,
                        cross_rate_scale=cross_rate_scale)


# ------------------------------------------------------------------ output

def report_to_csv(result: RecoveryResult, bound: Array, path) -> None:
    """Write b,k,abs_error,bound,within_bound rows for a checked recovery."""
    if result.abs_error is None:
        raise ValueError("recovery carries no abs_error (no truth supplied)")
    bound = np.atleast_2d(bound)
    err = result.abs_error
    if bound.shape != err.shape:
        raise ValueError("bound and abs_error shapes differ")
    write_table(path, "b,k,abs_error,bound,within_bound", result.b,
                np.arange(1, len(err) + 1)[:, None], err, bound, err <= bound)
