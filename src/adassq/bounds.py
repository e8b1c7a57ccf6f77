"""Component recovery, its normalizing constants, and certified error budgets.

Recovery sums the squeezed plane over a frequency window around a ridge and
divides by a normalizing constant: the band-limited constant (first-order
estimates) or a per-component constant that absorbs the chirp distortion of
the window (second-order estimates).  Both constants are integrals of the
window's spectral profile against dxi/xi resp. da/a.

The error budgets certify those recoveries a priori: given the signal-class
parameters (bounds on phase curvature or its derivative), each budget is a
sum of a threshold term, residual-envelope terms built from closed-form
window moments, and cross-component leakage masses.  The paper's
amplitude-drift terms (its eps1) vanish here, because every amplitude A_k
is constant.  Every integral here has the form h(a) da/a, and ``quad``
evaluates all of them with one fixed Gauss-Legendre rule in log a.  The
residual diagnostics make the underlying identities checkable on a
computed stack: the time-derivative of the transform equals a known
combination of companion transforms up to a residual that is itself an
explicit sum of chirp-distorted window evaluations of the other
components.

Per-pair quantities are (K, K, ...) arrays indexed [l, k]: component l seen
in component k's window.  The diagonal l == k is masked to exactly 0, so a
sum over l is an axis-0 sum that adds the other components in the order
l = 0, 1, ..., K-1.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .cwt import CwtStack
from .separation import SigmaProfile, ZoneSet, spectral_distance
from .signals import (_CHUNK_CELLS, SignalSpec, class_params, tracks,
                      write_table)
from .sst import TfPlane, chirp_rate_estimate
from .windows import (TWO_PI, WindowModel, chirped_transform_G,
                      chirped_transform_Gj, gauss_hat, moment)

Array = np.ndarray

# Gauss-Legendre on the plain variable loses digits as a band's lower edge
# nears the 1/a pole (9e-3 relative at sigma*mu/alpha = 1.001 with 32
# nodes).  In v = log a the pole leaves the integrand, and 64 nodes stay
# within 4e-15 of adaptive quadrature down to that ratio.
@functools.cache
def _rule() -> tuple[Array, Array]:
    """The 64-node Gauss-Legendre rule on [-1, 1], (nodes, weights), read
    only: built on first use, so that importing the package does no
    numerical work and loads no numpy.polynomial."""
    from numpy.polynomial.legendre import leggauss
    rule = leggauss(64)
    for part in rule:
        part.flags.writeable = False
    return rule

# Cells per call of a quad integrand.  Its temporaries hold 64 nodes per
# cell, so a bounded chunk keeps each one at 256 KB (complex) however many
# cells the K(K-1) component pairs bring; larger chunks ran slower per cell.
_QUAD_CELLS = 256


def quad(f, lo, hi, *params) -> Array:
    """Integral of f(a, *params) da/a over [lo, hi], cell by cell.

    lo, hi and each of params hold one value per cell, all of one shape.
    f is called on at most _QUAD_CELLS cells at a time: a holds their nodes
    with shape (cells, 64), and each param their values with shape
    (cells, 1).  Each cell's value does not depend on how cells are
    grouped into calls.
    """
    shape = np.shape(lo)
    vlo, vhi = np.log(np.ravel(lo)), np.log(np.ravel(hi))
    half, mid = 0.5 * (vhi - vlo), 0.5 * (vhi + vlo)
    params = [np.ravel(p)[:, None] for p in params]
    nodes, weights = _rule()
    parts = []
    for i in range(0, max(half.size, 1), _QUAD_CELLS):
        c = slice(i, i + _QUAD_CELLS)
        a = np.exp(mid[c, None] + half[c, None] * nodes)
        parts.append(half[c] * np.sum(f(a, *(p[c] for p in params))
                                      * weights, axis=-1))
    return np.concatenate(parts).reshape(shape)


# ------------------------------------------------------------- normalizers

@dataclass(frozen=True)
class Normalizers:
    """Recovery normalizing constants on the profile's time grid.

    c_alpha: band-limited constant per b (real-valued integrand, stored
    complex for a uniform interface).  c_k: per-component constant per
    (k, b), a complex quadrature of the chirp-distorted spectral window
    over the component's own scale zone; None when built without zones.
    """

    c_alpha: Array
    c_k: Array | None = None


def _band_normalizer(wm: WindowModel, sigma) -> Array:
    """Integral of FT[g](sigma*(mu - xi)) dxi/xi over the band, per sigma."""
    sigma = np.asarray(sigma, dtype=float)
    half = wm.alpha / sigma
    return quad(lambda xi, s: gauss_hat(s * (wm.mu - xi)),
                wm.mu - half, wm.mu + half, sigma)


def _chirped_window(wm: WindowModel):
    """(a, sigma, f, fpp) -> chirp-distorted spectral window of a component
    with frequency f and chirp rate fpp, as a quad integrand."""
    return lambda a, s, f, fpp: chirped_transform_G(
        s * (wm.mu - a * f), TWO_PI * fpp * a * a * s * s)


def _at(cells: Array, x) -> Array:
    """x broadcast to the shape of the boolean mask cells, at its cells."""
    return np.broadcast_to(x, cells.shape)[cells]


def normalizers(spec: SignalSpec, wm: WindowModel, profile: SigmaProfile,
                zs: ZoneSet | None = None) -> Normalizers:
    """Recovery constants for the given window profile (and zones, if any).

    With a ZoneSet the per-component constants c_k integrate the
    chirp-distorted spectral window over [l_k, u_k] in da/a; cells whose
    zone is undefined get NaN.
    """
    sig = profile.sigma
    if not profile.admissible(wm).all():
        raise ValueError("sigma must exceed alpha/mu everywhere (the "
                         "integrand pole would enter the interval)")
    c_alpha = _band_normalizer(wm, sig).astype(complex)

    c_k = None
    if zs is not None:
        v = zs.valid
        f, fpp, _ = tracks(spec, profile.b)
        c_k = np.full(v.shape, np.nan, dtype=complex)
        c_k[v] = quad(_chirped_window(wm), zs.lower[v], zs.upper[v],
                      _at(v, sig), f[v], fpp[v])

    return Normalizers(c_alpha=c_alpha, c_k=c_k)


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
    bins_used: Array
    abs_error: Array | None = None


def _column_chunks(n: int, rows: int) -> list[slice]:
    """Slices of n columns over which recover sums a window that spans
    rows plane rows: about _CHUNK_CELLS cells each, and never one column
    wide, since numpy sums an (R, 1) slice over its rows pairwise and a
    wider one row by row, as it sums the whole plane.  A one-column tail
    joins the chunk before it."""
    step = max(2, _CHUNK_CELLS // max(rows, 1))
    starts = list(range(0, max(n - 1, 1), step))
    return [slice(s, e) for s, e in zip(starts, starts[1:] + [n])]


def recover(tf: TfPlane, norms: Normalizers, ridge: Array, eps3,
            mode: str = "first", truth: Array | None = None,
            real_signal: bool = False) -> RecoveryResult:
    """Integrate the squeezed plane over |xi - ridge_k(b)| < eps3 and normalize.

    ridge has shape (K, n) in Hz: one frequency track per component (the
    error budgets hold along the true instantaneous frequencies).  eps3 is
    a scalar or per-time array of window half-widths.  mode "first" divides
    by c_alpha, mode "second" by the per-component c_k.  truth, when given,
    has shape (K, n) and is compared against the estimate (against its
    real part when real_signal is set).

    tf.xi ascends, as squeeze's lattice does, so a component's windows
    open only on the rows between its lowest ridge - eps3 and its highest
    ridge + eps3; the sums take those rows alone, in the plane's row
    order, and _column_chunks' columns at a time.  A row outside every
    window would add only a signed zero, so each sum keeps the whole
    plane's bits, up to the sign of a zero sum, and no temporary is the
    size of the plane or of the window's rows by n.
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
    rows = len(tf.xi)
    for k in range(K):
        # one row of margin on each side covers the rounding of
        # ridge -/+ eps3, far below a bin
        l0 = max(int(np.searchsorted(tf.xi, np.min(ridge[k] - eps3[k])))
                 - 1, 0)
        l1 = min(int(np.searchsorted(tf.xi, np.max(ridge[k] + eps3[k]),
                                     side="right")) + 1, rows)
        c = norms.c_alpha if mode == "first" else norms.c_k[k]
        for cols in _column_chunks(n, l1 - l0):
            sel = np.abs(tf.xi[l0:l1, None] - ridge[k, cols]) < eps3[k, cols]
            bins_used[k, cols] = sel.sum(axis=0)
            num = (tf.rows(slice(l0, l1), cols) * sel).sum(axis=0) \
                * tf.dxi
            estimate[k, cols] = num / c[cols]

    abs_error = None
    if truth is not None:
        truth = np.asarray(truth)
        if truth.shape != (K, n):
            raise ValueError("truth must have shape (K, n)")
        got = estimate.real if real_signal else estimate
        abs_error = np.abs(got - truth)
    return RecoveryResult(b=tf.b, estimate=estimate, bins_used=bins_used,
                          abs_error=abs_error)


# ------------------------------------------------------------ error budgets

@dataclass(frozen=True)
class BoundReport:
    """A priori error budgets on the profile's time grid; unset parts are
    None.

    First-order part (per k, b): res_env is the expansion-residual
    envelope of the plain transform; omega_bound certifies the frequency
    estimate; recovery_bound certifies windowed recovery and already
    includes the 1/|c_alpha| factor; cross_mass[l, k] is the leakage mass
    of component l into component k's recovery window.

    Second-order part: recovery_bound_main is the budget matching the
    hybrid-squeezed recovery (to be divided by |c_k| by the caller, as the
    certified inequality states it); cross_mass_strict[l, k] is the
    chirp-aware leakage mass of component l in component k's zone.
    """

    res_env: Array | None = None
    omega_bound: Array | None = None
    recovery_bound: Array | None = None
    cross_mass: Array | None = None
    recovery_bound_main: Array | None = None
    cross_mass_strict: Array | None = None


def bounds_first(spec: SignalSpec, wm: WindowModel, profile: SigmaProfile,
                 zs: ZoneSet | None, eps1_tilde: float) -> BoundReport:
    """First-order budgets: frequency-estimate and recovery bounds per (k, b)."""
    if eps1_tilde <= 0.0:
        raise ValueError("eps1_tilde must be positive")
    if zs is not None and zs.order != 1:
        raise ValueError("bounds_first expects first-order zones")
    cp = class_params(spec)
    K = len(spec.components)
    sig = profile.sigma
    alpha, mu = wm.alpha, wm.mu
    f, _, A = tracks(spec, profile.b)
    amp_total = A.sum(axis=0)

    shape_term = (mu * sig + alpha)[None, :] / f * amp_total[None, :]
    res_env = math.pi * cp.eps2 * moment(2) * shape_term
    res_env_deriv = (math.pi * cp.eps2 * moment(2, of_derivative=True)
                     * shape_term)

    # leak[l, k] is 0 on the diagonal (f_l - f_k = 0); the axis-0 sum adds
    # the base term first, then leak[0, k], leak[1, k], ... left to right
    rho = spectral_distance(spec, wm, profile)
    leak = (A[:, None] * np.abs(f[:, None] - f[None, :])
            * gauss_hat(rho)) / eps1_tilde
    omega_bound = np.sum(
        [(alpha * res_env + res_env_deriv / TWO_PI) / eps1_tilde, *leak],
        axis=0)

    off = np.broadcast_to(~np.eye(K, dtype=bool)[..., None], rho.shape)
    half = _at(off, alpha / sig)
    cross_mass = np.zeros(rho.shape)
    cross_mass[off] = quad(lambda xi, s, r: gauss_hat(s * (mu - r * xi)),
                           mu - half, mu + half, _at(off, sig),
                           _at(off, f[:, None] / f[None, :]))

    c_alpha = np.abs(_band_normalizer(wm, sig))
    log_term = np.log((mu * sig + alpha) / (mu * sig - alpha))
    cross = np.sum(A[:, None] * cross_mass, axis=0)
    recovery_bound = (eps1_tilde * log_term + (2.0 * alpha / f) * res_env
                      + cross) / c_alpha
    return BoundReport(res_env=res_env, omega_bound=omega_bound,
                       recovery_bound=recovery_bound, cross_mass=cross_mass)


def bounds_second(spec: SignalSpec, wm: WindowModel, profile: SigmaProfile,
                  zs: ZoneSet, eps1_tilde: float,
                  eps2_tilde: float) -> BoundReport:
    """Second-order budgets: chirp-aware recovery bounds per (k, b).

    recovery_bound_main certifies the hybrid-squeezed windowed recovery
    once divided by |c_k|: a threshold term eps1_tilde * log(u_k/l_k) over
    the zone, a phase-curvature term, and the chirp-aware leakage of the
    other components.  eps2_tilde is validated and enters no term: the
    budget is for the hybrid plane, which keeps the cells that the
    conditioning threshold drops from the strict plane.
    """
    if eps1_tilde <= 0.0 or eps2_tilde <= 0.0:
        raise ValueError("thresholds must be positive")
    if zs.order != 2:
        raise ValueError("bounds_second expects second-order zones")
    cp = class_params(spec)
    K = len(spec.components)
    sig = profile.sigma
    f, fpp, A = tracks(spec, profile.b)
    amp_total = A.sum(axis=0)

    width = np.where(zs.valid, zs.upper - zs.lower, np.nan)
    log_term = np.where(zs.valid, np.log(zs.upper / zs.lower), np.nan)
    curvature = ((math.pi / 9.0) * cp.eps3 * moment(3) * width ** 3
                 * (sig ** 3 * amp_total)[None, :])

    # [l, k] cells off the diagonal where k's zone is valid; the other
    # off-diagonal cells are NaN and the diagonal is 0
    diag = np.eye(K, dtype=bool)
    cells = ~diag[..., None] & zs.valid
    window = _chirped_window(wm)
    cross_mass_strict = np.full(cells.shape, np.nan)
    cross_mass_strict[diag] = 0.0
    cross_mass_strict[cells] = quad(
        lambda *a: np.abs(window(*a)),
        _at(cells, zs.lower), _at(cells, zs.upper),
        _at(cells, sig), _at(cells, f[:, None]), _at(cells, fpp[:, None]))

    cross = np.sum(A[:, None] * cross_mass_strict, axis=0)
    main = eps1_tilde * log_term + curvature + cross
    return BoundReport(recovery_bound_main=main,
                       cross_mass_strict=cross_mass_strict)


def certify(spec: SignalSpec, wm: WindowModel, profile: SigmaProfile,
            zs: ZoneSet | None, tf: TfPlane, order: int, gamma1: float,
            gamma2: float | None = None,
            eps3=None) -> tuple[RecoveryResult, Array]:
    """(recovery along each true ridge against the truth, its error bound)
    on profile.b: over c_alpha with bounds_first's bound (order 1), or over
    c_k with bounds_second's at gamma2, over |c_k| (order 2).  eps3 None is
    half the nearest ridge gap, or half a lone ridge's lowest frequency,
    which keeps its window above 0 Hz.  A nan row has no certificate; an
    infinite bound or error raises OverflowError."""
    if order not in (1, 2) or (order == 2 and gamma2 is None):
        raise ValueError("order must be 1, or 2 with gamma2 given")
    t, ridge = profile.b, tracks(spec, profile.b)[0]
    truth = np.vstack([c.evaluate(t, analytic=(spec.mode == "complex"))
                       for c in spec.components])
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if eps3 is None:
            eps3 = np.min(np.diff(ridge, axis=0), axis=0) / 2.0 \
                if ridge.shape[0] >= 2 else float(np.min(ridge)) / 2.0
        if order == 1:
            norms = normalizers(spec, wm, profile)
            bound = bounds_first(spec, wm, profile, zs, gamma1).recovery_bound
        else:
            norms = normalizers(spec, wm, profile, zs=zs)
            bound = bounds_second(spec, wm, profile, zs, gamma1, gamma2
                                  ).recovery_bound_main / np.abs(norms.c_k)
        result = recover(tf, norms, ridge, eps3,
                         mode="first" if order == 1 else "second",
                         truth=truth, real_signal=(spec.mode == "real"))
    for what, values in (("error bound", bound),
                         ("recovery error", result.abs_error)):
        if np.isinf(values).any():
            raise OverflowError(f"recovery: the {what} overflows")
    return result, bound


# ------------------------------------------------------ residual diagnostics

@dataclass(frozen=True)
class ResidualDiag:
    """Empirical and structured residuals of the derivative identities.

    All lattices have shape (K, J, n) on the stack's scales and times:
    the identity for component k is meaningful on the cells zone_mask[k]
    selects (that component's scale zone).  res1 is the defect of the
    time-derivative identity, res2 of its scale derivative, res3 of the
    chirp-rate ratio.  The *_struct fields assemble the same quantities
    from ground truth: cross_freq and cross_rate collect the other
    components' leakage weighted by frequency resp. chirp-rate gaps.  For
    constant-amplitude components with exactly quadratic phase the
    empirical and structured residuals agree up to discretization.
    """

    zone_mask: Array
    res1_emp: Array
    res2_emp: Array
    res3_emp: Array
    res1_struct: Array
    res2_struct: Array
    res3_struct: Array
    cross_freq: Array
    cross_rate: Array


def residual_diagnostics(stack: CwtStack, spec: SignalSpec, wm: WindowModel,
                         profile: SigmaProfile,
                         zs: ZoneSet) -> ResidualDiag:
    """Evaluate the derivative-identity residuals on a computed stack."""
    b = profile.b
    if len(b) != len(stack.b) or not np.allclose(b, stack.b):
        raise ValueError("profile and stack must share the time grid")
    a = stack.grid.a
    sig = profile.sigma
    dln = profile.dsigma / sig
    aa = a[:, None]
    asig = aa * sig[None, :]

    f, fpp, _ = tracks(spec, b)
    # component rows broadcast against the (J, n) lattice
    fk, ck = f[:, None, :], fpp[:, None, :]

    r0, _ = chirp_rate_estimate(stack)
    lead = 2j * np.pi * fk - dln
    res1_emp = stack.db_w - (lead * stack.w + 2j * np.pi * ck * asig
                             * stack.w_tg - dln * stack.w_tgp)
    res2_emp = stack.dadb_w - (
        lead * stack.da_w
        + 2j * np.pi * (ck * sig) * (stack.w_tg + aa * stack.da_w_tg)
        - dln * stack.da_w_tgp)
    res3_emp = r0 - 2j * np.pi * (sig * ck)

    # [l, k, J, n]: component l in component k's identity; the diagonal
    # terms carry f_l - f_k = fpp_l - fpp_k = 0
    u = sig * (wm.mu - aa * fk)
    lam = TWO_PI * ck * asig ** 2
    G0, G1, G2, G3 = (chirped_transform_Gj(j, u, lam)[:, None]
                      for j in range(4))
    xl = np.stack([c.evaluate(b, analytic=True)
                   for c in spec.components])[:, None, None, :]
    df = (f[:, None] - f[None, :])[:, :, None, :]
    dc = (fpp[:, None] - fpp[None, :])[:, :, None, :]
    fl, cl = fk[:, None], ck[:, None]
    cross_freq = np.sum(xl * df * G0, axis=0)
    cross_rate = np.sum(xl * dc * G1, axis=0)
    cross_freq_scale = np.sum(xl * df * (fl * G1 + cl * asig * G2), axis=0)
    cross_rate_scale = np.sum(xl * dc * (fl * G2 + cl * asig * G3), axis=0)

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
    return ResidualDiag(zone_mask=zone_mask,
                        res1_emp=res1_emp, res2_emp=res2_emp,
                        res3_emp=res3_emp, res1_struct=res1_struct,
                        res2_struct=res2_struct, res3_struct=res3_struct,
                        cross_freq=cross_freq, cross_rate=cross_rate)


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
