"""Transform stack: wavelet coefficients and their exact lattice derivatives.

The transform of a signal x with a time-varying Gaussian window is

    W(a, b) = integral x(b + a*t) * (1/sigma(b)) * g(t/sigma(b))
              * exp(-i*2*pi*mu*t) dt.

Expanding x through its DFT turns this into a finite sum over frequency bins,

    W(a_j, b_i) = sum_m c_m * FTg(sigma_i*(mu - a_j*xi_m))
                  * exp(i*2*pi*xi_m*(b_i - t_0)),   xi_m = m*fs/N,

which this module evaluates exactly (to rounding) for the Gaussian window
and all kernel variants whose spectra are polynomial multiples of FTg.
With constant sigma on the sample grid b_i = t_0 + i/fs the phase is
exp(i*2*pi*m*i/N), so each scale row of each field is one length-N inverse
FFT (Daubechies, Lu & Wu, ACHA 30(2), 2011); any other column is one
kernel product.  Derivatives in scale and time are taken analytically on
the same lattice -- no finite differences -- so the phase transforms built
on top inherit machine-precision consistency.

Real-valued signals are handled by folding the DFT onto bins m = 0..N/2
with interior bins doubled: the stack then equals the transform of the
analytic signal sum_k A_k exp(i*2*pi*phi_k) with the full amplitudes A_k,
which is the convention every downstream bound assumes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .separation import SigmaProfile, ZoneSet
from .signals import SampledSignal
from .windows import FOUR_PI2, TWO_PI, WindowModel, gauss_hat

Array = np.ndarray


@dataclass(frozen=True)
class ScaleGrid:
    """Geometric scale grid a_j = a_min * 2**(j/voices), plus its log step."""

    a: Array
    dlog: float

    @staticmethod
    def size(a_min: float, a_max: float, voices: int) -> int:
        """Number of scales from_range puts on [a_min, a_max]: one more
        than voices * log2(a_max / a_min) rounded up, counted in integers
        so that the product never rounds onto a whole number."""
        if a_min <= 0.0 or a_max <= a_min:
            raise ValueError(f"need 0 < a_min < a_max, got ({a_min}, {a_max})")
        if voices < 1:
            raise ValueError(f"voices must be >= 1, got {voices}")
        num, den = math.log2(a_max / a_min).as_integer_ratio()
        return -(-voices * num // den) + 1

    @classmethod
    def from_range(cls, a_min: float, a_max: float,
                   voices: int = 32) -> "ScaleGrid":
        a = a_min * 2.0 ** (np.arange(cls.size(a_min, a_max, voices)) / voices)
        return cls(a=a, dlog=math.log(2.0) / voices)

    @classmethod
    def from_zones(cls, zs: ZoneSet, voices: int = 32,
                   margin: float = 1.25) -> "ScaleGrid":
        """Grid covering every valid zone cell with a multiplicative margin."""
        return cls.from_range(*zs.span(margin), voices=voices)

    def __len__(self) -> int:
        return len(self.a)


def _spectrum_size(x: Array) -> int:
    """Bins spectral_coefficients keeps: N of complex x, N/2 + 1 of real."""
    return x.size if np.iscomplexobj(x) else x.size // 2 + 1


def spectral_coefficients(sig: SampledSignal) -> tuple[Array, Array]:
    """(xi, c): bin frequencies and transform weights for the sample set.

    Complex input keeps all N bins at xi_m = m*fs/N.  Real input folds onto
    m = 0..N/2, doubling interior bins so the stack matches the transform of
    the analytic signal with full component amplitudes.
    """
    x = np.asarray(sig.x)
    n = len(x)
    X = np.fft.fft(x) / n
    xi = np.arange(_spectrum_size(x)) * sig.fs / n
    if np.iscomplexobj(x):
        return xi, X
    half = n // 2
    c = 2.0 * X[: xi.size]
    c[0] = X[0]
    if n % 2 == 0:
        c[half] = X[half]
    return xi, c


@dataclass(frozen=True)
class CwtStack:
    """Wavelet coefficients plus analytic derivative lattices.

    Field names give the analysis kernel: w uses g, w_tg uses t*g, w_tgp
    uses t*g'; as g' = -t*g, the t**2*g and g' transforms are -w_tgp and
    -w_tg.  da_/db_ prefixes are exact scale/time derivatives of the
    corresponding field; dadb_w is the mixed second derivative of w.  A
    built field has shape (len(grid), n_times); a field compute_stack was
    not asked for is None.
    """

    grid: ScaleGrid
    profile: SigmaProfile
    wm: WindowModel
    sig: SampledSignal
    w: Array
    w_tg: Array | None = None
    w_tgp: Array | None = None
    da_w: Array | None = None
    db_w: Array | None = None
    da_w_tg: Array | None = None
    da_w_tgp: Array | None = None
    dadb_w: Array | None = None

    @property
    def a(self) -> Array:
        return self.grid.a

    @property
    def b(self) -> Array:
        return self.profile.b


FIELD_NAMES = ("w", "w_tg", "w_tgp", "da_w", "db_w", "da_w_tg", "da_w_tgp",
               "dadb_w")

# Each field's kernel, from nu, gh = gauss_hat(nu), v_dg = -4*pi**2*nu,
# ds = d(nu)/da, dln = sigma'/sigma and i2pix = i*2*pi*xi.  A kernel
# is P(nu)*gh: P is 1, -2*pi*i*nu or 4*pi**2*nu**2 - 1, or a nu-derivative
# Q = P' - 4*pi**2*nu*P, written in the Horner order of numpy's polyval
# over ascending coefficients: FOUR_PI2 * nu * nu - 1.0, never
# FOUR_PI2 * (nu * nu).  A complex Horner step on a real nu adds only exact
# zeros, so this real arithmetic gives polyval's floats and the fields keep
# their bytes.
_KERNELS = {
    "w": lambda nu, gh, v_dg, ds, dln, i2pix: gh,
    "w_tg": lambda nu, gh, v_dg, ds, dln, i2pix: 1j * (-TWO_PI * nu * gh),
    "w_tgp": lambda nu, gh, v_dg, ds, dln, i2pix:
        (FOUR_PI2 * nu * nu - 1.0) * gh,
    "da_w": lambda nu, gh, v_dg, ds, dln, i2pix: ds * v_dg * gh,
    "db_w": lambda nu, gh, v_dg, ds, dln, i2pix:
        i2pix * gh + dln * nu * v_dg * gh,
    "da_w_tg": lambda nu, gh, v_dg, ds, dln, i2pix:
        1j * (ds * (FOUR_PI2 * TWO_PI * nu * nu - TWO_PI) * gh),
    "da_w_tgp": lambda nu, gh, v_dg, ds, dln, i2pix:
        ds * ((3.0 * FOUR_PI2 - FOUR_PI2 * FOUR_PI2 * nu * nu) * nu) * gh,
    "dadb_w": lambda nu, gh, v_dg, ds, dln, i2pix: ds * (i2pix * v_dg + dln * (
        v_dg + nu * (FOUR_PI2 * FOUR_PI2 * nu * nu - FOUR_PI2))) * gh,
}


def takes_fft(sig: SampledSignal, profile: SigmaProfile) -> bool:
    """Whether compute_stack takes one inverse FFT per field: constant
    sigma and sigma' with profile.b equal to sig.t."""
    return bool(np.all(profile.sigma == profile.sigma[0])
                and np.all(profile.dsigma == profile.dsigma[0])
                and np.array_equal(profile.b, sig.t))


# Bytes of stack fields in one block of a walk (1 MiB), and, by the count
# of fields built, bytes the kernel product holds per scale and spectral
# bin (the detuning, two columns' Gaussians, the copies of a column's rows
# above gamma1 and one kernel with its temporaries, as each kernel is
# freed once used): an upper bound of tracemalloc's peak.
_BLOCK_BYTES = 2 ** 20
_KERNEL_BYTES = {3: 80, 8: 90}


def _block_step(scales: int, n: int, fft: bool, fields: int) -> int:
    """Scales (inverse FFT) or columns (kernel product) a block takes: as
    many as keep its fields within _BLOCK_BYTES, at least one, at most all."""
    unit = 16 * fields * (n if fft else scales)
    return min(max(1, _BLOCK_BYTES // unit), scales if fft else n)


def stack_walk(sig: SampledSignal, profile: SigmaProfile, scales: int,
               fields: int) -> tuple[Iterator[tuple[slice, slice]], int, int]:
    """(blocks, cells, kernel bytes) of the walk over scales by profile's
    columns in that many fields: the blocks as (scales, columns) slices in
    walk order, of scales where compute_stack takes the inverse FFT and of
    columns where it takes the kernel product (whose column loop would
    rerun for every block of scales); the largest block's cells; and the
    kernel product's bytes, 0 for the inverse FFT.  It counts in integers
    and allocates nothing of size scales."""
    n, fft = profile.b.size, takes_fft(sig, profile)
    step = _block_step(scales, n, fft, fields)
    if fft:
        return (((slice(k, k + step), slice(None))
                 for k in range(0, scales, step)), step * n, 0)
    return (((slice(None), slice(k, k + step)) for k in range(0, n, step)),
            step * scales,
            _KERNEL_BYTES[fields] * scales * _spectrum_size(sig.x))


def compute_stack(sig: SampledSignal, profile: SigmaProfile, wm: WindowModel,
                  grid: ScaleGrid, fields=FIELD_NAMES,
                  gamma1: float | None = None) -> CwtStack:
    """Evaluate the named stack fields (default: all eight) on the
    (scale, time) lattice.

    w is always built; a field not named is None, not zeros, and a named
    field has the same bytes as in a stack of all eight.  A column depends
    on b only through (sigma(b), sigma'(b)): its kernels (the t**2*g and
    g' transforms are -w_tgp and -w_tg) multiply its own phase factors.
    Columns follow profile.b (off-sample columns analyze the trigonometric
    interpolant).  When takes_fft holds, the kernels are built once and
    each field is one inverse FFT along the bins, which evaluates the
    columns at t_0 + i/fs: for a sample file that is its nominal grid,
    from which the reader accepts times only within 1e-9 of a step.
    Otherwise each column is one kernel product per field.  Either way a
    cell depends only on its own scale and column, so a stack computed on
    a slice of the grid's scales or of the profile's columns is that slice
    of the whole stack, bit for bit.

    With gamma1 set, w is still exact on every cell, and every other
    field is exact on each cell with |w| > gamma1, the cells the phase
    transforms read; below gamma1 its value is unspecified.  The
    kernel-product path takes a column's other products only over its
    scales above gamma1 (over all of them where only one is) and writes
    0 on the rest; the inverse-FFT path ignores gamma1, so there every
    field is exact.
    """
    unknown = set(fields) - set(FIELD_NAMES)
    if unknown:
        raise ValueError(f"unknown stack fields {sorted(unknown)}")
    names = [name for name in FIELD_NAMES if name == "w" or name in fields]
    xi, coef = spectral_coefficients(sig)
    shift = profile.b - float(sig.t[0])

    out = {name: np.empty((len(grid.a), len(profile.b)), dtype=complex)
           for name in names}
    i2pix = 1j * TWO_PI * xi
    detune = wm.mu - np.outer(grid.a, xi)
    n = len(sig.t)
    on_grid = takes_fft(sig, profile)
    for i in range(len(shift)):
        s = profile.sigma[i]
        nu = s * detune
        gh = gauss_hat(nu)
        if on_grid:
            parts = (nu, gh, -FOUR_PI2 * nu, -s * xi,
                     profile.dsigma[i] / s, i2pix)
            # each kernel is built as its transform needs it and freed
            # once used, so the next one reuses its memory
            del detune
            for name in names:
                np.multiply(np.fft.ifft(_KERNELS[name](*parts) * coef, n=n,
                                        axis=1), n, out=out[name])
            break
        # an (N, 1) column keeps the matrix-vector product's rounding, and
        # so does a product over two or more of its rows, but not over
        # one: a column with one scale above gamma1 takes all its rows
        ce = coef[:, None] * np.exp(np.outer(i2pix, shift[i:i + 1]))
        out["w"][:, i:i + 1] = gh @ ce
        rows = slice(None)
        if gamma1 is not None:
            above = np.flatnonzero(np.abs(out["w"][:, i]) > gamma1)
            for name in names[1:]:
                out[name][:, i] = 0.0
            if above.size == 0:
                continue
            if above.size > 1:
                rows = above
        # each kernel is freed once used, so one at a time is alive
        parts = (nu[rows], gh[rows], -FOUR_PI2 * nu[rows],
                 -s * xi,                       # d(nu)/da per bin
                 profile.dsigma[i] / s, i2pix)
        for name in names[1:]:
            out[name][rows, i:i + 1] = _KERNELS[name](*parts) @ ce

    return CwtStack(grid=grid, profile=profile, wm=wm, sig=sig, **out)


def time_derivative_residual(stack: CwtStack) -> Array:
    """Defect of the exact time-derivative identity on the lattice.

    db_w should equal (i*2*pi*mu/a - sigma'/sigma)*w
    - (sigma'/sigma)*w_tgp + w_tg/(a*sigma); the identity holds bin by bin,
    so the residual is pure rounding noise (~1e-12 relative) regardless of
    the signal.
    """
    a = stack.a[:, None]
    sig = stack.profile.sigma[None, :]
    dln = (stack.profile.dsigma / stack.profile.sigma)[None, :]
    rhs = (1j * TWO_PI * stack.wm.mu / a - dln) * stack.w \
        - dln * stack.w_tgp + stack.w_tg / (a * sig)
    return stack.db_w - rhs
