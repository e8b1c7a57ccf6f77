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
from functools import lru_cache
from typing import Callable, Iterable, NamedTuple

import numpy as np

from .cwt import FIELD_NAMES, CwtStack, ScaleGrid
from .separation import SigmaProfile
from .signals import _CHUNK_CELLS, write_table

Array = np.ndarray


@dataclass(frozen=True)
class PhasePlane:
    """Instantaneous-frequency estimates on the stack lattice.

    omega is in Hz, NaN on every cell the transform's thresholds drop, so
    its NaN pattern is the plane's only mask: valid, the finite cells, is
    derived from it.  gamma2 is the conditioning floor of a second-order
    plane.
    """

    omega: Array
    gamma2: float | None = None

    @property
    def valid(self) -> Array:
        return np.isfinite(self.omega)


# the stack fields each order's phase transform reads
PHASE_FIELDS = {1: ("w", "db_w", "w_tgp"), 2: FIELD_NAMES}


def _first_order(stack: CwtStack) -> Array:
    """db_w/(i*2*pi*w) + (sigma'/(i*2*pi*sigma))*(1 + w_tgp/w) on every
    cell: the one first-order estimate, phase_first's and the fallback's."""
    dln = (stack.profile.dsigma / stack.profile.sigma)[None, :]
    # one expression, so numpy reuses its temporaries
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return stack.db_w / (2j * np.pi * stack.w) \
            + (dln / (2j * np.pi)) * (1.0 + stack.w_tgp / stack.w)


def _above_gamma1(stack: CwtStack, gamma1: float) -> Array:
    """Cells with |w| > gamma1, the coefficient threshold of every plane."""
    if gamma1 <= 0.0:
        raise ValueError(f"gamma1 must be positive, got {gamma1}")
    return np.abs(stack.w) > gamma1


def phase_first(stack: CwtStack, gamma1: float) -> PhasePlane:
    """First-order adaptive phase transform.

    omega = Re[ db_w/(i*2*pi*w) + sigma'/(i*2*pi*sigma)
                + (sigma'/sigma) * w_tgp/(i*2*pi*w) ]
    on cells with |w| > gamma1.  The two sigma' terms vanish for constant
    window width, recovering the conventional estimate.
    """
    valid = _above_gamma1(stack, gamma1)
    return PhasePlane(omega=np.where(valid, _first_order(stack).real, np.nan))


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
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        r0 = numer / denom
        cond = np.abs(denom) / np.square(np.abs(stack.w))
    return r0, cond


def default_gamma2(stack: CwtStack, gamma1: float) -> float:
    """Median-based conditioning floor: 1e-4 of the typical |d/da(a*w_tg/w)|."""
    return phase_second(stack, gamma1).gamma2


class SecondOrderCells(NamedTuple):
    """What a second-order plane and its squeeze read of each cell, so
    that a stack taken in blocks can wait for its default gamma2 holding
    these, not the stack: w, the conditioning, and the first- and
    second-order estimates.  cond and first are NaN on every cell with
    |w| <= gamma1, so their NaN pattern is the gamma1 mask."""

    w: Array
    cond: Array
    first: Array
    second: Array

    @classmethod
    def of(cls, stack: CwtStack, gamma1: float) -> "SecondOrderCells":
        below = ~_above_gamma1(stack, gamma1)
        r0, cond = chirp_rate_estimate(stack)
        a = stack.a[:, None]
        first = _first_order(stack)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            second = (first - a * (stack.w_tg / (2j * np.pi * stack.w))
                      * r0).real
        first = first.real
        # in place, once second is formed: the block holds no more memory
        cond[below] = np.nan
        first[below] = np.nan
        return cls(stack.w, cond, first, second)

    def plane(self, gamma2: float | None = None,
              hybrid: bool = False) -> PhasePlane:
        """phase_second's plane of these cells."""
        if gamma2 is None:
            vals = self.cond[np.isfinite(self.cond)]
            gamma2 = 1e-4 * (float(np.median(vals, overwrite_input=True))
                             if vals.size else 1.0)
            del vals            # the plane's arrays reuse its memory
        if gamma2 < 0.0:
            raise ValueError(f"gamma2 must be nonnegative, got {gamma2}")
        with np.errstate(invalid="ignore"):
            mask2 = np.isfinite(self.cond) & (self.cond > gamma2)
        return PhasePlane(omega=np.where(mask2, self.second,
                                         self.first if hybrid else np.nan),
                          gamma2=gamma2)


def phase_second(stack: CwtStack, gamma1: float, gamma2: float | None = None,
                 hybrid: bool = False) -> PhasePlane:
    """Second-order adaptive phase transform (chirp-corrected).

    omega = Re[ db_w/(i*2*pi*w) + (sigma'/(i*2*pi*sigma))*(1 + w_tgp/w)
                - a*(w_tg/(i*2*pi*w))*r0 ]
    where r0 comes from chirp_rate_estimate.  Cells need |w| > gamma1 and
    conditioning above gamma2 (default: 1e-4 of the median conditioning on
    thresholded cells).  With hybrid=True, poorly conditioned cells fall
    back to the first-order estimate instead of NaN.
    """
    return SecondOrderCells.of(stack, gamma1).plane(gamma2, hybrid)


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
        return cls.for_grid(stack.grid, stack.wm.mu)

    @classmethod
    def for_grid(cls, grid: ScaleGrid, mu: float) -> "SqueezeConfig":
        """0.25 Hz bins over the grid's frequencies mu/a, padded 25%."""
        return cls(xi_min=mu / grid.a[-1] / 1.25, xi_max=mu / grid.a[0] * 1.25)

    def bin_limits(self) -> tuple[int, int]:
        """First and last bin index l, found without allocating."""
        return (int(math.floor(self.xi_min / self.dxi + 0.5)),
                int(math.ceil(self.xi_max / self.dxi - 0.5)))

    def bin_centers(self) -> Array:
        l_min, l_max = self.bin_limits()
        return np.arange(l_min, l_max + 1) * self.dxi


@dataclass
class TfPlane:
    """Squeezed time-frequency plane: complex mass density per (xi, b),
    held as its live cells.

    slot (int32, bins by times) is 0 on a cell nothing was squeezed into,
    else 1 + the cell's index into mass; mass holds the live cells' values
    after mass[0] = 0, and live counts them.  A column has at most one
    live cell per scale and one per bin, so empty allocates mass once, at
    1 + min(bins, scales) * times values, and it never grows.  An
    untouched cell is +0.0 in mass[0] as in a dense plane, so rows' gather
    mass[slot[rows, cols]] has the dense plane's bits.
    """

    xi: Array
    b: Array
    slot: Array
    mass: Array
    dxi: float
    live: int = 0

    @staticmethod
    def nbytes(bins: int, scales: int, times: int) -> int:
        """Bytes empty allocates for bins by times and that many scales,
        counted in integers: a 4-byte slot a cell, 16 a mass value."""
        return 4 * bins * times + 16 * (1 + min(bins, scales) * times)

    @classmethod
    def empty(cls, cfg: SqueezeConfig, b: Array, scales: int) -> "TfPlane":
        """The plane of cfg's bins by the times b, nothing squeezed into it
        yet, for a lattice of that many scales."""
        xi = cfg.bin_centers()
        return cls(xi=xi, b=b, slot=np.zeros((xi.size, b.size), np.int32),
                   mass=np.zeros(1 + min(xi.size, scales) * b.size, complex),
                   dxi=cfg.dxi)

    def rows(self, rows: slice = slice(None),
             cols: slice = slice(None)) -> Array:
        """The dense plane's block of rows by cols, bit for bit."""
        return self.mass[self.slot[rows, cols]]

    @property
    def values(self) -> Array:
        """The whole dense plane."""
        return self.rows()


def lattice_index(omega: Array, cfg: SqueezeConfig) -> Array:
    """Bin index on the squeeze lattice for each frequency estimate.

    Estimates round to the nearest bin center with exact half-way ties
    resolved toward the lower bin; out-of-range values are clipped to the
    end bins.  Non-finite estimates map to -1.  squeeze() uses exactly
    this rule, so window sums over the squeezed plane and direct sums
    over stack cells selected through lattice_index agree cell for cell.
    """
    l_min, l_max = cfg.bin_limits()
    omega = np.asarray(omega, dtype=float)
    idx = np.full(omega.shape, -1, dtype=np.int64)
    ok = np.isfinite(omega)
    r = omega[ok] / cfg.dxi + 0.5
    j = np.floor(r).astype(np.int64)
    j[r == np.floor(r)] -= 1                # exact ties go to the lower bin
    idx[ok] = np.clip(j - l_min, 0, l_max - l_min)
    return idx


def scatter_add(tf: TfPlane, omega: Array, w: Array, dlog: float,
                cfg: SqueezeConfig, first: int = 0) -> None:
    """Add w * dlog / dxi of each cell with a finite omega into tf at its
    bin on cfg's lattice and in its column, omega's column j being tf's
    column first + j.

    The cells go in through one flat index of tf.slot: a chunk's cells
    not yet live are numbered next, in ascending flat index, and then one
    np.add.at adds every cell into mass.  The columns go about
    _CHUNK_CELLS cells at a time, so the binning's temporaries are bounded
    by the chunk, and a plane cell receives its column's cells in
    ascending scale order, starting from +0.0: a walk over blocks of
    scales, or of columns, gives the bits of one call on the whole
    lattice, and those of a dense plane's np.add.at.
    """
    flat, width = tf.slot.reshape(-1), tf.slot.shape[1]
    scales, n = omega.shape
    step = max(1, _CHUNK_CELLS // max(scales, 1))
    for c in range(0, n, step):
        idx = lattice_index(omega[:, c:c + step], cfg)
        sel = idx >= 0
        keys = idx[sel] * width + (np.nonzero(sel)[1] + first + c)
        # each new key once, ascending: the first of each run of equal
        # keys once sorted (np.unique's hashing costs several times this)
        new = np.sort(keys[flat[keys] == 0])
        first_of_run = np.ones(new.size, dtype=bool)
        np.not_equal(new[1:], new[:-1], out=first_of_run[1:])
        new = new[first_of_run]
        flat[new] = np.arange(tf.live + 1, tf.live + 1 + new.size)
        tf.live += new.size
        np.add.at(tf.mass, flat[keys],
                  w[:, c:c + step][sel] * (dlog / cfg.dxi))


def squeeze(stack: CwtStack, plane: PhasePlane,
            cfg: SqueezeConfig) -> TfPlane:
    """Reassign masked coefficients onto the frequency lattice.

    T(xi_l, b) collects w * dlog / dxi from every valid cell whose
    phase-transform value rounds to bin l; summing T * dxi over l then
    reproduces the masked mass sum(w * dlog) exactly, column by column.
    Only w of the stack is read.
    """
    tf = TfPlane.empty(cfg, stack.b, stack.w.shape[0])
    scatter_add(tf, plane.omega, stack.w, stack.grid.dlog, cfg)
    return tf


def _raise_tops(tops: dict[str, float], stack: CwtStack) -> None:
    """Raise each tops[name] to the largest |re| or |im| of stack's field,
    nan if any cell is nan: two passes over a float view, no temporary
    the size of a field."""
    for name in tops:
        parts = getattr(stack, name).view(np.float64)
        tops[name] = float(np.maximum(tops[name], max(
            float(np.max(parts)), -float(np.min(parts)))))


def _stack_defect(tops: dict[str, float], variant: str, grid: ScaleGrid,
                  profile: SigmaProfile) -> str | None:
    """Why a stack whose fields reach tops fails the walk, or None: a
    field the variant reads is not finite or, for a second-order variant,
    so large that the products of two fields in chirp_rate_estimate
    overflow."""
    bad = next((name for name in tops if not math.isfinite(tops[name])), None)
    if bad is not None:
        return f"{bad} is not finite"
    if variant == "T1":
        return None
    bad = max(tops, key=tops.get)
    dln = float(np.max(np.abs(profile.dsigma / profile.sigma)))
    # a cell's modulus is at most sqrt(2) * top, so |numerator| and
    # |denominator| of the chirp-rate estimate are at most
    # 4 * top**2 * (1 + a + |sigma'/sigma|); Python floats, so an
    # overflow is inf, not a warning
    if math.isfinite(4.0 * tops[bad] * tops[bad]
                     * (1.0 + float(grid.a[-1]) + dln)):
        return None
    return (f"{bad} reaches {tops[bad]:g}, so the products of two fields "
            f"in the {variant} phase transform overflow")


# By the count of fields the variant reads (3 for T1, 8 for T2 and S2),
# bytes a block holds per cell (its fields, the transform's temporaries and
# the phase transform's): upper bounds of tracemalloc peaks.
_BLOCK_CELL_BYTES = {3: 128, 8: 256}


def walk_nbytes(order: int, gamma2: float | None, bins: int, scales: int,
                times: int, block: int) -> int:
    """Bytes walk holds for a stack of scales by times in blocks of at most
    block cells, onto bins frequency bins: the squeezed plane, the
    per-cell arrays (omega, 8 bytes a cell, or, while the plane waits for
    its default gamma2, the SecondOrderCells and the plane made of them,
    52) and a block with its working memory."""
    cell = 52 if order == 2 and gamma2 is None else 8
    return TfPlane.nbytes(bins, scales, times) + cell * scales * times \
        + _BLOCK_CELL_BYTES[len(PHASE_FIELDS[order])] * block


def walk(stacks: Iterable[tuple[slice, slice, CwtStack]], grid: ScaleGrid,
         profile: SigmaProfile, cfg: SqueezeConfig, order: int,
         gamma1: float, gamma2: float | None = None, hybrid: bool = False
         ) -> tuple[PhasePlane, TfPlane, dict[str, float]]:
    """(phase plane, squeezed plane on cfg's lattice, each field's largest
    |re| or |im|) of the stack on grid by profile's columns, given as
    (rows, cols, block): block is the stack's [rows, cols] in at least
    PHASE_FIELDS[order], as cwt.stack_walk chooses and compute_stack builds
    them.  The plane is phase_first's, or phase_second's (gamma2, hybrid).

    Each block gets the finite check, its phase transform and scatter-add,
    and is dropped: drop it too before building the next.  A plane cell
    still receives its column's cells in ascending scale order, so both
    planes have the whole stack's bits.  The default gamma2 waits for
    every block's SecondOrderCells.  After a block fails the check the
    rest are only measured, so the ValueError names what a whole stack's
    check would: a field not finite, or too large for the second order's
    products, or an omega that overflows.
    """
    fields, (scales, n) = PHASE_FIELDS[order], (grid.a.size, profile.b.size)
    variant = "T1" if order == 1 else "S2" if hybrid else "T2"
    deferred = order == 2 and gamma2 is None
    if deferred:
        cells = SecondOrderCells(*(np.empty((scales, n), dtype=t)
                                   for t in (complex, float, float, float)))
    else:
        omega = np.empty((scales, n))
        tf = TfPlane.empty(cfg, profile.b, scales)
    tops, defect = dict.fromkeys(fields, 0.0), None
    for rows, cols, stack in stacks:
        _raise_tops(tops, stack)
        defect = _stack_defect(tops, variant, grid, profile)
        if defect is None and deferred:
            for whole, part in zip(cells, SecondOrderCells.of(stack, gamma1)):
                whole[rows, cols] = part
        elif defect is None:
            omega[rows, cols] = phase_first(stack, gamma1).omega \
                if order == 1 else phase_second(
                    stack, gamma1, gamma2=gamma2, hybrid=hybrid).omega
            scatter_add(tf, omega[rows, cols], stack.w, grid.dlog, cfg,
                        first=cols.start or 0)
        del stack               # before the next block is built
    if defect is None:
        if deferred:
            plane, w = cells.plane(hybrid=hybrid), cells.w
            del cells, whole    # the scatter's temporaries reuse their memory
            tf = TfPlane.empty(cfg, profile.b, scales)
            scatter_add(tf, plane.omega, w, grid.dlog, cfg)
        else:
            plane = PhasePlane(omega=omega,
                               gamma2=gamma2 if order == 2 else None)
        if np.isinf(plane.omega).any():
            defect = f"the {variant} phase transform overflows"
    if defect is not None:
        raise ValueError(defect)
    return plane, tf, tops


def conservation_defect(stack: CwtStack, plane: PhasePlane,
                        tf: TfPlane) -> Array:
    """Per-column |sum_l T*dxi - sum_masked w*dlog| (should be ~rounding)."""
    masked = np.where(plane.valid, stack.w, 0.0).sum(axis=0) * stack.grid.dlog
    squeezed = tf.values.sum(axis=0) * tf.dxi
    return np.abs(squeezed - masked)


# ------------------------------------------------------------------ output

def tf_to_csv(tf: TfPlane, path) -> None:
    @lru_cache(maxsize=1)
    def block(start: int, stop: int) -> Array:
        return tf.rows(slice(start, stop))

    def part(name: str) -> Callable[[slice], Array]:
        return lambda rows: getattr(block(rows.start, rows.stop), name)
    re, im = part("real"), part("imag")
    # np.hypot matches Python's abs(complex) bit for bit; np.abs does not.
    # A chunk's rows at a time, gathered once for its three columns, so
    # no full-size plane or |T| exists.
    write_table(path, "xi,b,re,im,abs", tf.xi[:, None], tf.b, re, im,
                lambda rows: np.hypot(re(rows), im(rows)))


def tf_to_pgm(tf: TfPlane, path) -> None:
    """8-bit grayscale heat map (high frequency at the top), binary PGM.

    A pixel is floor(256*|T|/max|T|) capped at 255.  |T| is taken on the
    live cells and mass[0] = 0 alone, about _CHUNK_CELLS at a time, once
    for the maximum and again for a shade per mass value; the image is
    then gathered from the shades through the slots a block of the
    plane's rows at a time, from the top row, so no full-size float array
    exists.
    """
    L, n = tf.slot.shape
    live = tf.mass[:tf.live + 1]
    chunks = range(0, live.size, _CHUNK_CELLS)
    # np.max, not max: a nan anywhere makes the maximum nan
    top = float(np.max([np.max(np.abs(live[k:k + _CHUNK_CELLS]))
                        for k in chunks]))
    shade = np.empty(live.size, dtype=np.uint8)
    for k in chunks:
        mag = np.abs(live[k:k + _CHUNK_CELLS])
        if top != 0.0:
            mag *= 256.0
            mag /= top
            np.floor(mag, out=mag)
            np.minimum(mag, 255.0, out=mag)
        shade[k:k + _CHUNK_CELLS] = mag.astype(np.uint8)
    step = max(1, _CHUNK_CELLS // max(n, 1))
    with open(path, "wb") as fh:
        fh.write(f"P5\n{n} {L}\n255\n".encode("ascii"))
        for r in reversed(range(0, L, step)):
            fh.write(shade[tf.slot[r:r + step][::-1]].tobytes())
