"""Multicomponent test signals with analytic ground truth.

A component is an oscillation A*cos(2*pi*phi(t)) (real mode) or
A*exp(i*2*pi*phi(t)) (complex mode) with a constant amplitude A and a
polynomial phase phi measured in cycles.  Its data are the phase
coefficients and A, and every derivative of phi is exact, so window
selection, zone geometry, and error bounds are evaluated from exact
ground truth, never from finite differences.  The regularity parameters
of the signal class (chirp rate, chirp-rate drift) are extracted by
scanning those derivatives on an oversampled grid.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .windows import _polyval

Array = np.ndarray


@dataclass(frozen=True)
class ComponentTruth:
    """One oscillatory component: a phase polynomial and an amplitude.

    coeffs holds the phase polynomial's coefficients (cycles), ascending;
    amplitude is the constant A, so A' is 0.  Built by poly_phase (tone
    and linear_chirp are its shorthands); equal data compare equal.
    """

    coeffs: tuple[float, ...]
    amplitude: float

    def phase(self, t: Array, m: int = 0) -> Array:
        """The exact m-th derivative of the phase at t: phi (m = 0), the
        instantaneous frequency phi', the chirp rate phi'', and so on.
        Each step of numpy.polynomial's Polynomial(coeffs).deriv(m)(t) is
        taken as it takes it, so the values have its bits."""
        if m < 0:
            raise ValueError(f"derivative order must be nonnegative, got {m}")
        c = np.array(self.coeffs, dtype=float, ndmin=1)
        if m >= len(c):
            c = c[:1] * 0
        else:
            for _ in range(m):
                c = np.arange(1, len(c)) * c[1:]
        # Polynomial maps t from its domain to its window, both [-1, 1]:
        # 0.0 + 1.0*t, which turns -0.0 into +0.0
        return _polyval(0.0 + 1.0 * np.asarray(t, dtype=float), c)

    def dphase(self, t: Array) -> Array:
        return self.phase(t, 1)

    def amp(self, t: Array) -> Array:
        return np.full_like(np.asarray(t, dtype=float), self.amplitude)

    def evaluate(self, t: Array, analytic: bool) -> Array:
        osc = np.exp(2j * np.pi * self.phase(t)) if analytic \
            else np.cos(2.0 * np.pi * self.phase(t))
        return self.amplitude * osc


def tone(freq: float, amp: float = 1.0) -> ComponentTruth:
    """Pure tone at the given frequency (Hz): poly_phase((0, freq))."""
    if freq <= 0.0:
        raise ValueError(f"tone frequency must be positive, got {freq}")
    return poly_phase((0.0, freq), amp)


def linear_chirp(f0: float, rate: float, amp: float = 1.0) -> ComponentTruth:
    """Linear chirp at f0 + rate*t Hz: poly_phase((0, f0, rate/2))."""
    return poly_phase((0.0, f0, 0.5 * rate), amp)


def poly_phase(coeffs: Sequence[float], amp: float = 1.0) -> ComponentTruth:
    """Polynomial phase (cycles), coefficients in ascending order, constant
    amplitude."""
    return ComponentTruth(tuple(map(float, coeffs)), float(amp))


@dataclass(frozen=True)
class SignalSpec:
    """Sampling plan plus ground-truth components.

    mode 'real' synthesizes sum_k A_k cos(2 pi phi_k); mode 'complex'
    synthesizes the analytic version sum_k A_k exp(i 2 pi phi_k).
    """

    components: tuple[ComponentTruth, ...]
    fs: float
    n: int
    mode: str = "real"

    def __post_init__(self):
        if not self.components:
            raise ValueError("need at least one component")
        if self.fs <= 0.0:
            raise ValueError(f"fs must be positive, got {self.fs}")
        if self.n < 2:
            raise ValueError(f"n must be at least 2, got {self.n}")
        if self.mode not in ("real", "complex"):
            raise ValueError(f"mode must be 'real' or 'complex', "
                             f"got {self.mode!r}")
        object.__setattr__(self, "components", tuple(self.components))

    def times(self) -> Array:
        return np.arange(self.n) / self.fs

    @property
    def duration(self) -> float:
        return self.n / self.fs


@dataclass(frozen=True)
class SampledSignal:
    """Sample times t and values x (real or complex)."""

    t: Array
    x: Array

    def __post_init__(self):
        if self.t.shape != self.x.shape:
            raise ValueError("t and x must have matching shapes")

    @property
    def fs(self) -> float:
        """Sampling rate implied by the time column (1 for one sample)."""
        n = len(self.t)
        return (n - 1) / (self.t[-1] - self.t[0]) if n > 1 else 1.0


def synthesize(spec: SignalSpec) -> SampledSignal:
    t = spec.times()
    analytic = spec.mode == "complex"
    x = np.zeros(spec.n, dtype=complex if analytic else float)
    for comp in spec.components:
        x = x + comp.evaluate(t, analytic)
    return SampledSignal(t=t, x=x)


def tracks(spec: SignalSpec, b) -> tuple[Array, Array, Array]:
    """Frequency phi_k', chirp rate phi_k'' and amplitude A_k on the grid b.

    Each is an array of shape (K, len(b)), row k for component k: the one
    place the components are evaluated on a time grid, so that per-pair
    quantities are broadcasts over rows.
    """
    b = np.asarray(b, dtype=float)
    comps = spec.components
    return (np.stack([c.phase(b, 1) for c in comps]),
            np.stack([c.phase(b, 2) for c in comps]),
            np.stack([c.amp(b) for c in comps]))


def check_order(f: Array) -> None:
    """Raise ValueError unless the (K, n) frequency tracks f increase
    strictly from each row to the next, at every time."""
    if np.any(f[1:] <= f[:-1]):
        raise ValueError("components must be ordered with strictly "
                         "increasing instantaneous frequency")


@dataclass(frozen=True)
class ClassParams:
    """Regularity parameters of the signal class: components with constant
    amplitudes A_k >= 0 (zero for a silent one) and ordered, positive
    instantaneous frequencies.  A constant A_k has A_k' = 0, so the class
    has no amplitude-drift parameter.

    eps2 -- sup |phi_k''(t)|           (chirp rate)
    eps3 -- sup |phi_k'''(t)|          (chirp-rate drift)
    """

    eps2: float
    eps3: float


# class_params scans this many points per sample interval
_OVERSAMPLE = 8


def class_params(spec: SignalSpec) -> ClassParams:
    """Scan the phase derivatives on an oversampled grid for the class
    bounds.

    A zero amplitude is admitted: no budget term divides by an amplitude,
    so a silent component adds exact zeros to every term it enters.  A
    negative one raises ValueError naming the component (1-based), as do
    misordered or nonpositive frequencies.
    """
    for idx, comp in enumerate(spec.components, start=1):
        if comp.amplitude < 0.0:
            raise ValueError(f"component {idx}: amplitude must not be "
                             f"negative, got {comp.amplitude:g}")
    t = np.arange(spec.n * _OVERSAMPLE) / (spec.fs * _OVERSAMPLE)
    f, fpp, _ = tracks(spec, t)
    eps3 = float(np.max(np.abs([c.phase(t, 3) for c in spec.components])))
    check_order(f)
    if np.any(f[0] <= 0.0):     # the lowest, given the order
        raise ValueError("instantaneous frequencies must stay positive")
    return ClassParams(eps2=float(np.max(np.abs(fpp))), eps3=eps3)


def example1_spec() -> SignalSpec:
    """Two crossing-free linear chirps, 12+0.5t Hz and 26-0.5t Hz."""
    return SignalSpec(
        components=(
            linear_chirp(12.0, 0.5),
            linear_chirp(26.0, -0.5),
        ),
        fs=256.0, n=256, mode="real",
    )


def example2_spec() -> SignalSpec:
    """Two steep linear chirps, 20+18t Hz and 42+36t Hz."""
    return SignalSpec(
        components=(
            linear_chirp(20.0, 18.0),
            linear_chirp(42.0, 36.0),
        ),
        fs=256.0, n=256, mode="real",
    )


# ------------------------------------------------------------------ CSV I/O

# cells per chunk of write_table: the writer's memory grows with the chunk
_CHUNK_CELLS = 8192


def write_table(path, header: str, *columns) -> None:
    """Write broadcast columns as a CSV table under a header line.

    The columns broadcast to one 2-D shape and are written row-major, one
    row per cell: coordinates go in as xi[:, None] and b, not as repeated
    copies.  Floats carry 17 significant digits ("nan" for NaN, "-0" for
    -0.0), int and bool columns are written as integers, and every line
    ends in LF.

    A column smaller than the table (an axis such as xi[:, None] or b) is
    formatted once, whole.  A cell whose full-size columns are all
    bit-equal to zero (most of a squeezed plane) is blank, and one whose
    full-size columns are all NaN floats (omega.csv off its support) is
    void: blank and void cells share one string per table column.  Cells
    go about _CHUNK_CELLS (at least one row) at a time, so memory is
    bounded by the chunk and the axes, not by the table: a chunk's lines
    are one "%" template, with a %.17g or %d slot per live cell and
    full-size column, filled by one "%" call.

    A column may also be a function of a row slice that returns those rows
    of a full-size float column (tf.csv's abs): it is computed a chunk at
    a time, so it never exists whole.
    """
    def joined(parts: list, rs: slice) -> Array:
        """",".join of strings and string arrays, broadcast, in rows rs."""
        out = np.full((1, 1), "", dtype=object)
        for i, p in enumerate(parts):
            out = out + ("," if i else "") + (p[rs] if np.ndim(p) > 1 else p)
        return out

    arrays = [None if callable(c) else np.atleast_2d(c) for c in columns]
    rows, width = np.broadcast_shapes(
        (1, 1), *(a.shape for a in arrays if a is not None))
    # a full-size column is read through a function of a row slice, as a
    # computed one is given; an axis becomes its strings, 2-D (rows, 1) if
    # they vary by row and 1-D if not, and a full-size column its format,
    # a live cell's slot
    full = {i: c if a is None else
            (lambda rs, a=a: np.broadcast_to(a, (rows, width))[rs])
            for i, (c, a) in enumerate(zip(columns, arrays))
            if a is None or a.size >= rows * width}
    kinds = ["f" if a is None else a.dtype.kind for a in arrays]
    fmts = ["%d" if k in "biu" else "%.17g" for k in kinds]
    if fmts:
        fmts[-1] += "\n"
    parts = [f if i in full else
             np.array(list(map(f.__mod__, a.ravel().tolist())), dtype=object)
             .reshape(a.shape if len(a) > 1 else -1)
             for i, (a, f) in enumerate(zip(arrays, fmts))]
    # a line is its row's prefix (the leading axes that vary by row) and
    # its cell's tail; a blank cell's tail prints 0 (+0.0, 0, False) in
    # each slot and, where every full-size column is a float, a void
    # cell's prints nan; formatted numbers hold no "%", so the slots are
    # a chunk template's only directives
    lead = next((i for i, p in enumerate(parts) if np.ndim(p) < 2),
                len(parts))
    prefix = np.broadcast_to(joined(parts[:lead] + [""], slice(None)),
                             (rows, 1))[:, 0].tolist()
    zeros = [p % 0 if isinstance(p, str) else p for p in parts[lead:]]
    nans = [p % math.nan if isinstance(p, str) else p for p in parts[lead:]] \
        if full and all(kinds[i] == "f" for i in full) else []
    step = max(1, _CHUNK_CELLS // max(width, 1))
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        for r in range(0, rows, step):
            rs = slice(r, r + step)
            if r == 0 or any(np.ndim(p) > 1 for p in zeros):
                slots, blanks = joined(parts[lead:], rs), joined(zeros, rs)
                voids = joined(nans, rs)
            chunk = [column(rs) for column in full.values()]
            live = np.zeros((len(prefix[rs]), width), dtype=bool)
            for c in chunk:
                live |= c.view(f"u{c.itemsize}") != 0
            cells = np.where(live, slots, blanks)
            if nans:
                void = np.logical_and.reduce([np.isnan(c) for c in chunk])
                live &= ~void
                cells[void] = np.broadcast_to(voids, void.shape)[void]
            values = [None] * (int(live.sum()) * len(chunk))
            for j, c in enumerate(chunk):
                values[j::len(chunk)] = c[live].tolist()
            fh.write("".join(map(str.__add__, prefix[rs], map(
                str.join, prefix[rs], cells.tolist()))) % tuple(values))


def signal_to_csv(sig: SampledSignal, path) -> None:
    """Write samples as t,re,im rows."""
    x = np.asarray(sig.x, dtype=complex)
    write_table(path, "t,re,im", sig.t, x.real, x.imag)


def read_table(path, header: str) -> Array:
    """Read a CSV table under the given header as a (rows, columns) array.

    Each row must carry at least the header's columns, and each of those
    must parse as a finite float; extra trailing columns are ignored.
    Every record must sit on one line (a quoted field may not run on to
    the next), so row i of the result is line i + 2 of the file.  The file
    is read as UTF-8, a byte that does not decode becoming U+FFFD.  Raises
    ValueError naming the offending file line otherwise, a line the csv
    module cannot split (such as an over-long field) included.
    """
    names = header.split(",")
    rows = []
    with open(path, newline="", encoding="utf-8", errors="replace") as fh:
        rd = csv.reader(fh)
        try:
            got = next(rd, [])
            if [c.strip() for c in got[:len(names)]] != names \
                    or rd.line_num > 1:
                raise ValueError(f"line 1: expected header {header}, got "
                                 f"{','.join(got)!r}")
            for line, row in enumerate(rd, start=2):
                if rd.line_num > line:
                    raise ValueError(f"line {line}: a quoted field runs on "
                                     f"to line {rd.line_num}")
                if len(row) < len(names):
                    raise ValueError(f"line {line}: expected {header}, got "
                                     f"{len(row)} value(s)")
                try:
                    vals = [float(v) for v in row[:len(names)]]
                except ValueError as exc:
                    raise ValueError(f"line {line}: {exc}") from None
                if not all(map(math.isfinite, vals)):
                    raise ValueError(f"line {line}: values must be finite, "
                                     f"got {','.join(row[:len(names)])}")
                rows.append(vals)
        except csv.Error as exc:
            raise ValueError(f"line {rd.line_num}: {exc}") from None
    return np.array(rows, dtype=float).reshape(len(rows), len(names))


def signal_from_csv(path) -> SampledSignal:
    """Read a t,re,im file with at least two finite, uniformly spaced rows.

    Raises ValueError naming the offending line on a short row, a value
    that is not a finite number, fewer than two samples, sample times off
    the uniform grid t_0 + i*dt by more than 1e-9*dt, or a dt whose
    sampling rate 1/dt overflows (named at the last line).
    """
    data = read_table(path, "t,re,im")
    if len(data) < 2:
        raise ValueError(f"line {len(data) + 1}: need at least two samples, "
                         f"got {len(data)}")
    tv, re, im = data.T.copy()
    # Python floats: a span past the float range is inf, without a warning
    dt = (float(tv[-1]) - float(tv[0])) / (len(tv) - 1)
    if dt > 0.0 and math.inf in (dt, 1.0 / dt):
        raise ValueError(f"line {len(tv) + 1}: sample times from "
                         f"{tv[0]:.17g} to {tv[-1]:.17g} give no finite "
                         "sampling rate")
    if dt > 0.0:
        bad = np.abs(tv - (tv[0] + np.arange(len(tv)) * dt)) > 1e-9 * dt
    else:                       # the first step that does not increase
        bad = np.r_[False, np.diff(tv) <= 0.0]
    if np.any(bad):
        raise ValueError(f"line {int(np.argmax(bad)) + 2}: sample times "
                         "must increase on a uniform grid")
    return SampledSignal(t=tv, x=re + 1j * im if np.any(im != 0.0) else re)
