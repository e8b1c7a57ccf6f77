"""Multicomponent test signals with analytic ground truth.

A component is an oscillation A*cos(2*pi*phi(t)) (real mode) or
A*exp(i*2*pi*phi(t)) (complex mode) with a constant amplitude A and a
polynomial phase phi measured in cycles.  Its data are the phase
coefficients and A, and every derivative of phi is exact, so window
selection, zone geometry, and error bounds are evaluated from exact
ground truth, never from finite differences.  The regularity parameters
of the signal class (amplitude drift, chirp rate, chirp-rate drift) are
extracted by scanning those derivatives on an oversampled grid.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

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
        instantaneous frequency phi', the chirp rate phi'', and so on."""
        p = np.polynomial.Polynomial(list(self.coeffs))
        return p.deriv(m)(np.asarray(t, dtype=float))

    def dphase(self, t: Array) -> Array:
        return self.phase(t, 1)

    def amp(self, t: Array) -> Array:
        return np.full_like(np.asarray(t, dtype=float), self.amplitude)

    def evaluate(self, t: Array, analytic: bool) -> Array:
        osc = np.exp(2j * np.pi * self.phase(t)) if analytic \
            else np.cos(2.0 * np.pi * self.phase(t))
        return self.amp(t) * osc


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
        term = comp.evaluate(t, analytic)
        x = x + (term if analytic else term.real)
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
    """Regularity parameters of the signal class.

    eps1 -- sup |A_k'(t)|              (amplitude drift: 0, A_k constant)
    eps2 -- sup |phi_k''(t)|           (chirp rate)
    eps3 -- sup |phi_k'''(t)|          (chirp-rate drift)
    """

    eps1: float
    eps2: float
    eps3: float


# class_params scans this many points per sample interval
_OVERSAMPLE = 8


def class_params(spec: SignalSpec) -> ClassParams:
    """Scan the component derivatives on an oversampled grid for the class
    bounds."""
    t = np.arange(spec.n * _OVERSAMPLE) / (spec.fs * _OVERSAMPLE)
    f, fpp, A = tracks(spec, t)
    eps3 = float(np.max(np.abs([c.phase(t, 3) for c in spec.components])))
    if np.min(A) <= 0.0:
        raise ValueError("component amplitudes must stay positive over the "
                         "sampled interval")
    check_order(f)
    if np.any(f[0] <= 0.0):     # the lowest, given the order
        raise ValueError("instantaneous frequencies must stay positive")
    return ClassParams(eps1=0.0, eps2=float(np.max(np.abs(fpp))), eps3=eps3)


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
_CHUNK_CELLS = 1024


def _format_cells(values: Array, fmt: str) -> Array:
    """fmt.format of every cell, called once per distinct bit pattern."""
    flat = values.ravel()
    _, first, inverse = np.unique(flat.view(f"u{flat.itemsize}"),
                                  return_index=True, return_inverse=True)
    text = np.array(list(map(fmt.format, flat[first].tolist())), dtype=object)
    return text[inverse].reshape(values.shape)


def write_table(path, header: str, *columns) -> None:
    """Write broadcast columns as a CSV table under a header line.

    The columns broadcast to one 2-D shape and are written row-major, one
    row per cell: coordinates go in as xi[:, None] and b, not as repeated
    copies.  Floats carry 17 significant digits ("nan" for NaN, "-0" for
    -0.0), int and bool columns are written as integers, and every line
    ends in LF.

    A column smaller than the table (an axis such as xi[:, None] or b) is
    formatted once, whole.  Full-size columns are formatted a chunk of
    about _CHUNK_CELLS cells (at least one row) at a time, each distinct
    bit pattern once per chunk, so memory is bounded by the chunk and the
    axes, not by the table.
    """
    cols = [np.atleast_2d(c) for c in columns]
    shape = np.broadcast_shapes((1, 1), *(c.shape for c in cols))
    fmts = ["{:d}" if c.dtype.kind in "biu" else "{:.17g}" for c in cols]
    if fmts:
        fmts[-1] += "\n"
    # an axis becomes its strings (format None); full-size columns are
    # formatted chunk by chunk below
    cols = [(np.broadcast_to(_format_cells(c, f), shape), None)
            if c.size < math.prod(shape) else (c, f)
            for c, f in zip(cols, fmts)]
    step = max(1, _CHUNK_CELLS // max(shape[1], 1))
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        for r in range(0, shape[0], step):
            cells = [c[r:r + step] if f is None else
                     _format_cells(c[r:r + step], f) for c, f in cols]
            fh.write("".join(map(",".join,
                                 zip(*(c.ravel().tolist() for c in cells)))))


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
