"""Multicomponent test signals with analytic ground truth.

A component is an amplitude-modulated oscillation A(t)*cos(2*pi*phi(t))
(real mode) or A(t)*exp(i*2*pi*phi(t)) (complex mode), with phase measured
in cycles.  Components carry their own derivative callables so that window
selection, zone geometry, and error bounds can be evaluated from exact
ground truth rather than finite differences; the regularity parameters of
the signal class (amplitude drift, chirp rate, chirp-rate drift, relative
frequency separation) are extracted by scanning those callables on an
oversampled grid.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

Array = np.ndarray
TimeFunc = Callable[[Array], Array]


def _const(value: float) -> TimeFunc:
    def f(t: Array) -> Array:
        return np.full_like(np.asarray(t, dtype=float), value)
    return f


@dataclass(frozen=True)
class ComponentTruth:
    """One oscillatory component with exact phase/amplitude derivatives.

    amp, phase are callables of time; phase is in cycles.  dphase and
    d2phase (instantaneous frequency and chirp rate) are required; damp and
    d3phase may be None, in which case quantities that need them fall back
    to finite differences of the available callables.
    """

    amp: TimeFunc
    phase: TimeFunc
    dphase: TimeFunc
    d2phase: TimeFunc
    damp: TimeFunc | None = None
    d3phase: TimeFunc | None = None
    label: str = ""

    def evaluate(self, t: Array, analytic: bool) -> Array:
        t = np.asarray(t, dtype=float)
        osc = np.exp(2j * np.pi * self.phase(t)) if analytic \
            else np.cos(2.0 * np.pi * self.phase(t))
        return self.amp(t) * osc


def tone(freq: float, amp: float = 1.0, label: str = "") -> ComponentTruth:
    """Pure tone at the given frequency (Hz)."""
    if freq <= 0.0:
        raise ValueError(f"tone frequency must be positive, got {freq}")
    return ComponentTruth(
        amp=_const(amp),
        phase=lambda t: freq * np.asarray(t, dtype=float),
        dphase=_const(freq),
        d2phase=_const(0.0),
        damp=_const(0.0),
        d3phase=_const(0.0),
        label=label or f"tone@{freq:g}Hz",
    )


def linear_chirp(f0: float, rate: float, amp: float = 1.0,
                 label: str = "") -> ComponentTruth:
    """Linear chirp: instantaneous frequency f0 + rate*t."""
    return ComponentTruth(
        amp=_const(amp),
        phase=lambda t: (f0 + 0.5 * rate * np.asarray(t, dtype=float))
        * np.asarray(t, dtype=float),
        dphase=lambda t: f0 + rate * np.asarray(t, dtype=float),
        d2phase=_const(rate),
        damp=_const(0.0),
        d3phase=_const(0.0),
        label=label or f"chirp{f0:g}+{rate:g}t",
    )


def poly_phase(coeffs: Sequence[float], amp: float = 1.0,
               label: str = "") -> ComponentTruth:
    """Polynomial phase (cycles), coefficients in ascending order."""
    p = np.polynomial.Polynomial(list(coeffs))
    d1, d2, d3 = p.deriv(1), p.deriv(2), p.deriv(3)
    return ComponentTruth(
        amp=_const(amp),
        phase=lambda t: p(np.asarray(t, dtype=float)),
        dphase=lambda t: d1(np.asarray(t, dtype=float)),
        d2phase=lambda t: d2(np.asarray(t, dtype=float)),
        damp=_const(0.0),
        d3phase=lambda t: d3(np.asarray(t, dtype=float)),
        label=label or "polyphase",
    )


@dataclass(frozen=True)
class SignalSpec:
    """Sampling plan plus ground-truth components.

    mode 'real' synthesizes sum_k A_k cos(2 pi phi_k); mode 'complex'
    synthesizes the analytic version sum_k A_k exp(i 2 pi phi_k).
    """

    components: tuple[ComponentTruth, ...]
    fs: float
    n: int
    t0: float = 0.0
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
        return self.t0 + np.arange(self.n) / self.fs

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


@dataclass(frozen=True)
class ClassParams:
    """Regularity parameters of the signal class.

    eps1 -- sup |A_k'(t)|              (amplitude drift)
    eps2 -- sup |phi_k''(t)|           (chirp rate)
    eps3 -- sup |phi_k'''(t)|          (chirp-rate drift)
    sep_ratio -- min over adjacent pairs of
                 (phi_k' - phi_{k-1}') / (phi_k' + phi_{k-1}')
    """

    eps1: float
    eps2: float
    eps3: float
    sep_ratio: float


def _fd(f: TimeFunc, t: Array, h: float) -> Array:
    return (f(t + h) - f(t - h)) / (2.0 * h)


def class_params(spec: SignalSpec, oversample: int = 8) -> ClassParams:
    """Scan component callables on an oversampled grid for the class bounds."""
    t = spec.t0 + np.arange(spec.n * oversample) / (spec.fs * oversample)
    h = 0.5 / (spec.fs * oversample)
    eps1 = eps2 = eps3 = 0.0
    freqs = []
    for comp in spec.components:
        da = comp.damp(t) if comp.damp is not None else _fd(comp.amp, t, h)
        d3 = comp.d3phase(t) if comp.d3phase is not None \
            else _fd(comp.d2phase, t, h)
        eps1 = max(eps1, float(np.max(np.abs(da))))
        eps2 = max(eps2, float(np.max(np.abs(comp.d2phase(t)))))
        eps3 = max(eps3, float(np.max(np.abs(d3))))
        freqs.append(comp.dphase(t))
    amin = min(float(np.min(comp.amp(t))) for comp in spec.components)
    if amin <= 0.0:
        raise ValueError("component amplitudes must stay positive over the "
                         "sampled interval")
    sep = np.inf
    for lo, hi in zip(freqs[:-1], freqs[1:]):
        if np.any(hi <= lo):
            raise ValueError("components must be ordered with strictly "
                             "increasing instantaneous frequency")
        if np.any(lo <= 0.0):
            raise ValueError("instantaneous frequencies must stay positive")
        sep = min(sep, float(np.min((hi - lo) / (hi + lo))))
    if not freqs[:-1]:
        if np.any(freqs[0] <= 0.0):
            raise ValueError("instantaneous frequencies must stay positive")
        sep = 1.0  # single component: no neighbor to collide with
    return ClassParams(eps1=eps1, eps2=eps2, eps3=eps3, sep_ratio=sep)


def example1_spec(n: int = 256, fs: float = 256.0) -> SignalSpec:
    """Two crossing-free linear chirps, 12+0.5t Hz and 26-0.5t Hz."""
    return SignalSpec(
        components=(
            linear_chirp(12.0, 0.5, label="low"),
            linear_chirp(26.0, -0.5, label="high"),
        ),
        fs=fs, n=n, t0=0.0, mode="real",
    )


def example2_spec(n: int = 256, fs: float = 256.0) -> SignalSpec:
    """Two steep linear chirps, 20+18t Hz and 42+36t Hz."""
    return SignalSpec(
        components=(
            linear_chirp(20.0, 18.0, label="low"),
            linear_chirp(42.0, 36.0, label="high"),
        ),
        fs=fs, n=n, t0=0.0, mode="real",
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
    The file is read as UTF-8, a byte that does not decode becoming U+FFFD.
    Raises ValueError naming the offending file line otherwise, a line the
    csv module cannot split (such as an over-long field) included.
    """
    names = header.split(",")
    rows = []
    with open(path, newline="", encoding="utf-8", errors="replace") as fh:
        rd = csv.reader(fh)
        try:
            got = next(rd, [])
            if [c.strip() for c in got[:len(names)]] != names:
                raise ValueError(f"line 1: expected header {header}, got "
                                 f"{','.join(got)!r}")
            for line, row in enumerate(rd, start=2):
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
