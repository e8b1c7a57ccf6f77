"""Config-driven command line for synthesis, analysis, and recovery.

Subcommands
-----------
synth     write the configured signal to <outdir>/signal.csv
analyze   run the adaptive transform and frequency reassignment; write
          tf.csv (and tf.pgm unless disabled; both from a second process
          where one can be forked, with the same bytes and exit codes),
          omega.csv, zones.csv, sigma.csv
recover   reconstruct each component along its ground-truth ridge, compare
          against the exact component, and write report.csv with the
          theoretical error bound and a within_bound flag per cell
demo      analyze + synth + recover from one analysis, with canned
          settings: ``demo example1`` (first-order pipeline with the
          automatic order-1 window profile) and ``demo example2``
          (second-order pipeline with the order-2 profile)

One function, ``run_command``, runs every command: it computes everything
the command writes before it writes any of it, so a command that fails
writes nothing.  An analysis passes the memory guard of ``sst.walk_nbytes``
and ``cwt.stack_walk``'s counts, then ``sst.walk`` takes each block as
built here; a width table is ``separation.profile_from_csv``'s (its errors
exit 2) and a recovery ``bounds.certify``'s (exit 3).

Configuration is a flat ``key = value`` text file with ``[section]``
headers.  One table, ``_KEYS``, gives each key its section, default, flag,
parser and ``RunConfig`` field; a flag takes precedence over the file.  In
the file, a ``;`` after whitespace starts a comment, except in ``[signal]
components``, where ``;`` separates the entries; flag values are taken
whole.  Unknown sections or keys are rejected with the offending location
spelled out.
All output files are deterministic: the same configuration produces
byte-identical CSVs on every run.  Floats are written with 17 significant
digits, ``.`` decimal separator, no locale, and every line ends in LF.

The signal source is resolved once, as the configuration loads.  It
decides fs, n and mode where it can: an example preset fixes them, and a
sample file takes them from its t column, its row count and whether any
im value is nonzero.  An explicit value that disagrees is an error.
Synthesized components must keep their instantaneous frequency inside
(0, fs/2), or (0, fs) in complex mode.

Exit codes: 0 success, 2 malformed configuration (including a malformed
sample file or width table, a sampling value the source contradicts, a
component above Nyquist, a rate too low to leave any band, or an
output directory or output file that cannot be created, components
whose sum overflows), 3 inadmissible window-width profile for the
requested analysis, components out of frequency order, a negative
component amplitude (recover), samples, an analysis (its squeezed plane,
per-cell arrays and largest block of the stack) or a squeezed plane over
the 1 GiB memory limit, a signal that is not zero but leaves no cell with
a finite frequency estimate (a threshold above every |w|, or a record too
short for any frequency bin to reach the window's band), or a non-finite
result: widths, a scale range, a transform stack (or its phase transform)
or a recovery error or bound, named with the inputs that set its range, 4
recovery requested for a signal without ground truth.  Finite or fail:
the stages that can overflow run with numpy's warnings off and their
results are checked, so no run exits 0 after an overflow.
"""
from __future__ import annotations

import argparse
import configparser
import contextlib
import math
import os
import pickle
import re
import sys
import warnings
from dataclasses import dataclass, field, make_dataclass
from pathlib import Path
from typing import Any, Callable, NamedTuple

import numpy as np

from .bounds import RecoveryResult, certify, report_to_csv
from .bounds import (  # noqa: F401 (perfbench's spans wrap these four)
    bounds_first, bounds_second, normalizers, recover)
from .cwt import ScaleGrid, compute_stack, stack_walk
from .separation import SigmaProfile, ZoneSet, constant_profile, \
    profile_from_csv, profile_to_csv, sigma1, sigma2, zones, zones_to_csv
from .signals import ComponentTruth, SampledSignal, SignalSpec, \
    example1_spec, example2_spec, linear_chirp, poly_phase, \
    signal_from_csv, signal_to_csv, synthesize, tone, write_table
from .sst import PHASE_FIELDS, PhasePlane, SqueezeConfig, TfPlane, \
    tf_to_csv, tf_to_pgm, walk, walk_nbytes
from .sst import (  # noqa: F401 (perfbench's spans wrap these four)
    default_gamma2, phase_first, phase_second, squeeze)
from .windows import WindowModel


class ConfigError(Exception):
    """Malformed or inconsistent configuration (exit code 2)."""


class AdmissibilityError(Exception):
    """Inadmissible window width, misordered components, or an array past
    the memory limit (exit code 3)."""


class MissingTruthError(Exception):
    """Recovery asked for a signal without ground truth (exit code 4)."""


# ---------------------------------------------------------------------------
# configuration keys

# Each parser turns a raw value into its RunConfig value or raises
# ConfigError at ``loc``, the "[section] key" being parsed.

def _number(kind: type, test: Callable[[Any], bool], need: str):
    def parse(raw: str, loc: str):
        try:
            value = kind(raw)
        except ValueError:
            what = "a number" if kind is float else "an integer"
            raise ConfigError(f"{loc}: not {what}: {raw!r}") from None
        if not test(value):
            raise ConfigError(f"{loc}: must be {need}, got {value}")
        return value
    return parse


def _at_least(low: int):
    return _number(int, lambda v: v >= low, f">= {low}")


_positive = _number(float, lambda v: math.isfinite(v) and v > 0.0,
                    "a positive finite number")
_open_unit = _number(float, lambda v: 0.0 < v < 1.0, "in (0, 1)")


def _auto_or_positive(raw: str, loc: str) -> float | None:
    return None if raw.strip().lower() == "auto" else _positive(raw, loc)


def _choice(*options: str):
    def parse(raw: str, loc: str) -> str:
        text = raw.strip()
        for value in (text, text.lower()):      # as written, or lowercased
            if value in options:
                return value
        raise ConfigError(f"{loc}: expected one of {', '.join(options)}, "
                          f"got {text!r}")
    return parse


def _yes_no(raw: str, loc: str) -> bool:
    text = raw.strip().lower()
    if text not in ("yes", "no", "true", "false", "1", "0"):
        raise ConfigError(f"{loc}: expected yes or no, got {text!r}")
    return text in ("yes", "true", "1")


def _path(raw: str, loc: str) -> Path:
    if not raw.strip():         # Path("") would be the working directory
        raise ConfigError(f"{loc}: expected a path, got an empty value")
    return Path(raw.strip())


# kind -> (constructor, its arguments before the optional amplitude)
_COMPONENT_KINDS = {"tone": (tone, "freq"), "chirp": (linear_chirp, "f0:rate"),
                    "poly": (poly_phase, "c0,c1,...")}


def _parse_components(text: str, loc: str) -> tuple[ComponentTruth, ...]:
    """Parse ``kind:arg:...[:amp]`` specs separated by ``;``.

    tone:freq[:amp]     chirp:f0:rate[:amp]     poly:c0,c1,...[:amp]
    """
    comps = []
    for idx, chunk in enumerate(text.split(";"), start=1):
        kind, *args = [f.strip() for f in chunk.split(":")]
        try:
            if kind not in _COMPONENT_KINDS:
                raise ValueError(f"unknown component kind {kind!r} (expected "
                                 "tone, chirp, or poly)" if kind
                                 else "empty component spec")
            make, usage = _COMPONENT_KINDS[kind]
            if len(args) - usage.count(":") not in (1, 2):
                raise ValueError(f"{kind} takes {usage}[:amp]")
            first = tuple(map(float, args[0].split(","))) \
                if kind == "poly" else float(args[0])
            rest = tuple(map(float, args[1:]))
            if not np.all(np.isfinite((*np.ravel(first), *rest))):
                raise ValueError("every value must be a finite number")
            with np.errstate(over="ignore"):   # _check_nyquist rejects inf
                comps.append(make(first, *rest))
        except ValueError as exc:
            raise ConfigError(f"{loc} (entry {idx}): {exc}") from None
    return tuple(comps)


class _Key(NamedTuple):
    section: str
    key: str
    field: str                  # RunConfig attribute
    default: str | None         # raw default; None leaves the field None
    flag: str
    help: str
    parse: Callable[[str, str], Any]


# The one list of configuration keys, in flag order.
_KEYS = (
    _Key("signal", "preset", "preset", None, "--preset",
         "signal preset: example1, example2, or empty",
         _choice("example1", "example2", "empty")),
    _Key("signal", "components", "components", None, "--components",
         "inline components, e.g. 'chirp:12:0.5; chirp:26:-0.5'",
         _parse_components),
    _Key("signal", "file", "file", None, "--signal-file",
         "read samples from a t,re,im CSV", _path),
    _Key("signal", "fs", "fs", "256", "--fs",
         "sampling rate in Hz (synthesized signals)", _positive),
    _Key("signal", "n", "n", "256", "--n",
         "number of samples (synthesized signals)", _at_least(2)),
    _Key("signal", "mode", "mode", "real", "--mode",
         "real or complex synthesis", _choice("real", "complex")),
    _Key("window", "tau0", "tau0", "0.05", "--tau0",
         "spectral support cutoff in (0, 1)", _open_unit),
    _Key("window", "mu", "mu", "1", "--mu",
         "center frequency of the unit-scale wavelet", _positive),
    _Key("sigma", "kind", "sigma_kind", "constant", "--sigma",
         "window-width rule: constant, sigma1, sigma2, or table",
         _choice("constant", "sigma1", "sigma2", "table")),
    _Key("sigma", "value", "sigma_value", "1.0", "--sigma-value",
         "width for --sigma constant", _positive),
    _Key("sigma", "table", "sigma_table", None, "--sigma-table",
         "b,sigma,dsigma CSV for --sigma table", _path),
    _Key("grid", "voices_per_octave", "voices", "32", "--voices",
         "scale samples per octave", _at_least(1)),
    _Key("grid", "xi_bins", "xi_bins", "0", "--xi-bins",
         "number of frequency bins (0 = native 0.25 Hz bins)", _at_least(0)),
    _Key("thresholds", "gamma1", "gamma1", "0.01", "--gamma1",
         "coefficient threshold", _positive),
    _Key("thresholds", "gamma2", "gamma2", "auto", "--gamma2",
         "conditioning threshold for second-order variants, or 'auto'",
         _auto_or_positive),
    _Key("thresholds", "eps3", "eps3", "auto", "--eps3",
         "half-width of the ridge collection window, or 'auto'",
         _auto_or_positive),
    _Key("run", "variant", "variant", "T1", "--variant",
         "phase transform: T1, T2, or S2", _choice("T1", "T2", "S2")),
    _Key("run", "outdir", "outdir", "out", "--outdir", "output directory",
         _path),
    _Key("run", "pgm", "pgm", "yes", "--pgm", "write tf.pgm: yes or no",
         _yes_no),
)

# Each field holds what its key's parser returns (None for a key left
# without a default), and source what load_config reads or builds: the
# sample file's samples or the signal's spec.
RunConfig = make_dataclass(
    "RunConfig", [(k.field, Any) for k in _KEYS]
    + [("source", Any, field(compare=False, repr=False))], frozen=True,
    namespace={"__doc__": "Fully validated settings for one pipeline run.",
               "__module__": __name__, "order": property(
                   lambda self: 1 if self.variant == "T1" else 2)})

_SECTIONS = {sec: tuple(k.key for k in _KEYS if k.section == sec)
             for sec in dict.fromkeys(k.section for k in _KEYS)}

_PRESET_SPECS = {"example1": example1_spec, "example2": example2_spec}


def _signal_source(cfg: dict) -> tuple[SampledSignal | SignalSpec, str, dict]:
    """(source, origin, the {fs, n, mode} it fixes): a sample file's
    samples, a preset's spec, or the spec of the components or the empty
    preset, which fixes nothing."""
    if cfg["file"] is not None:
        try:
            sig = signal_from_csv(cfg["file"])
        except OSError as exc:
            raise ConfigError(f"[signal] file: cannot read: {exc}") from None
        except ValueError as exc:
            raise ConfigError(f"[signal] file: {exc}") from None
        return sig, "the sample file", dict(
            fs=float(sig.fs), n=sig.t.size,
            mode="complex" if np.iscomplexobj(sig.x) else "real")
    if cfg["preset"] in _PRESET_SPECS:
        spec = _PRESET_SPECS[cfg["preset"]]()
        return spec, f"preset {cfg['preset']}", dict(fs=spec.fs, n=spec.n,
                                                     mode=spec.mode)
    comps = (tone(40.0, 0.0),) if cfg["preset"] == "empty" \
        else cfg["components"]
    return SignalSpec(components=comps, fs=cfg["fs"], n=cfg["n"],
                      mode=cfg["mode"]), "", {}


def _band_top(fs: float, complex_: bool) -> float:
    """Top frequency of the band a signal sampled at fs holds: fs for
    complex samples, fs/2 for real ones."""
    return fs if complex_ else fs / 2.0


def _check_nyquist(spec: SignalSpec) -> None:
    """Each component's instantaneous frequency must fit the sampled band."""
    top = _band_top(spec.fs, spec.mode == "complex")
    t = spec.times()
    for idx, comp in enumerate(spec.components, start=1):
        with np.errstate(over="ignore", invalid="ignore"):  # fail below
            f = comp.phase(t, 1)
        if not (np.min(f) > 0.0 and np.max(f) < top):
            raise ConfigError(
                f"[signal] components (entry {idx}): instantaneous "
                f"frequency {np.min(f):g} to {np.max(f):g} Hz leaves "
                f"(0, {top:g}) Hz, the band of a {spec.mode} signal sampled "
                f"at {spec.fs:g} Hz")


# Largest array of samples, transform stack or squeezed plane a run may
# allocate, in bytes (1 GiB); a larger one exits 3 before it is allocated.
_STACK_LIMIT = 2 ** 30


def _check_size(need: int, what: str, hint: str = "") -> None:
    """Exit 3 if what, taking need bytes, would pass _STACK_LIMIT."""
    if need > _STACK_LIMIT:
        raise AdmissibilityError(
            f"{what} would take {need} bytes, more than the "
            f"{_STACK_LIMIT}-byte limit{hint}")


def load_config(path: Path | None,
                overrides: dict[tuple[str, str], str] | None = None
                ) -> RunConfig:
    """Read, override, and validate a configuration.

    ``path`` may be None when all settings come from flags/defaults.
    ``overrides`` maps (section, key) to raw string values and wins over
    the file.  Raises ConfigError with the offending location on any
    problem (AdmissibilityError for samples past the memory limit).
    """
    cp = configparser.ConfigParser(interpolation=None,
                                   empty_lines_in_values=False)
    if path is not None:
        try:
            # like a sample file: an undecodable byte becomes U+FFFD
            text = Path(path).read_text(encoding="utf-8", errors="replace")
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from None
        try:
            cp.read_string(text, source=str(path))
        except configparser.Error as exc:
            raise ConfigError(str(exc)) from None

    # A ';' at the start of a file value or after whitespace begins a
    # comment, except in [signal] components, whose entries ';' separates.
    raw = {(sec, key): val if (sec, key) == ("signal", "components")
           else re.split(r"(?:^|\s);", val, maxsplit=1)[0].rstrip()
           for sec in cp.sections() for key, val in cp.items(sec)}
    raw.update(overrides or {})
    for sec in dict.fromkeys([*cp.sections(), *(sec for sec, _ in raw)]):
        if sec not in _SECTIONS:
            raise ConfigError(f"[{sec}]: unknown section "
                              f"(expected one of {', '.join(_SECTIONS)})")
    for sec, key in raw:
        if key not in _SECTIONS[sec]:
            raise ConfigError(f"[{sec}] {key}: unknown key (expected "
                              f"one of {', '.join(_SECTIONS[sec])})")

    cfg = {}
    for k in _KEYS:
        text = raw.get((k.section, k.key), k.default)
        cfg[k.field] = None if text is None \
            else k.parse(text, f"[{k.section}] {k.key}")

    sources = [src for src in ("preset", "components", "file")
               if cfg[src] is not None]
    if len(sources) != 1:
        raise ConfigError("[signal]: exactly one of preset, components, or "
                          f"file must be set (got {len(sources)})")
    if cfg["sigma_kind"] == "table" and cfg["sigma_table"] is None:
        raise ConfigError("[sigma] table: required when kind = table")

    source, origin, fixed = _signal_source(cfg)
    for key, want in fixed.items():
        have = cfg[key]
        agrees = math.isclose(have, want, rel_tol=1e-9) if key == "fs" \
            else have == want
        if ("signal", key) in raw and not agrees:
            shown = f"{want:g}" if key == "fs" else want
            raise ConfigError(f"[signal] {key}: {origin} fixes "
                              f"{key}={shown}, got {have}")
    cfg.update(fixed)
    _check_size(cfg["n"] * (16 if cfg["mode"] == "complex" else 8),
                f"[signal] n: {cfg['n']} {cfg['mode']} samples")
    return RunConfig(**cfg, source=source)


# ---------------------------------------------------------------------------
# pipeline assembly

def build_signal(cfg: RunConfig) -> tuple[SignalSpec | None, SampledSignal]:
    """(spec, signal) of cfg's source, spec None for a sample file."""
    if cfg.file is not None:
        return None, cfg.source
    if cfg.components is not None:
        _check_nyquist(cfg.source)
    with np.errstate(over="ignore", invalid="ignore"):  # checked next
        sig = synthesize(cfg.source)
    if not np.isfinite(sig.x).all():
        raise ConfigError("[signal] components: the sum of the components "
                          "overflows; lower their amplitudes")
    return cfg.source, sig


def build_profile(cfg: RunConfig, spec: SignalSpec | None, t: np.ndarray,
                  wm: WindowModel) -> SigmaProfile:
    """Window-width profile per the [sigma] section."""
    if cfg.sigma_kind == "constant":
        return constant_profile(t, cfg.sigma_value)
    if cfg.sigma_kind == "table":
        try:
            return profile_from_csv(cfg.sigma_table, t)
        except OSError as exc:
            raise ConfigError(f"[sigma] table: cannot read: {exc}") from None
        except ValueError as exc:
            raise ConfigError(f"[sigma] table: {exc}") from None
    if spec is None:
        raise ConfigError(f"[sigma] kind: {cfg.sigma_kind} needs a signal "
                          "with known components, not a sample file")
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # checked next
            profile = (sigma1 if cfg.sigma_kind == "sigma1" else sigma2)(
                spec, wm)
    except ValueError as exc:
        raise AdmissibilityError(str(exc)) from None
    if not (np.isfinite(profile.sigma).all()
            and np.isfinite(profile.dsigma).all()):
        raise AdmissibilityError(
            f"[sigma] kind: the {cfg.sigma_kind} widths are not finite; "
            f"[window] mu = {cfg.mu:g} sets their scale alpha/mu = "
            f"{wm.alpha / wm.mu:g}")
    return profile


def _check_stack(scales: int, cfg: RunConfig, block: int, kernels: int = 0,
                 bins: int = 1) -> None:
    """Exit 3 if walk_nbytes (bins at least one until the grid gives the
    count) and the kernel product's kernels would pass _STACK_LIMIT."""
    _check_size(walk_nbytes(cfg.order, cfg.gamma2, bins, scales, cfg.n,
                            block) + kernels,
                f"a transform stack of {scales} scales by {cfg.n} times",
                f"; [grid] voices_per_octave is {cfg.voices}")


def _window_inputs(cfg: RunConfig, profile: SigmaProfile) -> str:
    """The window's inputs, for a message about a non-finite result."""
    width = f"[sigma] value = {cfg.sigma_value:g}" \
        if cfg.sigma_kind == "constant" else f"{cfg.sigma_kind} widths " \
        f"{np.min(profile.sigma):g} to {np.max(profile.sigma):g}"
    return f"[window] mu = {cfg.mu:g}, {width}"


@dataclass(frozen=True)
class Analysis:
    """What the outputs read of one run: no stack outlives its block."""

    sig: SampledSignal
    wm: WindowModel
    profile: SigmaProfile
    zs: ZoneSet | None
    grid: ScaleGrid
    plane: PhasePlane
    tf: TfPlane


def run_analysis(cfg: RunConfig) -> Analysis:
    """Execute the transform/reassignment pipeline for the configuration:
    the memory guard, then the signal, width profile, zones and scale
    grid, then sst.walk over cwt.stack_walk's blocks, each built with
    gamma1 so that on the kernel-product path the finite check sees only
    the cells the phase transforms read: no whole stack is held."""
    _check_stack(1, cfg, cfg.n)     # before anything of size n: one row
    # an xi_bins plane has at least xi_bins bins and a lattice at least one
    # scale; counted past float range
    _check_size(TfPlane.nbytes(cfg.xi_bins, 1, cfg.n),
                f"a squeezed plane of at least {cfg.xi_bins} frequency "
                f"bins by {cfg.n} times",
                f"; [grid] xi_bins is {cfg.xi_bins}")
    spec, sig = build_signal(cfg)
    wm = WindowModel(mu=cfg.mu, tau0=cfg.tau0)
    profile = build_profile(cfg, spec, sig.t, wm)
    if not profile.admissible(wm).all():    # the wavelet stays analytic
        raise AdmissibilityError(
            f"window width {np.min(profile.sigma):.6g} does not exceed "
            f"alpha/mu = {wm.alpha / wm.mu:.6g}; the spectral window would "
            "cross zero frequency")

    with np.errstate(over="ignore"):    # the scale range is checked below
        zs = None if spec is None else zones(spec, wm, profile, cfg.order)
    if zs is not None and np.any(zs.valid):
        a_min, a_max = zs.span(margin=1.25)
    else:
        # No valid zone cell (sample files, and synthesized signals none of
        # whose zone cells is valid): cover the band from 1 Hz up to the
        # top of the samples' own band with a 25% margin.
        top = _band_top(sig.fs, np.iscomplexobj(sig.x))
        a_min, a_max = cfg.mu / top / 1.25, cfg.mu * 1.25
        if not 0.0 < a_min < a_max:
            where = "[signal] file" if cfg.file is not None else "[signal] fs"
            raise ConfigError(
                f"{where}: sampling rate {sig.fs:.6g} Hz leaves no band "
                f"between 0.8 Hz and 1.25 x {top:.6g} Hz, its band's top")
    # the grid's top scale is below 2 * a_max
    if not (a_min > 0.0 and math.isfinite(2.0 * a_max / a_min)):
        raise AdmissibilityError(
            f"[window] mu = {cfg.mu:g} puts the scales at {a_min:g} to "
            f"{a_max:g}, past the float range")
    fields = PHASE_FIELDS[cfg.order]
    scales = ScaleGrid.size(a_min, a_max, cfg.voices)
    blocks, cells, kernels = stack_walk(sig, profile, scales, len(fields))
    _check_stack(scales, cfg, cells, kernels)
    grid = ScaleGrid.from_range(a_min, a_max, voices=cfg.voices)
    base = SqueezeConfig.for_grid(grid, wm.mu)
    if cfg.xi_bins > 0:
        base = SqueezeConfig(xi_min=base.xi_min, xi_max=base.xi_max,
                             dxi=(base.xi_max - base.xi_min) / cfg.xi_bins)
    l_min, l_max = base.bin_limits()
    bins = l_max - l_min + 1
    _check_size(TfPlane.nbytes(bins, scales, cfg.n),
                f"a squeezed plane of {bins} frequency bins of "
                f"{base.dxi:.6g} Hz by {cfg.n} times",
                f"; [grid] xi_bins is {cfg.xi_bins}")
    _check_stack(scales, cfg, cells, kernels, bins)

    def stacks():               # perfbench wraps cli.compute_stack
        for rows, cols in blocks:
            with np.errstate(over="ignore", invalid="ignore"):  # walk checks
                stack = compute_stack(sig, profile.columns(cols), wm,
                                      ScaleGrid(grid.a[rows], grid.dlog),
                                      fields, gamma1=cfg.gamma1)
            yield rows, cols, stack
            del stack           # before the next block is built
    try:
        plane, tf, tops = walk(stacks(), grid, profile, base, cfg.order,
                               cfg.gamma1, cfg.gamma2, cfg.variant == "S2")
    except ValueError as exc:
        with np.errstate(over="ignore"):
            x_top = np.max(np.abs(sig.x))
        raise AdmissibilityError(
            f"transform stack: {exc}; its range is set by "
            f"{_window_inputs(cfg, profile)} and the largest sample "
            f"magnitude {x_top:g}") from None
    # an all-zero plane is the answer only for an all-zero signal
    if not plane.valid.any() and np.any(sig.x):
        raise AdmissibilityError(
            f"no cell has a finite frequency estimate, though the signal "
            f"is not zero: the largest real or imaginary part of w is "
            f"{tops['w']:g}, against [thresholds] gamma1 = {cfg.gamma1:g}, "
            f"over [signal] n = {cfg.n} samples")
    return Analysis(sig=sig, wm=wm, profile=profile, zs=zs, grid=grid,
                    plane=plane, tf=tf)


def _omega_to_csv(res: Analysis, path) -> None:
    """Instantaneous-frequency lattice as a,b,omega (nan when masked)."""
    write_table(path, "a,b,omega", res.grid.a[:, None], res.profile.b,
                res.plane.omega)


@contextlib.contextmanager
def _writing(outdir: Path):
    """Create outdir for the writes in the block: an OSError making the
    directory or a file in it is a ConfigError naming [run] outdir."""
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        yield
    except OSError as exc:
        raise ConfigError(f"[run] outdir: cannot write to {outdir}: "
                          f"{exc}") from None


@contextlib.contextmanager
def _aside(writes: dict[str, Callable[[], None]]):
    """Run writes (file name -> writer) in a forked child while the block
    runs and reap it after; without os.fork, or a pipe and a process to
    spare, run them here first."""
    pid, fds = None, ()
    with warnings.catch_warnings(), contextlib.suppress(OSError):
        # Python 3.12 warns on fork while other threads run, as OpenBLAS's
        # pool does; the child runs no BLAS and takes no lock they hold
        warnings.filterwarnings("ignore", "This process", DeprecationWarning)
        if writes and hasattr(os, "fork"):
            fds = read, send = os.pipe()
            pid = os.fork()
    if pid is None:     # no os.fork, or no descriptor or process to spare
        for fd in fds:
            os.close(fd)
        for write in writes.values():
            write()
        yield
        return
    if pid == 0:                # the child never returns into the caller
        try:
            for write in writes.values():
                write()
            os._exit(0)
        except BaseException as exc:
            os.write(send, pickle.dumps(exc))
        finally:
            os._exit(1)
    os.close(send)
    try:
        yield
    finally:
        with open(read, "rb") as pipe:
            report = pipe.read()
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if report:
        raise pickle.loads(report)
    if code:
        raise OSError(f"the process writing {' and '.join(writes)} " + (
            f"died by signal {-code}" if code < 0 else f"exited {code}"))


def _report(cfg: RunConfig, res: Analysis) -> tuple[RecoveryResult,
                                                   np.ndarray]:
    """bounds.certify of a run whose source is a spec; its errors exit 3."""
    try:
        return certify(cfg.source, res.wm, res.profile, res.zs, res.tf,
                       cfg.order, cfg.gamma1, res.plane.gamma2, cfg.eps3)
    except ValueError as exc:
        raise AdmissibilityError(str(exc)) from None
    except OverflowError as exc:
        raise AdmissibilityError(
            f"{exc}; the normalizers and bounds are set by "
            f"{_window_inputs(cfg, res.profile)}") from None


# ---------------------------------------------------------------------------
# commands

# command -> the commands whose files it writes; demo is the three at once
_PARTS = {"synth": ("synth",), "analyze": ("analyze",),
          "recover": ("recover",), "demo": ("analyze", "synth", "recover")}
_DEMO_OVERRIDES = {
    preset: {("signal", "preset"): preset, ("sigma", "kind"): kind,
             ("run", "variant"): variant}
    for preset, kind, variant in (("example1", "sigma1", "T1"),
                                  ("example2", "sigma2", "S2"))}


def run_command(command: str, cfg: RunConfig) -> int:
    """Compute everything the command writes, then write it: a failing
    command writes nothing, and demo writes what analyze, synth and
    recover write, from one analysis."""
    parts = _PARTS[command]
    if "recover" in parts and cfg.file is not None:
        raise MissingTruthError(
            "recovery compares against ground truth, which a sample file "
            "does not carry; define the signal by preset or components")
    res = None if command == "synth" else run_analysis(cfg)
    sig = build_signal(cfg)[1] if res is None else res.sig
    if "recover" in parts:
        result, bound = _report(cfg, res)
    out = cfg.outdir
    aside = {}      # name -> writer, looked up here when it runs
    if "analyze" in parts:
        aside["tf.csv"] = lambda: tf_to_csv(res.tf, out / "tf.csv")
        if cfg.pgm:
            aside["tf.pgm"] = lambda: tf_to_pgm(res.tf, out / "tf.pgm")
    with _writing(out), _aside(aside):
        if "analyze" in parts:
            _omega_to_csv(res, out / "omega.csv")
            zones_to_csv(res.zs, out / "zones.csv")
            profile_to_csv(res.profile, out / "sigma.csv")
        if "synth" in parts:
            signal_to_csv(sig, out / "signal.csv")
        if "recover" in parts:
            report_to_csv(result, bound, out / "report.csv")
    return 0


# ---------------------------------------------------------------------------
# argument parsing

def _add_flags(parser: argparse.ArgumentParser, keys) -> None:
    for k in keys:
        parser.add_argument(k.flag, metavar="V", dest=f"{k.section}.{k.key}",
                            help=k.help)


def _make_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="adassq",
        description="Adaptive continuous wavelet transform with "
                    "synchrosqueezing: synthesis, analysis, and "
                    "mode recovery driven by a flat key=value config.")
    sub = top.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="FILE",
                        help="configuration file ([section] key = value)")
    _add_flags(common, _KEYS)

    sub.add_parser("synth", parents=[common],
                   help="write the configured signal to signal.csv")
    sub.add_parser("analyze", parents=[common],
                   help="write tf.csv, tf.pgm, omega.csv, zones.csv, "
                        "sigma.csv")
    sub.add_parser("recover", parents=[common],
                   help="write report.csv with per-component errors and "
                        "bounds")
    demo = sub.add_parser("demo", help="run synth+analyze+recover with "
                                       "canned example settings")
    demo.add_argument("preset", choices=sorted(_DEMO_OVERRIDES))
    # demo fixes the signal, the width rule and the variant; it takes the
    # other [run] keys
    _add_flags(demo, [k for k in _KEYS if k.section == "run" and
                      (k.section, k.key) not in _DEMO_OVERRIDES["example1"]])
    return top


_EXITS = {ConfigError: (2, "config"), AdmissibilityError: (3, "admissibility"),
          MissingTruthError: (4, "recovery")}


def main(argv: list[str] | None = None) -> int:
    args = _make_parser().parse_args(argv)
    # flag destinations are "section.key"
    overrides = {tuple(dest.split(".")): val for dest, val in
                 vars(args).items() if "." in dest and val is not None}
    if args.command == "demo":
        overrides.update(_DEMO_OVERRIDES[args.preset])
    config = getattr(args, "config", None)
    try:
        cfg = load_config(Path(config) if config else None, overrides)
        return run_command(args.command, cfg)
    except tuple(_EXITS) as exc:
        code, label = _EXITS[type(exc)]
        print(f"{label} error: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    raise SystemExit(main())
