"""Config-driven command line for synthesis, analysis, and recovery.

Subcommands
-----------
synth     write the configured signal to <outdir>/signal.csv
analyze   run the adaptive transform and frequency reassignment; write
          tf.csv (and tf.pgm unless disabled), omega.csv, zones.csv,
          sigma.csv
recover   reconstruct each component along its ground-truth ridge, compare
          against the exact component, and write report.csv with the
          theoretical error bound and a within_bound flag per cell
demo      canned end-to-end runs: ``demo example1`` (first-order pipeline
          with the automatic order-1 window profile) and ``demo example2``
          (second-order pipeline with the order-2 profile)

Configuration is a flat ``key = value`` text file with ``[section]``
headers.  One table, ``_KEYS``, gives each key its section, default, flag
and parser; a flag takes precedence over the file.  In the file, a ``;``
after whitespace starts a comment, except in ``[signal] components``,
where ``;`` separates the entries; flag values are taken whole.  Unknown
sections or keys are rejected with the offending location spelled out.
All output files are deterministic: the same configuration produces
byte-identical CSVs on every run.  Floats are written with 17 significant
digits, ``.`` decimal separator, no locale, and every line ends in LF.

The signal source decides fs, n and mode where it can: an example preset
fixes them, and a sample file takes them from its t column, its row count
and whether any im value is nonzero.  An explicit value that disagrees is
an error.  Synthesized components must keep their instantaneous frequency
inside (0, fs/2), or (0, fs) in complex mode.

Exit codes: 0 success, 2 malformed configuration (including a malformed
sample file or width table, a sampling value the source contradicts, a
component above Nyquist, or a rate too low to leave any band), 3
inadmissible window-width profile for the requested analysis, components
out of frequency order, or samples or a transform stack over the 1 GiB
memory limit, 4 recovery requested for a signal without ground truth.
"""
from __future__ import annotations

import argparse
import configparser
import math
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, NamedTuple

import numpy as np

from .bounds import bounds_first, bounds_second, normalizers, recover, \
    report_to_csv
from .cwt import FIELD_NAMES, CwtStack, ScaleGrid, compute_stack
from .separation import SigmaProfile, ZoneSet, constant_profile, \
    profile_to_csv, sigma1, sigma2, zones, zones_to_csv
from .signals import ComponentTruth, SampledSignal, SignalSpec, \
    check_order, example1_spec, example2_spec, linear_chirp, poly_phase, \
    read_table, signal_from_csv, signal_to_csv, synthesize, tone, tracks, \
    write_table
from .sst import PhasePlane, SqueezeConfig, TfPlane, phase_first, \
    phase_second, squeeze, tf_to_csv, tf_to_pgm
# Not called here (phase_second derives its own floor), but perfbench's
# span recorder looks the name up on this module.
from .sst import default_gamma2  # noqa: F401
from .windows import WindowModel


class ConfigError(Exception):
    """Malformed or inconsistent configuration (exit code 2)."""


class AdmissibilityError(Exception):
    """Inadmissible window width, misordered components, or samples or a
    transform stack past the memory limit (exit code 3)."""


class MissingTruthError(Exception):
    """Recovery asked for a signal without ground truth (exit code 4)."""


# ---------------------------------------------------------------------------
# configuration keys

@dataclass(frozen=True)
class RunConfig:
    """Fully validated settings for one pipeline run."""

    preset: str | None
    components: tuple[ComponentTruth, ...] | None
    file: Path | None
    fs: float
    n: int
    mode: str
    tau0: float
    mu: float
    sigma_kind: str
    sigma_value: float
    sigma_table: Path | None
    voices: int
    xi_bins: int
    gamma1: float
    gamma2: float | None          # None means "auto"
    eps3: float | None            # None means "auto"
    variant: str
    outdir: Path
    pgm: bool

    @property
    def order(self) -> int:
        return 1 if self.variant == "T1" else 2


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

_SECTIONS = {sec: tuple(k.key for k in _KEYS if k.section == sec)
             for sec in dict.fromkeys(k.section for k in _KEYS)}

_PRESET_SPECS = {"example1": example1_spec, "example2": example2_spec}


def _read_samples(path: Path) -> SampledSignal:
    try:
        return signal_from_csv(path)
    except OSError as exc:
        raise ConfigError(f"[signal] file: cannot read: {exc}") from None
    except ValueError as exc:
        raise ConfigError(f"[signal] file: {exc}") from None


def _fixed_sampling(cfg: dict) -> tuple[str, dict] | None:
    """(origin, {fs, n, mode}) of a source that fixes its own sampling."""
    if cfg["file"] is not None:
        sig = _read_samples(cfg["file"])
        return "the sample file", dict(
            fs=float(sig.fs), n=sig.t.size,
            mode="complex" if np.iscomplexobj(sig.x) else "real")
    if cfg["preset"] in _PRESET_SPECS:
        spec = _PRESET_SPECS[cfg["preset"]]()
        return (f"preset {cfg['preset']}",
                dict(fs=spec.fs, n=spec.n, mode=spec.mode))
    return None


def _check_nyquist(components: tuple[ComponentTruth, ...], fs: float,
                   n: int, mode: str) -> None:
    """Every instantaneous frequency must fit the sampled band."""
    spec = SignalSpec(components=components, fs=fs, n=n, mode=mode)
    top = fs if mode == "complex" else fs / 2.0
    with np.errstate(over="ignore", invalid="ignore"):  # inf/NaN fail below
        tracks_f = tracks(spec, spec.times())[0]
    for idx, f in enumerate(tracks_f, start=1):
        if not (np.min(f) > 0.0 and np.max(f) < top):
            raise ConfigError(
                f"[signal] components (entry {idx}): instantaneous "
                f"frequency {np.min(f):g} to {np.max(f):g} Hz leaves "
                f"(0, {top:g}) Hz, the band of a {mode} signal sampled at "
                f"{fs:g} Hz")


# Largest array of samples or transform stack a run may allocate, in bytes
# (1 GiB); a larger one exits 3 before it is allocated.
_STACK_LIMIT = 2 ** 30


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

    fixed = _fixed_sampling(cfg)
    if fixed is not None:
        origin, values = fixed
        for key, want in values.items():
            have = cfg[key]
            agrees = math.isclose(have, want, rel_tol=1e-9) if key == "fs" \
                else have == want
            if ("signal", key) in raw and not agrees:
                shown = f"{want:g}" if key == "fs" else want
                raise ConfigError(f"[signal] {key}: {origin} fixes "
                                  f"{key}={shown}, got {have}")
        cfg.update(values)
    need = cfg["n"] * (16 if cfg["mode"] == "complex" else 8)
    if need > _STACK_LIMIT:
        raise AdmissibilityError(
            f"[signal] n: {cfg['n']} {cfg['mode']} samples would take {need} "
            f"bytes, more than the {_STACK_LIMIT}-byte limit")
    if cfg["components"] is not None:
        _check_nyquist(cfg["components"], cfg["fs"], cfg["n"], cfg["mode"])
    return RunConfig(**cfg)


# ---------------------------------------------------------------------------
# pipeline assembly

def build_signal(cfg: RunConfig) -> tuple[SignalSpec | None, SampledSignal]:
    """Materialize the configured signal (spec is None for file signals)."""
    if cfg.file is not None:
        return None, _read_samples(cfg.file)
    if cfg.preset in _PRESET_SPECS:
        spec = _PRESET_SPECS[cfg.preset]()
    else:
        comps = (tone(40.0, 0.0),) if cfg.preset == "empty" \
            else cfg.components
        spec = SignalSpec(components=comps, fs=cfg.fs, n=cfg.n, mode=cfg.mode)
    return spec, synthesize(spec)


def _read_sigma_table(path: Path, t: np.ndarray) -> SigmaProfile:
    try:
        data = read_table(path, "b,sigma,dsigma")
    except OSError as exc:
        raise ConfigError(f"[sigma] table: cannot read: {exc}") from None
    except ValueError as exc:
        raise ConfigError(f"[sigma] table: {exc}") from None
    if data.shape[0] != t.size:
        raise ConfigError(f"[sigma] table: expected {t.size} rows, one per "
                          f"signal sample, got {data.shape[0]}")
    for bad, what in ((np.abs(data[:, 0] - t) > 1e-9,
                       "the b column must match the signal's time grid"),
                      (data[:, 1] <= 0.0, "sigma must be positive")):
        if np.any(bad):
            raise ConfigError(f"[sigma] table: line {np.argmax(bad) + 2}: "
                              f"{what}")
    return SigmaProfile(b=t, sigma=data[:, 1], dsigma=data[:, 2],
                        kind="table")


def build_profile(cfg: RunConfig, spec: SignalSpec | None, t: np.ndarray,
                  wm: WindowModel) -> SigmaProfile:
    """Window-width profile per the [sigma] section."""
    if cfg.sigma_kind == "constant":
        return constant_profile(t, cfg.sigma_value)
    if cfg.sigma_kind == "table":
        return _read_sigma_table(cfg.sigma_table, t)
    if spec is None:
        raise ConfigError(f"[sigma] kind: {cfg.sigma_kind} needs a signal "
                          "with known components, not a sample file")
    try:
        if cfg.sigma_kind == "sigma1":
            return sigma1(spec, wm)
        return sigma2(spec, wm)
    except ValueError as exc:
        raise AdmissibilityError(str(exc)) from None


def check_admissible(profile: SigmaProfile, wm: WindowModel) -> None:
    """The wavelet stays analytic only while sigma > alpha/mu."""
    smin = float(np.min(profile.sigma))
    if smin * wm.mu <= wm.alpha:
        raise AdmissibilityError(
            f"window width {smin:.6g} does not exceed alpha/mu = "
            f"{wm.alpha / wm.mu:.6g}; the spectral window would cross "
            "zero frequency")


def _check_stack(scales: int, cfg: RunConfig) -> None:
    """Exit 3 if a stack of scales by cfg.n times would pass _STACK_LIMIT."""
    need = len(FIELD_NAMES) * 16 * scales * cfg.n
    if need > _STACK_LIMIT:
        raise AdmissibilityError(
            f"a transform stack of {scales} scales by {cfg.n} times would "
            f"take {need} bytes, more than the {_STACK_LIMIT}-byte limit; "
            f"[grid] voices_per_octave is {cfg.voices}")


@dataclass(frozen=True)
class Analysis:
    """One run of the pipeline, shared by the analyze and recover outputs."""

    spec: SignalSpec | None
    zs: ZoneSet | None
    stack: CwtStack
    plane: PhasePlane
    tf: TfPlane


def run_analysis(cfg: RunConfig) -> Analysis:
    """Execute the transform/reassignment pipeline for the configuration."""
    _check_stack(1, cfg)        # before anything of size n
    spec, sig = build_signal(cfg)
    wm = WindowModel(mu=cfg.mu, tau0=cfg.tau0)
    profile = build_profile(cfg, spec, sig.t, wm)
    check_admissible(profile, wm)

    zs = None
    if spec is not None:
        try:
            zs = zones(spec, wm, profile, order=cfg.order)
        except ValueError as exc:
            raise AdmissibilityError(str(exc)) from None
    if zs is not None and np.any(zs.valid):
        a_min, a_max = zs.span(margin=1.25)
    else:
        # No usable zones (sample files, silent presets): cover the band
        # from 1 Hz up to the signal's own Nyquist with a 25% margin.
        a_min, a_max = cfg.mu / (sig.fs / 2.0) / 1.25, cfg.mu * 1.25
        if not 0.0 < a_min < a_max:
            where = "[signal] file" if cfg.file is not None else "[signal] fs"
            raise ConfigError(
                f"{where}: sampling rate {sig.fs:.6g} Hz leaves no band "
                "between 0.8 Hz and 1.25x Nyquist")
    _check_stack(ScaleGrid.size(a_min, a_max, cfg.voices), cfg)
    grid = ScaleGrid.from_range(a_min, a_max, voices=cfg.voices)
    stack = compute_stack(sig, profile, wm, grid)
    if cfg.variant == "T1":
        plane = phase_first(stack, cfg.gamma1)
    else:
        plane = phase_second(stack, cfg.gamma1, gamma2=cfg.gamma2,
                             hybrid=(cfg.variant == "S2"))

    base = SqueezeConfig.for_stack(stack)
    if cfg.xi_bins > 0:
        base = SqueezeConfig(xi_min=base.xi_min, xi_max=base.xi_max,
                             dxi=(base.xi_max - base.xi_min) / cfg.xi_bins)
    tf = squeeze(stack, plane, base)
    return Analysis(spec=spec, zs=zs, stack=stack, plane=plane, tf=tf)


def _omega_to_csv(stack: CwtStack, plane: PhasePlane, path) -> None:
    """Instantaneous-frequency lattice as a,b,omega (nan when masked)."""
    write_table(path, "a,b,omega", stack.a[:, None], stack.b,
                np.where(plane.valid, plane.omega, np.nan))


def _resolve_eps3(cfg: RunConfig, ridge: np.ndarray,
                  ) -> float | np.ndarray:
    if cfg.eps3 is not None:
        return cfg.eps3
    if ridge.shape[0] >= 2:
        return np.min(np.diff(ridge, axis=0), axis=0) / 2.0
    # Single component: half its lowest instantaneous frequency keeps the
    # collection window inside the positive-frequency half-line.
    return float(np.min(ridge)) / 2.0


def _write_analysis(cfg: RunConfig, res: Analysis) -> None:
    cfg.outdir.mkdir(parents=True, exist_ok=True)
    tf_to_csv(res.tf, cfg.outdir / "tf.csv")
    if cfg.pgm:
        tf_to_pgm(res.tf, cfg.outdir / "tf.pgm")
    _omega_to_csv(res.stack, res.plane, cfg.outdir / "omega.csv")
    zones_to_csv(res.zs, cfg.outdir / "zones.csv")
    profile_to_csv(res.stack.profile, cfg.outdir / "sigma.csv")


def _write_report(cfg: RunConfig, res: Analysis) -> None:
    spec, stack, t = res.spec, res.stack, res.stack.sig.t
    ridge = tracks(spec, t)[0]
    truth = np.vstack([c.evaluate(t, analytic=(spec.mode == "complex"))
                       for c in spec.components])
    zs_for_norms = res.zs if cfg.order == 2 else None
    try:
        check_order(ridge)
        eps3 = _resolve_eps3(cfg, ridge)
        norms = normalizers(spec, stack.wm, stack.profile, zs=zs_for_norms)
        if not np.any(stack.sig.x):
            # Silent signal: every amplitude-driven term of the error
            # budget vanishes and only the threshold-times-zone-measure
            # term survives, so evaluate that limit directly (the full
            # budget is undefined because the class model requires
            # positive amplitudes).
            log_measure = np.log(res.zs.upper / res.zs.lower)
            denom = np.abs(norms.c_k) if cfg.order == 2 \
                else np.abs(norms.c_alpha)[None, :]
            bound = cfg.gamma1 * log_measure / denom
        elif cfg.order == 1:
            rep = bounds_first(spec, stack.wm, stack.profile, res.zs,
                               cfg.gamma1)
            bound = rep.recovery_bound
        else:
            rep = bounds_second(spec, stack.wm, stack.profile, res.zs,
                                cfg.gamma1, res.plane.gamma2)
            bound = rep.recovery_bound_main / np.abs(norms.c_k)
        result = recover(res.tf, norms, ridge, eps3,
                         mode="first" if cfg.order == 1 else "second",
                         truth=truth, real_signal=(spec.mode == "real"))
    except ValueError as exc:
        raise AdmissibilityError(str(exc)) from None

    cfg.outdir.mkdir(parents=True, exist_ok=True)
    report_to_csv(result, bound, cfg.outdir / "report.csv")


# ---------------------------------------------------------------------------
# commands

def cmd_synth(cfg: RunConfig) -> int:
    """Write the configured signal as <outdir>/signal.csv."""
    _, sig = build_signal(cfg)
    cfg.outdir.mkdir(parents=True, exist_ok=True)
    signal_to_csv(sig, cfg.outdir / "signal.csv")
    return 0


def cmd_analyze(cfg: RunConfig) -> int:
    """Write tf.csv (+ tf.pgm), omega.csv, zones.csv, sigma.csv."""
    _write_analysis(cfg, run_analysis(cfg))
    return 0


def cmd_recover(cfg: RunConfig) -> int:
    """Write report.csv: estimates vs. truth against the error bound."""
    if cfg.file is not None:
        raise MissingTruthError(
            "recovery compares against ground truth, which a sample file "
            "does not carry; define the signal by preset or components")
    _write_report(cfg, run_analysis(cfg))
    return 0


_DEMO_OVERRIDES = {
    preset: {("signal", "preset"): preset, ("sigma", "kind"): kind,
             ("run", "variant"): variant}
    for preset, kind, variant in (("example1", "sigma1", "T1"),
                                  ("example2", "sigma2", "S2"))}


def cmd_demo(cfg: RunConfig) -> int:
    """synth + analyze + recover with the canned settings, analyzing once."""
    res = run_analysis(cfg)
    _write_analysis(cfg, res)
    signal_to_csv(res.stack.sig, cfg.outdir / "signal.csv")
    _write_report(cfg, res)
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


_COMMANDS = {"synth": cmd_synth, "analyze": cmd_analyze,
             "recover": cmd_recover, "demo": cmd_demo}
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
        return _COMMANDS[args.command](cfg)
    except tuple(_EXITS) as exc:
        code, label = _EXITS[type(exc)]
        print(f"{label} error: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    raise SystemExit(main())
