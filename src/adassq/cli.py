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
headers.  Every command-line flag mirrors one config key and takes
precedence over the file.  Unknown sections or keys are rejected with the
offending location spelled out.  All output files are deterministic: the
same configuration produces byte-identical CSVs on every run.  Floats are
written with 17 significant digits, ``.`` decimal separator, no locale,
and every line ends in LF.

Exit codes: 0 success, 2 malformed configuration (including a malformed
sample file), 3 inadmissible window-width profile for the requested
analysis, 4 recovery requested for a signal without ground truth.
"""
from __future__ import annotations

import argparse
import configparser
import csv
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bounds import bounds_first, bounds_second, normalizers, recover, \
    report_to_csv
from .cwt import CwtStack, ScaleGrid, compute_stack
from .separation import SigmaProfile, ZoneSet, constant_profile, \
    profile_to_csv, sigma1, sigma2, zones, zones_to_csv
from .signals import ComponentTruth, SampledSignal, SignalSpec, \
    example1_spec, example2_spec, linear_chirp, poly_phase, signal_from_csv,\
    signal_to_csv, synthesize, tone, write_table
from .sst import PhasePlane, SqueezeConfig, TfPlane, phase_first, \
    phase_second, squeeze, tf_to_csv, tf_to_pgm
# Not called here (phase_second derives its own floor), but perfbench's
# span recorder looks the name up on this module.
from .sst import default_gamma2  # noqa: F401
from .windows import WindowModel


class ConfigError(Exception):
    """Malformed or inconsistent configuration (exit code 2)."""


class AdmissibilityError(Exception):
    """Window-width profile unusable for this analysis (exit code 3)."""


class MissingTruthError(Exception):
    """Recovery asked for a signal without ground truth (exit code 4)."""


# ---------------------------------------------------------------------------
# configuration schema

_SCHEMA = {
    "signal": ("preset", "components", "file", "fs", "n", "mode"),
    "window": ("tau0", "mu"),
    "sigma": ("kind", "value", "table"),
    "grid": ("voices_per_octave", "xi_bins"),
    "thresholds": ("gamma1", "gamma2", "eps3"),
    "run": ("variant", "outdir", "pgm"),
}

_DEFAULTS = {
    ("signal", "fs"): "256",
    ("signal", "n"): "256",
    ("signal", "mode"): "real",
    ("window", "tau0"): "0.05",
    ("window", "mu"): "1",
    ("sigma", "kind"): "constant",
    ("sigma", "value"): "1.0",
    ("grid", "voices_per_octave"): "32",
    ("grid", "xi_bins"): "0",
    ("thresholds", "gamma1"): "0.01",
    ("thresholds", "gamma2"): "auto",
    ("thresholds", "eps3"): "auto",
    ("run", "variant"): "T1",
    ("run", "outdir"): "out",
    ("run", "pgm"): "yes",
}

_VARIANTS = ("T1", "T2", "S2")
_SIGMA_KINDS = ("constant", "sigma1", "sigma2", "table")
_PRESETS = ("example1", "example2", "empty")


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


def _parse_components(text: str) -> tuple[ComponentTruth, ...]:
    """Parse ``kind:arg:...`` specs separated by ``;``.

    tone:freq[:amp]     chirp:f0:rate[:amp]     poly:c0,c1,...[:amp]
    """
    comps = []
    for idx, chunk in enumerate(text.split(";"), start=1):
        loc = f"[signal] components (entry {idx})"
        fields = [f.strip() for f in chunk.strip().split(":")]
        if not fields or not fields[0]:
            raise ConfigError(f"{loc}: empty component spec")
        kind, args = fields[0], fields[1:]
        try:
            if kind == "tone":
                if len(args) not in (1, 2):
                    raise ValueError("tone takes freq[:amp]")
                comps.append(tone(float(args[0]),
                                  float(args[1]) if len(args) == 2 else 1.0))
            elif kind == "chirp":
                if len(args) not in (2, 3):
                    raise ValueError("chirp takes f0:rate[:amp]")
                comps.append(linear_chirp(
                    float(args[0]), float(args[1]),
                    float(args[2]) if len(args) == 3 else 1.0))
            elif kind == "poly":
                if len(args) not in (1, 2):
                    raise ValueError("poly takes c0,c1,...[:amp]")
                coeffs = tuple(float(c) for c in args[0].split(","))
                comps.append(poly_phase(
                    coeffs, float(args[1]) if len(args) == 2 else 1.0))
            else:
                raise ValueError(f"unknown component kind {kind!r} "
                                 "(expected tone, chirp, or poly)")
        except ValueError as exc:
            raise ConfigError(f"{loc}: {exc}") from None
    if not comps:
        raise ConfigError("[signal] components: no components given")
    return tuple(comps)


def _positive(value: float, loc: str) -> float:
    if not math.isfinite(value) or value <= 0.0:
        raise ConfigError(f"{loc}: must be a positive finite number, "
                          f"got {value}")
    return value


def _float(raw: str, loc: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"{loc}: not a number: {raw!r}") from None


def _int(raw: str, loc: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{loc}: not an integer: {raw!r}") from None


def _auto_or_positive(raw: str, loc: str) -> float | None:
    if raw.strip().lower() == "auto":
        return None
    return _positive(_float(raw, loc), loc)


def load_config(path: Path | None,
                overrides: dict[tuple[str, str], str] | None = None
                ) -> RunConfig:
    """Read, override, and validate a configuration.

    ``path`` may be None when all settings come from flags/defaults.
    ``overrides`` maps (section, key) to raw string values and wins over
    the file.  Raises ConfigError with the offending location on any
    problem.
    """
    cp = configparser.ConfigParser(interpolation=None,
                                   empty_lines_in_values=False)
    if path is not None:
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from None
        try:
            cp.read_string(text, source=str(path))
        except configparser.Error as exc:
            raise ConfigError(str(exc)) from None

    for sec in cp.sections():
        if sec not in _SCHEMA:
            raise ConfigError(f"[{sec}]: unknown section "
                              f"(expected one of {', '.join(_SCHEMA)})")
        for key in cp[sec]:
            if key not in _SCHEMA[sec]:
                raise ConfigError(f"[{sec}] {key}: unknown key (expected "
                                  f"one of {', '.join(_SCHEMA[sec])})")

    raw: dict[tuple[str, str], str] = {}
    explicit: set[tuple[str, str]] = set()
    for sec in _SCHEMA:
        if cp.has_section(sec):
            for key, val in cp.items(sec):
                raw[(sec, key)] = val
                explicit.add((sec, key))
    for (sec, key), val in (overrides or {}).items():
        if sec not in _SCHEMA or key not in _SCHEMA[sec]:
            raise ConfigError(f"[{sec}] {key}: unknown key")
        raw[(sec, key)] = val
        explicit.add((sec, key))
    for loc, val in _DEFAULTS.items():
        raw.setdefault(loc, val)

    sources = [src for src in ("preset", "components", "file")
               if ("signal", src) in raw]
    if len(sources) != 1:
        raise ConfigError("[signal]: exactly one of preset, components, or "
                          f"file must be set (got {len(sources)})")
    source = sources[0]

    fs = _positive(_float(raw[("signal", "fs")], "[signal] fs"),
                   "[signal] fs")
    n = _int(raw[("signal", "n")], "[signal] n")
    if n < 1:
        raise ConfigError(f"[signal] n: must be >= 1, got {n}")
    mode = raw[("signal", "mode")].strip().lower()
    if mode not in ("real", "complex"):
        raise ConfigError(f"[signal] mode: expected real or complex, "
                          f"got {mode!r}")

    preset = components = file = None
    if source == "preset":
        preset = raw[("signal", "preset")].strip().lower()
        if preset not in _PRESETS:
            raise ConfigError(f"[signal] preset: unknown preset {preset!r} "
                              f"(expected one of {', '.join(_PRESETS)})")
        if preset in ("example1", "example2"):
            fixed = example1_spec() if preset == "example1" \
                else example2_spec()
            for key, want, have in (("fs", fixed.fs, fs),
                                    ("n", fixed.n, float(n))):
                if ("signal", key) in explicit and have != want:
                    raise ConfigError(f"[signal] {key}: preset {preset} "
                                      f"fixes {key}={want:g}")
            if ("signal", "mode") in explicit and mode != fixed.mode:
                raise ConfigError(f"[signal] mode: preset {preset} fixes "
                                  f"mode={fixed.mode}")
            fs, n, mode = fixed.fs, fixed.n, fixed.mode
    elif source == "components":
        components = _parse_components(raw[("signal", "components")])
    else:
        file = Path(raw[("signal", "file")].strip())

    tau0 = _float(raw[("window", "tau0")], "[window] tau0")
    if not 0.0 < tau0 < 1.0:
        raise ConfigError(f"[window] tau0: must lie in (0, 1), got {tau0}")
    mu = _positive(_float(raw[("window", "mu")], "[window] mu"),
                   "[window] mu")

    sigma_kind = raw[("sigma", "kind")].strip().lower()
    if sigma_kind not in _SIGMA_KINDS:
        raise ConfigError(f"[sigma] kind: expected one of "
                          f"{', '.join(_SIGMA_KINDS)}, got {sigma_kind!r}")
    sigma_value = _positive(_float(raw[("sigma", "value")], "[sigma] value"),
                            "[sigma] value")
    sigma_table = None
    if sigma_kind == "table":
        if ("sigma", "table") not in raw:
            raise ConfigError("[sigma] table: required when kind = table")
        sigma_table = Path(raw[("sigma", "table")].strip())

    voices = _int(raw[("grid", "voices_per_octave")],
                  "[grid] voices_per_octave")
    if voices < 1:
        raise ConfigError(f"[grid] voices_per_octave: must be >= 1, "
                          f"got {voices}")
    xi_bins = _int(raw[("grid", "xi_bins")], "[grid] xi_bins")
    if xi_bins < 0:
        raise ConfigError(f"[grid] xi_bins: must be >= 0 (0 means the "
                          f"native 0.25 Hz bins), got {xi_bins}")

    gamma1 = _positive(_float(raw[("thresholds", "gamma1")],
                              "[thresholds] gamma1"), "[thresholds] gamma1")
    gamma2 = _auto_or_positive(raw[("thresholds", "gamma2")],
                               "[thresholds] gamma2")
    eps3 = _auto_or_positive(raw[("thresholds", "eps3")],
                             "[thresholds] eps3")

    variant = raw[("run", "variant")].strip()
    if variant not in _VARIANTS:
        raise ConfigError(f"[run] variant: expected one of "
                          f"{', '.join(_VARIANTS)}, got {variant!r}")
    outdir = Path(raw[("run", "outdir")].strip())
    pgm_raw = raw[("run", "pgm")].strip().lower()
    if pgm_raw not in ("yes", "no", "true", "false", "1", "0"):
        raise ConfigError(f"[run] pgm: expected yes or no, got {pgm_raw!r}")
    pgm = pgm_raw in ("yes", "true", "1")

    return RunConfig(preset=preset, components=components, file=file,
                     fs=fs, n=n, mode=mode, tau0=tau0, mu=mu,
                     sigma_kind=sigma_kind, sigma_value=sigma_value,
                     sigma_table=sigma_table, voices=voices, xi_bins=xi_bins,
                     gamma1=gamma1, gamma2=gamma2, eps3=eps3,
                     variant=variant, outdir=outdir, pgm=pgm)


# ---------------------------------------------------------------------------
# pipeline assembly

def build_signal(cfg: RunConfig) -> tuple[SignalSpec | None, SampledSignal]:
    """Materialize the configured signal (spec is None for file signals)."""
    if cfg.file is not None:
        try:
            sig = signal_from_csv(cfg.file)
        except OSError as exc:
            raise ConfigError(f"[signal] file: cannot read: {exc}") from None
        except ValueError as exc:
            raise ConfigError(f"[signal] file: {exc}") from None
        return None, sig
    if cfg.preset == "example1":
        spec = example1_spec()
    elif cfg.preset == "example2":
        spec = example2_spec()
    elif cfg.preset == "empty":
        spec = SignalSpec(components=(tone(40.0, 0.0),), fs=cfg.fs, n=cfg.n,
                          mode=cfg.mode)
    else:
        spec = SignalSpec(components=cfg.components, fs=cfg.fs, n=cfg.n,
                          mode=cfg.mode)
    return spec, synthesize(spec)


def _read_sigma_table(path: Path, t: np.ndarray) -> SigmaProfile:
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise ConfigError(f"[sigma] table: cannot read: {exc}") from None
    if not rows or rows[0][:3] != ["b", "sigma", "dsigma"]:
        raise ConfigError("[sigma] table: expected header b,sigma,dsigma")
    try:
        data = np.array([[float(v) for v in row[:3]] for row in rows[1:]])
    except ValueError as exc:
        raise ConfigError(f"[sigma] table: {exc}") from None
    if data.shape[0] != t.size or np.max(np.abs(data[:, 0] - t)) > 1e-9:
        raise ConfigError("[sigma] table: the b column must match the "
                          "signal's time grid sample for sample")
    if np.any(data[:, 1] <= 0.0):
        raise ConfigError("[sigma] table: sigma must be positive everywhere")
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


@dataclass(frozen=True)
class Analysis:
    """One run of the pipeline, shared by the analyze and recover outputs."""

    spec: SignalSpec | None
    sig: SampledSignal
    wm: WindowModel
    profile: SigmaProfile
    zs: ZoneSet | None
    stack: CwtStack
    plane: PhasePlane
    tf: TfPlane


def run_analysis(cfg: RunConfig) -> Analysis:
    """Execute the transform/reassignment pipeline for the configuration."""
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
        grid = ScaleGrid.from_zones(zs, voices=cfg.voices, margin=1.25)
    else:
        # No usable zones (sample files, silent presets): cover the band
        # from 1 Hz up to Nyquist with the same 25% margin.
        grid = ScaleGrid.from_range(cfg.mu / (cfg.fs / 2.0) / 1.25,
                                    cfg.mu * 1.25, voices=cfg.voices)

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
    return Analysis(spec=spec, sig=sig, wm=wm, profile=profile, zs=zs,
                    stack=stack, plane=plane, tf=tf)


def _omega_to_csv(stack: CwtStack, plane: PhasePlane, path) -> None:
    """Instantaneous-frequency lattice as a,b,omega (nan when masked)."""
    write_table(path, "a,b,omega", stack.a[:, None], stack.b,
                np.where(plane.valid, plane.omega, np.nan))


def _resolve_eps3(cfg: RunConfig, ridge: np.ndarray,
                  ) -> float | np.ndarray:
    if cfg.eps3 is not None:
        return cfg.eps3
    if ridge.shape[0] >= 2:
        gaps = np.diff(ridge, axis=0)
        if np.min(gaps) <= 0.0:
            raise ConfigError("[thresholds] eps3: auto needs components "
                              "with separated, ordered frequencies; set an "
                              "explicit value instead")
        return np.min(gaps, axis=0) / 2.0
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
    profile_to_csv(res.profile, cfg.outdir / "sigma.csv")


def _write_report(cfg: RunConfig, res: Analysis) -> None:
    spec, t = res.spec, res.sig.t
    comps = sorted(spec.components,
                   key=lambda c: float(np.mean(c.dphase(t))))
    ridge = np.vstack([c.dphase(t) for c in comps])
    truth = np.vstack([c.evaluate(t, analytic=(spec.mode == "complex"))
                       for c in comps])
    eps3 = _resolve_eps3(cfg, ridge)

    zs_for_norms = res.zs if cfg.order == 2 else None
    try:
        norms = normalizers(spec, res.wm, res.profile, zs=zs_for_norms)
        if not np.any(res.sig.x):
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
            rep = bounds_first(spec, res.wm, res.profile, res.zs, cfg.gamma1)
            bound = rep.recovery_bound
        else:
            rep = bounds_second(spec, res.wm, res.profile, res.zs,
                                cfg.gamma1, res.plane.gamma2,
                                stack=res.stack)
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
    "example1": {("signal", "preset"): "example1",
                 ("sigma", "kind"): "sigma1",
                 ("run", "variant"): "T1"},
    "example2": {("signal", "preset"): "example2",
                 ("sigma", "kind"): "sigma2",
                 ("run", "variant"): "S2"},
}


def cmd_demo(cfg: RunConfig) -> int:
    """synth + analyze + recover with the canned settings, analyzing once."""
    res = run_analysis(cfg)
    _write_analysis(cfg, res)
    signal_to_csv(res.sig, cfg.outdir / "signal.csv")
    _write_report(cfg, res)
    return 0


# ---------------------------------------------------------------------------
# argument parsing

_FLAGS: tuple[tuple[str, str, str, str], ...] = (
    # flag, section, key, help
    ("--preset", "signal", "preset",
     "signal preset: example1, example2, or empty"),
    ("--components", "signal", "components",
     "inline components, e.g. 'chirp:12:0.5; chirp:26:-0.5'"),
    ("--signal-file", "signal", "file", "read samples from a t,re,im CSV"),
    ("--fs", "signal", "fs", "sampling rate in Hz"),
    ("--n", "signal", "n", "number of samples"),
    ("--mode", "signal", "mode", "real or complex synthesis"),
    ("--tau0", "window", "tau0", "spectral support cutoff in (0, 1)"),
    ("--mu", "window", "mu", "center frequency of the unit-scale wavelet"),
    ("--sigma", "sigma", "kind",
     "window-width rule: constant, sigma1, sigma2, or table"),
    ("--sigma-value", "sigma", "value", "width for --sigma constant"),
    ("--sigma-table", "sigma", "table", "b,sigma,dsigma CSV for --sigma "
     "table"),
    ("--voices", "grid", "voices_per_octave", "scale samples per octave"),
    ("--xi-bins", "grid", "xi_bins",
     "number of frequency bins (0 = native 0.25 Hz bins)"),
    ("--gamma1", "thresholds", "gamma1", "coefficient threshold"),
    ("--gamma2", "thresholds", "gamma2",
     "conditioning threshold for second-order variants, or 'auto'"),
    ("--eps3", "thresholds", "eps3",
     "half-width of the ridge collection window, or 'auto'"),
    ("--variant", "run", "variant", "phase transform: T1, T2, or S2"),
    ("--outdir", "run", "outdir", "output directory"),
    ("--pgm", "run", "pgm", "write tf.pgm: yes or no"),
)


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
    for flag, sec, key, help_text in _FLAGS:
        common.add_argument(flag, metavar="V", dest=f"{sec}.{key}",
                            help=help_text)

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
    demo.add_argument("--outdir", metavar="DIR",
                      help="output directory (default: out)")
    demo.add_argument("--pgm", metavar="V", help="write tf.pgm: yes or no")
    return top


def main(argv: list[str] | None = None) -> int:
    args = _make_parser().parse_args(argv)
    try:
        if args.command == "demo":
            overrides = dict(_DEMO_OVERRIDES[args.preset])
            if args.outdir is not None:
                overrides[("run", "outdir")] = args.outdir
            if args.pgm is not None:
                overrides[("run", "pgm")] = args.pgm
            cfg = load_config(None, overrides)
            return cmd_demo(cfg)
        overrides = {}
        for flag, sec, key, _ in _FLAGS:
            val = getattr(args, f"{sec}.{key}")
            if val is not None:
                overrides[(sec, key)] = val
        cfg = load_config(Path(args.config) if args.config else None,
                          overrides)
        return {"synth": cmd_synth, "analyze": cmd_analyze,
                "recover": cmd_recover}[args.command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except AdmissibilityError as exc:
        print(f"admissibility error: {exc}", file=sys.stderr)
        return 3
    except MissingTruthError as exc:
        print(f"recovery error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
