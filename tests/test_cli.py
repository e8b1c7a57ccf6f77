"""Command-line interface: configuration, pipelines, files, exit codes.

What is proven here
-------------------
1. Configuration handling: defaults fill in, flags beat the file, every
   key gives the same settings from the file as from its flag, the
   README's config block, comments and all, is exactly the defaults, a
   ';' after whitespace starts a comment in every file value but the
   component list (flag values are taken whole), unknown
   sections/keys/presets are rejected with their location spelled out,
   numeric ranges are enforced, inline component specs parse to the right
   ground truth and must stay below Nyquist, presets and sample files fix
   their sampling parameters, synth and analyze read a sample file once,
   and window-width tables are validated
   against the signal's time grid, with an off-grid time, a nonpositive
   width, a short row or a non-finite value reported by its file line,
   while a valid table is the run's profile and comes back as sigma.csv
   byte for byte.
2. synth: the presets write the documented signal.csv files (256 rows for
   both running examples, zero-filled rows for the silent preset) and the
   bytes agree with the library's own writer.
3. analyze: all documented output files appear (the PGM only when asked),
   the per-column maxima of the squeezed plane track both chirp ridges to
   within two frequency bins on the interior for both running examples,
   a constant-width run is byte-identical to squeezing the conventional
   phase transform built directly from a transform stack recomputed from
   the run's signal, width profile, window model and grid, sample-file
   signals get a header-only zone table and a band set by their own
   sampling rate, and the frequency-bin count follows the grid setting.
   Blocks of 1 and 7 scales or columns give the bytes of one block of
   the whole lattice, on both stack paths, for T1, T2 and S2, with gamma2
   given or by default; on the same inputs the library walk (sst.walk
   over cwt.stack_walk's blocks, each built by cwt.compute_stack) gives
   the run's phase plane and squeezed plane bit for bit, its tracemalloc
   peak within the memory guard's count of the run.
4. recover: the per-cell error respects the theoretical bound on the
   interior for both running examples, a silent signal reports zero
   error everywhere, and a silent component beside a live one is
   certified on the interior under T1 and S2; the README's library flow
   from a preset's spec, ending in bounds.certify, gives the command's
   abs_error and bound bit for bit (demo example1 and example2, and a
   T2 recover of example2).
5. Contract: exit codes 0/2/3/4 distinguish success, configuration
   failures, inadmissible window widths, and recovery without ground
   truth; an outdir that is a regular file or lies below one, and an
   output file that cannot be opened, exit 2 naming [run] outdir, for
   every command; analyze writes tf.csv and tf.pgm from a forked child,
   and a directory where either goes, a child killed by a signal or
   ending without a report, and a directory where a file of the parent
   process goes each exit 2 naming [run] outdir and the file, with no
   traceback and no child left; Python 3.12's warning of a fork beside
   other threads is hidden, so stderr stays empty; without os.fork, or
   where it fails for want of a process, demo example2 and analyze write
   the same bytes from one process, exit 0 and leave no descriptor of
   the child's pipe open; a malformed sample
   file exits 2 naming its line, before any output is written, and so
   does one whose sampling rate leaves no band to analyze; so does every
   Hypothesis mutation of a valid file (short
   rows, non-numeric, non-UTF-8 and non-finite cells, a quoted cell that
   runs on to the next line, off-grid, swapped, decreasing or overflowing
   times, an empty body, a bad header), never with a traceback; a
   config file that is not UTF-8 exits 2, every Hypothesis config text
   (unknown and repeated sections and keys, comments, continuation
   lines, bad bytes, extreme values) loads or raises ConfigError, and a
   component value that is not finite or whose track overflows exits 2;
   an analysis past the memory limit exits 3 before any scale is
   allocated, naming its scale count and bytes, and the count bounds
   what the run allocates within a factor of two (tracemalloc's peak of
   run_analysis, kernels and temporaries included, on both paths and
   over a complex spectrum);
   a limit one byte below it refuses the run and a limit equal to it
   runs; doubling the voices raises run_analysis's traced peak
   by less than one J x n field; a squeezed plane past it exits 3 naming
   its bin count before any bin exists, and an xi_bins count past the
   float range before any stack is computed; an analysis of one scale is
   checked before the Nyquist check evaluates any phase; recover exits 3 on
   components out of frequency order, with eps3 auto or set, on a
   negative amplitude, naming its component, and on an infinite error
   bound or recovery error, naming the window's inputs, with no output;
   a signal that is not zero but leaves no cell with a finite frequency
   estimate
   (a record of 2-4 samples, a threshold above every |w|, an amplitude
   under it) exits 3 naming [thresholds] gamma1, the walk's largest w
   and n, whether or not the plane waits for its default gamma2, with
   no output; reruns of
   the same configuration are byte-identical; importing the command
   loads no scipy module, since numpy is the only runtime dependency,
   and no numpy.polynomial module, and builds no quadrature rule: only a
   recovery builds it, once;
   with RuntimeWarning an error, Hypothesis runs with mu, width,
   amplitudes or sample magnitude near either end of the float range
   exit 0, 2, 3 or 4 without a traceback, and on exit 0 no output file
   holds an infinity (finite or fail); a first-order estimate that
   overflows on a kept cell exits 3 naming the window's inputs.
6. demo: one analysis per run, whose blocks cover the lattice once and
   are freed when run_analysis returns while its result lives on, none of
   them the whole stack, and the same bytes as separate synth,
   analyze and recover runs with the demo's settings; a demo whose
   report step fails exits 3 and writes nothing, and recover of a sample
   file exits 4 before any analysis.
"""
from __future__ import annotations

import contextlib
import csv
import dataclasses
import errno
import io
import os
import re
import shutil
import signal
import subprocess
import sys
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import adassq
from adassq import bounds, cli, cwt, sst
from adassq.cli import ConfigError, build_signal, load_config, main, \
    run_analysis
from adassq.cwt import ScaleGrid, compute_stack, stack_walk
from adassq.signals import ComponentTruth, example1_spec, example2_spec
from adassq.sst import PHASE_FIELDS, PhasePlane, SqueezeConfig, squeeze, \
    tf_to_csv, walk


def run(*argv: str) -> int:
    return main(list(argv))


def read_rows(path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def load_tf(path):
    """tf.csv -> (xi axis, b axis, |T| as [n_xi, n_b])."""
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    xi = np.unique(data[:, 0])
    b = np.unique(data[:, 1])
    assert data.shape[0] == xi.size * b.size
    assert np.allclose(data[:, 0], np.repeat(xi, b.size))
    return xi, b, data[:, 4].reshape(xi.size, b.size)


@pytest.fixture(scope="module")
def demo1(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("demo1")
    assert run("demo", "example1", "--outdir", str(out)) == 0
    return out


@pytest.fixture(scope="module")
def demo2(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("demo2")
    assert run("demo", "example2", "--outdir", str(out), "--pgm", "no") == 0
    return out


# ---------------------------------------------------------------------------
# 1. configuration handling

def test_defaults_fill_in():
    cfg = load_config(None, {("signal", "preset"): "example1"})
    assert cfg.tau0 == 0.05 and cfg.mu == 1.0 and cfg.gamma1 == 0.01
    assert cfg.gamma2 is None and cfg.eps3 is None          # both "auto"
    assert cfg.voices == 32 and cfg.xi_bins == 0
    assert cfg.variant == "T1" and cfg.pgm and cfg.outdir == Path("out")
    assert cfg.fs == 256.0 and cfg.n == 256 and cfg.mode == "real"


def test_flag_overrides_beat_file(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("[signal]\npreset = example1\n"
                       "[run]\noutdir = from_file\nvariant = T1\n")
    cfg = load_config(cfgfile, {("run", "outdir"): "from_flag",
                                ("thresholds", "gamma1"): "0.02"})
    assert cfg.outdir == Path("from_flag")
    assert cfg.gamma1 == 0.02
    assert cfg.variant == "T1"


# A non-default value for every configuration key, and the other keys it
# needs; None stands for a sample file written by the test.
_EMPTY = {("signal", "preset"): "empty"}
_KEY_SAMPLES = {
    ("signal", "preset"): ("example2", {}),
    ("signal", "components"): ("tone:40:2; chirp:10:5", {}),
    ("signal", "file"): (None, {}),
    ("signal", "fs"): ("128", _EMPTY),
    ("signal", "n"): ("64", _EMPTY),
    ("signal", "mode"): ("complex", _EMPTY),
    ("window", "tau0"): ("0.1", _EMPTY),
    ("window", "mu"): ("2", _EMPTY),
    ("sigma", "kind"): ("sigma1", _EMPTY),
    ("sigma", "value"): ("2.5", _EMPTY),
    ("sigma", "table"): ("w.csv", {**_EMPTY, ("sigma", "kind"): "table"}),
    ("grid", "voices_per_octave"): ("16", _EMPTY),
    ("grid", "xi_bins"): ("100", _EMPTY),
    ("thresholds", "gamma1"): ("0.02", _EMPTY),
    ("thresholds", "gamma2"): ("0.5", _EMPTY),
    ("thresholds", "eps3"): ("3", _EMPTY),
    ("run", "variant"): ("S2", _EMPTY),
    ("run", "outdir"): ("elsewhere", _EMPTY),
    ("run", "pgm"): ("no", _EMPTY),
}


def _write_cfg(path, settings):
    sections: dict[str, list[str]] = {}
    for (sec, key), val in settings.items():
        sections.setdefault(sec, []).append(f"{key} = {val}")
    path.write_text("".join(f"[{sec}]\n" + "\n".join(lines) + "\n"
                            for sec, lines in sections.items()))
    return path


@pytest.mark.parametrize("row", cli._KEYS,
                         ids=lambda k: f"{k.section}.{k.key}")
def test_file_and_flag_give_the_same_config(row, tmp_path, monkeypatch):
    value, context = _KEY_SAMPLES[(row.section, row.key)]
    if value is None:
        value = str(tmp_path / "samples.csv")
        (tmp_path / "samples.csv").write_text("t,re,im\n0,1,0\n0.5,0,0\n")
    from_file = load_config(_write_cfg(
        tmp_path / "key.cfg", {**context, (row.section, row.key): value}))
    seen = []
    monkeypatch.setattr(cli, "run_command",
                        lambda command, cfg: seen.append(cfg) or 0)
    assert run("synth", "--config",
               str(_write_cfg(tmp_path / "context.cfg", context)),
               row.flag, value) == 0
    assert seen[0] == from_file
    if row.default is not None:     # the sample really moves the field
        assert getattr(from_file, row.field) != \
            getattr(load_config(None, context), row.field)


def test_readme_config_block_is_the_defaults(tmp_path):
    readme = Path(__file__).resolve().parents[1] / "README.md"
    block = readme.read_text().split("```ini\n")[1].split("```")[0]
    (tmp_path / "readme.cfg").write_text(block)
    assert load_config(tmp_path / "readme.cfg") == \
        load_config(None, {("signal", "preset"): "example1"})


def test_file_values_drop_inline_comments(tmp_path):
    cfg = load_config(_write_cfg(tmp_path / "c.cfg", {
        ("signal", "components"): "tone:40 ; chirp:10:5",
        ("thresholds", "gamma1"): "0.02\t; after a tab",
        ("run", "outdir"): "out2 ; where"}))
    assert cfg.outdir == Path("out2")
    assert cfg.gamma1 == 0.02
    assert len(cfg.components) == 2     # ';' separates component entries
    flagged = load_config(None, {("signal", "preset"): "example1",
                                 ("run", "outdir"): "out2 ; where"})
    assert flagged.outdir == Path("out2 ; where")
    commented_out = _write_cfg(tmp_path / "d.cfg", {
        ("signal", "preset"): "example1", ("run", "outdir"): "; where"})
    with pytest.raises(ConfigError, match=r"\[run\] outdir: .*empty"):
        load_config(commented_out)


def test_unknown_locations_are_spelled_out(tmp_path):
    bad_section = tmp_path / "a.cfg"
    bad_section.write_text("[signal]\npreset = example1\n[extra]\nx = 1\n")
    with pytest.raises(ConfigError, match=r"\[extra\]"):
        load_config(bad_section)
    bad_key = tmp_path / "b.cfg"
    bad_key.write_text("[signal]\npreset = example1\nbogus = 1\n")
    with pytest.raises(ConfigError, match=r"\[signal\] bogus"):
        load_config(bad_key)
    with pytest.raises(ConfigError, match=r"\[signal\] preset"):
        load_config(None, {("signal", "preset"): "nosuch"})
    broken = tmp_path / "c.cfg"
    broken.write_text("preset = example1\n")  # key before any section
    with pytest.raises(ConfigError, match="line"):
        load_config(broken)


@pytest.mark.parametrize("key, value, fragment", [
    (("thresholds", "gamma1"), "0", "gamma1"),
    (("thresholds", "gamma1"), "-1", "gamma1"),
    (("thresholds", "gamma2"), "-0.5", "gamma2"),
    (("thresholds", "eps3"), "nope", "eps3"),
    (("window", "tau0"), "1.5", "tau0"),
    (("window", "mu"), "0", "mu"),
    (("grid", "voices_per_octave"), "0", "voices"),
    (("grid", "xi_bins"), "-1", "xi_bins"),
    (("run", "variant"), "X9", "variant"),
    (("signal", "mode"), "quaternion", "mode"),
    (("signal", "n"), "0", "n"),
    (("run", "pgm"), "maybe", "pgm"),
    (("signal", "n"), "1", "n"),
])
def test_value_validation(key, value, fragment):
    overrides = {("signal", "preset"): "empty", key: value}
    with pytest.raises(ConfigError, match=fragment):
        load_config(None, overrides)


def test_component_specs_parse_to_ground_truth():
    cfg = load_config(None, {
        ("signal", "components"):
            "tone:40:2 ; chirp:10:5 ; poly:0,30,0,2:0.5"})
    tones, chirp, poly = cfg.components
    assert tones.dphase(0.0) == 40.0 and tones.amp(0.0) == 2.0
    assert chirp.dphase(0.5) == pytest.approx(12.5) and chirp.amp(0.0) == 1.0
    assert poly.dphase(0.5) == pytest.approx(30.0 + 6.0 * 0.25)
    assert poly.amp(0.3) == 0.5


@pytest.mark.parametrize("text, fragment", [
    ("tone:40; flute:1", "entry 2"),
    ("tone:abc", "entry 1"),
    ("tone:-5", "entry 1"),
    ("chirp:10", "chirp"),
    (";", "empty"),
    ("tone:200", "entry 1"),                 # above the 128 Hz Nyquist
    ("tone:40; chirp:100:40", "entry 2"),    # crosses Nyquist at t = 0.7
    ("tone:40:inf", "entry 1.: every value must be a finite"),
    ("tone:40; chirp:10:nan", "entry 2.: every value must be a finite"),
    ("chirp:1e308:1e308", "entry 1.: .* to inf Hz"),   # the track overflows
    ("poly:0,1e308,1e308", "entry 1.: .* nan Hz"),     # so does phi'
])
def test_bad_component_specs(text, fragment):
    # parsing rejects a spec as the config loads, the Nyquist check as the
    # signal is built
    with pytest.raises(ConfigError, match=fragment):
        build_signal(load_config(None, {("signal", "components"): text}))


def test_signal_source_exclusivity():
    with pytest.raises(ConfigError, match="exactly one"):
        load_config(None, {})
    with pytest.raises(ConfigError, match="exactly one"):
        load_config(None, {("signal", "preset"): "example1",
                           ("signal", "components"): "tone:40"})


def test_presets_lock_their_sampling():
    with pytest.raises(ConfigError, match="fixes fs"):
        load_config(None, {("signal", "preset"): "example1",
                           ("signal", "fs"): "512"})
    cfg = load_config(None, {("signal", "preset"): "example1",
                             ("signal", "fs"): "256"})
    assert cfg.fs == 256.0
    cfg = load_config(None, {("signal", "preset"): "empty",
                             ("signal", "n"): "64"})
    assert cfg.n == 64


def test_sample_file_fixes_fs_n_and_mode(tmp_path, capsys):
    src = tmp_path / "src"
    assert run("synth", "--components", "tone:8", "--fs", "32", "--n", "32",
               "--outdir", str(src)) == 0
    path = str(src / "signal.csv")
    cfg = load_config(None, {("signal", "file"): path})
    assert (cfg.fs, cfg.n, cfg.mode) == (32.0, 32, "real")
    agreeing = {("signal", "fs"): "32", ("signal", "n"): "32",
                ("signal", "mode"): "real"}
    assert load_config(None, {("signal", "file"): path, **agreeing}) == cfg
    for flag, value in (("--fs", "999"), ("--n", "5"), ("--mode", "complex")):
        out = tmp_path / flag[2:]
        assert run("analyze", "--signal-file", path, flag, value,
                   "--outdir", str(out)) == 2
        err = capsys.readouterr().err
        assert f"[signal] {flag[2:]}: the sample file fixes" in err, err
        assert not out.exists()


def test_sigma_table_validation(tmp_path, capsys):
    base = {("signal", "preset"): "empty", ("signal", "n"): "8",
            ("signal", "fs"): "8", ("sigma", "kind"): "table"}
    t = np.arange(8) / 8.0

    noheader = tmp_path / "nh.csv"
    noheader.write_text("0,1,0\n")
    with pytest.raises(ConfigError, match="header"):
        run_analysis(load_config(None, {**base,
                                        ("sigma", "table"): str(noheader)}))

    shifted = tmp_path / "sh.csv"
    shifted.write_text("b,sigma,dsigma\n" +
                       "".join(f"{x + 0.5},1,0\n" for x in t))
    with pytest.raises(ConfigError, match="line 2: .*time grid"):
        run_analysis(load_config(None, {**base,
                                        ("sigma", "table"): str(shifted)}))

    negative = tmp_path / "ng.csv"
    negative.write_text("b,sigma,dsigma\n" +
                        "".join(f"{x},-1,0\n" for x in t))
    with pytest.raises(ConfigError, match="line 2: .*positive"):
        run_analysis(load_config(None, {**base,
                                        ("sigma", "table"): str(negative)}))

    with pytest.raises(ConfigError, match="required"):
        load_config(None, base)

    # a non-finite sigma or dsigma, or a short row, exits 2 naming its line
    for name, row in (("nan", "{x},nan,0"), ("inf", "{x},1,inf"),
                      ("short", "{x},1")):
        bad = tmp_path / f"{name}.csv"
        bad.write_text("b,sigma,dsigma\n" + "".join(
            (row if i == 5 else "{x},1,0").format(x=x) + "\n"
            for i, x in enumerate(t)))
        assert run("analyze", "--preset", "empty", "--n", "8", "--fs", "8",
                   "--sigma", "table", "--sigma-table", str(bad),
                   "--outdir", str(tmp_path / name)) == 2
        err = capsys.readouterr().err
        assert "[sigma] table: line 7:" in err, err
        assert not (tmp_path / name).exists()


def test_valid_sigma_table_is_the_profile(tmp_path):
    t = np.arange(256) / 256.0          # example1's time grid
    table = tmp_path / "widths.csv"
    table.write_text("b,sigma,dsigma\n" + "".join(
        "%.17g,%.17g,%.17g\n" % row
        for row in zip(t, 1.2 + 0.1 * np.sin(2.0 * np.pi * t),
                       0.2 * np.pi * np.cos(2.0 * np.pi * t))))
    out = tmp_path / "out"
    cfg = load_config(None, {("signal", "preset"): "example1",
                             ("sigma", "kind"): "table",
                             ("sigma", "table"): str(table),
                             ("run", "outdir"): str(out)})
    profile = run_analysis(cfg).profile
    assert profile.kind == "table"
    assert np.array_equal(profile.sigma, 1.2 + 0.1 * np.sin(2.0 * np.pi * t))
    assert cli.run_command("analyze", cfg) == 0
    assert (out / "sigma.csv").read_bytes() == table.read_bytes()


# ---------------------------------------------------------------------------
# 2. synth

def test_synth_example1_matches_library_writer(tmp_path):
    assert run("synth", "--preset", "example1",
               "--outdir", str(tmp_path)) == 0
    rows = read_rows(tmp_path / "signal.csv")
    assert rows[0] == ["t", "re", "im"]
    assert len(rows) - 1 == 256
    from adassq.signals import signal_to_csv, synthesize
    ref = tmp_path / "ref.csv"
    signal_to_csv(synthesize(example1_spec()), ref)
    assert ref.read_bytes() == (tmp_path / "signal.csv").read_bytes()


def test_synth_example2_rows_and_rate(tmp_path):
    assert run("synth", "--preset", "example2",
               "--outdir", str(tmp_path)) == 0
    rows = read_rows(tmp_path / "signal.csv")
    assert len(rows) - 1 == 256
    t = [float(r[0]) for r in rows[1:]]
    assert t[1] - t[0] == pytest.approx(1.0 / 256.0)   # fs = 256
    assert any(float(r[1]) != 0.0 for r in rows[1:])


def test_synth_empty_preset_zero_rows(tmp_path):
    assert run("synth", "--preset", "empty", "--n", "64",
               "--outdir", str(tmp_path)) == 0
    rows = read_rows(tmp_path / "signal.csv")
    assert len(rows) - 1 == 64
    assert all(r[1] == "0" and r[2] == "0" for r in rows[1:])


# ---------------------------------------------------------------------------
# 3. analyze

def test_analyze_writes_documented_outputs(demo1, tmp_path):
    for name in ("tf.csv", "tf.pgm", "omega.csv", "zones.csv", "sigma.csv"):
        assert (demo1 / name).exists(), name
    assert (demo1 / "tf.pgm").read_bytes()[:2] == b"P5"
    assert run("analyze", "--preset", "empty", "--n", "32", "--fs", "32",
               "--pgm", "no", "--outdir", str(tmp_path)) == 0
    assert not (tmp_path / "tf.pgm").exists()


def _assert_tracks_both_ridges(outdir, spec):
    xi, b, mag = load_tf(outdir / "tf.csv")
    dxi = float(np.min(np.diff(xi)))
    # Fringe columns (b within ~0.12 of the ends) see the signal edge at
    # the low component's scale, which smears its reassigned peak by up to
    # ~3 bins; the argmax claim holds cleanly on this inner window.  The
    # recovery tests cover the full [0.1, 0.9] interior via the integral
    # estimator, which is insensitive to that smearing.
    interior = (b >= 0.15) & (b <= 0.85)
    freqs = np.vstack([c.dphase(b) for c in spec.components])
    gap = np.min(np.diff(freqs, axis=0), axis=0)
    for k in range(freqs.shape[0]):
        for i in np.flatnonzero(interior):
            band = np.abs(xi - freqs[k, i]) <= gap[i] / 2.0
            peak = xi[band][np.argmax(mag[band, i])]
            assert abs(peak - freqs[k, i]) <= 2.0 * dxi, \
                f"component {k} at b={b[i]}: peak {peak} vs {freqs[k, i]}"


def test_analyze_example1_tracks_both_ridges(demo1):
    _assert_tracks_both_ridges(demo1, example1_spec())


def test_analyze_example2_tracks_both_ridges(demo2):
    _assert_tracks_both_ridges(demo2, example2_spec())


def test_constant_sigma_equals_conventional_path(tmp_path):
    """With a fixed window width the adaptive phase transform must agree
    with the conventional d/db ratio, all the way to identical bytes."""
    overrides = {("signal", "components"): "tone:40",
                 ("signal", "mode"): "complex",
                 ("run", "outdir"): str(tmp_path / "cli")}
    assert run("analyze", "--components", "tone:40", "--mode", "complex",
               "--outdir", str(tmp_path / "cli")) == 0

    res = run_analysis(load_config(None, overrides))
    stack = compute_stack(res.sig, res.profile, res.wm, res.grid)
    with np.errstate(divide="ignore", invalid="ignore"):
        omega = (stack.db_w / (2j * np.pi * stack.w)).real
    plane = PhasePlane(omega=np.where(np.abs(stack.w) > 0.01, omega, np.nan))
    tf = squeeze(stack, plane, SqueezeConfig.for_stack(stack))
    tf_to_csv(tf, tmp_path / "conventional.csv")
    assert (tmp_path / "conventional.csv").read_bytes() == \
        (tmp_path / "cli" / "tf.csv").read_bytes()


@pytest.mark.parametrize("command", ["analyze", "synth"])
def test_sample_file_is_read_once(tmp_path, monkeypatch, command):
    src = tmp_path / "src"
    assert run("synth", "--components", "tone:8", "--fs", "32", "--n", "32",
               "--outdir", str(src)) == 0
    reads = []
    read = cli.signal_from_csv

    def counted(path):
        reads.append(path)
        return read(path)
    monkeypatch.setattr(cli, "signal_from_csv", counted)
    assert run(command, "--signal-file", str(src / "signal.csv"), "--pgm",
               "no", "--outdir", str(tmp_path / "out")) == 0
    assert reads == [src / "signal.csv"]


def test_sample_file_analysis_has_no_zones(tmp_path):
    src = tmp_path / "src"
    assert run("synth", "--components", "tone:8", "--fs", "32", "--n", "32",
               "--mode", "complex", "--outdir", str(src)) == 0
    out = tmp_path / "out"
    assert run("analyze", "--signal-file", str(src / "signal.csv"),
               "--fs", "32", "--pgm", "no", "--outdir", str(out)) == 0
    assert (out / "zones.csv").read_text() == "b,k,lower,upper,valid\n"
    xi, b, mag = load_tf(out / "tf.csv")
    assert b.size == 32
    # the tone still reassigns to 8 Hz without any zone information
    mid = mag[:, 8:24]
    assert abs(xi[np.argmax(mid.sum(axis=1))] - 8.0) <= 0.5


def test_sample_file_band_follows_its_own_rate(tmp_path):
    # a 300 Hz tone lies above the default --fs 256 Nyquist; the band must
    # come from the file's time column, not from the configured rate
    src = tmp_path / "src"
    assert run("synth", "--components", "tone:300", "--fs", "1024",
               "--n", "256", "--outdir", str(src)) == 0
    out = tmp_path / "out"
    assert run("analyze", "--signal-file", str(src / "signal.csv"),
               "--xi-bins", "400", "--pgm", "no", "--outdir", str(out)) == 0
    xi, _, mag = load_tf(out / "tf.csv")
    assert xi[-1] >= 1.25 * 512.0 - 2.0
    mid = mag[:, 64:192]
    assert np.max(mid) > 0.0
    assert abs(xi[np.argmax(mid.sum(axis=1))] - 300.0) <= 2.0


def test_xi_bins_controls_bin_count(tmp_path):
    assert run("analyze", "--components", "tone:20", "--mode", "complex",
               "--fs", "64", "--n", "32", "--xi-bins", "100",
               "--pgm", "no", "--outdir", str(tmp_path)) == 0
    xi, _, _ = load_tf(tmp_path / "tf.csv")
    assert abs(xi.size - 100) <= 1


# ---------------------------------------------------------------------------
# 4. recover

def _interior_report(outdir):
    rows = read_rows(outdir / "report.csv")
    assert rows[0] == ["b", "k", "abs_error", "bound", "within_bound"]
    body = [(float(b), int(k), float(err), float(bound), flag)
            for b, k, err, bound, flag in rows[1:]]
    inner = [r for r in body if 0.1 <= r[0] <= 0.9]
    assert len(inner) > 0
    return body, inner


def test_recover_example1_within_bound_interior(demo1):
    body, inner = _interior_report(demo1)
    assert {k for _, k, *_ in body} == {1, 2}
    assert all(flag == "1" for *_, flag in inner)
    assert all(err <= bound for _, _, err, bound, _ in inner)


def test_recover_example2_within_bound_interior(demo2):
    _, inner = _interior_report(demo2)
    assert all(flag == "1" for *_, flag in inner)


def test_recover_zero_signal_reports_zero_error(tmp_path):
    assert run("recover", "--preset", "empty", "--outdir",
               str(tmp_path)) == 0
    rows = read_rows(tmp_path / "report.csv")
    assert len(rows) - 1 == 256
    assert all(float(r[2]) == 0.0 for r in rows[1:])   # estimate == truth
    assert all(float(r[3]) > 0.0 for r in rows[1:])    # threshold-only bound
    assert all(r[4] == "1" for r in rows[1:])


@pytest.mark.parametrize("variant", ["T1", "S2"])
def test_recover_silent_component_beside_a_live_one(tmp_path, variant):
    assert run("recover", "--components", "tone:20:0; tone:40",
               "--variant", variant, "--outdir", str(tmp_path)) == 0
    _, inner = _interior_report(tmp_path)
    assert all(flag == "1" and err <= bound
               for _, _, err, bound, flag in inner)


@pytest.mark.parametrize("args", [
    ("demo", "example1"), ("demo", "example2"),
    ("recover", "--preset", "example2", "--sigma", "sigma2", "--variant",
     "T2")], ids=["demo-example1", "demo-example2", "recover-example2-t2"])
def test_library_certify_gives_the_commands_report(monkeypatch, args):
    # the README's flow from the preset's spec (stack_walk, compute_stack,
    # walk, certify) gives the command's abs_error and bound bit for bit
    seen = []

    def report_only(command, cfg):
        seen.append((cfg, cli._report(cfg, cli.run_analysis(cfg))))
        return 0
    monkeypatch.setattr(cli, "run_command", report_only)
    assert run(*args) == 0
    (cfg, (result, bound)), = seen
    spec, order = cfg.source, cfg.order
    wm = adassq.WindowModel(mu=1.0, tau0=0.05)
    sig = adassq.synthesize(spec)
    profile = (adassq.sigma1 if order == 1 else adassq.sigma2)(spec, wm)
    zs = adassq.zones(spec, wm, profile, order=order)
    grid = ScaleGrid.from_zones(zs, voices=32)
    fields = PHASE_FIELDS[order]
    stacks = ((rows, cols, compute_stack(sig, profile.columns(cols), wm,
                                         ScaleGrid(grid.a[rows], grid.dlog),
                                         fields, gamma1=0.01))
              for rows, cols in stack_walk(sig, profile, len(grid),
                                           len(fields))[0])
    plane, tf, _ = walk(stacks, grid, profile,
                        SqueezeConfig.for_grid(grid, wm.mu), order=order,
                        gamma1=0.01, hybrid=cfg.variant == "S2")
    got, got_bound = adassq.certify(spec, wm, profile, zs, tf, order=order,
                                    gamma1=0.01, gamma2=plane.gamma2)
    assert got.abs_error.tobytes() == result.abs_error.tobytes()
    assert got_bound.tobytes() == bound.tobytes()


# ---------------------------------------------------------------------------
# 5. exit codes and determinism

def test_exit_codes(tmp_path, capsys):
    ok = tmp_path / "ok"
    assert run("synth", "--preset", "empty", "--outdir", str(ok)) == 0

    assert run("synth", "--preset", "nosuch", "--outdir", str(ok)) == 2
    assert "config error" in capsys.readouterr().err

    cfg = tmp_path / "broken.cfg"
    cfg.write_text("preset = example1\n")
    assert run("synth", "--config", str(cfg)) == 2

    assert run("analyze", "--preset", "example1", "--sigma", "constant",
               "--sigma-value", "0.2", "--outdir", str(ok)) == 3
    assert "admissibility error" in capsys.readouterr().err

    src = tmp_path / "samples.csv"
    src.write_text("t,re,im\n0,1,0\n0.5,0,0\n")
    assert run("recover", "--signal-file", str(src),
               "--outdir", str(ok)) == 4
    assert "ground truth" in capsys.readouterr().err

    # width rules that need component knowledge reject sample files early
    assert run("analyze", "--signal-file", str(src), "--sigma", "sigma1",
               "--outdir", str(ok)) == 2


_COMMAND_ARGS = {
    "synth": ("synth", "--preset", "example1"),
    "analyze": ("analyze", "--n", "256", "--fs", "256", "--components",
                "tone:20"),
    "recover": ("recover", "--preset", "example1"),
    "demo": ("demo", "example1"),
}


@pytest.mark.parametrize("below", ["", "out"])
@pytest.mark.parametrize("command", sorted(_COMMAND_ARGS))
def test_unusable_outdir_exits_2(tmp_path, capsys, command, below):
    # the outdir is a regular file, or a directory below one
    blocker = tmp_path / "F"
    blocker.write_text("")
    outdir = blocker / below if below else blocker
    assert run(*_COMMAND_ARGS[command], "--outdir", str(outdir)) == 2
    err = capsys.readouterr().err
    assert f"config error: [run] outdir: cannot write to {outdir}:" in err
    assert "Traceback" not in err and blocker.read_text() == ""


def test_unwritable_output_file_exits_2(tmp_path, capsys):
    out = tmp_path / "out"
    (out / "signal.csv").mkdir(parents=True)
    assert run("synth", "--preset", "example1", "--outdir", str(out)) == 2
    err = capsys.readouterr().err
    assert f"[run] outdir: cannot write to {out}:" in err
    assert "signal.csv" in err and "Traceback" not in err


def _no_child_left() -> bool:
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def _killed(tf, path):
    os.kill(os.getpid(), signal.SIGKILL)


def _exits_without_a_report(tf, path):
    os._exit(3)


def _in_a_child(end, parent: int):
    """A tf.csv writer that ends its process by end, unless it runs in
    this one: then it raises, so a writer that was not forked fails the
    test instead of ending it."""
    def write(tf, path):
        if os.getpid() == parent:
            raise AssertionError("tf.csv written in the test's process")
        end(tf, path)
    return write


_FORKS = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")


@_FORKS
@pytest.mark.parametrize("blocked, patched, said", [
    ("tf.csv", None, "Is a directory: '{out}/tf.csv'"),
    ("tf.pgm", None, "Is a directory: '{out}/tf.pgm'"),
    ("zones.csv", None, "Is a directory: '{out}/zones.csv'"),
    (None, _killed, "the process writing tf.csv and tf.pgm "
     f"died by signal {int(signal.SIGKILL)}"),
    (None, _exits_without_a_report, "the process writing tf.csv and tf.pgm "
     "exited 3"),
], ids=["tf.csv", "tf.pgm", "parent-side", "killed", "no-report"])
def test_failing_plane_writer_exits_2_and_is_reaped(tmp_path, capsys,
                                                    monkeypatch, blocked,
                                                    patched, said):
    # tf.csv and tf.pgm are written by a forked child while this process
    # writes the rest: the child's OSError, its death by a signal or an
    # exit without a report, and an OSError of this process's own writers
    # each exit 2 naming [run] outdir and the file, and the child is
    # reaped every time
    out = tmp_path / "out"
    if blocked:
        (out / blocked).mkdir(parents=True)
    if patched:
        monkeypatch.setattr(cli, "tf_to_csv",
                            _in_a_child(patched, os.getpid()))
    assert run(*_COMMAND_ARGS["analyze"], "--outdir", str(out)) == 2
    err = capsys.readouterr().err
    assert f"config error: [run] outdir: cannot write to {out}: " in err
    assert said.format(out=out) in err and "Traceback" not in err
    assert _no_child_left()


@_FORKS
def test_fork_warning_of_other_threads_is_silenced(tmp_path, capsys,
                                                   monkeypatch):
    # Python 3.12 warns in the parent when a process with other threads
    # forks (OpenBLAS's pool always runs); the run hides exactly that
    # warning, so stderr stays empty even with warnings as errors
    fork = os.fork

    def warning_fork():
        pid = fork()
        if pid:
            warnings.warn(f"This process (pid={os.getpid()}) is "
                          "multi-threaded, use of fork() may lead to "
                          "deadlocks in the child.", DeprecationWarning,
                          stacklevel=2)
        return pid
    monkeypatch.setattr(os, "fork", warning_fork)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(*_COMMAND_ARGS["analyze"], "--outdir",
                   str(tmp_path / "out")) == 0
    assert capsys.readouterr().err == "" and _no_child_left()
    assert (tmp_path / "out" / "tf.pgm").exists()


def _fork_fails():
    raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))


def _open_fds() -> int | None:
    """This process's open descriptors, where /proc lists them."""
    fds = Path("/proc/self/fd")
    return len(os.listdir(fds)) if fds.is_dir() else None


@pytest.mark.parametrize("argv, fork", [
    (("demo", "example2"), None), (_COMMAND_ARGS["analyze"], None),
    (_COMMAND_ARGS["analyze"], _fork_fails)],
    ids=["demo-example2", "analyze", "analyze-fork-fails"])
def test_without_fork_the_same_bytes_are_written(tmp_path, monkeypatch,
                                                 argv, fork):
    # without os.fork, or where it fails for want of a process, this
    # process writes every file: exit 0, the same bytes, and the pipe
    # made for the child closed again
    assert run(*argv, "--outdir", str(tmp_path / "forked")) == 0
    if fork is None:
        monkeypatch.delattr(os, "fork", raising=False)
    else:
        monkeypatch.setattr(os, "fork", fork)
    fds = _open_fds()
    assert run(*argv, "--outdir", str(tmp_path / "in-process")) == 0
    assert _open_fds() == fds
    names = sorted(p.name for p in (tmp_path / "forked").iterdir())
    assert "tf.pgm" in names and names == sorted(
        p.name for p in (tmp_path / "in-process").iterdir())
    for name in names:
        assert (tmp_path / "forked" / name).read_bytes() == \
            (tmp_path / "in-process" / name).read_bytes(), name


def test_reruns_are_byte_identical(demo1, tmp_path):
    again = tmp_path / "again"
    assert run("demo", "example1", "--outdir", str(again)) == 0
    names = sorted(p.name for p in demo1.iterdir())
    assert names == sorted(p.name for p in again.iterdir())
    for name in names:
        assert (demo1 / name).read_bytes() == (again / name).read_bytes(), \
            name


@pytest.mark.parametrize("body, line", [
    ("0,1,0\n0.01,0\n0.02,1,0\n", 3),                  # short row
    ("0,1,0\n0.5,nan,0\n1,0,0\n", 3),                  # NaN sample
    ("0,1,0\n", 2),                                    # one sample
    ("0,1,0\n0.25,0,0\n0.75,1,0\n1,0,0\n", 3),          # non-uniform t
    ("1,1,0\n0.5,0,0\n0,1,0\n", 3),                    # decreasing t
    ("0,1,0\n1," + "1" * 200000 + ",0\n", 3),          # over the csv limit
    ("-1e308,1,0\n0,0,0\n1e308,1,0\n", 4),             # span overflows
    ("0,1,0\n5e-324,0,0\n1e-323,1,0\n", 4),            # 1/dt overflows
    # a quoted field that runs on to the next line is named where it
    # starts, not where a later bad value or grid error sits
    ('0,"1\n",0\n1,2,0\n2,x,0\n', 2),
    ('0,"1\n",0\n1,2,0\n5,3,0\n', 2),
], ids=["short-row", "nan", "one-sample", "non-uniform", "decreasing",
        "long-field", "huge-span", "tiny-dt", "span-then-text",
        "span-then-off-grid"])
def test_bad_sample_file_exits_2_naming_the_line(tmp_path, capsys, body,
                                                  line):
    src = tmp_path / "samples.csv"
    src.write_text("t,re,im\n" + body)
    out = tmp_path / "out"
    assert run("analyze", "--signal-file", str(src), "--outdir",
               str(out)) == 2
    err = capsys.readouterr().err
    assert f"line {line}:" in err and "[signal] file" in err
    assert "Traceback" not in err
    assert not out.exists()


def _parses(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


# text that stays one cell: no separator, quote or line break
_CELL_TEXT = st.text(st.characters(exclude_characters=',"\r\n',
                                   exclude_categories=("Cs",)), max_size=8)


@st.composite
def _bad_sample_files(draw):
    """One mutation of a valid t,re,im file: (file bytes, line to name)."""
    m = draw(st.integers(4, 12))
    fs = draw(st.sampled_from([1.0, 64.0, 256.0, 1000.0]))
    t0 = draw(st.sampled_from([0.0, -3.5, 100.25]))
    t = [t0 + i / fs for i in range(m)]
    re = draw(st.lists(st.floats(-1e3, 1e3), min_size=m, max_size=m))
    header, rows = "t,re,im", [[repr(a), repr(b), "0"] for a, b in zip(t, re)]
    i = draw(st.integers(0, m - 1))         # the row to break, line i + 2
    col = draw(st.integers(0, 2))
    kind = draw(st.sampled_from(["short", "text", "bytes", "non-finite",
                                 "off-grid", "swap", "decreasing", "span",
                                 "multiline", "empty", "header"]))
    line = i + 2
    if kind == "short":
        rows[i] = rows[i][:col]
    elif kind == "text":
        rows[i][col] = draw(_CELL_TEXT.filter(lambda s: not _parses(s)))
    elif kind == "bytes":                   # not UTF-8
        rows[i][col] = draw(st.sampled_from([b"\xff", b"1\xfe", b"2\xc3",
                                             b"\xed\xa0\x80"]))
    elif kind == "non-finite":
        rows[i][col] = draw(st.sampled_from(["nan", "NaN", "inf", "-inf",
                                             "-Infinity", "1e999"]))
    elif kind == "off-grid":                # an interior time moves
        i = draw(st.integers(1, m - 2))
        shift = draw(st.floats(1e-6, 0.45)) * draw(st.sampled_from([-1, 1]))
        rows[i][0], line = repr(t[i] + shift / fs), i + 2
    elif kind == "swap":                    # two interior times trade places
        i, j = sorted(draw(st.lists(st.integers(1, m - 2), min_size=2,
                                    max_size=2, unique=True)))
        rows[i][0], rows[j][0], line = rows[j][0], rows[i][0], i + 2
    elif kind == "decreasing":
        for row, ti in zip(rows, reversed(t)):
            row[0] = repr(ti)
        line = 3
    elif kind == "span":                    # 1/dt or the span overflows
        tiny = draw(st.sampled_from([0.0, 5e-324, 1e-320, 1e-310]))
        huge = draw(st.sampled_from([1e308, 1.7976931348623157e308]))
        for k, row in enumerate(rows):
            row[0] = repr(k * tiny if tiny else huge * (2 * k / (m - 1) - 1))
        line = m + 1
    elif kind == "multiline":               # a quoted cell runs on a line
        rows[i][col] = f'"{rows[i][col]}\n"'
    elif kind == "empty":
        rows, line = [], 1
        header = draw(st.sampled_from(["t,re,im", None]))
    else:
        header = draw(st.lists(_CELL_TEXT, max_size=4).map(",".join).filter(
            lambda h: [c.strip() for c in h.split(",")[:3]]
            != ["t", "re", "im"]))
        line = 1
    cells = [[c if isinstance(c, bytes) else c.encode() for c in row]
             for row in rows]
    body = b"".join(b",".join(row) + b"\n" for row in cells)
    return (b"" if header is None else header.encode() + b"\n") + body, line


@settings(max_examples=200, deadline=None)
@given(_bad_sample_files())
def test_fuzzed_sample_file_exits_2_naming_the_line(tmp_path_factory, case):
    content, line = case
    d = tmp_path_factory.mktemp("fuzz")
    (d / "samples.csv").write_bytes(content)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["analyze", "--signal-file", str(d / "samples.csv"),
                     "--outdir", str(d / "out")])
    assert code == 2, err.getvalue()
    assert f"[signal] file: line {line}:" in err.getvalue(), err.getvalue()
    assert "Traceback" not in err.getvalue()
    assert not (d / "out").exists()


def test_sample_file_without_a_band_exits_2(tmp_path, capsys):
    # 1 Hz sampling leaves nothing between 0.8 Hz and 1.25x Nyquist
    src = tmp_path / "samples.csv"
    src.write_text("t,re,im\n" + "".join(f"{i},{(-1) ** i},0\n"
                                         for i in range(16)))
    out = tmp_path / "out"
    assert run("analyze", "--signal-file", str(src), "--outdir",
               str(out)) == 2
    err = capsys.readouterr().err
    assert "[signal] file" in err and "1 Hz" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_non_utf8_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_bytes(b"[signal]\npreset = example1\xff\n")
    assert run("analyze", "--config", str(bad), "--outdir",
               str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert "[signal] preset" in err and "Traceback" not in err


_SECTION_NAMES = [*cli._SECTIONS, "extra", "Signal", "", "run ]"]
_KEY_NAMES = [k.key for k in cli._KEYS] + ["bogus", "FS", "n n", "key;"]
# Good and bad values for every parser, extremes of size and finiteness
# included.  Sizes (n, voices, xi_bins) stay small: a voice count past the
# memory guard is tested below, and a size that merely fits would take the
# machine's memory.
_VALUE_TEXTS = [
    "example1", "example2", "empty", "nosuch", "tone:40", "tone:40:0",
    "chirp:12:0.5; chirp:26:-0.5", "poly:0,10,1:0.5", "tone:200", "tone:-1",
    "chirp:1e308:1e308", "poly:0,1e308,1e308", "tone:nan", "chirp:10:inf",
    "chirp:10", "missing.csv", ".", "2", "64", "256", "0", "-3", "1.5",
    "1e308", "5e-324", "inf", "nan", "real", "complex", "auto", "yes", "no",
    "T1", "T2", "S2", "sigma1", "sigma2", "table", "constant", "0.05",
    "1e3", "", "x" * 60]
_BAD_BYTES = [b"\xff", b"\xc3", b"\xed\xa0\x80", b"\x00"]


@st.composite
def _config_texts(draw):
    """Config file bytes: sections, keys, comments, blank and continuation
    lines, unknown and repeated names, and bytes that are not UTF-8."""
    lines = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["section", "key", "key", "key",
                                     "comment", "blank", "continuation"]))
        if kind == "section":
            line = f"[{draw(st.sampled_from(_SECTION_NAMES))}]"
        elif kind == "key":
            line = draw(st.sampled_from(_KEY_NAMES)) \
                + draw(st.sampled_from([" = ", "=", ": "])) \
                + draw(st.sampled_from(_VALUE_TEXTS)) \
                + draw(st.sampled_from(["", " ; note", "\t; note", ";glued"]))
        elif kind == "comment":
            line = draw(st.sampled_from(["; note", "# note", "  ; indented"]))
        else:
            line = "" if kind == "blank" else "  more"
        data = line.encode()
        if draw(st.integers(0, 4)) == 0:
            cut = draw(st.integers(0, len(data)))
            data = data[:cut] + draw(st.sampled_from(_BAD_BYTES)) + data[cut:]
        lines.append(data)
    return b"\n".join(lines) + draw(st.sampled_from([b"", b"\n", b"\r\n"]))


@settings(max_examples=300, deadline=None)
@given(_config_texts())
def test_fuzzed_config_loads_or_raises_config_error(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("cfg") / "run.cfg"
    path.write_bytes(text)
    try:
        cfg = load_config(path)
    except ConfigError as exc:
        assert str(exc)
    else:
        assert isinstance(cfg, cli.RunConfig)


_STACK_SIZE = re.compile(r"(\d+) scales by (\d+) times would take (\d+) "
                         r"bytes")


def _t1_holds(scales, times, block_cells, bins=1):
    """Bytes the memory guard counts for a T1 run on the inverse-FFT path:
    a squeezed plane of bins bins (one, before the grid gives the count),
    its 4-byte slots and its mass of 1 + min(bins, scales) * times
    complex values, omega, and one block's cells with their working
    memory."""
    return 4 * bins * times + 16 * (1 + min(bins, scales) * times) \
        + 8 * scales * times + sst._BLOCK_CELL_BYTES[3] * block_cells


# the cells of a block of scales by 256 times: constant sigma on the
# sample grid (the presets' default) takes the inverse FFT
_FFT_BLOCK_256 = cwt._BLOCK_BYTES // (48 * 256) * 256


@pytest.mark.parametrize("preset", ["example1", "empty"])
def test_unallocatable_scale_count_exits_3(tmp_path, capsys, preset):
    # 10**17 voices per octave ask for about 2e17 scales, on zones
    # (example1) or on the band up to Nyquist (empty).  Without the guard
    # numpy would refuse the scale array at once, as it is larger than any
    # address space.
    assert run("analyze", "--preset", preset, "--voices", str(10 ** 17),
               "--outdir", str(tmp_path / "out")) == 3
    err = capsys.readouterr().err
    scales, times, need = map(int, _STACK_SIZE.search(err).groups())
    assert scales > 10 ** 17 and times == 256
    assert need == _t1_holds(scales, times, _FFT_BLOCK_256)
    assert f"{cli._STACK_LIMIT}-byte limit" in err
    assert "Traceback" not in err and not (tmp_path / "out").exists()


# one run of each path and of each kind of per-cell arrays
_GUARDED = [("--preset", "example1"),                           # FFT, T1
            ("--preset", "example1", "--sigma", "sigma1"),      # columns
            ("--preset", "example2", "--sigma", "sigma2", "--variant", "T2"),
            ("--preset", "example2", "--sigma", "sigma2", "--variant", "T2",
             "--gamma2", "1"),
            ("--components", "chirp:20:1; tone:60", "--n", "512",
             "--variant", "S2"),                                # FFT, S2
            # columns over a complex spectrum: n bins, not n/2 + 1
            ("--components", "chirp:12:0.5; chirp:26:-0.5", "--mode",
             "complex", "--sigma", "sigma1")]


def test_stack_limit_is_the_stack_size(tmp_path, capsys, monkeypatch):
    # the guard's estimate bounds what the run then allocates, kernels
    # and temporaries included, within a factor of two: tracemalloc's
    # peak of run_analysis is at most the estimate and more than half
    # of it.  A limit one byte below the estimate refuses the run, naming
    # it, and a limit equal to it runs.
    needs, peaks = [], []

    def recorded(need, what, hint=""):
        if what.startswith("a transform stack"):
            needs.append(need)
        return check_size(need, what, hint)

    def traced(cfg):
        tracemalloc.start()
        try:
            res = analysis(cfg)
            peaks.append((tracemalloc.get_traced_memory()[1],
                          res.plane.omega.shape))
            return res
        finally:
            tracemalloc.stop()
    check_size, analysis = cli._check_size, cli.run_analysis
    limit = cli._STACK_LIMIT
    monkeypatch.setattr(cli, "_check_size", recorded)
    monkeypatch.setattr(cli, "run_analysis", traced)
    for i, args in enumerate(_GUARDED):
        monkeypatch.setattr(cli, "_STACK_LIMIT", limit)
        assert run("analyze", *args, "--outdir", str(tmp_path / f"{i}")) == 0
        (peak, shape), need = peaks[-1], needs[-1]
        assert peak <= need < 2 * peak, (args, peak, need)
        argv = ("analyze", *args, "--outdir", str(tmp_path / "out"))
        monkeypatch.setattr(cli, "_STACK_LIMIT", need - 1)
        assert run(*argv) == 3
        err = capsys.readouterr().err
        scales, times, said = map(int, _STACK_SIZE.search(err).groups())
        assert (scales, times, said) == (*shape, need), args
        assert "Traceback" not in err and not (tmp_path / "out").exists()
        monkeypatch.setattr(cli, "_STACK_LIMIT", need)
        assert run(*argv) == 0
        shutil.rmtree(tmp_path / "out")


def test_one_scale_is_checked_before_synthesis(tmp_path, capsys,
                                               monkeypatch):
    one = _t1_holds(1, 256, 256)
    monkeypatch.setattr(cli, "_STACK_LIMIT", one - 1)
    monkeypatch.setattr(cli, "synthesize",
                        lambda spec: pytest.fail("synthesized"))
    assert run("analyze", "--preset", "example1", "--outdir",
               str(tmp_path / "out")) == 3
    err = capsys.readouterr().err
    assert f"1 scales by 256 times would take {one} bytes" in err
    assert "Traceback" not in err and not (tmp_path / "out").exists()


_WALKS = [("--preset", "example1"),                     # FFT, T1
          ("--preset", "example1", "--sigma", "sigma1"),  # columns, T1
          ("--preset", "example2", "--sigma", "sigma2", "--variant", "T2",
           "--gamma2", "1"),                    # columns, gamma2 given
          ("--preset", "example2", "--sigma", "sigma2", "--variant", "S2"),
          ("--components", "tone:8; chirp:20:4", "--n", "64", "--fs", "64",
           "--variant", "T2"),                  # FFT, default gamma2
          # hybrid with gamma2 given: FFT, then columns
          ("--preset", "example2", "--variant", "S2", "--gamma2", "1"),
          ("--preset", "example2", "--sigma", "sigma2", "--variant", "S2",
           "--gamma2", "1")]


# widths of the walk's blocks: the whole lattice in one, then 1 and 7
# scales or columns
_WIDTHS = (10 ** 9, 1, 7)


def _width(width):
    """A _block_step that takes width scales or columns, or all there are."""
    return lambda scales, n, fft, fields: min(width, scales if fft else n)


@pytest.mark.parametrize("args", _WALKS)
def test_blocks_give_the_whole_stacks_bytes(tmp_path, monkeypatch, args):
    # blocks of 1 and 7 scales or columns, against one block of the whole
    # stack: every output byte is the same
    for width in _WIDTHS:
        monkeypatch.setattr(cwt, "_block_step", _width(width))
        assert run("analyze", *args, "--outdir",
                   str(tmp_path / str(width))) == 0
    whole = tmp_path / str(_WIDTHS[0])
    names = sorted(p.name for p in whole.iterdir())
    for width in _WIDTHS[1:]:
        blocks = tmp_path / str(width)
        assert sorted(p.name for p in blocks.iterdir()) == names
        for name in names:
            assert (blocks / name).read_bytes() == \
                (whole / name).read_bytes(), (width, name)


@pytest.mark.parametrize("args, what", [
    (("--components", "tone:20", "--mu", "1e300"), "w_tgp is not finite"),
    (("--components", "tone:20:1e152", "--variant", "S2"), "dadb_w reaches"),
    (("--components", "tone:20:1e154; chirp:60:20", "--variant", "S2",
      "--sigma", "sigma2"), "dadb_w reaches"),
], ids=["T1-fft", "S2-fft", "S2-columns"])
def test_blocks_fail_with_the_whole_stacks_message(tmp_path, capsys,
                                                   monkeypatch, args, what):
    # the walk goes on measuring after a block fails, so the message of
    # narrow blocks names the field and the size a whole stack's check
    # names
    errs = []
    for width in _WIDTHS:
        monkeypatch.setattr(cwt, "_block_step", _width(width))
        assert run("analyze", *args, "--outdir", str(tmp_path / "out")) == 3
        errs.append(capsys.readouterr().err)
    assert errs[1] == errs[0] == errs[2] and what in errs[0]
    assert "Traceback" not in errs[0] and not (tmp_path / "out").exists()


def _library_walk(cfg, res):
    """The README's library path on run_analysis's signal, profile and
    grid: sst.walk over cwt.stack_walk's blocks, each built by
    cwt.compute_stack."""
    fields, grid = PHASE_FIELDS[cfg.order], res.grid
    blocks = stack_walk(res.sig, res.profile, len(grid), len(fields))[0]
    stacks = ((rows, cols, compute_stack(
        res.sig, res.profile.columns(cols), res.wm,
        ScaleGrid(grid.a[rows], grid.dlog), fields, gamma1=cfg.gamma1))
        for rows, cols in blocks)
    return walk(stacks, grid, res.profile,
                SqueezeConfig.for_grid(grid, res.wm.mu), cfg.order,
                cfg.gamma1, cfg.gamma2, hybrid=cfg.variant == "S2")


@pytest.mark.parametrize("args", _WALKS)
def test_library_walk_gives_run_analysis_planes(monkeypatch, args):
    # the library walk has the command's plane and squeezed plane bit for
    # bit, and its tracemalloc peak is at most the guard's count of the
    # command's run, on both stack paths
    seen, needs, check_size = [], [], cli._check_size

    def recorded(need, what, hint=""):
        if what.startswith("a transform stack"):
            needs.append(need)
        return check_size(need, what, hint)

    def analysis_only(command, cfg):
        seen.append((cfg, cli.run_analysis(cfg)))
        return 0
    monkeypatch.setattr(cli, "_check_size", recorded)
    monkeypatch.setattr(cli, "run_command", analysis_only)
    assert run("analyze", *args) == 0
    (cfg, res), = seen
    tracemalloc.start()
    try:
        plane, tf, _ = _library_walk(cfg, res)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= needs[-1], (peak, needs[-1])
    assert plane.gamma2 == res.plane.gamma2
    assert plane.omega.tobytes() == res.plane.omega.tobytes()
    assert tf.live == res.tf.live and tf.dxi == res.tf.dxi
    for name in ("xi", "b", "slot", "mass"):
        assert getattr(tf, name).tobytes() == \
            getattr(res.tf, name).tobytes(), name


def _analysis_peak(voices: int) -> tuple[int, int]:
    """(J, tracemalloc peak of run_analysis) of a constant-sigma T1 run
    at n = 512, its configuration loaded before tracing starts."""
    cfg = load_config(None, {
        ("signal", "components"): "chirp:12:0.5; chirp:26:-0.5",
        ("signal", "n"): "512", ("grid", "voices_per_octave"): str(voices)})
    tracemalloc.start()
    try:
        res = run_analysis(cfg)
        return res.grid.a.size, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_analysis_memory_grows_by_less_than_a_field():
    # twice the voices, about twice the scales: omega grows by 8 bytes a
    # new cell, the squeezed plane's mass by at most 16 (one value a scale
    # and time, with fewer scales than bins) and the block stays within
    # its budget, so the peak rises by less than two J x n fields of 16
    # bytes a cell.  A whole stack of the three first-order fields would
    # rise by three fields more.
    (J, low), (J2, high) = _analysis_peak(32), _analysis_peak(64)
    assert 2 * J - 3 <= J2 <= 2 * J
    assert high - low < 32 * J * 512, (J, low, high)


@pytest.mark.parametrize("command", ["synth", "analyze"])
def test_unallocatable_sample_count_exits_3(tmp_path, capsys, command):
    # numpy would refuse 10**17 samples at once, as the array is larger
    # than any address space; the guard names n and the limit before
    # the Nyquist check or synthesis allocates anything of size n
    assert run(command, "--components", "tone:20", "--n", str(10 ** 17),
               "--outdir", str(tmp_path / "out")) == 3
    err = capsys.readouterr().err
    assert f"[signal] n: {10 ** 17} real samples would take " \
        f"{8 * 10 ** 17} bytes" in err
    assert f"{cli._STACK_LIMIT}-byte limit" in err
    assert "Traceback" not in err and not (tmp_path / "out").exists()


def test_voice_count_past_the_float_range_exits_3(tmp_path, capsys):
    # a 401-digit voice count does not convert to a float; the scale count
    # is then exact, and the guard names it, the voices and the limit
    voices = "9" * 401
    assert run("analyze", "--preset", "example1", "--voices", voices,
               "--outdir", str(tmp_path / "out")) == 3
    err = capsys.readouterr().err
    scales, times, need = map(int, _STACK_SIZE.search(err).groups())
    assert scales > 10 ** 400 and times == 256
    assert need == _t1_holds(scales, times, _FFT_BLOCK_256)
    assert f"voices_per_octave is {voices}" in err
    assert f"{cli._STACK_LIMIT}-byte limit" in err
    assert "Traceback" not in err and not (tmp_path / "out").exists()


_PLANE_SIZE = re.compile(r"squeezed plane of (?:at least )?(\d+) frequency "
                         r"bins (?:of \S+ Hz )?by (\d+) times would take "
                         r"(\d+) bytes")
_TERAHERTZ = "t,re,im\n0,1,0\n1e-12,0,0\n2e-12,-1,0\n3e-12,0,0\n"


@pytest.mark.parametrize("args, bins, times, scales", [
    (("--preset", "example1", "--xi-bins", str(10 ** 11)), 10 ** 11, 256,
     1),
    (("--signal-file", "{tmp}/thz.csv"), 3124999999998, 4, 1266),
], ids=["xi-bins", "terahertz-file"])
def test_unallocatable_squeezed_plane_exits_3(tmp_path, capsys, args, bins,
                                              times, scales):
    # 10**11 bins on example1's band, and 0.25 Hz bins up to 1.25x the
    # Nyquist frequency of four samples at 1 THz: numpy would refuse the
    # bin centres at once (745 GiB and 22.7 TiB).  The guard names the bin
    # count (at least the xi_bins asked for, before the stack; the native
    # count, after it), the times and the bytes before either exists: a
    # 4-byte slot a cell and 1 + min(bins, scales) * times complex values,
    # for at least one scale before the stack and the grid's 1,266 after.
    (tmp_path / "thz.csv").write_text(_TERAHERTZ)
    args = [a.format(tmp=tmp_path) for a in args]
    assert run("analyze", *args, "--outdir", str(tmp_path / "out")) == 3
    err = capsys.readouterr().err
    assert tuple(map(int, _PLANE_SIZE.search(err).groups())) == \
        (bins, times, 4 * bins * times + 16 * (1 + scales * times))
    assert f"{cli._STACK_LIMIT}-byte limit" in err
    assert "Traceback" not in err and not (tmp_path / "out").exists()


@pytest.mark.parametrize("bins", [2 ** 1024, 10 ** 400],
                         ids=["2**1024", "10**400"])
def test_xi_bins_past_the_float_range_exits_3(tmp_path, capsys, monkeypatch,
                                              bins):
    # a bin count that does not convert to a float is checked in integers
    # before any stack is computed
    monkeypatch.setattr(cli, "compute_stack",
                        lambda *args: pytest.fail("stack computed"))
    assert run("analyze", "--preset", "example1", "--xi-bins", str(bins),
               "--outdir", str(tmp_path / "out")) == 3
    err = capsys.readouterr().err
    assert tuple(map(int, _PLANE_SIZE.search(err).groups())) == \
        (bins, 256, 4 * bins * 256 + 16 * (1 + 256))
    assert f"[grid] xi_bins is {bins}" in err
    assert f"{cli._STACK_LIMIT}-byte limit" in err
    assert "Traceback" not in err and not (tmp_path / "out").exists()


def test_one_scale_is_checked_before_the_nyquist_check(tmp_path, capsys,
                                                       monkeypatch):
    # n real samples pass the sample guard, and what a run of one scale
    # by them holds (156 bytes a time and 16 more) is just past the
    # limit: the run exits 3 before any component's phase is evaluated on
    # the n samples
    monkeypatch.setattr(ComponentTruth, "phase",
                        lambda *args: pytest.fail("phase evaluated"))
    n = (cli._STACK_LIMIT - 16) // 156 + 1
    assert _t1_holds(1, n, n) == 156 * n + 16
    assert run("analyze", "--components", "tone:20", "--n", str(n),
               "--outdir", str(tmp_path / "out")) == 3
    assert f"1 scales by {n} times would take {156 * n + 16} bytes" in \
        capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("eps3", ["auto", "1"])
@pytest.mark.parametrize("comps", ["chirp:20:40; tone:30",
                                   "tone:40:0; tone:20:0"])
def test_misordered_components_exit_3(tmp_path, capsys, comps, eps3):
    # crossing frequencies (at t = 0.25 s), and a silent pair listed from
    # high to low: recover names the order, with eps3 auto or set
    assert run("recover", "--components", comps, "--eps3", eps3,
               "--outdir", str(tmp_path / "out")) == 3
    err = capsys.readouterr().err
    assert "components must be ordered with strictly increasing" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("target, field, what", [
    ("bounds_first", "recovery_bound", "the error bound"),
    ("recover", "abs_error", "the recovery error")])
def test_report_overflow_exits_3_naming_the_window(tmp_path, capsys,
                                                   monkeypatch, target,
                                                   field, what):
    # an infinite bound or recovery error in the report step exits 3
    # naming the window's inputs, with no output
    real = getattr(bounds, target)

    def infinite(*args, **kwargs):
        got = real(*args, **kwargs)
        return dataclasses.replace(
            got, **{field: np.full_like(getattr(got, field), np.inf)})
    monkeypatch.setattr(bounds, target, infinite)
    out = tmp_path / "out"
    assert run("recover", "--preset", "example1", "--sigma", "sigma1",
               "--outdir", str(out)) == 3
    assert capsys.readouterr().err == (
        f"admissibility error: recovery: {what} overflows; the "
        "normalizers and bounds are set by [window] mu = 1, sigma1 "
        "widths 1.05741 to 1.1384\n")
    assert not out.exists()


def test_negative_amplitude_exits_3(tmp_path, capsys):
    assert run("recover", "--components", "tone:20; tone:40:-1",
               "--outdir", str(tmp_path / "out")) == 3
    assert "component 2: amplitude must not be negative" in \
        capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("args, n", [
    (["--n", "2"], 2), (["--n", "3"], 3), (["--n", "4"], 4),
    (["--gamma1", "1e300"], 256),
    (["--gamma1", "1e300", "--variant", "S2"], 256),    # default gamma2
    (["--gamma1", "1e300", "--variant", "T2", "--gamma2", "1"], 256),
    (["--components", "tone:20:1e-320"], 256)],
    ids=["n2", "n3", "n4", "gamma1", "gamma1-s2", "gamma1-t2-gamma2",
         "subnormal"])
def test_no_valid_cell_for_a_nonzero_signal_exits_3(tmp_path, capsys, args,
                                                     n):
    # N = 5 leaves valid cells; an all-zero signal exits 0 (recover tests)
    assert run("analyze", "--components", "tone:20", *args,
               "--outdir", str(tmp_path / "out")) == 3
    err = capsys.readouterr().err
    assert "no cell has a finite frequency estimate" in err
    assert "[thresholds] gamma1 = " in err and "largest real or " \
        "imaginary part of w is " in err and f"[signal] n = {n} " in err
    assert not (tmp_path / "out").exists()


_MAX = 1.7976931348623157e308
# every positive float, and the float range's two ends more often
_EXTREME = st.one_of(st.floats(5e-324, _MAX),
                     st.sampled_from([5e-324, 1e-320, 1e-200, 1e200, 1e300,
                                      1e308, _MAX]))


@st.composite
def _extreme_runs(draw):
    """(argv without --outdir, sample file body or None): a run of at most
    64 samples whose mu, width, amplitudes or sample magnitude may sit near
    either end of the float range."""
    argv = [draw(st.sampled_from(["synth", "analyze", "recover"])),
            "--variant", draw(st.sampled_from(["T1", "T2", "S2"])),
            "--pgm", "no"]
    for flag in ("--mu", "--sigma-value"):
        if draw(st.booleans()):
            argv += [flag, repr(draw(_EXTREME))]
    n = draw(st.integers(4, 64))
    if draw(st.booleans()):
        amp = [draw(st.one_of(st.just(0.0), _EXTREME)) for _ in range(2)]
        argv += ["--n", str(n), "--fs", "64", "--components",
                 f"tone:8:{amp[0]!r}; chirp:20:4:{amp[1]!r}",
                 "--sigma", draw(st.sampled_from(["constant", "sigma1",
                                                  "sigma2"]))]
        return argv, None
    mag, t = draw(_EXTREME), np.arange(n) / 64.0
    im = np.sin(2.0 * np.pi * 8.0 * t) if draw(st.booleans()) else 0.0 * t
    return argv, "t,re,im\n" + "".join(     # tolist: Python floats' repr
        f"{ti!r},{mag * c!r},{mag * s!r}\n" for ti, c, s in
        zip(t.tolist(), np.cos(2.0 * np.pi * 8.0 * t).tolist(), im.tolist()))


@settings(max_examples=120, deadline=None)
@given(_extreme_runs())
def test_extreme_inputs_fail_cleanly_or_stay_finite(tmp_path_factory, case):
    argv, body = case
    d = tmp_path_factory.mktemp("extreme")
    if body is not None:
        (d / "samples.csv").write_text(body)
        argv = [*argv, "--signal-file", str(d / "samples.csv")]
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(err):
        warnings.simplefilter("error", RuntimeWarning)
        code = main([*argv, "--outdir", str(d / "out")])
    assert code in (0, 2, 3, 4), err.getvalue()
    assert "Traceback" not in err.getvalue()
    if code == 0:   # nan marks masked ω, undefined zones, uncertified rows
        for path in (d / "out").iterdir():
            text = path.read_text()
            assert "inf" not in text, path.name
            assert path.name in ("omega.csv", "zones.csv", "report.csv") \
                or "nan" not in text, path.name


def test_phase_transform_overflow_exits_3(tmp_path, capsys):
    # every field is finite, but db_w's parts near 9e307 overflow the
    # complex division of the first-order estimate on one cell, so omega
    # would be inf (a case the Hypothesis run above found)
    assert run("analyze", "--n", "57", "--fs", "64", "--components",
               "tone:8:2.5303534411670123e+306", "--outdir",
               str(tmp_path / "out")) == 3
    err = capsys.readouterr().err
    assert "transform stack: the T1 phase transform overflows; its range " \
        "is set by [window] mu = 1, [sigma] value = 1 and the largest " \
        "sample magnitude 2.53035e+306" in err
    assert "Traceback" not in err and not (tmp_path / "out").exists()


def test_cli_import_loads_no_scipy():
    src = Path(adassq.__file__).resolve().parents[1]
    code = ("import sys, adassq.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout.strip() == "[]"


def test_cli_import_loads_no_numpy_polynomial_and_builds_no_rule():
    src = Path(adassq.__file__).resolve().parents[1]
    code = ("import sys, adassq.cli; print(sorted(m for m in sys.modules "
            "if m.startswith('numpy.polynomial')), "
            "adassq.bounds._rule.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout.split() == ["[]", "0"]


def test_only_recovery_builds_the_quadrature_rule(tmp_path):
    from adassq import bounds
    bounds._rule.cache_clear()
    args = ["--components", "tone:20; tone:80", "--n", "64"]
    assert run("analyze", *args, "--outdir", str(tmp_path / "a")) == 0
    assert bounds._rule.cache_info().misses == 0
    assert run("recover", *args, "--outdir", str(tmp_path / "r")) == 0
    info = bounds._rule.cache_info()
    assert info.misses == 1 and info.currsize == 1


# ---------------------------------------------------------------------------
# 6. demo

def test_demo_computes_one_stack(tmp_path, monkeypatch):
    # one analysis: its blocks cover example1's lattice once, column by
    # column (sigma1 takes the kernel product)
    from adassq import cli
    blocks = []
    stack = cli.compute_stack

    def counted(*args, **kwargs):
        blocks.append(stack(*args, **kwargs))
        return blocks[-1]
    monkeypatch.setattr(cli, "compute_stack", counted)
    assert run("demo", "example1", "--outdir", str(tmp_path)) == 0
    assert len(blocks) > 1
    assert len({b.w.shape[0] for b in blocks}) == 1
    times = np.concatenate([b.profile.b for b in blocks])
    assert np.array_equal(times, example1_spec().times())


def test_stack_is_freed_when_run_analysis_returns(monkeypatch):
    # no block of the stack outlives run_analysis, and none is the whole
    refs, cells = [], []
    stack = cli.compute_stack

    def tracked(*args, **kwargs):
        result = stack(*args, **kwargs)
        refs.append(weakref.ref(result))
        cells.append(result.w.size)
        return result
    monkeypatch.setattr(cli, "compute_stack", tracked)
    res = run_analysis(load_config(None, {("signal", "preset"): "example1"}))
    assert all(ref() is None for ref in refs)
    assert sum(cells) == res.plane.omega.size > max(cells)
    assert res.tf.values.shape[1] == res.sig.t.size == 256


def test_failing_demo_writes_nothing(tmp_path, monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise ValueError("no bound for this run")
    monkeypatch.setattr(bounds, "bounds_first", broken)
    out = tmp_path / "out"
    assert run("demo", "example1", "--outdir", str(out)) == 3
    assert "admissibility error: no bound for this run" in \
        capsys.readouterr().err
    assert not out.exists()


def test_recover_of_a_sample_file_exits_4_before_analysis(tmp_path,
                                                           monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "run_analysis", calls.append)
    src = tmp_path / "samples.csv"
    src.write_text("t,re,im\n0,1,0\n0.5,0,0\n")
    out = tmp_path / "out"
    assert run("recover", "--signal-file", str(src), "--outdir",
               str(out)) == 4
    assert calls == [] and not out.exists()


def test_demo_matches_separate_commands(demo1, tmp_path):
    flags = ("--preset", "example1", "--sigma", "sigma1", "--variant", "T1",
             "--outdir", str(tmp_path))
    for command in ("synth", "analyze", "recover"):
        assert run(command, *flags) == 0
    names = sorted(p.name for p in demo1.iterdir())
    assert names == sorted(p.name for p in tmp_path.iterdir())
    for name in names:
        assert (demo1 / name).read_bytes() == \
            (tmp_path / name).read_bytes(), name
