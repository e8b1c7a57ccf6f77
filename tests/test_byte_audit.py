"""tools/byte_audit.py: how far a differing output file moved.

What is proven here
-------------------
1. For two CSVs with one header and row count, each column's largest
   absolute difference is taken over the rows finite in both, and rows
   NaN in one file only are counted; a header or row-count change is
   named instead.
2. For two PGMs of one size, the differing pixels are counted.
3. The audit prints those findings under each differing file and still
   exits 1.
4. Each run gets one line, its SHA-256 verdict, its CLI wall time and
   its peak RSS in either tree, whether its files differ or not, and a
   summary line gives each tree's median and largest peak and the count
   of runs whose peak rose (by the rule of 8); exit codes are as before.
   A run is spawned through perfbench/launcher.py, so its peak is the
   child's own, not the size of the process running the audit.
5. A run whose stderr has lines with "Warning" in either tree shows both
   counts on its line, and the last line adds both totals; the verdict
   and the exit code do not change.
6. The audit's two raised-threshold runs (sigma1 T1, sigma2 S2) walk a
   kernel-product stack in which some columns have no scale with
   |w| > gamma1, some one and some two; its hybrid run with gamma2 given
   walks a kernel-product stack in more than one block.
7. The audit's two-tone recover run sums one component's window in
   chunks of columns whose last would be one column wide, the tail that
   joins the chunk before it; its run with eps3 given reaches recover
   with that half-width on every row.
8. A run whose two peaks differ by more than 0.5 MB is sampled 3 more
   times in each tree, alternating which tree goes first; its line and
   the summary take each tree's median peak.  Its peak rose only when
   every new-tree sample is above every parent sample, and a line names
   each such run; where the samples overlap it did not rise, however its
   median moved.  A run within 0.5 MB is sampled once, and its peak is
   unchanged.
9. The summary gives each tree's src/ line count, the newlines of its
   src/**/*.py as wc -l counts them (a last line without one is not
   counted), after one line naming each file under src/ whose count
   changed (absent counts 0) with its two counts, a line left out where
   none changed; the verdict and the exit code do not change.
10. Every run's launcher request pins glibc's mmap and trim thresholds
    in the child's environment and puts the tree's src/ first on its
    path, and both trees' src/ is compiled to bytecode before the first
    run is spawned; the verdict and the exit code do not change.
"""
from __future__ import annotations

import hashlib
import importlib.util
import re
import resource
from pathlib import Path

import numpy as np
import pytest

from adassq import bounds, cli
from adassq.cwt import compute_stack

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "byte_audit.py"
_spec = importlib.util.spec_from_file_location("byte_audit", _TOOL)
byte_audit = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(byte_audit)

_OLD = "a,b,omega\n0.5,0,30.125\n0.5,1,nan\n0.25,0,-0\n"


@pytest.mark.parametrize("new, found", [
    ("a,b,omega\n0.5,0,30.125000000000004\n0.5,1,7\n0.25,0,0\n",
     ["a: largest |difference| 0, NaN cells agree",
      "b: largest |difference| 0, NaN cells agree",
      "omega: largest |difference| 3.55e-15, NaN cells differ in 1 rows"]),
    ("a,b,omega\n0.5,0,30.125\n0.5,1,nan\n0.25,0,-0\n0.25,1,1\n",
     ["header or row count differs: 3 -> 4 rows"]),
    ("a,b,xi\n0.5,0,30.125\n0.5,1,nan\n0.25,0,-0\n",
     ["header or row count differs: 3 -> 3 rows"]),
], ids=["moved", "rows", "header"])
def test_csv_columns_report_their_largest_move(tmp_path, new, found):
    (tmp_path / "old.csv").write_text(_OLD)
    (tmp_path / "new.csv").write_text(new)
    assert byte_audit.moved(tmp_path / "old.csv",
                            tmp_path / "new.csv") == found


def test_pgm_reports_its_differing_pixels(tmp_path):
    header = b"P5\n3 2\n255\n"
    (tmp_path / "old.pgm").write_bytes(header + bytes([0, 10, 255, 7, 7, 7]))
    (tmp_path / "new.pgm").write_bytes(header + bytes([0, 11, 255, 7, 7, 6]))
    assert byte_audit.moved(tmp_path / "old.pgm", tmp_path / "new.pgm") == \
        ["2 of 6 pixels differ"]


def _fake_audit(monkeypatch, bodies, walls, peaks=None,
                trees=("parent-tree", "new-tree")):
    """Run main on one faked run per tree: tree `label` writes omega.csv
    as bodies[label], took walls[label] seconds and peaked at
    peaks[label] MB (36.5 by default), on every sample.  No command
    starts."""
    peaks = peaks or {"parent": 36.5, "new": 36.5}

    def run_in_tree(tree, name, args, inputs, out):
        (out / name).mkdir(exist_ok=True)
        body = bodies[out.name]
        (out / name / "omega.csv").write_text(body)
        return ({f"{name} (exit code)": "0", f"{name}/omega.csv":
                 hashlib.sha256(body.encode()).hexdigest()}, walls[out.name],
                peaks[out.name])
    monkeypatch.setattr(byte_audit, "run_in_tree", run_in_tree)
    monkeypatch.setattr(byte_audit, "write_inputs", lambda inputs: {})
    monkeypatch.setattr(byte_audit, "RUNS", {"run": []})
    return byte_audit.main([str(tree) for tree in trees])


def test_audit_prints_the_move_under_the_file(monkeypatch, capsys):
    bodies = {"parent": _OLD, "new": _OLD.replace("nan", "7")}
    assert _fake_audit(monkeypatch, bodies,
                       {"parent": 1.0, "new": 1.0}) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == \
        "run: 1 differ; wall 1.00 s -> 1.00 s; peak 36.50 MB -> 36.50 MB"
    at = next(i for i, line in enumerate(out)
              if line.startswith("differs: run/omega.csv: "))
    assert out[at + 3] == \
        "    omega: largest |difference| 0, NaN cells differ in 1 rows"
    assert out[-1] == "1 output files of 1 runs: 1 differ"


def test_audit_prints_each_runs_wall_time_beside_its_verdict(monkeypatch,
                                                             capsys):
    # and its peak RSS
    assert _fake_audit(monkeypatch, {"parent": _OLD, "new": _OLD},
                       {"parent": 0.2734, "new": 0.1821},
                       {"parent": 38.1234, "new": 36.7891}) == 0
    assert capsys.readouterr().out.splitlines() == [
        "run: every SHA-256 equal; wall 0.27 s -> 0.18 s; "
        "peak 38.12 MB -> 36.79 MB",
        "peak RSS: median 38.12 MB -> 36.79 MB, largest 38.12 MB -> "
        "36.79 MB; higher in 0 of 1 runs",
        "src/ lines: 0 -> 0",
        "1 output files of 1 runs: every SHA-256 equal"]


def test_audit_counts_each_trees_src_lines(monkeypatch, capsys, tmp_path):
    # wc -l counts newlines: a last line without one adds nothing, and
    # only Python files under src/ count
    files = {"parent": {"src/a/x.py": "1\n2\n3\n", "src/y.py": "4\n5",
                        "src/a/notes.txt": "6\n", "tools/z.py": "7\n"},
             "new": {"src/a/x.py": "1\n", "src/b/c/y.py": "2\n3\n4\n5\n"}}
    for label, tree in files.items():
        for name, text in tree.items():
            (tmp_path / label / name).parent.mkdir(parents=True,
                                                   exist_ok=True)
            (tmp_path / label / name).write_text(text)
    bodies = {"parent": _OLD, "new": _OLD.replace("nan", "7")}
    assert _fake_audit(monkeypatch, bodies, {"parent": 1.0, "new": 1.0},
                       trees=(tmp_path / "parent", tmp_path / "new")) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[-2:] == ["src/ lines: 4 -> 5",
                        "1 output files of 1 runs: 1 differ"]


def test_audit_names_each_src_file_whose_count_changed(monkeypatch, capsys,
                                                      tmp_path):
    files = {"parent": {"src/p/cli.py": "1\n2\n3\n", "src/p/sst.py": "4\n",
                        "src/p/old.py": "5\n"},
             "new": {"src/p/cli.py": "1\n", "src/p/sst.py": "4\n",
                     "src/p/new.py": "2\n3\n"}}
    for label, tree in files.items():
        for name, text in tree.items():
            (tmp_path / label / name).parent.mkdir(parents=True,
                                                   exist_ok=True)
            (tmp_path / label / name).write_text(text)
    assert _fake_audit(monkeypatch, {"parent": _OLD, "new": _OLD},
                       {"parent": 1.0, "new": 1.0},
                       trees=(tmp_path / "parent", tmp_path / "new")) == 0
    assert capsys.readouterr().out.splitlines()[-3:] == [
        "src/ files: p/cli.py 3 -> 1, p/new.py 0 -> 2, p/old.py 1 -> 0",
        "src/ lines: 5 -> 4", "1 output files of 1 runs: every SHA-256 equal"]


def test_gamma2_run_walks_a_hybrid_stack_in_blocks(monkeypatch, tmp_path):
    # the audit's S2 run with gamma2 given takes the kernel-product path
    # in more than one block of columns
    widths = []

    def stack(*args, **kwargs):
        st = compute_stack(*args, **kwargs)
        widths.append(st.w.shape)
        return st

    def analysis_only(command, cfg):
        assert cfg.variant == "S2" and cfg.gamma2 == 1.0
        cli.run_analysis(cfg)
        return 0
    monkeypatch.setattr(cli, "compute_stack", stack)
    monkeypatch.setattr(cli, "run_command", analysis_only)
    assert cli.main([*byte_audit.RUNS["analyze-example2-sigma2-s2-gamma2"],
                     "--outdir", str(tmp_path)]) == 0
    assert len(widths) > 1 and len({rows for rows, _ in widths}) == 1


def _fake_spawn(monkeypatch, reply):
    """Replace the launcher: reply(cmd, cwd) gives the run's stderr text
    and peak RSS in MB, and no command starts."""
    def spawn(cmd, cwd, env, log):
        stderr, rss_mb = reply(cmd, cwd)
        log.write_text(stderr)
        return {"rc": 0, "wall": 0.5, "rss_mb": rss_mb}
    monkeypatch.setattr(byte_audit, "spawn", spawn)
    monkeypatch.setattr(byte_audit, "write_inputs", lambda inputs: {})


def test_audit_counts_each_runs_warning_lines(monkeypatch, capsys):
    # the run named "loud" warns twice in the parent
    warning = "x.py:1: RuntimeWarning: overflow\n  y = 2 * x\n"
    _fake_spawn(monkeypatch, lambda cmd, cwd: (
        2 * warning if cmd[-1].endswith("loud") and cwd.name == "parent"
        else "", 30.0))
    monkeypatch.setattr(byte_audit, "RUNS", {"quiet": [], "loud": []})
    assert byte_audit.main(["parent-tree", "new-tree"]) == 0
    out = [re.sub(r"wall [\d.]+ s -> [\d.]+ s; peak [\d.]+ MB -> [\d.]+ MB",
                  "wall", line)
           for line in capsys.readouterr().out.splitlines()]
    assert out == [
        "quiet: every SHA-256 equal; wall",
        "loud: every SHA-256 equal; wall; warning lines 2 -> 0",
        "peak RSS: median 30.00 MB -> 30.00 MB, largest 30.00 MB -> "
        "30.00 MB; higher in 0 of 2 runs",
        "src/ lines: 0 -> 0",
        "0 output files of 2 runs: every SHA-256 equal; "
        "warning lines 2 -> 0"]


def test_audit_summarizes_each_trees_peaks(monkeypatch, capsys):
    # the new tree's peak rises on run "b" alone; a run that fails still
    # has a peak
    peaks = {("parent", "a"): 36.0, ("new", "a"): 35.0,
             ("parent", "b"): 40.0, ("new", "b"): 41.0,
             ("parent", "c"): 90.0, ("new", "c"): 89.0}
    _fake_spawn(monkeypatch, lambda cmd, cwd: (
        "", peaks[cwd.name, cmd[-1].rsplit("/", 1)[-1]]))
    monkeypatch.setattr(byte_audit, "RUNS", {"a": [], "b": [], "c": []})
    assert byte_audit.main(["parent-tree", "new-tree"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[1].endswith("; peak 40.00 MB -> 41.00 MB")
    assert out[-3] == ("peak RSS: median 40.00 MB -> 41.00 MB, largest "
                       "90.00 MB -> 89.00 MB; higher in 1 of 3 runs")


def test_audit_resamples_a_run_whose_peaks_differ(monkeypatch, capsys):
    # "up" reads 40.0 -> 41.0 MB first and "down" 40.0 -> 39.0 MB: each
    # is sampled 3 more times per tree, new first, then parent first,
    # then new first; "flat" (0.5 MB apart) is sampled once.  Only "up"
    # rose: "down"'s median rose, but its samples overlap the parent's,
    # and "flat" is unchanged
    peaks = {"parent": {"up": [40.0, 40.2, 40.1, 40.3],
                        "down": [40.0, 40.0, 39.9, 40.1],
                        "flat": [40.0]},
             "new": {"up": [41.0, 40.4, 40.6, 40.5],
                     "down": [39.0, 40.2, 40.1, 40.0],
                     "flat": [40.5]}}
    spawned = []

    def reply(cmd, cwd):
        name = cmd[-1].rsplit("/", 1)[-1]
        spawned.append((name, cwd.name))
        return "", peaks[cwd.name][name].pop(0)
    _fake_spawn(monkeypatch, reply)
    monkeypatch.setattr(byte_audit, "RUNS", {"up": [], "down": [],
                                             "flat": []})
    assert byte_audit.main(["parent-tree", "new-tree"]) == 0
    assert all(not left for tree in peaks.values() for left in tree.values())
    order = [label for _, label in spawned]
    assert order[:8] == ["parent", "new", "new", "parent", "parent", "new",
                         "new", "parent"] == order[8:16]
    assert spawned[16:] == [("flat", "parent"), ("flat", "new")]
    out = capsys.readouterr().out.splitlines()
    assert [line.rsplit("; peak ", 1)[1] for line in out[:3]] == [
        "40.15 MB -> 40.55 MB", "40.00 MB -> 40.05 MB",
        "40.00 MB -> 40.50 MB"]
    assert out[3:5] == [
        "peak higher in each of 4 samples than in any of the parent's: "
        "up 40.15 MB -> 40.55 MB",
        "peak RSS: median 40.00 MB -> 40.50 MB, largest 40.15 MB -> "
        "40.55 MB; higher in 1 of 3 runs"]


def test_overlapping_resamples_do_not_count_as_higher(monkeypatch, capsys):
    # 40.0 -> 40.8 MB at first, and the new tree's median 0.7 MB above
    # the parent's after resampling, but its 40.3 MB sample is below the
    # parent's 40.9: the run is not counted, and no line names it
    peaks = {"parent": [40.0, 40.9, 40.1, 40.2],
             "new": [40.8, 40.95, 40.3, 41.0]}
    _fake_spawn(monkeypatch, lambda cmd, cwd: ("", peaks[cwd.name].pop(0)))
    monkeypatch.setattr(byte_audit, "RUNS", {"noisy": []})
    assert byte_audit.main(["parent-tree", "new-tree"]) == 0
    assert not peaks["parent"] and not peaks["new"]
    out = capsys.readouterr().out.splitlines()
    assert out[0].endswith("; peak 40.15 MB -> 40.88 MB")
    assert out[1] == ("peak RSS: median 40.15 MB -> 40.88 MB, largest "
                      "40.15 MB -> 40.88 MB; higher in 0 of 1 runs")


def test_each_run_pins_malloc_and_finds_its_tree_compiled(monkeypatch,
                                                          tmp_path):
    for label in ("parent", "new"):
        (tmp_path / label / "src" / "pkg").mkdir(parents=True)
        (tmp_path / label / "src" / "pkg" / "mod.py").write_text("x = 1\n")
    requests = []

    def spawn(cmd, cwd, env, log):
        requests.append((cwd.name, env, [
            p.name for label in ("parent", "new")
            for p in (tmp_path / label / "src").rglob("*.pyc")]))
        log.write_text("")
        return {"rc": 0, "wall": 0.5, "rss_mb": 30.0}
    monkeypatch.setattr(byte_audit, "spawn", spawn)
    monkeypatch.setattr(byte_audit, "write_inputs", lambda inputs: {})
    monkeypatch.setattr(byte_audit, "RUNS", {"a": [], "b": []})
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    monkeypatch.setenv("MALLOC_MMAP_THRESHOLD_", "1")
    assert byte_audit.main([str(tmp_path / "parent"),
                            str(tmp_path / "new")]) == 0
    assert [label for label, _, _ in requests] == ["parent", "new"] * 2
    for label, env, compiled in requests:
        assert env["MALLOC_MMAP_THRESHOLD_"] == "131072"
        assert env["MALLOC_TRIM_THRESHOLD_"] == "131072"
        assert env["PYTHONPATH"] == str((tmp_path / label / "src").resolve())
        assert env["PYTHONDONTWRITEBYTECODE"] == "1"    # passed on as set
        assert len(compiled) == 2 and all(name.startswith("mod.")
                                          for name in compiled)


def test_runs_are_spawned_through_the_launcher(tmp_path):
    # a real CLI run: its exit code, files and stderr come back through
    # perfbench/launcher.py with a wall time and the child's own peak.  A
    # child forked by this process would start its peak at this process's
    # size, which the touched 64 MB ballast puts well above a synth run's
    ballast = np.ones(8 << 20)
    own_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tree = Path(__file__).resolve().parents[1]
    found, wall, rss_mb = byte_audit.run_in_tree(
        tree, "synth", ["synth", "--components", "tone:20", "--n", "64"],
        tmp_path, tmp_path)
    del ballast
    assert found["synth (exit code)"] == "0" and "synth/signal.csv" in found
    assert 0.0 < wall and 5.0 < rss_mb < own_mb - 32.0
    found = byte_audit.run_in_tree(tree, "bad", ["synth", "--n", "x"],
                                   tmp_path, tmp_path)[0]
    assert found == {"bad (exit code)": "2"}
    assert "config error" in (tmp_path / "bad.stderr").read_text()


@pytest.mark.parametrize("name", ["analyze-example1-sigma1-gamma1",
                                  "recover-example2-sigma2-s2-gamma1"])
def test_raised_gamma1_runs_reach_the_masks_edges(monkeypatch, tmp_path,
                                                  name):
    # the audit's raised-threshold runs leave columns with zero, one and
    # two scales above gamma1 in the stack the run itself walks
    above = []

    def stack(*args, gamma1=None, **kwargs):
        st = compute_stack(*args, gamma1=gamma1, **kwargs)
        above.append(np.abs(st.w) > gamma1)
        return st

    def analysis_only(command, cfg):
        cli.run_analysis(cfg)
        return 0
    monkeypatch.setattr(cli, "compute_stack", stack)
    monkeypatch.setattr(cli, "run_command", analysis_only)
    assert cli.main([*byte_audit.RUNS[name], "--outdir",
                     str(tmp_path)]) == 0
    # the kernel-product path: blocks of whole columns
    assert len({mask.shape[0] for mask in above}) == 1
    counts = np.count_nonzero(np.concatenate(above, axis=1), axis=0)
    assert {0, 1, 2} <= set(counts.tolist())


def test_two_tone_recover_run_reaches_a_one_column_tail(monkeypatch,
                                                        tmp_path):
    # the chunk width comes from the component's window rows; a chunk one
    # column wider than the first is a one-column tail, joined to it
    widths, column_chunks = [], bounds._column_chunks

    def chunks(n, rows):
        parts = column_chunks(n, rows)
        widths.append([part.stop - part.start for part in parts])
        return parts
    monkeypatch.setattr(bounds, "_column_chunks", chunks)
    assert cli.main([*byte_audit.RUNS["recover-two-tones-246"], "--outdir",
                     str(tmp_path)]) == 0
    assert any(len(w) > 1 and w[-1] == w[0] + 1 for w in widths)


def test_given_eps3_run_reaches_recover_with_it(monkeypatch, tmp_path):
    # the audit's one run with eps3 given collects every component's
    # window with that half-width, not the auto rule's
    seen, real = [], bounds.recover

    def recover(tf, norms, ridge, eps3, **kwargs):
        seen.append(np.broadcast_to(eps3, np.shape(ridge)))
        return real(tf, norms, ridge, eps3, **kwargs)
    monkeypatch.setattr(bounds, "recover", recover)
    assert cli.main([*byte_audit.RUNS["recover-three-sigma1-eps3"],
                     "--outdir", str(tmp_path)]) == 0
    eps3, = seen
    assert eps3.shape == (3, 256) and np.all(eps3 == 2.0)
