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
4. Each run gets one line, its SHA-256 verdict and its CLI wall time in
   either tree, whether its files differ or not; exit codes are as
   before.
5. A run whose stderr has lines with "Warning" in either tree shows both
   counts on its line, and the last line adds both totals; the verdict
   and the exit code do not change.
6. The audit's two raised-threshold runs (sigma1 T1, sigma2 S2) walk a
   kernel-product stack in which some columns have no scale with
   |w| > gamma1, some one and some two.
7. The audit's two-tone recover run sums one component's window in
   chunks of columns whose last would be one column wide, the tail that
   joins the chunk before it.
"""
from __future__ import annotations

import hashlib
import importlib.util
import re
import subprocess
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


def _fake_audit(monkeypatch, bodies, walls):
    """Run main on one faked run per tree: tree `label` writes omega.csv
    as bodies[label] and took walls[label] seconds.  No command starts."""
    def run_in_tree(tree, name, args, inputs, out):
        (out / name).mkdir()
        body = bodies[out.name]
        (out / name / "omega.csv").write_text(body)
        return ({f"{name} (exit code)": "0", f"{name}/omega.csv":
                 hashlib.sha256(body.encode()).hexdigest()}, walls[out.name])
    monkeypatch.setattr(byte_audit, "run_in_tree", run_in_tree)
    monkeypatch.setattr(byte_audit, "write_inputs", lambda inputs: {})
    monkeypatch.setattr(byte_audit, "RUNS", {"run": []})
    return byte_audit.main(["parent-tree", "new-tree"])


def test_audit_prints_the_move_under_the_file(monkeypatch, capsys):
    bodies = {"parent": _OLD, "new": _OLD.replace("nan", "7")}
    assert _fake_audit(monkeypatch, bodies,
                       {"parent": 1.0, "new": 1.0}) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "run: 1 differ; wall 1.00 s -> 1.00 s"
    at = next(i for i, line in enumerate(out)
              if line.startswith("differs: run/omega.csv: "))
    assert out[at + 3] == \
        "    omega: largest |difference| 0, NaN cells differ in 1 rows"
    assert out[-1] == "1 output files of 1 runs: 1 differ"


def test_audit_prints_each_runs_wall_time_beside_its_verdict(monkeypatch,
                                                             capsys):
    assert _fake_audit(monkeypatch, {"parent": _OLD, "new": _OLD},
                       {"parent": 0.2734, "new": 0.1821}) == 0
    assert capsys.readouterr().out.splitlines() == [
        "run: every SHA-256 equal; wall 0.27 s -> 0.18 s",
        "1 output files of 1 runs: every SHA-256 equal"]


def test_audit_counts_each_runs_warning_lines(monkeypatch, capsys):
    # no command starts: the run named "loud" warns twice in the parent
    warning = "x.py:1: RuntimeWarning: overflow\n  y = 2 * x\n"

    def run(argv, env, cwd, capture_output, text):
        loud = argv[-1].endswith("loud") and cwd.name == "parent"
        return subprocess.CompletedProcess(argv, 0, "",
                                           2 * warning if loud else "")
    monkeypatch.setattr(byte_audit.subprocess, "run", run)
    monkeypatch.setattr(byte_audit, "write_inputs", lambda inputs: {})
    monkeypatch.setattr(byte_audit, "RUNS", {"quiet": [], "loud": []})
    assert byte_audit.main(["parent-tree", "new-tree"]) == 0
    out = [re.sub(r"wall [\d.]+ s -> [\d.]+ s", "wall", line)
           for line in capsys.readouterr().out.splitlines()]
    assert out == [
        "quiet: every SHA-256 equal; wall",
        "loud: every SHA-256 equal; wall; warning lines 2 -> 0",
        "0 output files of 2 runs: every SHA-256 equal; "
        "warning lines 2 -> 0"]


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
