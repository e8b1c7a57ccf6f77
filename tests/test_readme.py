"""README's Python quick start runs as written and prints True, within
the memory guard's count for the same analysis, and the package root
exports exactly the documented pipeline.

The block is executed verbatim in a fresh namespace, so a renamed or
removed name of the documented library API fails here, not in a reader's
session.  Its tracemalloc peak, recovery included, is at most what the
command line's guard counts for example1 with sigma1 and T1, the
analysis the block runs: the quick start walks the stack a block at a
time, as the command does.  The second-order paragraph's names are
imported from the root here, and the root's public names are pinned, so
the export list and the README cannot drift apart.
"""
from __future__ import annotations

import contextlib
import io
import tracemalloc
import types
from pathlib import Path

import adassq
from adassq import cli

README = Path(__file__).resolve().parents[1] / "README.md"

# the quick start's names, the second-order paragraph's, and the inputs a
# user builds beside them
ROOT_NAMES = {
    "WindowModel",
    "SignalSpec", "SampledSignal", "tone", "linear_chirp", "poly_phase",
    "example1_spec", "example2_spec", "synthesize", "signal_from_csv",
    "SigmaProfile", "constant_profile", "sigma1", "sigma2", "zones",
    "ScaleGrid", "compute_stack", "stack_walk", "SqueezeConfig", "walk",
    "certify",
}


def _quick_start() -> tuple[str, int]:
    """(stdout, tracemalloc peak) of the README's Python block."""
    block = README.read_text().split("```python\n")[1].split("```")[0]
    out = io.StringIO()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(out):
            exec(compile(block, str(README), "exec"), {})
        return out.getvalue(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_readme_quick_start_prints_true():
    assert _quick_start()[0] == "True\n"


def test_readme_quick_start_stays_within_the_guards_count(monkeypatch):
    needs = []
    check_size = cli._check_size

    def recorded(need, what, hint=""):
        if what.startswith("a transform stack"):
            needs.append(need)
        return check_size(need, what, hint)
    monkeypatch.setattr(cli, "_check_size", recorded)
    cli.run_analysis(cli.load_config(None, {
        ("signal", "preset"): "example1", ("sigma", "kind"): "sigma1"}))
    out, peak = _quick_start()
    assert out == "True\n" and peak <= needs[-1], (peak, needs[-1])


def test_root_exports_the_documented_pipeline():
    from adassq import certify, sigma2, walk  # noqa: F401
    public = {name for name, value in vars(adassq).items()
              if not name.startswith("_") and name != "annotations"
              and not isinstance(value, types.ModuleType)}
    assert public == ROOT_NAMES
    assert len(ROOT_NAMES) == 21
