"""README's Python quick start runs as written and prints True, and the
package root exports exactly the documented pipeline.

The block is executed verbatim in a fresh namespace, so a renamed or
removed name of the documented library API fails here, not in a reader's
session.  The second-order paragraph's names are imported from the root
here, and the root's public names are pinned, so the export list and the
README cannot drift apart.
"""
from __future__ import annotations

import contextlib
import io
import types
from pathlib import Path

import adassq

README = Path(__file__).resolve().parents[1] / "README.md"

# the quick start's names, the second-order paragraph's, and the inputs a
# user builds beside them
ROOT_NAMES = {
    "WindowModel",
    "SignalSpec", "SampledSignal", "tone", "linear_chirp", "poly_phase",
    "example1_spec", "example2_spec", "synthesize", "signal_from_csv",
    "SigmaProfile", "constant_profile", "sigma1", "sigma2", "zones",
    "ScaleGrid", "compute_stack",
    "phase_first", "phase_second", "SqueezeConfig", "squeeze",
    "normalizers", "recover", "bounds_first", "bounds_second",
}


def test_readme_quick_start_prints_true():
    block = README.read_text().split("```python\n")[1].split("```")[0]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert out.getvalue() == "True\n"


def test_root_exports_the_documented_pipeline():
    from adassq import bounds_second, phase_second, sigma2  # noqa: F401
    public = {name for name, value in vars(adassq).items()
              if not name.startswith("_") and name != "annotations"
              and not isinstance(value, types.ModuleType)}
    assert public == ROOT_NAMES
    assert len(ROOT_NAMES) == 25
