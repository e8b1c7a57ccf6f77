"""README's Python quick start runs as written and prints True.

The block is executed verbatim in a fresh namespace, so a renamed or
removed name of the documented library API fails here, not in a reader's
session.
"""
from __future__ import annotations

import contextlib
import io
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_prints_true():
    block = README.read_text().split("```python\n")[1].split("```")[0]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert out.getvalue() == "True\n"
