"""Pin the reference outputs that run.py compares against.

    python3 perfbench/pin.py [WORKLOAD ...]

Runs each workload (default: all) once on the reference seed and writes
reference/<workload>.json.  Re-pin only in a change that is meant to
alter the program's output, and say so in that change.
"""
from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from adassq import cli  # noqa: E402
from check import REFERENCE_DIR, fingerprint  # noqa: E402
from workloads import REFERENCE_SEED, WORKLOADS  # noqa: E402


def main(names: list[str]) -> int:
    for name in names or WORKLOADS:
        work = HERE / ".work" / f"pin-{name}"
        shutil.rmtree(work, ignore_errors=True)
        inputs = WORKLOADS[name].make(REFERENCE_SEED, work / "in")
        rc = cli.main(inputs.argv(work / "out"))
        if rc != 0:
            print(f"{name}: exit code {rc}", file=sys.stderr)
            return 1
        REFERENCE_DIR.mkdir(exist_ok=True)
        path = REFERENCE_DIR / f"{name}.json"
        path.write_text(json.dumps(fingerprint(work / "out"), indent=0))
        print(f"{name}: wrote {path.relative_to(HERE.parent)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
