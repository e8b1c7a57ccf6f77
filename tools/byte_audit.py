"""Compare the output bytes of two source trees of this repository.

    python3 tools/byte_audit.py PARENT_TREE NEW_TREE

Each tree is a directory holding this repository's ``src/`` (for example
a ``git archive`` of the parent commit, unpacked).  The audit runs one
fixed list of ``adassq`` command lines in each tree, the benchmark's
three workloads at seeds 0 and 1 among them, then compares the SHA-256
of every output file and each run's exit code.  It prints one line per
run, its verdict and its CLI wall time (spawn to exit) in the parent and
the new tree, then what differs, and exits 1 if anything does, 0 if
every file keeps its bytes.  It also counts the lines of each run's
stderr that contain ``Warning`` (a numpy RuntimeWarning, say): a run that
warns in either tree shows both counts on its line, and the last line
adds the totals when any run warned.  Warnings never change the verdict
or the exit code.  The trees take each run back to back, the
parent first, and a wall time is one cold sample (the very first, of the
parent, also pays for cold file caches).  Under each differing file it
says how far the file moved: for a CSV with the same header and row
count in both trees, each column's largest absolute difference and
whether its NaN cells agree; for tf.pgm, the count of differing
pixels.  The inputs (the workloads' sample files, a width table) are
generated once, by perfbench/workloads.py and here, and both trees read
the same files.
"""
from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import WORKLOADS  # noqa: E402

_EX1 = "chirp:12:0.5; chirp:26:-0.5"
_THREE = "tone:20; chirp:40:5; tone:80"
_SILENT = "tone:20:0; tone:40:0"
# a cubic phase, phi''' = 12: every other audited signal has phi''' = 0,
# so bounds_second's curvature term is zero in all of their reports
_CUBIC = "poly:0,30,0,2; tone:80"
# run name -> arguments without --outdir, in order: {out} is the tree's
# output root (a run may read an earlier run's output), {inputs} the
# shared input directory
RUNS = {
    "demo-example1": ["demo", "example1"],
    "demo-example2": ["demo", "example2"],
    "analyze-1024": ["analyze", "--n", "1024", "--fs", "256",
                     "--components", _EX1],
    # a raised threshold masks most of omega.csv: its NaN cells are the
    # bulk of the file, not a border
    "analyze-1024-gamma1": ["analyze", "--n", "1024", "--fs", "256",
                            "--components", _EX1, "--gamma1", "0.6"],
    "analyze-4096": ["analyze", "--n", "4096", "--fs", "256",
                     "--components", "chirp:20:1; chirp:50:2; tone:90"],
    "recover-example2-t2": ["recover", "--preset", "example2", "--sigma",
                            "sigma2", "--gamma2", "1", "--variant", "T2"],
    "recover-empty-t1": ["recover", "--preset", "empty"],
    "recover-empty-s2": ["recover", "--preset", "empty", "--variant", "S2"],
    "recover-empty-t2": ["recover", "--preset", "empty", "--variant", "T2"],
    "recover-silent-pair-t1": ["recover", "--components", _SILENT],
    "recover-silent-pair-s2": ["recover", "--components", _SILENT,
                               "--variant", "S2"],
    "analyze-three-sigma1": ["analyze", "--components", _THREE, "--sigma",
                             "sigma1"],
    "recover-three-sigma1": ["recover", "--components", _THREE, "--sigma",
                             "sigma1"],
    "recover-three-sigma2-s2": ["recover", "--components", _THREE,
                                "--sigma", "sigma2", "--variant", "S2"],
    # varying sigma takes the stack in blocks of columns: with 1 MiB
    # blocks, 118 scales make S2's blocks 69 columns wide, so the last of
    # 277 is one column
    "analyze-three-sigma2-s2-277": ["analyze", "--n", "277", "--components",
                                    _THREE, "--sigma", "sigma2",
                                    "--variant", "S2"],
    "recover-cubic-sigma2-s2": ["recover", "--components", _CUBIC,
                                "--sigma", "sigma2", "--variant", "S2"],
    "recover-cubic-sigma1": ["recover", "--components", _CUBIC, "--sigma",
                             "sigma1"],
    # recover sums a component's window rows a chunk of columns at a
    # time: the 20 Hz tone's window spans 165 rows, so its chunks are 49
    # columns wide, and 246 = 5 * 49 + 1 leaves a one-column tail
    "recover-two-tones-246": ["recover", "--n", "246", "--components",
                              "tone:20; tone:80"],
    "synth-example2": ["synth", "--preset", "example2"],
    "analyze-synth-file-t2": ["analyze", "--signal-file",
                              "{out}/synth-example2/signal.csv",
                              "--variant", "T2"],
    "synth-complex": ["synth", "--components", _EX1, "--mode", "complex"],
    # the first sample file with a nonzero im column: its mode is complex
    "analyze-complex-file-s2": ["analyze", "--signal-file",
                                "{out}/synth-complex/signal.csv",
                                "--variant", "S2"],
    "analyze-complex-s2": ["analyze", "--components", _EX1, "--mode",
                           "complex", "--variant", "S2", "--xi-bins", "300"],
    "analyze-sigma-table": ["analyze", "--preset", "example1", "--sigma",
                            "table", "--sigma-table",
                            "{inputs}/sigma-table.csv"],
    # a raised threshold leaves some columns of a varying-sigma stack with
    # no scale above it, some with one and some with two, the edges of
    # compute_stack's gamma1 mask
    "analyze-example1-sigma1-gamma1": ["analyze", "--preset", "example1",
                                       "--sigma", "sigma1", "--gamma1",
                                       "0.99"],
    "recover-example2-sigma2-s2-gamma1": ["recover", "--preset", "example2",
                                          "--sigma", "sigma2", "--variant",
                                          "S2", "--gamma1", "0.98"],
}


def write_inputs(inputs: Path) -> dict[str, list[str]]:
    """Write the shared inputs; return the benchmark runs they feed."""
    b = np.arange(256) / 256.0          # example1's time grid
    with open(inputs / "sigma-table.csv", "w", newline="") as fh:
        fh.write("b,sigma,dsigma\n")
        for row in zip(b, 1.2 + 0.1 * np.sin(2.0 * np.pi * b),
                       0.2 * np.pi * np.cos(2.0 * np.pi * b)):
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
    return {f"bench-{name}-seed{seed}": list(w.make(seed, inputs).args)
            for name, w in WORKLOADS.items() for seed in (0, 1)}


# key under which run_in_tree returns a run's count of warning lines
WARNED = " (warning lines)"


def run_in_tree(tree: Path, name: str, args: list[str], inputs: Path,
                out: Path) -> tuple[dict[str, str], float]:
    """Run one command with tree/src first on the path; return each
    output file's SHA-256 and the run's exit code, by relative name (and
    under name + WARNED its stderr lines that contain "Warning", if any),
    and the run's wall time in seconds."""
    env = dict(os.environ, PYTHONPATH=str(tree.resolve() / "src"))
    argv = [a.format(out=out, inputs=inputs) for a in args]
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "adassq.cli", *argv,
         "--outdir", str(out / name)],
        env=env, cwd=out, capture_output=True, text=True)
    wall = time.perf_counter() - start
    print(f"{tree}: {name}: exit {proc.returncode}", file=sys.stderr)
    found = {f"{name} (exit code)": str(proc.returncode)}
    warned = sum("Warning" in line for line in proc.stderr.splitlines())
    if warned:
        found[name + WARNED] = str(warned)
    for path in sorted((out / name).glob("*")):
        found[f"{name}/{path.name}"] = \
            hashlib.sha256(path.read_bytes()).hexdigest()
    return found, wall


def _pixels(path: Path) -> np.ndarray:
    """The pixels of a binary PGM with a P5, size, 255 header."""
    data = path.read_bytes().split(b"\n", 3)
    width, height = map(int, data[1].split())
    return np.frombuffer(data[3], np.uint8).reshape(height, width)


def _table(path: Path) -> tuple[str, np.ndarray]:
    """A CSV's header line and its cells, one row per line."""
    with open(path) as fh:
        head = fh.readline().rstrip("\n")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")     # a header-only table
            return head, np.loadtxt(fh, delimiter=",", ndmin=2)


def moved(old: Path, new: Path) -> list[str]:
    """How far a differing output file moved, one line per finding."""
    if old.suffix == ".pgm":
        a, b = _pixels(old), _pixels(new)
        if a.shape != b.shape:
            return [f"image size {a.shape} -> {b.shape}"]
        return [f"{np.count_nonzero(a != b)} of {a.size} pixels differ"]
    if old.suffix != ".csv":
        return []
    (head, a), (new_head, b) = _table(old), _table(new)
    if head != new_head or a.shape != b.shape:
        return [f"header or row count differs: {len(a)} -> {len(b)} rows"]
    found = []
    for name, x, y in zip(head.split(","), a.T, b.T):
        nan, new_nan = np.isnan(x), np.isnan(y)
        both = ~(nan | new_nan)
        with np.errstate(invalid="ignore"):     # inf - inf
            diff = np.max(np.abs(x[both] - y[both]), initial=0.0)
        masks = np.count_nonzero(nan != new_nan)
        found.append(f"{name}: largest |difference| {diff:.3g}, "
                     + (f"NaN cells differ in {masks} rows" if masks
                        else "NaN cells agree"))
    return found


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="tree of the parent")
    parser.add_argument("new", type=Path, help="tree of the change")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="byte-audit-") as tmp:
        work = Path(tmp)
        inputs = work / "inputs"
        inputs.mkdir()
        runs = {**RUNS, **write_inputs(inputs)}
        # run by run, the two trees back to back, so that drift in the
        # machine's load moves both wall times of a run alike
        old, new, old_wall, new_wall = {}, {}, {}, {}
        warned = {"parent": {}, "new": {}}
        for label in ("parent", "new"):
            (work / label).mkdir()
        for name, run in runs.items():
            for label, tree, digests, wall in (
                    ("parent", args.parent, old, old_wall),
                    ("new", args.new, new, new_wall)):
                found, wall[name] = run_in_tree(tree, name, run, inputs,
                                                work / label)
                warned[label][name] = int(found.pop(name + WARNED, 0))
                digests.update(found)
        differ = [key for key in sorted(old.keys() | new.keys())
                  if old.get(key) != new.get(key)]
        for name in runs:
            mine = [key for key in differ if key.partition("/")[0]
                    in (name, f"{name} (exit code)")]
            counts = warned["parent"][name], warned["new"][name]
            print(f"{name}: "
                  + (f"{len(mine)} differ" if mine else "every SHA-256 equal")
                  + f"; wall {old_wall[name]:.2f} s -> "
                  f"{new_wall[name]:.2f} s"
                  + ("; warning lines {} -> {}".format(*counts)
                     if any(counts) else ""))
        for key in differ:
            print(f"differs: {key}: {old.get(key, 'missing')} -> "
                  f"{new.get(key, 'missing')}")
            if key in old and key in new and "(exit code)" not in key:
                for line in moved(work / "parent" / key, work / "new" / key):
                    print(f"    {line}")
    files = sum(1 for key in old if not key.endswith("(exit code)"))
    totals = [sum(warned[label].values()) for label in ("parent", "new")]
    print(f"{files} output files of {len(runs)} runs: "
          + (f"{len(differ)} differ" if differ else "every SHA-256 equal")
          + ("; warning lines {} -> {}".format(*totals) if any(totals)
             else ""))
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
