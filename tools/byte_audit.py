"""Compare the output bytes of two source trees of this repository.

    python3 tools/byte_audit.py PARENT_TREE NEW_TREE

Each tree is a directory holding this repository's ``src/`` (for example
a ``git archive`` of the parent commit, unpacked).  The audit runs one
fixed list of ``adassq`` command lines in each tree, the benchmark's
three workloads at seeds 0 and 1 among them, then compares the SHA-256
of every output file and each run's exit code.  It prints one line per
run, its verdict, its CLI wall time (spawn to exit) and its peak RSS in
the parent and the new tree, then what differs and each tree's median
and largest peak, and exits 1 if anything does differ, 0 if every file
keeps its bytes.  Each run is spawned by perfbench/launcher.py, a small
process of its own: Linux starts a child's peak RSS at the size of the
process that forks it, which here holds numpy, so a child forked by the
audit itself would read the audit's size.  It also counts the lines of
each run's stderr that contain ``Warning`` (a numpy RuntimeWarning,
say): a run that warns in either tree shows both counts on its line, and
the last line adds the totals when any run warned.  Warnings never
change the verdict or the exit code.  The trees take each run back to
back, the parent first, and a wall time or peak is one cold sample (the
very first, of the parent, also pays for cold file caches).  Each run's
environment pins glibc's mmap and trim thresholds (MALLOC_ENV), so a
peak moves with what a run allocates, not with the code's layout, and
both trees' ``src/`` is compiled to bytecode before the first sample, so
no sample compiles it, even where PYTHONDONTWRITEBYTECODE is set.  A
run whose two peaks differ by more than 0.5 MB gets 3 more cold samples
in each tree, alternating which tree goes first, and its line gives each
tree's median peak.  Such a run counts as higher only when every one of
the new tree's samples is above every one of the parent's, and a line
before the summary names each; a run within 0.5 MB counts as unchanged,
so the summary's count of higher runs is not the noise of one sample.
Under each differing file it says how far the file moved: for a CSV with
the same header and row count in both trees, each column's largest
absolute difference and whether its NaN cells agree; for tf.pgm, the
count of differing pixels.  The summary also gives each
tree's ``src/`` line count (the newlines of its ``src/**/*.py``, as
``wc -l`` counts them), after a line naming each file under ``src/``
whose count changed with its two counts, so a change's size comes from
the same run as its byte verdict.  The inputs (the workloads' sample
files, a width table) are generated once, by perfbench/workloads.py and
here, and both trees read the same files.
"""
from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(_PERFBENCH))
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
    # eps3 given: every other audited recover takes the auto rule
    "recover-three-sigma1-eps3": ["recover", "--components", _THREE,
                                  "--sigma", "sigma1", "--eps3", "2"],
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
    # hybrid S2 with gamma2 given: the walk squeezes each block of
    # columns as it goes, where the default gamma2 waits for all of them
    "analyze-example2-sigma2-s2-gamma2": ["analyze", "--preset", "example2",
                                          "--sigma", "sigma2", "--variant",
                                          "S2", "--gamma2", "1"],
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
# A run's cold peak repeats within about 0.5 MB from sample to sample, as
# the allocator's layout moves; two single samples further apart than
# that are sampled RESAMPLES more times in each tree, and the run's peak
# rose only if the two trees' samples do not overlap.
PEAK_SPREAD_MB = 0.5
RESAMPLES = 3
# glibc's malloc moves its mmap threshold up to the largest block freed so
# far, and its trim threshold with it, so a cold peak moved by up to
# 0.9 MB with the code's layout alone; every run pins both at 128 KiB,
# glibc's default for each
MALLOC_ENV = {"MALLOC_MMAP_THRESHOLD_": "131072",
              "MALLOC_TRIM_THRESHOLD_": "131072"}


def spawn(cmd: list[str], cwd: Path, env: dict[str, str],
          log: Path) -> dict:
    """Run cmd through perfbench/launcher.py, its stderr written to log;
    return the launcher's reply: exit code "rc", "wall" seconds from
    spawn to exit and peak RSS "rss_mb"."""
    request = json.dumps({"cmd": cmd, "cwd": str(cwd), "env": env,
                          "log": str(log)})
    reply = subprocess.run([sys.executable, str(_PERFBENCH / "launcher.py")],
                           input=request + "\n", capture_output=True,
                           text=True, check=True)
    return json.loads(reply.stdout)


def run_in_tree(tree: Path, name: str, args: list[str], inputs: Path,
                out: Path) -> tuple[dict[str, str], float, float]:
    """Run one command with tree/src first on the path; return each
    output file's SHA-256 and the run's exit code, by relative name (and
    under name + WARNED its stderr lines that contain "Warning", if any),
    the run's wall time in seconds and its peak RSS in MB."""
    env = dict(os.environ, PYTHONPATH=str(tree.resolve() / "src"),
               **MALLOC_ENV)
    argv = [a.format(out=out, inputs=inputs) for a in args]
    log = out / f"{name}.stderr"
    reply = spawn([sys.executable, "-m", "adassq.cli", *argv,
                   "--outdir", str(out / name)], out, env, log)
    print(f"{tree}: {name}: exit {reply['rc']}", file=sys.stderr)
    found = {f"{name} (exit code)": str(reply["rc"])}
    warned = sum("Warning" in line
                 for line in log.read_text().splitlines())
    if warned:
        found[name + WARNED] = str(warned)
    for path in sorted((out / name).glob("*")):
        found[f"{name}/{path.name}"] = \
            hashlib.sha256(path.read_bytes()).hexdigest()
    return found, reply["wall"], reply["rss_mb"]


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


def src_lines(tree: Path) -> dict[str, int]:
    """Newlines in each of the tree's src/**/*.py, as wc -l counts them,
    by its path under src/."""
    return {path.relative_to(tree / "src").as_posix():
            path.read_bytes().count(b"\n")
            for path in (tree / "src").rglob("*.py")}


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
        old, new = {}, {}
        wall, peak, warned = ({"parent": {}, "new": {}} for _ in range(3))
        for label in ("parent", "new"):
            (work / label).mkdir()
        trees = (("parent", args.parent), ("new", args.new))
        for _, tree in trees:   # so that no sample compiles src/
            compileall.compile_dir(tree / "src", quiet=2)
        digests = {"parent": old, "new": new}
        higher = []
        for name, run in runs.items():
            for label, tree in trees:
                found, wall[label][name], peak[label][name] = run_in_tree(
                    tree, name, run, inputs, work / label)
                warned[label][name] = int(found.pop(name + WARNED, 0))
                digests[label].update(found)
            if abs(peak["new"][name] - peak["parent"][name]) \
                    <= PEAK_SPREAD_MB:
                continue
            samples = {label: [peak[label][name]] for label, _ in trees}
            for k in range(RESAMPLES):
                for label, tree in trees[::-1] if k % 2 == 0 else trees:
                    samples[label].append(run_in_tree(
                        tree, name, run, inputs, work / label)[2])
            for label, _ in trees:
                peak[label][name] = statistics.median(samples[label])
            if min(samples["new"]) > max(samples["parent"]):
                higher.append(name)
        differ = [key for key in sorted(old.keys() | new.keys())
                  if old.get(key) != new.get(key)]
        for name in runs:
            mine = [key for key in differ if key.partition("/")[0]
                    in (name, f"{name} (exit code)")]
            counts = warned["parent"][name], warned["new"][name]
            print(f"{name}: "
                  + (f"{len(mine)} differ" if mine else "every SHA-256 equal")
                  + f"; wall {wall['parent'][name]:.2f} s -> "
                  f"{wall['new'][name]:.2f} s; peak "
                  f"{peak['parent'][name]:.2f} MB -> "
                  f"{peak['new'][name]:.2f} MB"
                  + ("; warning lines {} -> {}".format(*counts)
                     if any(counts) else ""))
        for key in differ:
            print(f"differs: {key}: {old.get(key, 'missing')} -> "
                  f"{new.get(key, 'missing')}")
            if key in old and key in new and "(exit code)" not in key:
                for line in moved(work / "parent" / key, work / "new" / key):
                    print(f"    {line}")
        if higher:
            print(f"peak higher in each of {RESAMPLES + 1} samples than in "
                  "any of the parent's: "
                  + ", ".join(f"{name} {peak['parent'][name]:.2f} MB -> "
                              f"{peak['new'][name]:.2f} MB"
                              for name in higher))
    old_mb, new_mb = (list(peak[label].values())
                      for label in ("parent", "new"))
    print(f"peak RSS: median {statistics.median(old_mb):.2f} MB -> "
          f"{statistics.median(new_mb):.2f} MB, largest {max(old_mb):.2f} "
          f"MB -> {max(new_mb):.2f} MB; higher in {len(higher)} of "
          f"{len(runs)} runs")
    lines = src_lines(args.parent), src_lines(args.new)
    changed = [f"{name} {lines[0].get(name, 0)} -> {lines[1].get(name, 0)}"
               for name in sorted(lines[0].keys() | lines[1].keys())
               if lines[0].get(name) != lines[1].get(name)]
    if changed:
        print("src/ files: " + ", ".join(changed))
    print(f"src/ lines: {sum(lines[0].values())} -> "
          f"{sum(lines[1].values())}")
    files = sum(1 for key in old if not key.endswith("(exit code)"))
    totals = [sum(warned[label].values()) for label in ("parent", "new")]
    print(f"{files} output files of {len(runs)} runs: "
          + (f"{len(differ)} differ" if differ else "every SHA-256 equal")
          + ("; warning lines {} -> {}".format(*totals) if any(totals)
             else ""))
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
