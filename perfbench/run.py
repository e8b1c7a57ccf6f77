"""Benchmark of the ``adassq`` command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ``src/``.  The
load is a closed loop: one client in this process, one command at a time.

``--trace 0`` measures the end-to-end metrics of BENCHMARK.json:

* ``setup_s``: median over fresh interpreters that only ``import
  adassq.cli``;
* ``wall_s`` and ``peak_rss_mb``: a cold ``python3 -m adassq.cli``
  process per sample, timed from spawn to exit, with its own rusage;
* ``run_s``: ``cli.main(argv)`` in this process, after a warm-up call;
* ``if_err_hz``: accuracy of the squeezed plane against the generator's
  true instantaneous frequencies (check.py).

``--trace 1`` repeats warm calls with and without the span wrappers of
spans.py and reports the per-layer metrics instead.

An untraced run takes cold samples for half of ``--seconds`` (at least
two), then makes a warm-up call on the reference seed, whose outputs are
compared with the pinned reference (check.py), and takes warm samples for
the rest (at least one).  A traced run makes the warm-up call and then
alternates untraced and traced calls (at least one of each).  Samples use
the requested seed.  A sample of analyze-const-1024 takes 10-14 s, so its
runs last about 55 s whatever ``--seconds`` says.

All outputs are checked; reruns of one input must be byte-identical.  The
last line of stdout is the JSON result; the lines before it print every
metric with its unit and sample count, ``failed_frac``, demo-ex2's
``within_bound_frac``, the environment and the lattice sizes.
``--workload all`` runs every workload in turn and prints only those
lines.  Results and spans are kept in perfbench/.work/.
"""
from __future__ import annotations

import argparse
import ctypes
import glob
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from check import (check_truth, compare_pinned, digests, load_reference,
                   within_bound)
from spans import LAYER_METRICS, Tracer, span_metrics, traced
from workloads import REFERENCE_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
SETUP_SAMPLES = 3
# Cold samples per untraced run, even past --seconds: a single cold process
# of analyze-const-1024 varied by 15% between runs.
MIN_COLD = 2

# name -> unit; the keys and units of BENCHMARK.json's end_to_end list
END_TO_END = {"wall_s": "s", "setup_s": "s", "run_s": "s",
              "peak_rss_mb": "MB", "if_err_hz": "Hz"}


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "SSQ_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), *filter(None, [env.get("PYTHONPATH")])])
    return env


class Launcher:
    """The launcher.py process, which spawns and measures every child."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def spawn(self, cmd: list[str], log: Path) -> tuple[int, float, float]:
        """(exit code, wall seconds, peak RSS in MB) of one child process."""
        self.proc.stdin.write(json.dumps({"cmd": cmd, "cwd": str(ROOT),
                                          "env": child_env(),
                                          "log": str(log)}) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        return reply["rc"], reply["wall"], reply["rss_mb"]

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def blas_threads() -> int | None:
    import numpy as np
    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs"
                         / "libscipy_openblas*"))
    for path in libs:
        fn = getattr(ctypes.CDLL(path), "scipy_openblas_get_num_threads64_",
                     None)
        if fn is not None:
            fn.restype = ctypes.c_int
            return fn()
    return None


def environment() -> dict:
    import numpy as np
    import scipy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads(),
            "SSQ_THREADS": os.environ.get("SSQ_THREADS", "unset")}


def summary(values: list[float]) -> dict:
    """Median, max and the highest percentile with ten samples beyond it."""
    s = {"median": statistics.median(values), "max": max(values),
         "count": len(values)}
    for p in (99, 90, 50):
        if len(values) * (100 - p) / 100 >= 10:
            s[f"p{p}"] = statistics.quantiles(values, n=100)[p - 1]
            break
    return s


def lattice_sizes(outdir: Path, inputs) -> dict[str, int]:
    """n, J (scales), N (DFT bins), L (frequency bins) of one output."""
    def rows(name):
        with open(outdir / name, "rb") as fh:
            return sum(1 for _ in fh) - 1
    return {"n": inputs.n, "J": rows("omega.csv") // inputs.n,
            "N": inputs.bins, "L": rows("tf.csv") // inputs.n}


def import_times(launcher: Launcher, log: Path) -> dict[str, float]:
    """Cumulative import seconds of chosen modules, from -X importtime."""
    launcher.spawn([sys.executable, "-X", "importtime", "-c",
                    "import adassq.cli"], log)
    cum = {}
    for line in log.read_text().splitlines():
        m = re.match(r"import time:\s*\d+ \|\s*(\d+) \|\s*(\S+)", line)
        if m:
            cum[m.group(2)] = int(m.group(1)) / 1e6
    return {"bounds.import_s": cum.get("adassq.bounds", 0.0),
            "windows.import_s": cum.get("adassq.windows", 0.0),
            "import.scipy_integrate_s": cum.get("scipy.integrate", 0.0)}


class Run:
    """One benchmark run: its samples, checks and failures."""

    def __init__(self, launcher: Launcher, workload, seed: int,
                 seconds: float, trace: bool):
        self.launcher = launcher
        self.wl = workload
        self.t0 = time.perf_counter()
        self.deadline = self.t0 + seconds
        self.dir = WORK / f"{workload.name}-seed{seed}-trace{int(trace)}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.reference = load_reference(workload.name)
        self.ref_inputs = workload.make(REFERENCE_SEED, self.dir / "in")
        self.inputs = workload.make(seed, self.dir / "in")
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.expected: dict[tuple, dict] = {}   # input args -> digests
        self.files_changed = 0
        self.if_err_hz = float("nan")
        self.within = None
        self.sizes = {}
        self.samples = 0

    def record(self, inputs, rc: int, outdir: Path, log: Path) -> None:
        """Check one execution's outputs; count it as attempted/failed."""
        self.attempted += 1
        problems = []
        if rc != 0:
            problems.append(f"exit code {rc}: {log.read_text().strip()}")
        elif not outdir.is_dir():
            problems.append("exit code 0 but no output directory")
        elif inputs.args in self.expected:
            if digests(outdir) != self.expected[inputs.args]:
                problems.append("rerun of the same input is not "
                                "byte-identical")
        else:
            if inputs.args == self.ref_inputs.args:
                problems, self.files_changed = compare_pinned(
                    self.reference, outdir)
            truth, err = check_truth(self.reference, outdir, inputs,
                                     self.wl.if_err_limit)
            problems += truth
            if not problems:
                self.expected[inputs.args] = digests(outdir)
                sizes = lattice_sizes(outdir, inputs)
                if self.sizes and sizes != self.sizes:
                    problems.append(f"sizes {sizes} differ from the "
                                    f"reference seed's {self.sizes}")
                self.sizes = sizes
                if inputs.args == self.inputs.args:
                    self.if_err_hz = err
                    if (outdir / "report.csv").exists():
                        self.within = within_bound(outdir)[:2]
        if problems:
            self.failed += 1
            self.problems += [f"{outdir.name}: {p}" for p in problems]
        else:
            shutil.rmtree(outdir)   # a run writes up to 12 MB per call

    def warm(self, cli, inputs, label: str, tracer=None) -> float:
        """Time one in-process cli.main call; return its seconds."""
        outdir = self.dir / label
        log = self.dir / f"{label}.log"
        t0 = time.perf_counter()
        try:
            if tracer is None:
                rc = cli.main(inputs.argv(outdir))
            else:
                with traced(tracer):
                    rc = cli.main(inputs.argv(outdir))
            log.write_text("")
        except SystemExit as exc:          # argparse rejects the argv
            rc = exc.code if isinstance(exc.code, int) else 1
            log.write_text(f"SystemExit {exc.code}")
        dt = time.perf_counter() - t0
        self.record(inputs, rc, outdir, log)
        return dt

    def cold(self, label: str) -> tuple[float, float]:
        outdir = self.dir / label
        log = self.dir / f"{label}.log"
        rc, wall, rss = self.launcher.spawn(
            [sys.executable, "-m", "adassq.cli", *self.inputs.argv(outdir)],
            log)
        self.record(self.inputs, rc, outdir, log)
        return wall, rss

    def more(self, last: float) -> bool:
        """Another sample of `last` seconds still fits in the budget."""
        return time.perf_counter() + last <= self.deadline

    def measure(self) -> dict[str, float]:
        setup = [self.launcher.spawn([sys.executable, "-c",
                                      "import adassq.cli"],
                                     self.dir / "setup.log")[1]
                 for _ in range(SETUP_SAMPLES)]
        # Cold samples for half the budget, then the warm-up call and warm
        # samples back to back: a warm call right after a cold process or
        # an idle pause runs up to 30% slower than one after another call.
        half = self.t0 + (self.deadline - self.t0) / 2.0
        wall, rss = [], []
        while len(wall) < MIN_COLD or time.perf_counter() + wall[-1] <= half:
            w, r = self.cold(f"cold{len(wall)}")
            wall.append(w)
            rss.append(r)
        from adassq import cli
        self.warm(cli, self.ref_inputs, "ref")
        run = []
        while not run or self.more(run[-1]):
            run.append(self.warm(cli, self.inputs, f"warm{len(run)}"))
        self.samples = len(run)
        self.summaries = {"wall_s": summary(wall), "setup_s": summary(setup),
                          "run_s": summary(run),
                          "peak_rss_mb": summary(rss)}
        return {"wall_s": statistics.median(wall),
                "setup_s": statistics.median(setup),
                "run_s": statistics.median(run),
                "peak_rss_mb": statistics.median(rss),
                "if_err_hz": self.if_err_hz}

    def measure_traced(self) -> dict[str, float]:
        imports = import_times(self.launcher, self.dir / "importtime.log")
        from adassq import cli
        self.warm(cli, self.ref_inputs, "ref")
        plain, traced_runs = [], []
        while True:
            k = len(plain)
            plain.append(self.warm(cli, self.inputs, f"plain{k}"))
            tracer = Tracer()
            run_s = self.warm(cli, self.inputs, f"traced{k}", tracer)
            traced_runs.append(span_metrics(tracer, run_s))
            tracer.write(self.dir / f"spans{k}.jsonl")
            if not self.more(plain[-1] + run_s):
                break
        self.samples = len(plain)
        m = {key: statistics.median(r[key] for r in traced_runs)
             for key in traced_runs[0]}
        untraced = statistics.median(plain)
        rows_in, rows = self.within or (0, 0)
        m.update(imports)
        m.update({"trace.untraced_run_s": untraced,
                  "trace.overhead_s": m["trace.run_s"] - untraced,
                  "bounds.within_bound_rows": rows_in,
                  "bounds.report_rows": rows,
                  "check.files_changed": self.files_changed})
        self.summaries = {"trace.run_s": summary(
            [r["trace.run_s"] for r in traced_runs]),
            "trace.untraced_run_s": summary(plain)}
        return m


def run_one(launcher: Launcher, name: str, seed: int, seconds: float,
            trace: bool) -> dict:
    run = Run(launcher, WORKLOADS[name], seed, seconds, trace)
    metrics = run.measure_traced() if trace else run.measure()
    units = LAYER_METRICS if trace else END_TO_END
    env = environment()
    print(f"perfbench {name} seed={seed} trace={int(trace)} "
          f"samples={run.samples} elapsed={time.perf_counter() - run.t0:.1f}s")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print("sizes " + " ".join(f"{k}={v}" for k, v in run.sizes.items())
          + " (identical for the reference seed)")
    for key, value in metrics.items():
        unit = units[key][0] if trace else units[key]
        s = run.summaries.get(key)
        extra = "" if s is None else " ".join(
            f"{k}={v:.6g}" for k, v in s.items() if k != "median")
        if trace:
            extra += f" [moves {units[key][2]}]"
        print(f"  {key:26s} {value:14.6g} {unit:8s} {extra}")
    print(f"  {'failed_frac':26s} {run.failed / max(1, run.attempted):14.6g}"
          f" {'ratio':8s} failed={run.failed} attempted={run.attempted}")
    if run.within is not None:
        print(f"  {'within_bound_frac':26s} "
              f"{run.within[0] / run.within[1]:14.6g} {'ratio':8s} "
              f"rows={run.within[1]}")
    print(f"  files_changed={run.files_changed} (SHA-256 against the pinned "
          "reference; informational)")
    for p in run.problems:
        print(f"  FAILED {p}")
    result = {"correct": not run.problems, "attempted": run.attempted,
              "failed": run.failed,
              # a failed check can leave a metric NaN, which JSON lacks
              "metrics": {k: {"value": v if math.isfinite(v) else None,
                              "unit": units[k][0] if trace else units[k]}
                          for k, v in metrics.items()}}
    (run.dir.parent / f"{run.dir.name}.json").write_text(json.dumps(
        {**result, "workload": name, "seed": seed, "env": env,
         "sizes": run.sizes, "samples": run.summaries,
         "problems": run.problems}, indent=1))
    return result


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "adassq" / "cli.py").is_file():
        print(f"perfbench: no adassq package under {SRC}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if not set(names) <= set(WORKLOADS):
        print(f"perfbench: unknown workload {args.workload!r} (expected all "
              f"or one of {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("SSQ_THREADS", None)
    launcher = Launcher()
    try:
        results = [run_one(launcher, n, args.seed, args.seconds,
                           bool(args.trace)) for n in names]
    finally:
        launcher.close()
    if args.workload != "all":
        print(json.dumps(results[0]))
        return 0
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    raise SystemExit(main())
