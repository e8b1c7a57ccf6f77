"""The benchmark's workloads and their seeded inputs.

Each workload is one ``adassq`` command line.  The seed sets phase
offsets, amplitudes and noise, never the sample count, the sampling rate,
the frequencies or the chirp rates, so the lattice sizes (n, J, N, L) are
the same for every seed and only the numbers inside the outputs change.
Amplitudes stay within 10% of 1: the accuracy of the weaker of two
interfering components depends strongly on their amplitude ratio, and a
range of 0.7-1.3 made if_err_hz spread by 20-30% between seeds.  The
program sees nothing but the generated ``--components`` string or sample
file; the true instantaneous frequencies stay here, for the accuracy
check.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# The pinned reference outputs (reference/<workload>.json) are those of
# this seed; every run also executes it once, as its warm-up call.
REFERENCE_SEED = 0


@dataclass(frozen=True)
class Inputs:
    """One generated command line plus the ground truth behind it."""

    args: tuple[str, ...]          # CLI arguments without --outdir
    n: int
    fs: float
    # true instantaneous frequency of each component, Hz, as polynomials
    # in t (ascending coefficients), lowest component first
    ifs: tuple[tuple[float, ...], ...]

    def argv(self, outdir: Path) -> list[str]:
        return [*self.args, "--outdir", str(outdir)]

    @property
    def bins(self) -> int:
        """N, the number of folded DFT bins of a real signal."""
        return self.n // 2 + 1


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # ceiling on if_err_hz; above it the output counts as wrong
    if_err_limit: float
    make: Callable[[int, Path], Inputs]


def _demo_example2(seed: int, workdir: Path) -> Inputs:
    # Canned input: the seed is unused.  The preset's two steep chirps are
    # 20 + 18 t and 42 + 36 t Hz.
    return Inputs(args=("demo", "example2"), n=256, fs=256.0,
                  ifs=((20.0, 18.0), (42.0, 36.0)))


def _analyze_const_1024(seed: int, workdir: Path) -> Inputs:
    rng = np.random.default_rng(seed)
    offsets = rng.uniform(0.0, 1.0, 2)          # cycles
    amps = rng.uniform(0.9, 1.1, 2)
    # phase polynomials in cycles: IF 12 + 0.5 t and 26 - 0.5 t Hz
    phases = ((offsets[0], 12.0, 0.25), (offsets[1], 26.0, -0.25))
    comps = "; ".join(
        f"poly:{','.join(repr(float(c)) for c in p)}:{float(a)!r}"
        for p, a in zip(phases, amps))
    return Inputs(args=("analyze", "--n", "1024", "--fs", "256",
                        "--components", comps),
                  n=1024, fs=256.0, ifs=((12.0, 0.5), (26.0, -0.5)))


_FILE_IFS = ((18.0, 8.0), (45.0, 10.0), (90.0, -12.0))
_FILE_NOISE = 0.1


def _analyze_file_t2(seed: int, workdir: Path) -> Inputs:
    n, fs = 256, 256.0
    rng = np.random.default_rng(seed)
    t = np.arange(n) / fs
    x = rng.normal(0.0, _FILE_NOISE, n)
    for (f0, rate), offset, amp in zip(_FILE_IFS, rng.uniform(0, 1, 3),
                                       rng.uniform(0.9, 1.1, 3)):
        x += amp * np.cos(2.0 * np.pi * (offset + (f0 + 0.5 * rate * t) * t))
    path = workdir / f"signal-seed{seed}.csv"
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write("t,re,im\n")
        for ti, xi in zip(t, x):
            fh.write(f"{ti:.17g},{xi:.17g},0\n")
    return Inputs(args=("analyze", "--signal-file", str(path),
                        "--variant", "T2"),
                  n=n, fs=fs, ifs=_FILE_IFS)


WORKLOADS = {w.name: w for w in (
    Workload(
        "demo-ex2",
        "Only workload with quadrature (bounds), a varying sigma2 stack, S2 "
        "phase and run_analysis called twice; bounds.* and "
        "cli.analysis_calls move run_s here",
        if_err_limit=1.0, make=_demo_example2),
    Workload(
        "analyze-const-1024",
        "Constant-sigma T1 analyze at n=1024: the stack is ~83% of the run "
        "and there is no quadrature; cwt.* moves run_s, wall_s and "
        "peak_rss_mb here",
        if_err_limit=0.5, make=_analyze_const_1024),
    Workload(
        "analyze-file-t2",
        "Noisy 3-component sample file, strict T2 on the wide 1 Hz-Nyquist "
        "grid; writers are ~half the run, so sst.write_* and signals.read_s "
        "move run_s here",
        if_err_limit=1.5, make=_analyze_file_t2),
)}
