"""Output checks: pinned references, ground truth and rerun identity.

Three checks, from strongest to weakest dependence on the commit that
pinned the references:

* ``compare_pinned`` compares an output directory of the reference seed
  with ``reference/<workload>.json`` number by number, at the package's
  anchor tolerance (relative 1e-9 of each value plus 1e-9 of its column's
  largest magnitude).  Bytes are not compared: a faster transform that
  agrees to 1e-14 is correct.  SHA-256 mismatches are only counted
  (``files_changed``).
* ``check_truth`` checks any seed's outputs against what the generator
  knows: the same files, headers and row counts as the reference, finite
  values, and the squeezed plane's energy within ``if_err_limit`` Hz of
  every component's true instantaneous frequency.
* ``digests`` lets a caller require that reruns of the same input (cold
  process, warm call, traced call) write byte-identical files.

A reference stores, per CSV, the header, row count, SHA-256, NaN mask
digest, per column a plain and a pseudo-randomly weighted sum, and a
sample of rows in full; per PGM, the header and every pixel.
"""
from __future__ import annotations

import base64
import hashlib
import io
import json
import zlib
from pathlib import Path

import numpy as np

RTOL = 1e-9
SAMPLE_ROWS = 32
_WEIGHT_SEED = 20200825
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def digests(outdir: Path) -> dict[str, str]:
    return {p.name: sha256(p) for p in sorted(outdir.iterdir())}


def read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    """Header and float table of a numeric CSV (NaN kept)."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        body = fh.read()
    data = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2) if body \
        else np.empty((0, len(header)))
    if data.shape[1] != len(header):
        raise ValueError(f"{path.name}: {data.shape[1]} columns, header "
                         f"has {len(header)}")
    return header, data


def read_pgm(path: Path) -> tuple[str, np.ndarray]:
    raw = path.read_bytes()
    parts = raw.split(b"\n", 3)
    if len(parts) != 4 or parts[0] != b"P5":
        raise ValueError(f"{path.name}: not a binary PGM")
    width, height = (int(v) for v in parts[1].split())
    pixels = np.frombuffer(parts[3], dtype=np.uint8)
    if pixels.size != width * height:
        raise ValueError(f"{path.name}: {pixels.size} pixels, header says "
                         f"{width}x{height}")
    return b"\n".join(parts[:3]).decode("ascii"), pixels


def _weights(rows: int) -> np.ndarray:
    return np.random.default_rng(_WEIGHT_SEED).uniform(-1.0, 1.0, rows)


def _sample_rows(data: np.ndarray) -> list[int]:
    """Evenly spaced rows plus the rows with the largest magnitudes."""
    rows = data.shape[0]
    if rows == 0:
        return []
    even = np.linspace(0, rows - 1, min(rows, SAMPLE_ROWS)).astype(int)
    size = np.nan_to_num(np.abs(data)).max(axis=1)
    top = np.argsort(-size, kind="stable")[:SAMPLE_ROWS]
    return sorted(set(even.tolist()) | set(top.tolist()))


def _columns(data: np.ndarray) -> list[dict]:
    w = _weights(data.shape[0])
    cols = []
    for col in data.T:
        finite = np.isfinite(col)
        v = np.where(finite, col, 0.0)
        cols.append({
            "nan_mask": hashlib.sha256(np.packbits(~finite)).hexdigest(),
            "max_abs": float(np.max(np.abs(v), initial=0.0)),
            "sum": float(np.sum(v)),
            "l1": float(np.sum(np.abs(v))),
            "wsum": float(np.sum(w * v)),
            "wl1": float(np.sum(np.abs(w * v))),
        })
    return cols


def fingerprint(outdir: Path) -> dict[str, dict]:
    """Reference record of every file in an output directory."""
    out = {}
    for path in sorted(outdir.iterdir()):
        rec = {"sha256": sha256(path)}
        if path.suffix == ".csv":
            header, data = read_csv(path)
            rows = _sample_rows(data)
            rec.update(header=header, rows=int(data.shape[0]),
                       columns=_columns(data), sample_index=rows,
                       sample=data[rows].tolist())
        elif path.suffix == ".pgm":
            header, pixels = read_pgm(path)
            rec.update(header=header, pixels=base64.b64encode(
                zlib.compress(pixels.tobytes(), 9)).decode("ascii"))
        out[path.name] = rec
    return out


def _close(got: float, want: float, scale: float) -> bool:
    return abs(got - want) <= RTOL * (abs(want) + scale)


def _compare_csv(name: str, ref: dict, path: Path) -> list[str]:
    header, data = read_csv(path)
    if header != ref["header"]:
        return [f"{name}: header {header} != {ref['header']}"]
    if data.shape[0] != ref["rows"]:
        return [f"{name}: {data.shape[0]} rows, reference has {ref['rows']}"]
    problems = []
    for c, (got, want) in enumerate(zip(_columns(data), ref["columns"])):
        col = header[c]
        if got["nan_mask"] != want["nan_mask"]:
            problems.append(f"{name}: column {col}: NaN cells moved")
        for key, bound in (("sum", "l1"), ("wsum", "wl1")):
            if abs(got[key] - want[key]) > RTOL * want[bound] + 1e-300:
                problems.append(f"{name}: column {col}: {key} {got[key]!r}"
                                f" != {want[key]!r}")
    idx = ref["sample_index"]
    want_rows = np.array(ref["sample"], dtype=float).reshape(len(idx),
                                                             len(header))
    scales = [col["max_abs"] for col in ref["columns"]]
    for i, got_row, want_row in zip(idx, data[idx], want_rows):
        for c, (g, w) in enumerate(zip(got_row, want_row)):
            same_nan = np.isnan(g) and np.isnan(w)
            if not same_nan and not _close(g, w, scales[c]):
                problems.append(f"{name}: row {i + 1} column {header[c]}: "
                                f"{g!r} != {w!r}")
    return problems


def _compare_pgm(name: str, ref: dict, path: Path) -> list[str]:
    header, pixels = read_pgm(path)
    if header != ref["header"]:
        return [f"{name}: header {header!r} != {ref['header']!r}"]
    want = np.frombuffer(zlib.decompress(base64.b64decode(ref["pixels"])),
                         dtype=np.uint8)
    # a value within RTOL of the reference can round to the next level
    diff = np.abs(pixels.astype(np.int16) - want.astype(np.int16))
    if diff.max(initial=0) > 1:
        return [f"{name}: {int(np.count_nonzero(diff > 1))} pixels differ "
                "by more than one level"]
    return []


def load_reference(workload: str) -> dict[str, dict]:
    return json.loads((REFERENCE_DIR / f"{workload}.json").read_text())


def compare_pinned(reference: dict[str, dict], outdir: Path
                   ) -> tuple[list[str], int]:
    """(problems, files_changed) of outdir against a pinned reference."""
    problems, changed = [], 0
    names = sorted(p.name for p in outdir.iterdir())
    if names != sorted(reference):
        problems.append(f"files {names} != reference {sorted(reference)}")
    for name, ref in reference.items():
        path = outdir / name
        if not path.is_file():
            continue
        changed += sha256(path) != ref["sha256"]
        try:
            if path.suffix == ".csv":
                problems += _compare_csv(name, ref, path)
            elif path.suffix == ".pgm":
                problems += _compare_pgm(name, ref, path)
        except ValueError as exc:
            problems.append(f"{name}: {exc}")
    return problems, changed


def if_error_hz(outdir: Path, ifs, n: int, fs: float) -> float:
    """Median IF error of the squeezed plane, over components and columns.

    For each component and interior column (the middle 80% of the record)
    the |T|-weighted centroid of tf.csv over the bins closer to this
    component's true IF than half the distance to its nearest neighbour is
    compared with the true IF.  A window with no energy counts as off by
    its half-width.
    """
    _, data = read_csv(outdir / "tf.csv")
    xi = data[::n, 0]
    mag = data[:, 4].reshape(len(xi), n)
    t = np.arange(n) / fs
    truth = np.array([np.polynomial.polynomial.polyval(t, c) for c in ifs])
    gaps = np.abs(np.diff(truth, axis=0))
    half = np.empty_like(truth)
    half[0] = gaps[0] / 2.0
    half[-1] = gaps[-1] / 2.0
    half[1:-1] = np.minimum(gaps[:-1], gaps[1:]) / 2.0
    interior = (t >= 0.1 * n / fs) & (t <= 0.9 * n / fs)
    errs = []
    for f, h in zip(truth, half):
        window = np.abs(xi[:, None] - f[None, :]) < h[None, :]
        mass = (mag * window).sum(axis=0)
        with np.errstate(invalid="ignore", divide="ignore"):
            centroid = (mag * window * xi[:, None]).sum(axis=0) / mass
        err = np.where(mass > 0.0, np.abs(centroid - f), h)
        errs.append(err[interior])
    return float(np.median(np.concatenate(errs)))


def within_bound(outdir: Path) -> tuple[int, int, bool]:
    """(rows within bound, rows, interior all within) of report.csv."""
    _, data = read_csv(outdir / "report.csv")
    b, flag = data[:, 0], data[:, 4]
    t_end = b.max(initial=0.0)
    interior = (b >= 0.1 * t_end) & (b <= 0.9 * t_end)
    return (int(np.count_nonzero(flag == 1)), int(flag.size),
            bool(np.all(flag[interior] == 1)))


def check_truth(reference: dict[str, dict], outdir: Path, inputs,
                if_err_limit: float) -> tuple[list[str], float]:
    """(problems, if_err_hz) of any seed's outputs against the truth."""
    problems = []
    names = sorted(p.name for p in outdir.iterdir())
    if names != sorted(reference):
        return [f"files {names} != reference {sorted(reference)}"], \
            float("nan")
    for name, ref in reference.items():
        path = outdir / name
        try:
            if path.suffix == ".csv":
                header, data = read_csv(path)
                if header != ref["header"] or data.shape[0] != ref["rows"]:
                    problems.append(f"{name}: shape {header} x "
                                    f"{data.shape[0]} differs from the "
                                    "reference")
                finite_cols = [c for c, h in enumerate(header)
                               if not (name == "omega.csv" and h == "omega")]
                if not np.all(np.isfinite(data[:, finite_cols])):
                    problems.append(f"{name}: non-finite values")
            elif path.suffix == ".pgm":
                header, _ = read_pgm(path)
                if header != ref["header"]:
                    problems.append(f"{name}: header {header!r}")
        except ValueError as exc:
            problems.append(f"{name}: {exc}")
    if problems:
        return problems, float("nan")
    err = if_error_hz(outdir, inputs.ifs, inputs.n, inputs.fs)
    if not err <= if_err_limit:
        problems.append(f"tf.csv: IF error {err:.4g} Hz exceeds "
                        f"{if_err_limit} Hz")
    if "report.csv" in reference and not within_bound(outdir)[2]:
        problems.append("report.csv: an interior row exceeds its bound")
    return problems, err
