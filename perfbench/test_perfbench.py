"""Tests of the benchmark itself (not collected by the package's suite).

    python3 -m pytest perfbench
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import check  # noqa: E402
import run  # noqa: E402
from adassq import cli  # noqa: E402
from spans import LAYER_METRICS, Tracer, traced  # noqa: E402
from workloads import REFERENCE_SEED, WORKLOADS, Inputs, Workload  # noqa: E402


def _tiny(seed: int, workdir: Path) -> Inputs:
    amp = 1.0 + 0.1 * (seed % 5)
    return Inputs(args=("analyze", "--n", "128", "--components",
                        f"chirp:20:4:{amp!r}; chirp:60:-4:1"),
                  n=128, fs=256.0, ifs=((20.0, 4.0), (60.0, -4.0)))


TINY = Workload("tiny", "small two-chirp analyze", if_err_limit=1.0,
                make=_tiny)


@pytest.fixture
def pinned(tmp_path, monkeypatch):
    """Outputs of TINY on the reference seed, pinned under tmp_path."""
    out = tmp_path / "out"
    assert cli.main(_tiny(REFERENCE_SEED, tmp_path).argv(out)) == 0
    monkeypatch.setattr(check, "REFERENCE_DIR", tmp_path / "reference")
    check.REFERENCE_DIR.mkdir()
    (check.REFERENCE_DIR / "tiny.json").write_text(
        json.dumps(check.fingerprint(out)))
    return out


def _corrupt(path: Path, row: int, col: int, factor: float) -> None:
    lines = path.read_text().splitlines()
    cells = lines[row].split(",")
    cells[col] = repr(float(cells[col]) * factor)
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def test_pinned_check_accepts_its_own_output(pinned):
    problems, changed = check.compare_pinned(check.load_reference("tiny"),
                                             pinned)
    assert problems == [] and changed == 0


def test_pinned_check_counts_but_accepts_last_digit_changes(pinned):
    tf = pinned / "tf.csv"
    header, data = check.read_csv(tf)
    row = int(data[:, 4].argmax()) + 1
    _corrupt(tf, row, 4, 1.0 + 1e-13)
    problems, changed = check.compare_pinned(check.load_reference("tiny"),
                                             pinned)
    assert problems == [] and changed == 1


@pytest.mark.parametrize("factor", [1.0 + 1e-6, 2.0])
def test_pinned_check_fails_on_a_corrupted_value(pinned, factor):
    tf = pinned / "tf.csv"
    _, data = check.read_csv(tf)
    _corrupt(tf, int(data[:, 4].argmax()) + 1, 4, factor)
    problems, _ = check.compare_pinned(check.load_reference("tiny"), pinned)
    assert any("tf.csv" in p for p in problems)


def test_pinned_check_fails_on_a_value_outside_the_sampled_rows(pinned):
    omega = pinned / "omega.csv"
    _, data = check.read_csv(omega)
    sampled = set(check.load_reference("tiny")["omega.csv"]["sample_index"])
    row = next(i for i in range(len(data))
               if i not in sampled and data[i, 2] > 1.0)
    _corrupt(omega, row + 1, 2, 1.01)
    problems, _ = check.compare_pinned(check.load_reference("tiny"), pinned)
    assert any("omega.csv: column omega" in p for p in problems)


def test_pinned_check_fails_on_a_missing_file(pinned):
    (pinned / "omega.csv").unlink()
    problems, _ = check.compare_pinned(check.load_reference("tiny"), pinned)
    assert problems and "omega.csv" in problems[0]


def test_pinned_check_fails_on_a_changed_pixel(pinned):
    pgm = pinned / "tf.pgm"
    raw = bytearray(pgm.read_bytes())
    raw[-1] = (raw[-1] + 128) % 256
    pgm.write_bytes(bytes(raw))
    problems, _ = check.compare_pinned(check.load_reference("tiny"), pinned)
    assert any("tf.pgm" in p for p in problems)


def test_truth_check_fails_on_a_wrong_frequency(pinned):
    ref = check.load_reference("tiny")
    inputs = _tiny(REFERENCE_SEED, pinned)
    assert check.check_truth(ref, pinned, inputs, 1.0)[0] == []
    shifted = Inputs(args=inputs.args, n=inputs.n, fs=inputs.fs,
                     ifs=((22.0, 4.0), (62.0, -4.0)))
    problems, err = check.check_truth(ref, pinned, shifted, 1.0)
    assert err > 1.0 and any("IF error" in p for p in problems)


@pytest.fixture
def bench(pinned, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path / "work")
    launcher = run.Launcher()
    yield run.Run(launcher, TINY, seed=3, seconds=0.0, trace=False)
    launcher.close()


def test_run_counts_a_nonzero_exit_as_failed(bench):
    bad = Inputs(args=(*bench.inputs.args, "--variant", "T9"),
                 n=128, fs=256.0, ifs=bench.inputs.ifs)
    bench.warm(cli, bad, "bad")
    assert bench.failed == 1 and bench.attempted == 1
    assert "exit code 2" in bench.problems[0]


def test_run_measures_checks_and_passes(bench):
    metrics = bench.measure()
    assert bench.problems == [] and bench.failed == 0
    assert bench.attempted == 2 + run.MIN_COLD     # warm-up, cold, warm
    assert set(metrics) == set(run.END_TO_END)
    assert all(v > 0 for v in metrics.values())
    assert bench.sizes["n"] == 128 and bench.sizes["N"] == 65


def test_run_fails_when_a_rerun_differs(bench):
    from adassq import sst
    original = sst.tf_to_csv

    def noisy(tf, path):
        original(tf, path)
        _corrupt(Path(path), 1, 0, 2.0)
    bench.warm(cli, bench.inputs, "first")
    cli.tf_to_csv = noisy
    try:
        bench.warm(cli, bench.inputs, "second")
    finally:
        cli.tf_to_csv = original
    assert bench.failed == 1
    assert "byte-identical" in bench.problems[0]


def test_tracer_leaves_every_output_byte_identical(tmp_path):
    inputs = WORKLOADS["demo-ex2"].make(REFERENCE_SEED, tmp_path)
    assert cli.main(inputs.argv(tmp_path / "plain")) == 0
    tracer = Tracer()
    with traced(tracer):
        assert cli.main(inputs.argv(tmp_path / "traced")) == 0
    assert check.digests(tmp_path / "plain") == \
        check.digests(tmp_path / "traced")
    assert cli.compute_stack.__module__ == "adassq.cwt"   # unwrapped again
    names = {s.name for s in tracer.spans}
    assert {"cli.main", "cwt.stack", "bounds.quad", "bounds.write"} <= names
    assert tracer.quad_evals > 0


def test_span_self_times_account_for_the_call(tmp_path):
    inputs = _tiny(REFERENCE_SEED, tmp_path)
    tracer = Tracer()
    with traced(tracer):
        cli.main(inputs.argv(tmp_path / "out"))
    root = tracer.spans[0]
    assert root.name == "cli.main" and root.parent is None
    assert sum(tracer.self_times()) == pytest.approx(root.end - root.start)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_sizes_do_not_depend_on_the_seed(name, tmp_path):
    made = [WORKLOADS[name].make(seed, tmp_path / str(seed))
            for seed in (0, 1, 7)]
    assert len({(i.n, i.fs, i.ifs, i.bins) for i in made}) == 1
    # only the numbers the seed sets may differ between command lines
    shapes = {tuple(a if not a.startswith(("poly:", str(tmp_path)))
                    else a.count(":") for a in i.args) for i in made}
    assert len(shapes) == 1
    for i in made:
        if "--components" in i.args:
            comps = i.args[i.args.index("--components") + 1].split(";")
            rates = [c.split(":")[1].split(",")[1:] for c in comps]
            assert rates == [["12.0", "0.25"], ["26.0", "-0.25"]]
        if "--signal-file" in i.args:
            path = Path(i.args[i.args.index("--signal-file") + 1])
            t = [line.split(",")[0] for line in
                 path.read_text().splitlines()]
            assert len(t) == i.n + 1 and t[1:3] == ["0", "0.00390625"]


def test_generated_file_gives_the_same_lattice_for_two_seeds(tmp_path):
    sizes = []
    for seed in (0, 5):
        inputs = WORKLOADS["analyze-file-t2"].make(seed, tmp_path)
        out = tmp_path / f"out{seed}"
        assert cli.main(inputs.argv(out)) == 0
        sizes.append(run.lattice_sizes(out, inputs))
    assert sizes[0] == sizes[1] == {"n": 256, "J": 246, "N": 129, "L": 798}


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == \
        {w.name: w.why for w in WORKLOADS.values()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"])
            for m in spec["per_layer"]} == \
        {k: v[:2] for k, v in LAYER_METRICS.items()}
    assert spec["paths"] == [HERE.name]


def test_every_reference_is_pinned():
    for name in WORKLOADS:
        ref = check.load_reference(name)
        assert {"tf.csv", "tf.pgm", "omega.csv", "sigma.csv",
                "zones.csv"} <= set(ref)
