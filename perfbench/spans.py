"""Span recorder for the traced run, attached from outside the package.

``traced(tracer)`` replaces, for the duration of a ``with`` block, the
names ``adassq.cli`` imported from the other modules (plus
``cli.run_analysis``, ``cli.load_config``, the omega writer
``cli._omega_to_csv`` and ``adassq.bounds.quad``) with wrappers that
record a span per call: name, start, end and parent id.  Spans stay in
memory; ``Tracer.write`` saves them as JSON lines.  Nothing under ``src/``
is edited, and the wrappers pass arguments and results through untouched,
so a traced call writes the same bytes as an untraced one.
"""
from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

# span name -> (module attribute in adassq.cli that is wrapped)
CLI_SPANS = {
    "cli.main": "main",
    "cli.config": "load_config",
    "cli.run_analysis": "run_analysis",
    "cli.write_omega": "_omega_to_csv",
    "signals.synth": "synthesize",
    "signals.read": "signal_from_csv",
    "signals.write": "signal_to_csv",
    "separation.profile": ("constant_profile", "sigma1", "sigma2"),
    "separation.zones": "zones",
    "separation.write": ("profile_to_csv", "zones_to_csv"),
    "cwt.stack": "compute_stack",
    "sst.gamma2": "default_gamma2",
    "sst.phase": ("phase_first", "phase_second"),
    "sst.squeeze": "squeeze",
    "sst.write_tf": "tf_to_csv",
    "sst.write_pgm": "tf_to_pgm",
    "bounds.normalizers": "normalizers",
    "bounds.bounds": ("bounds_first", "bounds_second"),
    "bounds.recover": "recover",
    "bounds.write": "report_to_csv",
}


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)


class Tracer:
    """In-memory span list with a stack of open spans."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.quad_evals = 0

    def begin(self, name: str) -> Span:
        span = Span(len(self.spans), self._open[-1] if self._open else None,
                    name, time.perf_counter())
        self.spans.append(span)
        self._open.append(span.id)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._open.pop()

    def wrap(self, name: str, fn, attrs=None):
        def wrapper(*args, **kwargs):
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            if attrs is not None:
                span.attrs.update(attrs(args, result))
            return result
        return wrapper

    def wrap_quad(self, quad):
        def counted_quad(func, *args, **kwargs):
            def integrand(*a):
                self.quad_evals += 1
                return func(*a)
            span = self.begin("bounds.quad")
            try:
                return quad(integrand, *args, **kwargs)
            finally:
                self.end(span)
        return counted_quad

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s.id, "parent": s.parent,
                                     "name": s.name, "start": s.start,
                                     "end": s.end, **s.attrs}) + "\n")


def _stack_attrs(args, stack):
    from adassq.cwt import spectral_coefficients
    J, n = stack.w.shape
    return {"J": J, "n": n, "N": len(spectral_coefficients(stack.sig)[0])}


def _plane_attrs(args, plane):
    return {"valid": int(plane.valid.sum()), "cells": int(plane.valid.size)}


def _tf_file_attrs(args, result):
    return {"rows": int(args[0].values.size),
            "bytes": Path(args[1]).stat().st_size}


def _recover_attrs(args, result):
    return {"empty_windows": int((result.bins_used == 0).sum())}


_ATTRS = {"cwt.stack": _stack_attrs, "sst.phase": _plane_attrs,
          "sst.write_tf": _tf_file_attrs, "bounds.recover": _recover_attrs}


@contextmanager
def traced(tracer: Tracer):
    """Install the span wrappers on adassq.cli and adassq.bounds."""
    from adassq import bounds, cli
    saved = [(bounds, "quad", bounds.quad)]
    bounds.quad = tracer.wrap_quad(bounds.quad)
    for span_name, attrs in CLI_SPANS.items():
        for attr in (attrs,) if isinstance(attrs, str) else attrs:
            saved.append((cli, attr, getattr(cli, attr)))
            setattr(cli, attr, tracer.wrap(span_name, getattr(cli, attr),
                                           _ATTRS.get(span_name)))
    try:
        yield tracer
    finally:
        for module, attr, original in saved:
            setattr(module, attr, original)


# Per-layer metrics of a traced call: name -> (unit, better, the
# end-to-end metric and workloads it should move).  Stage times are
# inclusive span totals over all calls of the stage; a layer's self_s is
# the part of its spans no wrapped child covers.  The layer self times,
# cli.config_s, cli.write_omega_s and cli.self_s add up to the traced call
# (trace.accounted_frac).
_STACK = "run_s, wall_s: analyze-const-1024, then analyze-file-t2, demo-ex2"
_BOUNDS = "run_s on demo-ex2; zero on both analyze workloads"
_WRITERS = "run_s: analyze-file-t2, demo-ex2, analyze-const-1024"
_SMALL = "run_s; small now, shows the cost of input checks"
_IMPORT = "setup_s and wall_s on all three"
_TRACE = "none; tracing cost and coverage"
LAYER_METRICS = {
    "cli.analysis_calls": ("count", "lower", "run_s on demo-ex2 only"),
    "cli.config_s": ("s", "lower", _SMALL),
    "cli.write_omega_s": ("s", "lower", _WRITERS),
    "cli.self_s": ("s", "lower", "run_s on all three"),
    "signals.synth_s": ("s", "lower", _SMALL),
    "signals.read_s": ("s", "lower", "run_s on analyze-file-t2 only"),
    "signals.write_s": ("s", "lower", _SMALL),
    "signals.self_s": ("s", "lower", _SMALL),
    "separation.profile_s": ("s", "lower", _SMALL),
    "separation.zones_s": ("s", "lower", _SMALL),
    "separation.write_s": ("s", "lower", _SMALL),
    "separation.self_s": ("s", "lower", _SMALL),
    "cwt.stack_s": ("s", "lower", _STACK),
    "cwt.stack_calls": ("count", "lower", "run_s on demo-ex2"),
    "cwt.cells": ("count", "lower", _STACK),
    "cwt.bins": ("count", "lower", _STACK),
    "cwt.cells_per_s": ("cells/s", "higher", _STACK),
    "cwt.stack_mb": ("MB", "lower", "peak_rss_mb on analyze-const-1024"),
    "cwt.self_s": ("s", "lower", _STACK),
    "sst.gamma2_s": ("s", "lower", "run_s on all three"),
    "sst.phase_s": ("s", "lower", "run_s on all three"),
    "sst.squeeze_s": ("s", "lower", "run_s on all three"),
    "sst.write_tf_s": ("s", "lower", _WRITERS),
    "sst.write_pgm_s": ("s", "lower", _WRITERS),
    "sst.tf_rows": ("count", "lower", _WRITERS),
    "sst.tf_mb": ("MB", "lower", _WRITERS),
    "sst.valid_frac": ("ratio", "higher", "if_err_hz on all three"),
    "sst.self_s": ("s", "lower", "run_s on all three"),
    "bounds.normalizers_s": ("s", "lower", _BOUNDS),
    "bounds.bounds_s": ("s", "lower", _BOUNDS),
    "bounds.recover_s": ("s", "lower", _BOUNDS),
    "bounds.write_s": ("s", "lower", _BOUNDS),
    "bounds.quad_s": ("s", "lower", _BOUNDS),
    "bounds.quad_calls": ("count", "lower", _BOUNDS),
    "bounds.quad_evals": ("count", "lower", _BOUNDS),
    "bounds.empty_windows": ("count", "lower",
                             "within_bound_frac on demo-ex2"),
    "bounds.within_bound_rows": ("count", "higher",
                                 "within_bound_frac on demo-ex2"),
    "bounds.report_rows": ("count", "lower", "within_bound_frac on demo-ex2"),
    "bounds.self_s": ("s", "lower", _BOUNDS),
    "bounds.import_s": ("s", "lower", _IMPORT),
    "windows.import_s": ("s", "lower", _IMPORT),
    "import.scipy_integrate_s": ("s", "lower", _IMPORT),
    "trace.run_s": ("s", "lower", _TRACE),
    "trace.untraced_run_s": ("s", "lower", _TRACE),
    "trace.overhead_s": ("s", "lower", _TRACE),
    "trace.accounted_frac": ("ratio", "higher", _TRACE),
    "trace.spans": ("count", "lower", _TRACE),
    "check.files_changed": ("count", "lower",
                            "none; output bytes changed against the pins"),
}

_LAYERS = ("signals", "separation", "cwt", "sst", "bounds")
_STAGES = (*(name for name in CLI_SPANS
             if name not in ("cli.main", "cli.run_analysis")), "bounds.quad")


def span_metrics(tracer: Tracer, run_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced call that took run_s seconds."""
    total, calls, attrs = defaultdict(float), Counter(), defaultdict(list)
    for s in tracer.spans:
        total[s.name] += s.end - s.start
        calls[s.name] += 1
        attrs[s.name].append(s.attrs)
    own = defaultdict(float)
    for s, t in zip(tracer.spans, tracer.self_times()):
        own["cli" if s.name in ("cli.main", "cli.run_analysis")
            else s.name.split(".")[0] if s.name.startswith(_LAYERS)
            else s.name] += t
    m = {f"{name}_s": total[name] for name in _STAGES}
    m.update({f"{layer}.self_s": own[layer] for layer in (*_LAYERS, "cli")})
    stacks = attrs["cwt.stack"]
    cells = sum(a["J"] * a["n"] for a in stacks)
    planes = attrs["sst.phase"]
    m.update({
        "cli.analysis_calls": calls["cli.run_analysis"],
        "cwt.stack_calls": calls["cwt.stack"],
        "cwt.cells": cells,
        "cwt.bins": max((a["N"] for a in stacks), default=0),
        "cwt.cells_per_s": cells / total["cwt.stack"] if cells else 0.0,
        # ten complex128 lattices of J x n
        "cwt.stack_mb": max((10 * a["J"] * a["n"] * 16 / 1e6
                             for a in stacks), default=0.0),
        "sst.tf_rows": sum(a["rows"] for a in attrs["sst.write_tf"]),
        "sst.tf_mb": sum(a["bytes"] for a in attrs["sst.write_tf"]) / 1e6,
        "sst.valid_frac": (sum(a["valid"] for a in planes)
                           / max(1, sum(a["cells"] for a in planes))),
        "bounds.quad_calls": calls["bounds.quad"],
        "bounds.quad_evals": tracer.quad_evals,
        "bounds.empty_windows": sum(a["empty_windows"]
                                    for a in attrs["bounds.recover"]),
        "trace.run_s": run_s,
        "trace.spans": len(tracer.spans),
        "trace.accounted_frac": sum(own.values()) / run_s,
    })
    return m
