"""In-memory span tracing around the public functions of ``goca``.

A traced run replaces each function in ``TARGETS`` with a wrapper at the
module attribute its callers look up at call time, records one span per
call (name, start, end, parent, run id and a few attributes taken from
the arguments or the result), and puts every original back when the run
ends.  Nothing under ``src/`` is edited.

A target name that no longer exists raises ``TracerError`` before the
run starts: a renamed function must fail the traced run, not report a
layer that did no work.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from goca.ssl_engine import MODES


class TracerError(RuntimeError):
    """A wrap target is missing, so the traced run cannot be trusted."""


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _solve_attrs(args, kwargs, result):
    return {"iterations": int(result.iterations), "converged": bool(result.converged)}


def _step_attrs(args, kwargs, result):
    return {"converged": result.solver_converged}


def _proto_attrs(args, kwargs, result):
    # the arguments fully determine the result, so equal reprs mean the
    # call recomputed prototypes an earlier call already produced
    return {"input": repr((args, sorted(kwargs.items())))}


def _train_attrs(args, kwargs, result):
    return {"mode": result.mode}


# (module, attribute, layer name, attribute hook).  Each entry is a binding
# that some caller resolves at call time; the same function bound in two
# modules is two entries with one layer name.
TARGETS = (
    ("goca.ot_core", "sinkhorn", "ot_core.sinkhorn", _solve_attrs),
    ("goca.ssl_engine", "sinkhorn", "ot_core.sinkhorn", _solve_attrs),
    ("goca.guided_ot", "sinkhorn", "ot_core.sinkhorn", _solve_attrs),
    ("goca.guided_ot", "guided_sinkhorn", "guided_ot.guided_sinkhorn", _solve_attrs),
    ("goca.ssl_engine", "cross_guided_assign", "guided_ot.cross_guided_assign", None),
    ("goca.ssl_engine", "goca_step", "ssl_engine.step", _step_attrs),
    ("goca.ssl_engine", "baseline_step", "ssl_engine.step", _step_attrs),
    ("goca.ssl_engine", "optimize_prototypes", "prototypes.optimize_prototypes", _proto_attrs),
    ("goca.prototypes", "optimize_prototypes", "prototypes.optimize_prototypes", _proto_attrs),
    ("goca.cli", "main", "cli.main", None),
    ("goca.cli", "train", "ssl_engine.train", _train_attrs),
    ("goca.cli", "generate", "synth_data.generate", None),
    ("goca.cli", "run_ablation", "cli.run_ablation", None),
    ("goca.eval", "kmeans", "eval.kmeans", None),
    ("goca.eval", "repeated_cluster_metrics", "eval.repeated_cluster_metrics", None),
)


class Tracer:
    """Collects spans of one run; nesting follows the call stack."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        """Record one span; yields its attribute dict for the caller to fill."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter(), float("nan"), parent, self.run_id)
        self.spans.append(span)
        self._stack.append(index)
        try:
            yield span.attrs
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name: str, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as attrs:
                result = fn(*args, **kwargs)
                if hook is not None:
                    attrs.update(hook(args, kwargs, result))
                return result

        return wrapper

    @contextmanager
    def installed(self, targets=TARGETS):
        """Wrap every target for the duration of the block, then restore."""
        resolved = []
        for module_name, attr, layer, hook in targets:
            module = importlib.import_module(module_name)
            if not hasattr(module, attr):
                raise TracerError(
                    f"{module_name}.{attr} no longer exists; layer {layer!r} "
                    "cannot be traced (update perfbench/tracer.py TARGETS)"
                )
            resolved.append((module, attr, layer, hook))
        originals = []
        try:
            for module, attr, layer, hook in resolved:
                original = getattr(module, attr)
                originals.append((module, attr, original))
                setattr(module, attr, self._wrap(original, layer, hook))
            yield self
        finally:
            for module, attr, original in reversed(originals):
                setattr(module, attr, original)


def wrapper_cost_s(calls: int = 10_000, repeats: int = 5) -> float:
    """Seconds one traced call spends in its wrapper rather than its function.

    Median over ``repeats`` of the time difference between ``calls``
    wrapped and bare calls of a no-op, per call.  Hook work on real
    arguments is not included.
    """

    def noop():
        return None

    samples = []
    for _ in range(repeats):
        wrapped = Tracer("calibration")._wrap(noop, "noop", lambda args, kwargs, result: {})
        start = time.perf_counter()
        for _ in range(calls):
            noop()
        bare = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(calls):
            wrapped()
        samples.append((time.perf_counter() - start - bare) / calls)
    return statistics.median(samples)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(index, []), key=lambda s: s.start):
            lo = max(child.start, cursor)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(span.duration - covered)
    return out


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer counts and times from one traced run.

    Layers the workload never calls report zero calls and zero time.
    """
    selfs = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for index, span in enumerate(spans):
        by_name.setdefault(span.name, []).append(index)

    def picked(name):
        return [spans[i] for i in by_name.get(name, [])]

    def busy(name):
        return sum(s.duration for s in picked(name))

    def self_sum(name):
        return sum(selfs[i] for i in by_name.get(name, []))

    def p50_ms(values):
        return 1e3 * statistics.median(values) if values else 0.0

    m: dict[str, float] = {}
    for layer in ("ot_core.sinkhorn", "guided_ot.guided_sinkhorn"):
        solves = picked(layer)
        m[f"{layer}.calls"] = len(solves)
        m[f"{layer}.busy_s"] = busy(layer)
        m[f"{layer}.p50_ms"] = p50_ms([s.duration for s in solves])
        m[f"{layer}.iterations_reported"] = sum(s.attrs["iterations"] for s in solves)
        m[f"{layer}.nonconverged"] = sum(not s.attrs["converged"] for s in solves)

    layer = "guided_ot.cross_guided_assign"
    m[f"{layer}.calls"] = len(picked(layer))
    m[f"{layer}.busy_s"] = busy(layer)
    m[f"{layer}.self_s"] = self_sum(layer)

    layer = "prototypes.optimize_prototypes"
    protos = picked(layer)
    distinct = len({s.attrs["input"] for s in protos})
    m[f"{layer}.calls"] = len(protos)
    m[f"{layer}.distinct_inputs"] = distinct
    m[f"{layer}.useful_ratio"] = distinct / len(protos) if protos else 0.0
    m[f"{layer}.busy_s"] = busy(layer)

    for mode in MODES:
        m[f"ssl_engine.train.busy_s.{mode}"] = sum(
            s.duration for s in picked("ssl_engine.train") if s.attrs["mode"] == mode
        )
    step_idx = by_name.get("ssl_engine.step", [])
    m["ssl_engine.step.calls"] = len(step_idx)
    m["ssl_engine.step.self_s"] = self_sum("ssl_engine.step")
    m["ssl_engine.step.self_ms_p50"] = p50_ms([selfs[i] for i in step_idx])
    m["ssl_engine.nonconverged_steps"] = sum(
        spans[i].attrs["converged"] is False for i in step_idx
    )

    layer = "eval.repeated_cluster_metrics"
    m[f"{layer}.calls"] = len(picked(layer))
    m[f"{layer}.busy_s"] = busy(layer)
    m["eval.kmeans.calls"] = len(picked("eval.kmeans"))
    layer = "synth_data.generate"
    m[f"{layer}.calls"] = len(picked(layer))
    m[f"{layer}.busy_s"] = busy(layer)
    m["cli.self_s"] = self_sum("cli.main")
    return m
