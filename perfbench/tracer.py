"""Spans and counts around qconcepts functions, installed from outside the package.

``Tracer.installed()`` replaces each target function with a timing wrapper
(every module attribute bound to it, plus ``PhasePolynomial.evaluate`` on
its class) and puts every original back when the block ends. A span's self
time is its duration minus the time of the wrapped calls nested inside it,
so the self times of one call sum to its ``cli.main`` span.

Per-row helpers (``classicality.diagnose``, ``phase_magnitude``) are not
wrapped: their batch callers are, and a wrapper per row would cost more
than the row.
"""
from __future__ import annotations

import os
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np


def _rows(tracer, args, kwargs, result):
    rows = result.rows if hasattr(result, "rows") else result
    tracer.count("datasets.rows", len(rows))


def _exit_code(tracer, args, kwargs, result):
    if result != 0:
        tracer.count("cli.errors")


def _phase_points(tracer, args, kwargs, result):
    poly, x, y = args[:3]
    points = np.broadcast(np.asarray(x), np.asarray(y)).size
    tracer.count("wavefield.phase_eval.points", points)
    tracer.count("wavefield.phase_eval.term_evals", points * len(poly.terms))


def _bytes_written(tracer, args, kwargs, result):
    tracer.count("wavefield.export_grid.bytes", sum(os.path.getsize(p) for p in result))


# (module, attribute, span, counter run after the span closes)
TARGETS = (
    ("cli", "main", "cli.main", _exit_code),
    ("datasets", "load_dataset", "datasets.load", _rows),
    ("datasets", "load_membership_csv", "datasets.load", _rows),
    ("datasets", "load_exemplar_csv", "datasets.load", _rows),
    ("classicality", "batch_diagnose", "classicality.batch_diagnose", None),
    ("disjunction_model", "build_model", "disjunction_model.build_model", None),
    ("disjunction_model", "assign_phase_signs", "disjunction_model.assign_phase_signs", None),
    ("disjunction_model", "predict_disjunction", "disjunction_model.predict_disjunction", None),
    ("hilbert", "born_probability", "hilbert.born_probability", None),
    ("wavefield", "default_config", "wavefield.default_config", None),
    ("wavefield", "place_exemplars", "wavefield.place_exemplars", None),
    ("wavefield", "fit_phase_field", "wavefield.fit_phase_field", None),
    ("wavefield", "evaluate_patterns", "wavefield.evaluate_patterns", None),
    ("wavefield", "PhasePolynomial.evaluate", "wavefield.phase_eval", _phase_points),
    ("wavefield", "export_grid", "wavefield.export_grid", _bytes_written),
)

LAYERS = ("cli", "datasets", "classicality", "disjunction_model", "hilbert", "wavefield")

# per-layer metric -> (unit, span or counter, statistic); values are per verb call
METRICS = {
    "cli.main.self_s": ("s", "cli.main", "self"),
    "cli.stdout_bytes": ("bytes", "cli.stdout_bytes", "count"),
    "datasets.load_s": ("s", "datasets.load", "total"),
    "datasets.rows": ("count", "datasets.rows", "count"),
    "classicality.batch_diagnose.s": ("s", "classicality.batch_diagnose", "total"),
    "disjunction_model.build_model.self_s": ("s", "disjunction_model.build_model", "self"),
    "disjunction_model.assign_phase_signs.s":
        ("s", "disjunction_model.assign_phase_signs", "total"),
    "disjunction_model.predict_disjunction.s":
        ("s", "disjunction_model.predict_disjunction", "total"),
    "disjunction_model.predict_disjunction.calls":
        ("count", "disjunction_model.predict_disjunction", "calls"),
    "hilbert.born_probability.s": ("s", "hilbert.born_probability", "total"),
    "hilbert.born_probability.calls": ("count", "hilbert.born_probability", "calls"),
    "wavefield.default_config.self_s": ("s", "wavefield.default_config", "self"),
    "wavefield.place_exemplars.s": ("s", "wavefield.place_exemplars", "total"),
    "wavefield.fit_phase_field.s": ("s", "wavefield.fit_phase_field", "total"),
    "wavefield.phase_eval.s": ("s", "wavefield.phase_eval", "total"),
    "wavefield.phase_eval.points": ("count", "wavefield.phase_eval.points", "count"),
    "wavefield.phase_eval.term_evals": ("count", "wavefield.phase_eval.term_evals", "count"),
    "wavefield.evaluate_patterns.self_s": ("s", "wavefield.evaluate_patterns", "self"),
    "wavefield.export_grid.s": ("s", "wavefield.export_grid", "total"),
    "wavefield.export_grid.bytes": ("bytes", "wavefield.export_grid.bytes", "count"),
    **{f"{layer}.errors": ("count", f"{layer}.errors", "count") for layer in LAYERS},
}


class Tracer:
    """Accumulates span times and counts over the traced calls of one run."""

    def __init__(self):
        self.spans = defaultdict(lambda: {"total": 0.0, "self": 0.0, "calls": 0})
        self.counts = Counter()
        self._stack = []            # [start, time of nested wrapped calls]
        self._last_error = None

    def count(self, name: str, n: int = 1):
        self.counts[name] += n

    def _wrap(self, fn, span, after, model_error):
        tracer = self

        def wrapper(*args, **kwargs):
            frame = [time.perf_counter(), 0.0]
            tracer._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            except model_error as exc:
                # count an error once, in the innermost layer it leaves
                if exc is not tracer._last_error:
                    tracer._last_error = exc
                    tracer.count(span.split(".")[0] + ".errors")
                raise
            finally:
                elapsed = time.perf_counter() - frame[0]
                tracer._stack.pop()
                stat = tracer.spans[span]
                stat["total"] += elapsed
                stat["self"] += elapsed - frame[1]
                stat["calls"] += 1
                if tracer._stack:
                    tracer._stack[-1][1] += elapsed
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore it."""
        package = sys.modules["qconcepts"]
        model_error = sys.modules["qconcepts.errors"].ModelError
        modules = [m for name, m in list(sys.modules.items())
                   if name == "qconcepts" or name.startswith("qconcepts.")]
        patches = []                # (owner, attribute, original)
        try:
            for module_name, attr, span, after in TARGETS:
                owner = getattr(package, module_name)
                if "." in attr:
                    cls_name, attr = attr.split(".")
                    owner = getattr(owner, cls_name)
                original = vars(owner)[attr]
                # a module function is also rebound where it was imported by name
                bound = [owner] if isinstance(owner, type) else [
                    m for m in modules if vars(m).get(attr) is original]
                wrapper = self._wrap(original, span, after, model_error)
                for target in bound:
                    setattr(target, attr, wrapper)
                    patches.append((target, attr, original))
            yield self
        finally:
            for target, attr, original in reversed(patches):
                setattr(target, attr, original)

    def self_total(self) -> float:
        """Sum of every span's self time; equals the summed cli.main spans."""
        return sum(stat["self"] for stat in self.spans.values())

    def metrics(self, calls: int) -> dict:
        """The per-layer metrics, each averaged over ``calls`` traced verb calls."""
        out = {}
        for name, (unit, key, stat) in METRICS.items():
            raw = self.counts[key] if stat == "count" else self.spans[key][stat]
            out[name] = {"value": raw / calls, "unit": unit}
        return out
