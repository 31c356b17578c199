"""Spans around tailspec's public functions, recorded from the benchmark side.

Each wrapper replaces a function at the module attribute its callers look
up (``tailspec.grouping.summarize_groups``, ``tailspec.cli.read_csv``, ...),
records a span (name, start, end, parent span, op) in memory, and restores
the original on exit. Self time is a span's duration minus its children's.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager


def _file_bytes(a):
    return {"bytes": os.path.getsize(a["path"])}


def _group_work(a):
    s, d = a["scheme"], a["data"].dim
    return {"groups": s.n, "bytes_in": s.n * s.m * d * 8}


def _atoms_scanned(a):
    return {"atoms": a["est"].n}


def _uniforms(a):
    return {"uniforms": 2 * len(list(a["atoms"])) * a["N"]}


# (layer metric name, module whose attribute callers look up, attribute, counter)
# numerics functions are imported by name into their callers, so they are
# wrapped at those import sites.
WRAPS = [
    ("cli.main", "tailspec.cli", "main", None),
    ("cli.read_csv", "tailspec.cli", "read_csv", _file_bytes),
    ("cli.write_csv", "tailspec.cli", "write_csv", _file_bytes),
    ("cli.parse_model", "tailspec.cli", "parse_model", None),
    ("cli.parse_region", "tailspec.cli", "parse_region", None),
    ("types.validate_data", "tailspec.cli", "validate_data", None),
    ("grouping.plan_grouping", "tailspec.grouping", "plan_grouping", None),
    ("grouping.summarize_groups", "tailspec.grouping", "summarize_groups", _group_work),
    ("estimators.estimate_alpha", "tailspec.estimators", "estimate_alpha", None),
    ("estimators.alpha_ci", "tailspec.estimators", "alpha_ci", None),
    ("estimators.estimate_spectral", "tailspec.estimators", "estimate_spectral", None),
    ("estimators.spectral_mass", "tailspec.estimators", "spectral_mass", _atoms_scanned),
    ("estimators.spectral_ci", "tailspec.estimators", "spectral_ci", None),
    ("estimators.spectral_cdf_2d", "tailspec.estimators", "spectral_cdf_2d", None),
    ("estimators.rho_1d", "tailspec.estimators", "rho_1d", None),
    ("estimators.estimate_total_mass", "tailspec.estimators", "estimate_total_mass", None),
    ("estimators.total_mass_ci", "tailspec.estimators", "total_mass_ci", None),
    ("numerics.gamma_fn", "tailspec.estimators", "gamma_fn", None),
    ("numerics.gamma_fn", "tailspec.simulation", "gamma_fn", None),
    ("numerics.normal_quantile", "tailspec.estimators", "normal_quantile", None),
    ("tuning.default_t", "tailspec.tuning", "default_t", None),
    ("simulation.sample_stable_1d", "tailspec.experiments", "sample_stable_1d", None),
    ("simulation.sample_stable_vector", "tailspec.experiments", "sample_stable_vector",
     _uniforms),
    ("simulation.discretize_angular_density", "tailspec.experiments",
     "discretize_angular_density", None),
    ("experiments.run_r_sweep", "tailspec.experiments", "run_r_sweep", None),
    ("experiments.draw_sample", "tailspec.experiments", "draw_sample", None),
]

# work counts reported per op, as "<function>.<count>"
COUNTS = {
    "cli.read_csv": ("bytes",),
    "cli.write_csv": ("bytes",),
    "grouping.summarize_groups": ("groups", "bytes_in"),
    "estimators.spectral_mass": ("atoms",),
    "simulation.sample_stable_vector": ("uniforms",),
}


def layer_metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in a fixed order."""
    out = []
    for fn in dict.fromkeys(name for name, *_ in WRAPS):
        out += [(f"{fn}.self_s", "s"), (f"{fn}.calls", "count")]
        out += [(f"{fn}.{c}", "B" if "bytes" in c else "count")
                for c in COUNTS.get(fn, ())]
    out += [("traced_op_s.p50", "s"), ("self_sum_s.p50", "s"),
            ("trace_overhead_frac", "1")]
    return out


class Tracer:
    """Records spans while installed; ``op`` tags the spans of one op."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op, counts]
        self._stack: list[int] = []
        self.op = -1

    def _wrap(self, name, fn, counter):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = [name, 0.0, 0.0, parent, self.op, None]
            self.spans.append(span)
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[1], span[2] = start, time.perf_counter()
                self._stack.pop()
            if counter is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span[5] = counter(bound.arguments)
            return result

        return wrapper

    @contextmanager
    def installed(self, op: int):
        """Wrap every function in WRAPS for one op; a missing site is an
        error, so a renamed or inlined function never reads as zero time."""
        self.op = op
        saved = []
        for name, module, attr, counter in WRAPS:
            mod = importlib.import_module(module)
            if not hasattr(mod, attr):
                raise AttributeError(f"{name}: {module} has no attribute {attr!r}")
            saved.append((mod, attr, getattr(mod, attr)))
        for (mod, attr, fn), (name, _, _, counter) in zip(saved, WRAPS):
            setattr(mod, attr, self._wrap(name, fn, counter))
        try:
            yield
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op, counts in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [s[2] - s[1] - c for s, c in zip(self.spans, child)]

    def layer_metrics(self, traced_walls: list[float],
                      plain_walls: list[float]) -> dict[str, float]:
        """Every per-layer metric: per-op medians of self time, calls and
        work counts per function, and the traced vs untraced op times."""
        per_op = [defaultdict(float) for _ in traced_walls]
        for span, self_s in zip(self.spans, self.self_times()):
            name, acc = span[0], per_op[span[4]]
            acc[f"{name}.self_s"] += self_s
            acc[f"{name}.calls"] += 1
            for key, value in (span[5] or {}).items():
                acc[f"{name}.{key}"] += value
            acc["self_sum_s.p50"] += self_s
        traced_p50 = statistics.median(traced_walls)
        out = {name: statistics.median(acc[name] for acc in per_op)
               for name, _ in layer_metric_names()}
        out["traced_op_s.p50"] = traced_p50
        out["trace_overhead_frac"] = traced_p50 / statistics.median(plain_walls) - 1.0
        return out

    def dump(self, path: str) -> None:
        """Write the recorded spans as JSON lines."""
        keys = ("name", "start", "end", "parent", "op", "counts")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
