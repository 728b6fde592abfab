"""Spans around the public functions of pairlrt, recorded from outside the package.

The tracer replaces each target function with a wrapper in every pairlrt
module that holds it, so a name re-bound by ``from ... import`` is wrapped
too.  Wrappers record nothing unless the tracer is active, which keeps the
benchmark's own checks (run after the timed loop) out of the counts.

A span is (name, parent index, start, end, extra); ``extra`` carries the
iteration count of a fit or the computed flop count of a solve.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

# (module, attribute) of every wrapped function; "Class.attr" names a property
TARGETS = {
    "cli": ["main"],
    "core": ["load_edge_list", "load_comparisons", "ComparisonTable.totals"],
    "montecarlo": ["run_scenario"],
    "lrt": ["run_test", "bootstrap_distribution", "lrt_statistic"],
    "beta_model": [
        "simulate_graph", "fit_mle", "fit_restricted_specified", "fit_restricted_homogeneous",
        "expected_degrees", "log_likelihood", "fisher_info",
    ],
    "bt_model": [
        "simulate_comparisons", "bt_fit_mle", "bt_fit_restricted", "bt_expected_wins",
        "bt_log_likelihood", "bt_fisher_info", "strongly_connected",
    ],
    "fisher_approx": ["diag_approx"],
}

FITS = {
    "beta_model.fit_mle", "beta_model.fit_restricted_specified",
    "beta_model.fit_restricted_homogeneous", "bt_model.bt_fit_mle", "bt_model.bt_fit_restricted",
}

# span names whose totals feed one per-layer metric stem
GROUPS = {
    "beta_model.fit_restricted": ("beta_model.fit_restricted_specified", "beta_model.fit_restricted_homogeneous"),
}

# (metric, unit, span stem, field); every traced run reports all of them
LAYER_METRICS = [
    ("cli.self_s", "s", "cli.main", "self"),
    ("core.load_edge_list.busy_s", "s", "core.load_edge_list", "busy"),
    ("core.load_comparisons.busy_s", "s", "core.load_comparisons", "busy"),
    ("core.ComparisonTable.totals.calls", "count", "core.ComparisonTable.totals", "calls"),
    ("montecarlo.run_scenario.self_s", "s", "montecarlo.run_scenario", "self"),
    ("lrt.run_test.self_s", "s", "lrt.run_test", "self"),
    ("lrt.bootstrap_distribution.self_s", "s", "lrt.bootstrap_distribution", "self"),
    ("lrt.lrt_statistic.calls", "count", "lrt.lrt_statistic", "calls"),
    ("beta_model.simulate_graph.busy_s", "s", "beta_model.simulate_graph", "busy"),
    ("beta_model.fit_mle.busy_s", "s", "beta_model.fit_mle", "busy"),
    ("beta_model.fit_mle.self_s", "s", "beta_model.fit_mle", "self"),
    ("beta_model.fit_mle.iterations", "count", "beta_model.fit_mle", "extra"),
    ("beta_model.fit_restricted.busy_s", "s", "beta_model.fit_restricted", "busy"),
    ("beta_model.fit_restricted.self_s", "s", "beta_model.fit_restricted", "self"),
    ("beta_model.fit_restricted.iterations", "count", "beta_model.fit_restricted", "extra"),
    ("beta_model.expected_degrees.calls", "count", "beta_model.expected_degrees", "calls"),
    ("beta_model.expected_degrees.busy_s", "s", "beta_model.expected_degrees", "busy"),
    ("beta_model.log_likelihood.calls", "count", "beta_model.log_likelihood", "calls"),
    ("beta_model.log_likelihood.busy_s", "s", "beta_model.log_likelihood", "busy"),
    ("beta_model.fisher_info.calls", "count", "beta_model.fisher_info", "calls"),
    ("beta_model.fisher_info.busy_s", "s", "beta_model.fisher_info", "busy"),
    ("bt_model.simulate_comparisons.busy_s", "s", "bt_model.simulate_comparisons", "busy"),
    ("bt_model.bt_fit_mle.busy_s", "s", "bt_model.bt_fit_mle", "busy"),
    ("bt_model.bt_fit_mle.self_s", "s", "bt_model.bt_fit_mle", "self"),
    ("bt_model.bt_fit_mle.iterations", "count", "bt_model.bt_fit_mle", "extra"),
    ("bt_model.bt_fit_restricted.busy_s", "s", "bt_model.bt_fit_restricted", "busy"),
    ("bt_model.bt_fit_restricted.self_s", "s", "bt_model.bt_fit_restricted", "self"),
    ("bt_model.bt_fit_restricted.iterations", "count", "bt_model.bt_fit_restricted", "extra"),
    ("bt_model.bt_expected_wins.calls", "count", "bt_model.bt_expected_wins", "calls"),
    ("bt_model.bt_expected_wins.busy_s", "s", "bt_model.bt_expected_wins", "busy"),
    ("bt_model.bt_log_likelihood.calls", "count", "bt_model.bt_log_likelihood", "calls"),
    ("bt_model.bt_log_likelihood.busy_s", "s", "bt_model.bt_log_likelihood", "busy"),
    ("bt_model.bt_fisher_info.calls", "count", "bt_model.bt_fisher_info", "calls"),
    ("bt_model.bt_fisher_info.busy_s", "s", "bt_model.bt_fisher_info", "busy"),
    ("bt_model.strongly_connected.busy_s", "s", "bt_model.strongly_connected", "busy"),
    ("fisher_approx.diag_approx.busy_s", "s", "fisher_approx.diag_approx", "busy"),
    ("numpy.linalg.solve.calls", "count", "numpy.linalg.solve", "calls"),
    ("numpy.linalg.solve.busy_s", "s", "numpy.linalg.solve", "busy"),
    ("numpy.linalg.solve.flops_computed", "count", "numpy.linalg.solve", "extra"),
]


def _fit_iterations(args, out):
    return out.iterations


def _solve_flops(args, out):
    # LU factorisation of an m-by-m matrix, computed from its size, not counted
    m = np.shape(args[0])[0]
    return 2.0 * m ** 3 / 3.0


class Tracer:
    """Installs span-recording wrappers and aggregates the spans per operation."""

    def __init__(self) -> None:
        self.active = False
        self.spans: list = []
        self._stack: list = []
        self._undo: list = []

    def _wrap(self, name, fn, extra=None):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            out = None
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[sid] = (name, parent, t0, t1, extra(args, out) if extra and out is not None else None)

        if inspect.isfunction(fn):
            functools.update_wrapper(wrapper, fn)
        return wrapper

    def install(self) -> None:
        import pairlrt.cli  # noqa: F401  (loads every submodule)

        modules = [m for k, m in sys.modules.items() if k == "pairlrt" or k.startswith("pairlrt.")]
        for mod_name, attrs in TARGETS.items():
            mod = sys.modules[f"pairlrt.{mod_name}"]
            for attr in attrs:
                name = f"{mod_name}.{attr}"
                if "." in attr:
                    cls_name, prop = attr.split(".")
                    cls = getattr(mod, cls_name)
                    orig = cls.__dict__[prop]
                    setattr(cls, prop, property(self._wrap(name, orig.fget), doc=orig.__doc__))
                    self._undo.append((cls, prop, orig))
                    continue
                orig = getattr(mod, attr)
                wrapped = self._wrap(name, orig, _fit_iterations if name in FITS else None)
                # every alias, including names re-bound by ``from ... import``
                for m in modules:
                    for key, val in list(vars(m).items()):
                        if val is orig:
                            setattr(m, key, wrapped)
                            self._undo.append((m, key, orig))
        orig_solve = np.linalg.solve
        np.linalg.solve = self._wrap("numpy.linalg.solve", orig_solve, _solve_flops)
        self._undo.append((np.linalg, "solve", orig_solve))

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    def record(self, fn):
        """Run fn with tracing on; its spans are appended to self.spans."""
        self.active = True
        try:
            return fn()
        finally:
            self.active = False


def aggregate(spans: list, begin: int = 0) -> dict:
    """Per span name over spans[begin:]: calls, busy (total duration), self (busy minus direct children), extra."""
    totals: dict = defaultdict(lambda: {"calls": 0, "busy": 0.0, "self": 0.0, "extra": 0.0})
    child_time = defaultdict(float)
    for name, parent, t0, t1, _ in spans[begin:]:
        if parent >= 0:
            child_time[parent] += t1 - t0
    for i, (name, parent, t0, t1, extra) in enumerate(spans[begin:], start=begin):
        agg = totals[name]
        agg["calls"] += 1
        agg["busy"] += t1 - t0
        agg["self"] += (t1 - t0) - child_time[i]
        if extra is not None:
            agg["extra"] += extra
    for stem, members in GROUPS.items():
        merged = totals[stem]
        for member in members:
            for key, val in totals.get(member, {}).items():
                merged[key] += val
    return dict(totals)


def layer_metrics(per_op: list[dict]) -> dict:
    """Average the aggregated spans of several operations into the per-layer metrics."""
    out = {}
    for metric, unit, stem, fld in LAYER_METRICS:
        vals = [agg.get(stem, {}).get(fld, 0.0) for agg in per_op]
        value = sum(vals) / len(vals)
        out[metric] = {"value": value, "unit": unit}
    return out
