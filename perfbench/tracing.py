"""Outside-in tracing of the toafusion layers.

The tracer replaces module attributes that the program already calls
through (``pgo.optimize``, ``eskf.update``, ``preintegration.integrate_batch``
and so on) with thin wrappers that record a span per call: name, start,
end and parent span. No source file of the program is edited, and
``uninstall`` puts every original attribute back.

Spans are kept in memory and written out once, when the benchmark ends.
Layer self times are derived from the span tree: a span's self time is
its duration minus the durations of its direct children.
"""

from __future__ import annotations

import csv
import time
from collections import defaultdict
from typing import Callable, Optional

import numpy as np
from toafusion.pgo import KF_DIM

TERMINATIONS = ("max_iterations", "cost_tolerance", "step_tolerance",
                "no_progress")


def _optimize_counts(args, kwargs, result, counts):
    values = args[1] if len(args) > 1 else kwargs["initial_values"]
    first_kf = args[3] if len(args) > 3 else kwargs.get("first_kf", 0)
    _, report = result
    counts["pgo.state_dim"] += (KF_DIM * (values.n_keyframes - first_kf)
                                + 3 * values.stations.shape[0])
    counts["pgo.lm_iterations"] += report.iterations
    counts["pgo.lm_accepted"] += len(report.costs)
    counts[f"pgo.terminations.{report.termination}"] += 1


def _len_of(key: str) -> Callable:
    def count(args, kwargs, result, counts):
        counts[key] += len(result)
    return count


def _update_rows(args, kwargs, result, counts):
    meas = args[2] if len(args) > 2 else kwargs["meas"]
    counts["eskf.update_rows"] += len(meas)


def _integrated_samples(args, kwargs, result, counts):
    counts["preintegration.samples_integrated"] += result.count


def _evaluated_pairs(args, kwargs, result, counts):
    counts["metrics.pairs"] += result.n_pairs


# (module, attribute, span name, counter). The attribute is the one the
# program looks up at call time; pipeline imports some names directly, so
# those are wrapped on the pipeline module.
TARGETS = (
    ("pipeline", "run_experiment", "pipeline.run_experiment", None),
    ("pipeline", "generate_synthetic_trajectory", "synthetic.generate", None),
    ("toa_sim", "simulate", "toa_sim.simulate", _len_of("toa_sim.ranges")),
    ("pipeline", "load_imu", "dataset.load", _len_of("dataset.rows")),
    ("pipeline", "load_groundtruth", "dataset.load", _len_of("dataset.rows")),
    ("pipeline", "load_toa", "dataset.load", _len_of("dataset.rows")),
    ("eskf", "run_filter", "eskf.run_filter", None),
    ("eskf", "propagate_nominal", "eskf.propagate_nominal", None),
    ("eskf", "error_jacobians", "eskf.error_jacobians", None),
    ("eskf", "propagate_covariance", "eskf.propagate_covariance", None),
    ("eskf", "update", "eskf.update", _update_rows),
    ("pgo", "run_batch", "pgo.run", None),
    ("pgo", "run_sliding_window", "pgo.run", None),
    ("pgo", "build_graph", "pgo.build_graph", None),
    ("pgo", "optimize", "pgo.optimize", _optimize_counts),
    ("preintegration", "slice_imu_between", "preintegration.slice", None),
    ("preintegration", "integrate_batch", "preintegration.integrate",
     _integrated_samples),
    ("preintegration", "predict", "preintegration.predict", None),
    ("metrics", "evaluate", "metrics.evaluate", _evaluated_pairs),
)

# Per-layer metric names, in BENCHMARK.json order.
LAYER_METRICS = (
    ("synthetic.generate_s", "s"),
    ("toa_sim.simulate_s", "s"),
    ("toa_sim.ranges", "count"),
    ("dataset.load_s", "s"),
    ("dataset.rows", "count"),
    ("eskf.run_filter_s", "s"),
    ("eskf.self_s", "s"),
    ("eskf.propagate_nominal_s", "s"),
    ("eskf.error_jacobians_s", "s"),
    ("eskf.propagate_covariance_s", "s"),
    ("eskf.predict_calls", "count"),
    ("eskf.update_s", "s"),
    ("eskf.update_calls", "count"),
    ("eskf.update_rows", "count"),
    ("preintegration.slice_s", "s"),
    ("preintegration.slice_calls", "count"),
    ("preintegration.integrate_s", "s"),
    ("preintegration.integrate_calls", "count"),
    ("preintegration.samples_integrated", "count"),
    ("preintegration.predict_s", "s"),
    ("pgo.run_s", "s"),
    ("pgo.build_graph_s", "s"),
    ("pgo.optimize_s", "s"),
    ("pgo.optimize_calls", "count"),
    ("pgo.state_dim_mean", "count"),
    ("pgo.lm_iterations", "count"),
    ("pgo.lm_accepted", "count"),
    ("pgo.lm_accept_ratio", "ratio"),
) + tuple((f"pgo.terminations.{r}", "count") for r in TERMINATIONS) + (
    ("pgo.reintegrations", "count"),
    ("pgo.step_p98_ms", "ms"),
    ("pgo.step_max_ms", "ms"),
    ("pgo.self_s", "s"),
    ("metrics.evaluate_s", "s"),
    ("metrics.pairs", "count"),
    ("pipeline.self_s", "s"),
)


class Tracer:
    """Span recorder with wrappers installed on toafusion module attributes."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: defaultdict = defaultdict(int)
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn: Callable, count: Optional[Callable]):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append((name, 0.0, 0.0, parent))
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            counts[name] += 1
            if count is not None:
                count(args, kwargs, result, counts)
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for mod_name, attr, name, count in TARGETS:
            mod = self.modules[mod_name]
            original = getattr(mod, attr)
            self._saved.append((mod, attr, original))
            setattr(mod, attr, self._wrap(name, original, count))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()


def write_spans(path, tracers: list) -> None:
    """Write the spans of every (label, tracer) pair to one CSV file."""
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["pass", "index", "name", "start_s", "end_s", "parent"])
        for label, tracer in tracers:
            for k, (name, start, end, parent) in enumerate(tracer.spans):
                out.writerow([label, k, name, f"{start:.9f}", f"{end:.9f}", parent])


def snapshot(modules: dict) -> dict:
    """Identity of every attribute of the given modules, for restore checks."""
    return {(name, attr): id(value)
            for name, mod in modules.items()
            for attr, value in vars(mod).items()}


def span_durations(spans):
    """Total and self duration per span name."""
    child: defaultdict = defaultdict(float)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    total: defaultdict = defaultdict(float)
    self_time: defaultdict = defaultdict(float)
    for k, (name, start, end, _) in enumerate(spans):
        total[name] += end - start
        self_time[name] += end - start - child[k]
    return total, self_time


def top_level_sum(spans, root: int = 0) -> float:
    """Sum of the durations of the direct children of spans[root]."""
    return sum(end - start for _, start, end, parent in spans
               if parent == root)


def layer_metrics(tracer: Tracer, step_times_ms: Optional[np.ndarray]) -> dict:
    """Per-layer metrics from one tracer's spans and call counters."""
    total, self_time = span_durations(tracer.spans)
    calls = tracer.counts
    opt_calls = calls["pgo.optimize"]
    out = {
        "synthetic.generate_s": total["synthetic.generate"],
        "toa_sim.simulate_s": total["toa_sim.simulate"],
        "toa_sim.ranges": calls["toa_sim.ranges"],
        "dataset.load_s": total["dataset.load"],
        "dataset.rows": calls["dataset.rows"],
        "eskf.run_filter_s": total["eskf.run_filter"],
        "eskf.self_s": self_time["eskf.run_filter"],
        "eskf.propagate_nominal_s": total["eskf.propagate_nominal"],
        "eskf.error_jacobians_s": total["eskf.error_jacobians"],
        "eskf.propagate_covariance_s": total["eskf.propagate_covariance"],
        "eskf.predict_calls": calls["eskf.propagate_nominal"],
        "eskf.update_s": total["eskf.update"],
        "eskf.update_calls": calls["eskf.update"],
        "eskf.update_rows": calls["eskf.update_rows"],
        "preintegration.slice_s": total["preintegration.slice"],
        "preintegration.slice_calls": calls["preintegration.slice"],
        "preintegration.integrate_s": total["preintegration.integrate"],
        "preintegration.integrate_calls": calls["preintegration.integrate"],
        "preintegration.samples_integrated":
            calls["preintegration.samples_integrated"],
        "preintegration.predict_s": total["preintegration.predict"],
        "pgo.run_s": total["pgo.run"],
        "pgo.build_graph_s": total["pgo.build_graph"],
        "pgo.optimize_s": total["pgo.optimize"],
        "pgo.optimize_calls": opt_calls,
        "pgo.state_dim_mean": calls["pgo.state_dim"] / opt_calls if opt_calls else 0.0,
        "pgo.lm_iterations": calls["pgo.lm_iterations"],
        "pgo.lm_accepted": calls["pgo.lm_accepted"],
        "pgo.lm_accept_ratio": (calls["pgo.lm_accepted"] / calls["pgo.lm_iterations"]
                                if calls["pgo.lm_iterations"] else 0.0),
    }
    for reason in TERMINATIONS:
        out[f"pgo.terminations.{reason}"] = calls[f"pgo.terminations.{reason}"]
    # Every keyframe interval is sliced once and integrated once when its
    # factor is built; any further integration is a bias re-linearization.
    out["pgo.reintegrations"] = (calls["preintegration.integrate"]
                                 - calls["preintegration.slice"])
    steps = (step_times_ms if step_times_ms is not None and len(step_times_ms)
             else np.zeros(1))
    out["pgo.step_p98_ms"] = float(np.percentile(steps, 98))
    out["pgo.step_max_ms"] = float(np.max(steps))
    out["pgo.self_s"] = self_time["pgo.run"]
    out["metrics.evaluate_s"] = total["metrics.evaluate"]
    out["metrics.pairs"] = calls["metrics.pairs"]
    out["pipeline.self_s"] = self_time["pipeline.run_experiment"]
    return out
