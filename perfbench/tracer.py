"""Spans around the public functions of qslbounds, recorded from outside.

Installing the tracer replaces every binding of a wrapped function in every
loaded qslbounds module (``cli.propagate_refined`` as well as
``dynamics.propagate_refined``), and ``HermitianOperator.__init__`` on the
class, so calls are caught whichever module makes them.  Spans are kept in
flat arrays in memory and summarised, or saved, when the run ends.  Self
time is a span's duration minus the durations of its direct children; calls
are synchronous, so children never overlap.
"""
from __future__ import annotations

import functools
import sys
import time
from array import array
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

DIMS = range(2, 9)


def _dim_of_first(args, kwargs, result) -> Tuple[int, int]:
    return args[0].dim, 0


def _propagate_note(args, kwargs, result) -> Tuple[int, int]:
    return result.dim, result.n_samples


def _report_note(args, kwargs, result) -> Tuple[int, int]:
    return 0, len(result.errors)


def _emit_note(args, kwargs, result) -> Tuple[int, int]:
    return 0, sum(Path(p).stat().st_size for p in result)


# (module, public name, annotation) for every span.  An annotation turns the
# call into (dimension, count) for the derived per-layer metrics.
TARGETS: Tuple[Tuple[str, str, Optional[Callable]], ...] = (
    ("quantum", "spectral", _dim_of_first),
    ("quantum", "unitary_step", None),
    ("quantum", "fubini_study_distance", None),
    ("quantum", "energy_variance", None),
    ("quantum", "ground_state", None),
    ("quantum", "HermitianOperator", None),
    ("dynamics", "propagate", _propagate_note),
    ("dynamics", "propagate_refined", None),
    ("dynamics", "path_length", None),
    ("dynamics", "bhattacharyya_check", None),
    ("dynamics", "pfeifer_envelope_check", None),
    ("dynamics", "tqsl_star", None),
    ("bounds", "tmin_a", None),
    ("bounds", "tmin_b", None),
    ("bounds", "tmin_c1", None),
    ("bounds", "tmin_c2", None),
    ("bounds", "compute_report", _report_note),
    ("bounds", "arenz_overlap_inequality_check", None),
    ("bounds", "sin_star", None),
    ("two_level", "optimal_protocol", None),
    ("two_level", "boundary_states", None),
    ("two_level", "closed_form_bounds", None),
    ("two_level", "tqsl_star_closed", None),
    ("property_suites", "run_property_suites", None),
    ("property_suites", "random_control_problem", None),
    ("property_suites", "random_state", None),
    ("property_suites", "random_hermitian", None),
    ("cli", "run_sweep", None),
    ("cli", "emit_report", _emit_note),
)
SPAN_NAMES = tuple(f"{m}.{f}" for m, f, _ in TARGETS)


def per_layer_metric_units() -> Dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units: Dict[str, str] = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units["dynamics.propagate.samples"] = "count"
    units["dynamics.propagate_refined.useful_ratio"] = "ratio"
    for layer in ("dynamics.propagate", "quantum.spectral"):
        for d in DIMS:
            units[f"{layer}.self_s.d{d}"] = "s"
    units["bounds.compute_report.errors"] = "count"
    units["cli.emit_report.bytes"] = "bytes"
    units["trace.spans"] = "count"
    units["trace.wall_s"] = "s"
    units["trace.self_s_total"] = "s"
    units["trace.throughput_untraced"] = "items/s"
    units["trace.throughput_traced"] = "items/s"
    units["trace.throughput_ratio"] = "ratio"
    return units


def _library_modules() -> List:
    return [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == "qslbounds" or name.startswith("qslbounds."))
    ]


class Tracer:
    """Records spans while installed (use as a context manager)."""

    def __init__(self):
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.dim = array("i")
        self.count = array("q")
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []

    def _wrap(self, name_id: int, fn, note):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(tracer.start)
            stack = tracer._stack
            tracer.name.append(name_id)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.dim.append(0)
            tracer.count.append(0)
            tracer.end.append(0.0)
            stack.append(idx)
            tracer.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = clock()
                stack.pop()
            if note is not None:
                tracer.dim[idx], tracer.count[idx] = note(args, kwargs, result)
            return result

        return wrapper

    def __enter__(self) -> "Tracer":
        modules = _library_modules()
        for name_id, (mod_name, attr, note) in enumerate(TARGETS):
            original = getattr(sys.modules[f"qslbounds.{mod_name}"], attr)
            if isinstance(original, type):
                init = original.__init__
                self._patches.append((original, "__init__", init))
                original.__init__ = self._wrap(name_id, init, note)
                continue
            wrapped = self._wrap(name_id, original, note)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapped)
        return self

    def __exit__(self, *exc) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def arrays(self) -> Dict[str, np.ndarray]:
        return {
            "name": np.array(self.name, dtype=np.int32),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
            "parent": np.array(self.parent, dtype=np.int32),
            "dim": np.array(self.dim, dtype=np.int32),
            "count": np.array(self.count, dtype=np.int64),
        }

    def save(self, path: Path) -> None:
        np.savez(path, span_names=np.array(SPAN_NAMES), **self.arrays())

    def summary(self) -> Dict[str, float]:
        """Per-span calls and self time plus the derived per-layer metrics."""
        a = self.arrays()
        name, parent = a["name"], a["parent"]
        duration = a["end"] - a["start"]
        children = np.zeros_like(duration)
        has_parent = parent >= 0
        np.add.at(children, parent[has_parent], duration[has_parent])
        self_s = duration - children
        n = len(SPAN_NAMES)
        calls = np.bincount(name, minlength=n)
        self_by_name = np.bincount(name, weights=self_s, minlength=n)
        out: Dict[str, float] = {}
        for i, span in enumerate(SPAN_NAMES):
            out[f"{span}.calls"] = int(calls[i])
            out[f"{span}.self_s"] = float(self_by_name[i])
        ids = {span: i for i, span in enumerate(SPAN_NAMES)}
        prop = name == ids["dynamics.propagate"]
        out["dynamics.propagate.samples"] = int(a["count"][prop].sum())
        refined = ids["dynamics.propagate_refined"]
        inside = prop & has_parent & (name[np.maximum(parent, 0)] == refined)
        n_inside = int(inside.sum())
        out["dynamics.propagate_refined.useful_ratio"] = (
            int(calls[refined]) / n_inside if n_inside else 0.0
        )
        for layer in ("dynamics.propagate", "quantum.spectral"):
            mask = name == ids[layer]
            for d in DIMS:
                out[f"{layer}.self_s.d{d}"] = float(self_s[mask & (a["dim"] == d)].sum())
        out["bounds.compute_report.errors"] = int(
            a["count"][name == ids["bounds.compute_report"]].sum()
        )
        out["cli.emit_report.bytes"] = int(a["count"][name == ids["cli.emit_report"]].sum())
        out["trace.spans"] = int(name.shape[0])
        out["trace.self_s_total"] = float(self_s.sum())
        return out
