#!/usr/bin/env python3
"""Benchmark of qslbounds, run against the package in src/ of this checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With --trace 0 it reports the end-to-end metrics of one workload:

  setup_s      median wall time of fresh interpreters from start to
               `import qslbounds` done plus one warm-up item (input
               generation excluded)
  throughput   items per second of one pass over the input pool at each
               input's fastest call in the timed phase (Loop.throughput says
               why not the median)
  peak_rss_mb  peak resident memory of this process, which runs the workload

With --trace 1 it runs half the time untraced and half with spans around the
public functions of every qslbounds module (tracer.py), and reports calls and
self time per function plus the tracing overhead.  Every output is checked;
an item whose check fails, or whose call raises, counts in `failed`.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The lines before it give every metric with
its unit, failed_ratio, unit-latency percentiles and the run environment;
perfbench/out/ receives the same record as JSON, and the spans of a traced
run.  The workload loop is closed: one caller, single process, the next unit
starts when the previous one has returned.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import select
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

DEFAULT_SEED = 0
CONFIRM_SEED = 1  # kept out of development runs; confirms a claim on fresh data
SETUP_PROBES = 7  # timed probes per run, after one untimed probe warms the file cache
PROBE_TIMEOUT_S = 20.0
TAIL_PERCENTILES = (90.0, 99.0, 99.9)
MAX_ERRORS_KEPT = 3

# Why each workload is in the benchmark, its stated input size, and the layers
# (modules of src/qslbounds) it loads and bypasses.
WORKLOADS: Dict[str, Dict[str, object]] = {
    "figure_sweeps": {
        "why": "the paper's reproduction path: the three figure sweeps, d = 2",
        "size": "3 caps (unconstrained, 6x and 0.2x critical) x 50 theta in "
                "[0.02, pi/2 - 0.02], one run_sweep + emit_report per cap; seeded "
                "delta in [0.5, 2]; item = one theta point",
        "loads": ["cli", "two_level", "dynamics", "bounds", "quantum"],
        "bypasses": ["property_suites"],
    },
    "proptest": {
        "why": "the only workload in high dimension and with trajectory checks",
        "size": "units of run_property_suites(stream_seed, 200) over 8 seeded "
                "streams, d = 2..8, 48 samples per segment; item = one instance",
        "loads": ["property_suites", "dynamics", "bounds", "quantum"],
        "bypasses": ["cli", "two_level"],
    },
    "bounds_random": {
        "why": "a-priori bounds for a user's own problem, no trajectory: the "
               "bypass workload for any dynamics change",
        "size": "pool of 256 seeded (H0, Hc, u_max, psi0, psig, T), d = 2..8 "
                "cycled, half with u_max = inf; item = one compute_report",
        "loads": ["bounds", "quantum"],
        "bypasses": ["dynamics", "two_level", "property_suites", "cli"],
    },
}

END_TO_END_UNITS = {"setup_s": "s", "throughput": "items/s", "peak_rss_mb": "MB"}


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0.0:
        parser.error("--seconds must be positive")
    return args


# ---------------------------------------------------------------------------
# environment


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "qslbounds").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _loaded_version(module: str) -> str:
    """Version of a module the measured code imported; scipy may not be."""
    loaded = sys.modules.get(module)
    return getattr(loaded, "__version__", "?") if loaded else "not imported"


def environment() -> Dict[str, object]:
    return {
        "python": platform.python_version(),
        "numpy": _loaded_version("numpy"),
        "scipy": _loaded_version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
        "platform": f"{platform.system()} {platform.release()} {platform.machine()}",
    }


# ---------------------------------------------------------------------------
# measurement


def _percentiles(samples: List[float]) -> Dict[str, float]:
    """Median plus the highest of TAIL_PERCENTILES with at least ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    out = {"p50": statistics.median(ordered)}
    eligible = [p for p in TAIL_PERCENTILES if n * (1.0 - p / 100.0) >= 10.0]
    if eligible:
        out[f"p{eligible[-1]:g}"] = ordered[min(n - 1, int(n * eligible[-1] / 100.0))]
    return out


def setup_samples(workload: str, seed: int, probes: int) -> Tuple[List[float], int, int]:
    """Set-up times of `probes` fresh interpreters, after one untimed probe,
    with the items attempted and failed by all the probes' warm-ups."""
    probe_dir = OUT / f"probe-{workload}-{os.getpid()}"
    samples, attempted, failed = [], 0, 0
    for k in range(probes + 1):
        cmd = [sys.executable, str(HERE / "setup_probe.py"), str(SRC), workload,
               str(seed), str(probe_dir)]
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            ready, _, _ = select.select([proc.stdout], [], [], PROBE_TIMEOUT_S)
            line = proc.stdout.readline() if ready else ""
            t_line = time.perf_counter()
            proc.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if proc.returncode != 0 or not line:
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        report = json.loads(line)
        attempted += report["items"]
        failed += report["failed"]
        if k > 0:
            samples.append(t_line - t0 - report["gen_s"] - report["check_s"])
    if probe_dir.is_dir():
        probe_dir.rmdir()
    return samples, attempted, failed


class Loop:
    """Closed-loop runner: cycles the pool, times each unit, checks each output."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.unit_s: List[float] = []
        self.best: Dict[int, float] = {}
        self._next = 0

    def step(self) -> float:
        w = self.workload
        x = w.pool[self._next % len(w.pool)]
        self._next += 1
        t0 = time.perf_counter()
        try:
            out = w.run(x)
        except Exception:  # a raising call is a failed unit, never a dropped one
            out = None
            if len(self.errors) < MAX_ERRORS_KEPT:
                self.errors.append(traceback.format_exc())
        dt = time.perf_counter() - t0
        self.attempted += w.items_per_unit
        self.failed += w.items_per_unit if out is None else min(w.check(x, out), w.items_per_unit)
        return dt

    def timed(self, seconds: float) -> None:
        deadline = time.perf_counter() + seconds
        while True:
            k = self._next % len(self.workload.pool)
            dt = self.step()
            self.unit_s.append(dt)
            self.best[k] = min(dt, self.best.get(k, math.inf))
            if time.perf_counter() >= deadline:
                return

    def pass_rates(self) -> List[float]:
        """Items/s of each complete pass over the pool, in order."""
        cycle = len(self.workload.pool)
        per_pass = self.workload.items_per_unit * cycle
        return [per_pass / sum(self.unit_s[i:i + cycle])
                for i in range(0, len(self.unit_s) - cycle + 1, cycle)]

    def throughput(self) -> float:
        """Items/s of one pass over the pool at each input's fastest timed
        call.  The host's speed swings by up to 1.8x, for seconds to
        minutes, as other tenants load it; a median or mean over the run
        measures that share, while every input's best call is slowed only
        when the whole run is.  Over eight 25 s runs per workload on a
        2-core host, IQR/median was 0.12, 0.08 and 0.04 for this figure
        (figure_sweeps, proptest, bounds_random) and 0.10, 0.28 and 0.35
        for the per-input median call."""
        if len(self.best) < len(self.workload.pool):  # too short to reach every input
            return self.workload.items_per_unit * len(self.unit_s) / sum(self.unit_s)
        return self.workload.items_per_unit * len(self.best) / sum(self.best.values())


def run_benchmark(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    probes: int = SETUP_PROBES,
    size: Optional[Dict[str, int]] = None,
    mutate=None,
) -> Dict[str, object]:
    """One run; returns the result record.  `size` overrides the workload's
    input size and `mutate(workload)` may alter its pool before timing (both
    for the benchmark's own tests)."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    setup, probe_attempted, probe_failed = (
        ([], 0, 0) if trace else setup_samples(workload, seed, probes)
    )

    import workloads
    from tracer import Tracer, per_layer_metric_units

    out_dir = OUT / f"{workload}-{os.getpid()}"
    w = workloads.FACTORIES[workload](seed, out_dir, **(size or {}))
    if mutate is not None:
        mutate(w)
    try:
        loop = Loop(w)
        loop.attempted, loop.failed = probe_attempted, probe_failed
        loop.step()  # warm-up unit: untimed, still checked and counted
        metrics: Dict[str, float] = {}
        record: Dict[str, object] = {}
        if not trace:
            loop.timed(seconds)
            metrics["setup_s"] = statistics.median(setup)
            metrics["throughput"] = loop.throughput()
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            record["setup_samples_s"] = setup
            record["pass_rates"] = loop.pass_rates()
            units = END_TO_END_UNITS
        else:
            loop.timed(0.5 * seconds)
            untraced = loop.throughput()
            tracer = Tracer()
            traced = Loop(w)
            with tracer:
                traced.timed(0.5 * seconds)
            loop.attempted += traced.attempted
            loop.failed += traced.failed
            loop.errors += traced.errors
            metrics.update(tracer.summary())
            metrics["trace.wall_s"] = sum(traced.unit_s)
            metrics["trace.throughput_untraced"] = untraced
            metrics["trace.throughput_traced"] = traced.throughput()
            metrics["trace.throughput_ratio"] = metrics["trace.throughput_traced"] / untraced
            tracer.save(OUT / f"spans-{workload}.npz")  # last traced run only
            units = per_layer_metric_units()
            record["traced_unit_latency_s"] = _percentiles(traced.unit_s)
    finally:
        w.close()
        if out_dir.is_dir():
            out_dir.rmdir()

    correct = loop.failed == 0
    if trace and metrics["trace.self_s_total"] > metrics["trace.wall_s"]:
        correct = False  # spans escaped the units they were timed in
    record.update({
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "info": WORKLOADS[workload],
        "units": units,
        "unit_latency_s": _percentiles(loop.unit_s),
        "units_timed": len(loop.unit_s),
        "failed_ratio": f"{loop.failed}/{loop.attempted}",
        "errors": loop.errors,
        "environment": environment(),
        "correct": correct,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    })
    return record


def print_report(record: Dict[str, object]) -> None:
    info = record["info"]
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"seconds {record['seconds']:g}  trace {record['trace']}")
    print(f"  why: {info['why']}")
    print(f"  size: {info['size']}")
    print(f"  loads: {', '.join(info['loads'])}  bypasses: {', '.join(info['bypasses'])}")
    print(f"  seeds: default {DEFAULT_SEED}, confirmation {CONFIRM_SEED}")
    print("  environment: " + json.dumps(record["environment"], sort_keys=True))
    for name, m in record["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    if "setup_samples_s" in record:
        print(f"  samples: setup_s median of n={len(record['setup_samples_s'])} probes; "
              f"throughput over n={record['units_timed']} timed calls, "
              f"median pass rate {statistics.median(record['pass_rates'] or [0.0]):.6g} items/s")
    print(f"  failed_ratio = {record['failed_ratio']} failed/attempted")
    lat = ", ".join(f"{k}={v * 1e3:.4g} ms" for k, v in record["unit_latency_s"].items())
    print(f"  unit latency: {lat} (n={record['units_timed']})")


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "qslbounds" / "__init__.py").is_file():
        print(f"error: no qslbounds package under {SRC}", file=sys.stderr)
        return 2
    record = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    for error in record["errors"]:
        print(error, file=sys.stderr)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print_report(record)
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
