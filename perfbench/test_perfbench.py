"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench
"""
import json
import math
import shutil
import subprocess
import sys

import pytest

import run

sys.path.insert(0, str(run.SRC))

import tracer  # noqa: E402
import workloads  # noqa: E402
from qslbounds import bounds, cli, dynamics, property_suites  # noqa: E402
from qslbounds.property_suites import PropertyReport, SuiteResult  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY = {
    "figure_sweeps": {"theta_count": 3},
    "proptest": {"instances": 3, "streams": 2},
    "bounds_random": {"pool_size": 14},
}


def _expected_units(section):
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


def test_benchmark_json_names_what_the_code_reports():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert set(run.WORKLOADS) == set(workloads.FACTORIES)
    assert _expected_units("end_to_end") == run.END_TO_END_UNITS
    assert _expected_units("per_layer") == tracer.per_layer_metric_units()


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_untraced_run_reports_every_end_to_end_metric(name):
    record = run.run_benchmark(name, seed=3, seconds=0.2, trace=False, probes=1,
                               size=TINY[name])
    assert record["correct"] and record["failed"] == 0 and record["attempted"] > 0
    got = {k: m["unit"] for k, m in record["metrics"].items()}
    assert got == _expected_units("end_to_end")
    assert all(m["value"] > 0 for m in record["metrics"].values())
    assert record["failed_ratio"] == f"0/{record['attempted']}"


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_traced_run_reports_every_per_layer_metric(name):
    record = run.run_benchmark(name, seed=3, seconds=0.4, trace=True, size=TINY[name])
    assert record["correct"]
    metrics = {k: m["value"] for k, m in record["metrics"].items()}
    assert {k: m["unit"] for k, m in record["metrics"].items()} == _expected_units("per_layer")
    assert metrics["trace.self_s_total"] <= metrics["trace.wall_s"]
    assert metrics["trace.spans"] > 0
    if name == "bounds_random":
        assert all(v == 0 for k, v in metrics.items()
                   if k.startswith("dynamics.") and k.endswith(".calls"))
        assert metrics["bounds.compute_report.calls"] > 0
    if name == "proptest":
        assert all(v == 0 for k, v in metrics.items()
                   if k.startswith("two_level.") and k.endswith(".calls"))
        assert metrics["bounds.sin_star.calls"] > 0
    if name == "figure_sweeps":
        assert metrics["dynamics.propagate_refined.useful_ratio"] > 0
        assert metrics["cli.emit_report.bytes"] > 0


def test_tracer_patches_every_binding_and_restores_them():
    originals = {
        (m, f): getattr(sys.modules[f"qslbounds.{m}"], f) for m, f, _ in tracer.TARGETS
    }
    functions = {id(v) for v in originals.values() if not isinstance(v, type)}
    init = bounds.HermitianOperator.__init__
    with tracer.Tracer():
        for fn in (cli.propagate_refined, property_suites.propagate, bounds.tqsl_star,
                   dynamics.propagate):
            assert hasattr(fn, "__wrapped__")
        left = [
            f"{mod.__name__}.{key}"
            for mod in tracer._library_modules()
            for key, value in vars(mod).items()
            if id(value) in functions
        ]
        assert left == []
        assert bounds.HermitianOperator.__init__ is not init
    assert bounds.HermitianOperator.__init__ is init
    for (m, f), original in originals.items():
        assert getattr(sys.modules[f"qslbounds.{m}"], f) is original
    assert cli.propagate_refined is dynamics.propagate_refined


def test_perturbed_t_opt_counts_as_failed():
    def shrink_target_times(w):
        for i in (0, 5):
            w.pool[i] = workloads.BoundsInput(**{**vars(w.pool[i]), "t_opt": 0.0})

    record = run.run_benchmark("bounds_random", seed=3, seconds=0.2, trace=False,
                               probes=1, size=TINY["bounds_random"],
                               mutate=shrink_target_times)
    assert not record["correct"]
    assert 0 < record["failed"] < record["attempted"]
    assert record["failed_ratio"] == f"{record['failed']}/{record['attempted']}"


def test_figure_check_counts_each_wrong_row(tmp_path):
    w = workloads.figure_sweeps(3, tmp_path, theta_count=4)
    item = w.pool[1]  # the bang-off-bang cap
    rows, paths = w.run(item)
    assert w.check(item, (rows, paths)) == 0
    bad = list(rows)
    bad[2] = cli.SweepRow(**{**vars(rows[2]), "tmin_b": rows[2].tmin_b * (1 + 1e-9)})
    assert workloads._sweep_rows_failed(item, bad) == 1
    bad[0] = cli.SweepRow(**{**vars(rows[0]), "regime": "bang-bang"})
    assert workloads._sweep_rows_failed(item, bad) == 2
    paths[0].write_text(paths[0].read_text() + "\n")
    assert w.check(item, (rows, paths)) == 4  # artifact changed between repeats
    w.close()


def test_proptest_check_counts_a_failed_report(tmp_path):
    w = workloads.proptest(3, tmp_path, instances=2, streams=1)
    seed = w.pool[0]
    report = w.run(seed)
    assert w.check(seed, report) == 0
    broken = PropertyReport(seed, report.results[:-1] + (
        SuiteResult("bhattacharyya", 2, math.inf, 1e-4),))
    assert w.check(seed, broken) == 2


def test_command_prints_result_as_last_line():
    out = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", "bounds_random",
         "--seed", "2", "--seconds", "0.3", "--trace", "0"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=120, check=True,
    ).stdout.splitlines()
    last = json.loads(out[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True
    assert any(line.strip().startswith("failed_ratio = 0/") for line in out)


def test_command_fails_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "proptest", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
