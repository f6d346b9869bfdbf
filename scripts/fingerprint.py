#!/usr/bin/env python3
"""One SHA-256 per family of runs: equal digests on two commits, on one host,
show that a change left every artifact byte-identical.

    PYTHONPATH=src python scripts/fingerprint.py [--records runs.jsonl]

Runs are in-process, warnings as errors.  A CLI run is recorded as its exit
code, stdout and stderr, a library run as the repr of its result (state arrays
by SHA-256).  --records writes [family, key, run digest, record] per run, one
JSON line each: diff two such files to find the first run that differs.

- grid: the 720 `verify` runs of test_cli's GRID_THETAS x GRID_DELTAS x GRID_CAPS;
- cli: each test_figures.VERIFY_ARGS run, then each test_cli.BAD_INPUTS run;
- proptest: `proptest --instances 1000` at seeds 0, 1 and 2;
- sweeps: test_figures.GOLDEN_CONFIGS, then delta in {1e-3, 0.7, 1.3, 1e3} x caps
  {factor 0.2, 1, 6; absolute 2.5; none}, each over 101 theta in [1e-3, pi/2];
- verify_random, seed 1: 300 `verify` runs, delta = 10**U(-160, 160), theta =
  (pi/2)*10**U(-8, 0), cap factor cycling through 1 - 2**-53, 1, 1 + 2**-52
  (the critical cap and its ulp neighbours) and 10**U(-8, 8);
- reports, seed 2: 3000 compute_report calls, d = 2 + k % 7, h0 and hc the
  Hermitian parts of complex normal matrices, u_max = U(0.5, 3) for odd k and
  +inf for even k, psi0 and psig normalized complex normals, t_opt = U(0.1, 3);
- propagations, seed 3: 300 stacks of 1..3 instances, 1..3 segments and 1..49
  samples per segment, problems drawn as for reports, durations U(0.1, 1),
  amplitudes U(-r, r) with r = min(u_max, 5), each stack one propagate call.
  Recorded are the times, the states and trajectory_residuals against the
  reached ends and a drawn phi each;
- stacked_reports, seed 4: 300 compute_reports calls on stacks of 1..16
  instances of d = 2 + k % 7, problems drawn as for reports but each u_max
  0, U(0.5, 3) or +inf at random within the stack, t_opt = U(0.1, 3); then
  tmin_b_eigenstate of each instance between two eigenvectors of its hc.
"""
import argparse
import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import numpy as np  # noqa: E402
from qslbounds import BoundInputs, ControlHamiltonian, HermitianOperator  # noqa: E402
from qslbounds import PiecewiseConstantField, PureState, compute_report  # noqa: E402
from qslbounds import compute_reports, tmin_b_eigenstate  # noqa: E402
from qslbounds import propagate, trajectory_residuals  # noqa: E402
from qslbounds.cli import LambdaSpec, SweepConfig, emit_report, main, run_sweep  # noqa: E402
from test_cli import BAD_INPUTS, GRID_CAPS, GRID_DELTAS, GRID_THETAS, bad_input_argv  # noqa: E402
from test_figures import GOLDEN_CONFIGS, VERIFY_ARGS  # noqa: E402

WIDE_CAPS = (*(LambdaSpec("factor", f) for f in (0.2, 1.0, 6.0)),
             LambdaSpec("absolute", 2.5), LambdaSpec("unconstrained"))


def _in_tmp(run) -> str:
    """run(tmp) in a fresh directory tmp, whose path its record shows as {tmp}."""
    with tempfile.TemporaryDirectory() as tmp:
        return run(tmp).replace(tmp, "{tmp}")


def _cli(argv_in) -> str:
    """Exit code, stdout and stderr of the CLI run on the argv argv_in(tmp)."""
    def run(tmp):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv_in(tmp))
            except SystemExit as exc:
                code = exc.code
        return f"exit {code}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"
    return _in_tmp(run)


def _cli_run(*argv: str):
    return " ".join(argv), _cli(lambda tmp: list(argv))


def _sweep(cfg: SweepConfig):
    def run(tmp):
        paths = emit_report(run_sweep(cfg), cfg, Path(tmp) / "sweep.csv")
        return "".join(p.read_text(encoding="utf-8") for p in paths)
    return repr(cfg), _in_tmp(run)


def _unit(rng, d):
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def _ch(rng, d, u_max):
    a = rng.standard_normal((2, d, d)) + 1j * rng.standard_normal((2, d, d))
    return ControlHamiltonian(*map(HermitianOperator, 0.5 * (a + a.conj().swapaxes(1, 2))), u_max)


def _draws(seed, count):
    """Generator seed, then instance k's dimension and u_max, for k < count."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        yield rng, k, 2 + k % 7, float(rng.uniform(0.5, 3.0)) if k % 2 else math.inf


def _reports():
    for rng, k, d, u_max in _draws(2, 3000):
        inputs = BoundInputs(_ch(rng, d, u_max), PureState(_unit(rng, d)), PureState(_unit(rng, d)))
        yield str(k), repr(compute_report(inputs, t_opt=float(rng.uniform(0.1, 3.0))))


def _propagations():
    sha = lambda a: hashlib.sha256(a.tobytes()).hexdigest()  # noqa: E731
    for rng, k, d, u_max in _draws(3, 300):
        n_seg, count, samples = (int(rng.integers(1, top)) for top in (4, 4, 50))
        chs, reach = [_ch(rng, d, u_max) for _ in range(count)], min(u_max, 5.0)
        fields = [PiecewiseConstantField(np.stack((rng.uniform(0.1, 1.0, n_seg),
                                                   rng.uniform(-reach, reach, n_seg)), axis=-1))
                  for _ in range(count)]
        psi0s, phis = (np.array([_unit(rng, d) for _ in range(count)]) for _ in range(2))
        stack = propagate(chs, fields, psi0s, samples)
        residuals = trajectory_residuals(stack, stack.ends[1], phis).tolist()
        yield str(k), f"times {sha(stack.times)} states {sha(stack.states)} {residuals!r}"


def _stacked_reports():
    for rng, k, d, _ in _draws(4, 300):
        count = int(rng.integers(1, 17))
        chs = [_ch(rng, d, (0.0, float(rng.uniform(0.5, 3.0)), math.inf)[int(rng.integers(3))])
               for _ in range(count)]
        psi0s, psigs = (np.array([_unit(rng, d) for _ in range(count)]) for _ in range(2))
        reports = compute_reports(chs, psi0s, psigs, rng.uniform(0.1, 3.0, count).tolist())
        eigen = []
        for ch in chs:
            ends = np.linalg.eigh(ch.hc.entries)[1].T[rng.integers(d, size=2)]
            eigen.append(tmin_b_eigenstate(BoundInputs(ch, *map(PureState, ends))))
        yield str(k), f"{reports!r} {eigen!r}"


def _verify_random():
    for rng, k, _, _ in _draws(1, 300):
        delta, theta = 10.0 ** rng.uniform(-160, 160), 0.5 * math.pi * 10.0 ** rng.uniform(-8, 0)
        factor = (1.0 - 2.0**-53, 1.0, 1.0 + 2.0**-52, 10.0 ** rng.uniform(-8, 8))[k % 4]
        yield _cli_run("verify", "--delta", repr(delta), "--theta", repr(theta),
                       "--lambda-factor", repr(factor))


FAMILIES = {
    "grid": lambda: (_cli_run("verify", "--theta", t, "--delta", d, *cap)
                     for t, d, cap in itertools.product(GRID_THETAS, GRID_DELTAS, GRID_CAPS)),
    "cli": lambda: itertools.chain(
        (_cli_run("verify", *args) for args in VERIFY_ARGS.values()),
        ((row[3], _cli(lambda tmp, row=row: bad_input_argv(row[0], row[1], tmp)))
         for row in BAD_INPUTS)),
    "proptest": lambda: (_cli_run("proptest", "--seed", str(s), "--instances", "1000")
                         for s in range(3)),
    "sweeps": lambda: map(_sweep, itertools.chain(GOLDEN_CONFIGS.values(), (
        SweepConfig(delta, spec, 1e-3, 0.5 * math.pi, 101)
        for delta, spec in itertools.product((1e-3, 0.7, 1.3, 1e3), WIDE_CAPS)))),
    "verify_random": _verify_random,
    "reports": _reports,
    "propagations": _propagations,
    "stacked_reports": _stacked_reports,
}


def _blas_core() -> str:
    """The OpenBLAS kernel numpy loads here: the Core: line it prints when verbose."""
    probe = subprocess.run([sys.executable, "-c", "import numpy"], capture_output=True,
                           text=True, env={**os.environ, "OPENBLAS_VERBOSE": "2"})
    cores = [ln for ln in (probe.stdout + probe.stderr).splitlines() if ln.startswith("Core:")]
    return cores[0][5:].strip() if cores else "unknown"


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--records", help="write every run's record here, one JSON line each")
    records_path = parser.parse_args().records
    warnings.simplefilter("error")
    print(f"numpy {np.__version__}  OpenBLAS core {_blas_core()}")
    with open(records_path or os.devnull, "w", encoding="utf-8") as records:
        for family, runs in FAMILIES.items():
            digest, count = hashlib.sha256(), 0
            for count, (key, record) in enumerate(runs(), 1):
                line = json.dumps([key, record])
                digest.update(line.encode() + b"\n")
                records.write(json.dumps([family, key, hashlib.sha256(line.encode()).hexdigest(),
                                          record]) + "\n")
            print(f"{family:<15} {count:5d} runs  {digest.hexdigest()}")
