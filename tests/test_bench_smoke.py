"""The benchmark still sees every layer it wraps, and its checks still pass.

``bench/tracer.py`` skips a name that a pvcosim module no longer has, so
a rename would silently read 0 for that layer. Short traced runs of
``noon_sweep`` and ``pv_stress`` catch that here; ``pv_stress`` also runs
the benchmark's fixed-point check (``verify_fixed_point`` on every
converged case), so a change to that function's signature fails here too.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def traced_report(workload: str) -> dict:
    cmd = [
        sys.executable,
        "bench/run.py",
        "--workload", workload,
        "--seed", "1",
        "--seconds", "1",
        "--trace", "1",
        "--size", "small",
    ]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    report = json.loads(done.stdout.strip().splitlines()[-1])
    assert report["correct"], report
    return report["metrics"]


def test_traced_noon_sweep_reaches_every_solver_layer():
    metrics = traced_report("noon_sweep")
    for name in (
        "feeder.solve_feeder.calls",
        "transmission.solve_three_sequence.calls",
        "coupler.run_step.calls",
    ):
        assert metrics[name]["value"] > 0, name


def test_traced_pv_stress_passes_its_checks():
    metrics = traced_report("pv_stress")
    assert metrics["coupler.run_step.calls"]["value"] > 0
