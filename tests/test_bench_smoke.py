"""The benchmark still sees every layer it wraps.

``bench/tracer.py`` skips a name that a pvcosim module no longer has, so
a rename would silently read 0 for that layer. One short traced run of
``noon_sweep`` catches that here.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_traced_noon_sweep_reaches_every_solver_layer():
    cmd = [
        sys.executable,
        "bench/run.py",
        "--workload", "noon_sweep",
        "--seed", "1",
        "--seconds", "1",
        "--trace", "1",
        "--size", "small",
    ]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    report = json.loads(done.stdout.strip().splitlines()[-1])
    assert report["correct"]
    metrics = report["metrics"]
    for name in (
        "feeder.solve_feeder.calls",
        "transmission.solve_three_sequence.calls",
        "coupler.run_step.calls",
    ):
        assert metrics[name]["value"] > 0, name
