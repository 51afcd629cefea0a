"""Self-test of the benchmark at a small grid size.

    python3 bench/selftest.py

For every workload it runs the traced benchmark twice and the untraced
one once, and checks that:

- every run passes its output checks and exits 0;
- the metric names printed are exactly those BENCHMARK.json declares
  for that mode;
- every per-layer count (calls, iteration counts, pools created,
  failures) repeats exactly between the two traced runs.

It also checks that the benchmark fails, without printing a result, in
a directory that holds only BENCHMARK.json and the benchmark.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import declared, is_count  # noqa: E402

WORKLOADS = ("noon_sweep", "oracle_validate", "pv_stress")
SEED = 3


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [
            sys.executable,
            "bench/run.py",
            "--workload", workload,
            "--seed", str(SEED),
            "--seconds", "0",
            "--trace", str(trace),
            "--size", "small",
        ],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def result(proc: subprocess.CompletedProcess, what: str) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"{what} exited {proc.returncode}:\n{proc.stdout}\n{proc.stderr}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    if not out["correct"] or out["failed"] or out["attempted"] < 1:
        raise AssertionError(f"{what} failed its checks:\n{proc.stdout}")
    return out


def main() -> int:
    e2e_units, layer_units = declared()
    problems = []
    for workload in WORKLOADS:
        plain = result(bench(workload, 0), f"{workload} --trace 0")
        first = result(bench(workload, 1), f"{workload} --trace 1")
        second = result(bench(workload, 1), f"{workload} --trace 1 (again)")
        for out, units, mode in ((plain, e2e_units, 0), (first, layer_units, 1)):
            if set(out["metrics"]) != set(units):
                problems.append(f"{workload} --trace {mode}: names differ from BENCHMARK.json")
            wrong = [k for k, v in out["metrics"].items() if v["unit"] != units.get(k)]
            if wrong:
                problems.append(f"{workload} --trace {mode}: wrong units for {wrong}")
        for name, v in first["metrics"].items():
            if is_count(name) and v["value"] != second["metrics"][name]["value"]:
                problems.append(
                    f"{workload}: {name} did not repeat "
                    f"({v['value']} then {second['metrics'][name]['value']})"
                )
        print(f"{workload}: checked")

    bare = HERE / "_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "bench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = bench(WORKLOADS[0], 0, cwd=bare)
        if proc.returncode == 0 or '"correct"' in proc.stdout:
            problems.append("the benchmark ran without the program's sources")
    finally:
        shutil.rmtree(bare)
    print("without sources: checked")

    for p in problems:
        print(f"FAILED: {p}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
