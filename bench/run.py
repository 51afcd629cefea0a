"""Run one benchmark workload and print its metrics as one JSON line.

    python3 bench/run.py --workload noon_sweep --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the run measures the end-to-end metrics with tracing
off. With ``--trace 1`` it runs untraced and traced passes in turn and
prints the per-layer metrics. Both repeat whole
passes over the workload's grid until ``--seconds`` have passed, and
check the program's outputs afterwards. Metric names and units are the
ones declared in ``BENCHMARK.json``; the last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import asdict
from pathlib import Path

from tracer import LAYERS, Tracer, summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_CASES = 200  # at least 10 case times beyond the 95th percentile
SETUP_REPEATS = 5
BLAS_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def declared() -> tuple[dict[str, str], dict[str, str]]:
    """End-to-end and per-layer metric units, by name, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def is_count(name: str) -> bool:
    """Per-layer metrics that must repeat exactly for the same inputs."""
    return (
        name.endswith((".calls", "_mean", "_max", ".pools_created", ".builds_per_network"))
        or ".failures" in name
        or name == "failed_frac"
    )


def environment() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
    }


def setup_seconds(workload: str, seed: int, size: str) -> float:
    """Median wall time of a fresh process's import, fixture parsing and
    scenario generation for the whole grid."""
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed), size],
            capture_output=True,
            text=True,
            check=True,
            timeout=120,
        )
        times.append(float(out.stdout.split()[-1]))
    return statistics.median(times)


def measure(w, inputs, seconds: float, min_cases: int):
    """Whole passes over the grid until ``seconds`` and ``min_cases`` are reached."""
    rounds = []
    start = time.perf_counter()
    while True:
        rounds.append(w.run_round(inputs, keep=not rounds))
        cases = sum(len(r.case_s) for r in rounds)
        if time.perf_counter() - start >= seconds and cases >= min_cases:
            return rounds


def measure_traced(w, inputs, seconds: float):
    """Untraced and traced passes in turn until ``seconds`` are reached, so
    that the tracing overhead compares passes run close together."""
    plain, rounds, traces = [], [], []
    tracer = Tracer()
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        plain.append(w.run_round(inputs))
        w.install_tracer(tracer)
        try:
            rounds.append(w.run_round(inputs, tracer, keep=not rounds))
        finally:
            tracer.restore()
        traces.append(tracer.take())
    return plain, rounds, traces


def cases_per_s(rounds) -> float:
    return statistics.median(len(r.case_s) / r.wall_s for r in rounds)


def end_to_end(rounds, setup_s: float) -> dict[str, float]:
    times = [t for r in rounds for t in r.case_s]
    failed = sum(r.failed for r in rounds)
    return {
        "case_ms_p50": statistics.median(times) * 1e3,
        "case_ms_p95": statistics.quantiles(times, n=20)[-1] * 1e3,
        "cases_per_s": cases_per_s(rounds),
        "converged_frac": 1.0 - failed / len(times),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def _mean(xs) -> float:
    return statistics.fmean(xs) if xs else 0.0


def layer_metrics(trace, rnd) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    spans, counts, samples = trace
    s = summarize(spans)

    def stat(name: str, key: str) -> float:
        return s["names"].get(name, {}).get(key, 0)

    m: dict[str, float] = {}
    for name in (
        "feeder.solve_feeder",
        "feeder.apply_scenario",
        "feeder.FeederOps",
        "transmission.SequenceOps",
        "network.build_sequence_admittance",
        "transmission.solve_three_sequence",
        "coupler.run_step",
        "unified.solve_unified",
    ):
        m[f"{name}.calls"] = stat(name, "calls")
        m[f"{name}.busy_s"] = stat(name, "busy_s")
    m["feeder.solve_feeder.ms_p50"] = stat("feeder.solve_feeder", "ms_p50")
    m["unified.solve_unified.ms_p50"] = stat("unified.solve_unified", "ms_p50")
    m["feeder.sweep_iters_mean"] = _mean(samples.get("sweep_iters"))
    nets = samples.get("seq_ops_network", [])
    m["transmission.SequenceOps.builds_per_network"] = len(nets) / len(set(nets)) if nets else 0
    m["transmission.outer_passes_mean"] = _mean(samples.get("outer_passes"))
    m["transmission.nr_iters_mean"] = _mean(samples.get("nr_iters"))
    m["coupler.run_step.self_s"] = stat("coupler.run_step", "self_s")
    m["coupler.pools_created"] = counts["pools_created"]
    m["coupler.fpi_iters_mean"] = _mean(samples.get("fpi_iters"))
    m["coupler.fpi_iters_max"] = max(samples.get("fpi_iters", [0]))
    where = Counter(side for side, _ in rnd.failures)
    for side in ("transmission", "distribution", "coupler"):
        m[f"coupler.failures.{side}"] = where[side]
    m["unified.failures"] = where["unified"]
    m["unified.inner_iters_mean"] = _mean(samples.get("inner_iters"))
    m["driver.run.self_s"] = stat("driver.run", "self_s")
    m["driver.emit.busy_s"] = stat("driver.emit", "busy_s")
    m["driver.emit.bytes"] = rnd.emit_bytes
    m["failed_frac"] = rnd.failed / len(rnd.case_s)
    m["trace.case_s"] = s["case_s"]
    m["trace.self_coverage"] = s["covered_s"] / s["case_s"]
    for layer in LAYERS:
        m[f"layer.{layer}.self_share"] = s["layer_self_s"][layer] / s["case_s"]
    return m


def per_layer(w, inputs, rounds, traces, untraced, seed, size) -> tuple[dict, list[str]]:
    per_round = [layer_metrics(t, r) for t, r in zip(traces, rounds)]
    problems = []
    out = {}
    for name in per_round[0]:
        values = [m[name] for m in per_round]
        if is_count(name):
            if len(set(values)) != 1:
                problems.append(f"{name} differs between passes: {values}")
            out[name] = values[0]
        else:
            out[name] = statistics.median(values)
    out["trace.overhead"] = cases_per_s(rounds) / cases_per_s(untraced)
    out["scenarios.generate.busy_s"] = inputs.generate_s
    out["driver.jobs2_speedup"] = w.jobs_speedup(seed, size)
    return out, problems


def write_spans(workload: str, traces) -> None:
    path = HERE / "_work" / f"spans-{workload}.jsonl"
    path.parent.mkdir(exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for n, (spans, _, _) in enumerate(traces):
            for s in spans:
                fh.write(json.dumps({"pass": n, **asdict(s)}) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument(
        "--size",
        choices=("full", "small"),
        default="full",
        help="grid size; 'small' is for the self-test and drops the 200-case minimum",
    )
    args = ap.parse_args(argv)
    e2e_units, layer_units = declared()

    import workloads as w  # imports pvcosim from this checkout's src/

    if args.workload not in w.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {', '.join(w.WORKLOADS)}")
    print("env " + json.dumps(environment()))

    setup_s = setup_seconds(args.workload, args.seed, args.size) if not args.trace else 0.0
    inputs = w.setup(args.workload, args.seed, args.size)
    w.warm_up(inputs)

    if args.trace:
        untraced, rounds, traces = measure_traced(w, inputs, args.seconds)
        write_spans(args.workload, traces)
        metrics, problems = per_layer(w, inputs, rounds, traces, untraced, args.seed, args.size)
        units = layer_units
        passes = untraced + rounds
    else:
        rounds = measure(w, inputs, args.seconds, MIN_CASES if args.size == "full" else 0)
        metrics, problems = end_to_end(rounds, setup_s), []
        units = e2e_units
        passes = rounds

    if set(metrics) != set(units):
        raise SystemExit(
            f"metrics and BENCHMARK.json disagree: {sorted(set(metrics) ^ set(units))}"
        )
    problems += [p for r in passes for p in r.problems]
    if len({repr(r.signature) for r in passes}) != 1:
        problems.append("outputs differ between passes over the same grid")
    if args.workload == "pv_stress":
        problems += w.check_stress(inputs, rounds[0].kept)

    failures = Counter(f for r in passes for f in r.failures)
    print(f"passes {len(passes)}; failures by (side, type): {dict(failures)}")
    if args.workload == "noon_sweep":
        print(f"results.csv sha256 {rounds[0].signature}")
    for p in problems:
        print(f"CHECK FAILED: {p}")
    correct = not problems
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": sum(len(r.case_s) for r in passes),
                "failed": sum(r.unexpected for r in passes),
                "metrics": {
                    name: {"value": metrics[name], "unit": units[name]} for name in sorted(units)
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
