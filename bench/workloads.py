"""The benchmark's workloads: inputs made from a seed, one timed pass over a
workload's grid with every case timed from outside, and output checks.

All three workloads run in one process, serially, closed loop (each case
starts when the previous one has returned), with ``jobs=1``.

- ``noon_sweep``: ``driver.run`` over scenarios x levels 10..100 at hour 12
  in ``cosim`` mode, then ``driver.emit``. Feeder sweeps, the coupler's
  thread pool and ``SequenceOps`` rebuilds carry the time; the oracle
  does nothing.
- ``oracle_validate``: the same grid shape, smaller, in ``both`` mode, so
  every case adds ``solve_unified`` and ``compare``; the oracle carries
  most of the time.
- ``pv_stress``: ``coupler.run_step`` at 100 % penetration with every PV
  rating multiplied by k from 1 to 4. Near k = 3.75 the boundary and
  outer sequence loops take many passes, and from k = 3.875 cases fail
  with a typed ``CosimError``; the transmission side carries much more
  of the time than on ``noon_sweep``. At 100 % penetration every draw
  places PV at every customer, so the seed changes the scenario seeds
  but not the placements.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"

if not (SRC / "pvcosim" / "__init__.py").is_file():
    raise SystemExit(f"pvcosim sources not found under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import pvcosim  # noqa: E402
from pvcosim import coupler, driver, transmission  # noqa: E402
from pvcosim.coupler import CosimError, attach, verify_fixed_point  # noqa: E402
from pvcosim.driver import RunConfig  # noqa: E402
from pvcosim.feeder import load_feeder_file  # noqa: E402
from pvcosim.network import load_network_file  # noqa: E402
from pvcosim.scenarios import generate, load_profile_file  # noqa: E402

if Path(pvcosim.__file__).resolve().parent != SRC / "pvcosim":
    raise SystemExit(f"pvcosim imported from {pvcosim.__file__}, not from {SRC}")

WORKLOADS = ("noon_sweep", "oracle_validate", "pv_stress")
MODES = {"noon_sweep": "cosim", "oracle_validate": "both", "pv_stress": "cosim"}
LEVELS = tuple(range(10, 101, 10))
HOUR = 12
# Rating multipliers for pv_stress: coarse where every solve is easy,
# fine from 3 upwards where the loops slow down and then fail.
STRESS_K = (1.0, 1.25, 1.5, 1.75, 2.0, 2.25, 2.5, 2.75, 3.0) + tuple(
    3.0 + 0.125 * i for i in range(1, 9)
)
# Scenarios per grid. "small" is the self-test size.
SCENARIOS = {
    "full": {"noon_sweep": 20, "oracle_validate": 5, "pv_stress": 4},
    "small": {"noon_sweep": 2, "oracle_validate": 1, "pv_stress": 1},
}
ORACLE_BOUND = 1e-3  # acceptance criterion 1: largest |dV1| in pu


@dataclass
class Inputs:
    workload: str
    config: RunConfig
    net: object
    attachments: list
    profile: object
    # pv_stress: the scaled scenario of every feeder, per case
    cases: list[list] = field(default_factory=list)
    generate_s: float = 0.0


def feeder_seed(seed: int, k: int) -> int:
    return int(np.random.SeedSequence([seed, k]).generate_state(1, np.uint64)[0])


def scaled(scenario, k: float):
    """The scenario with every PV rating multiplied by ``k``."""
    return replace(
        scenario,
        placements=tuple((node, phases, kw * k) for node, phases, kw in scenario.placements),
    )


def setup(workload: str, seed: int, size: str = "full") -> Inputs:
    """Parse the fixtures and draw the scenarios for the whole grid."""
    n = SCENARIOS[size][workload]
    levels = (100,) if workload == "pv_stress" else LEVELS
    cfg = RunConfig.bundled(
        levels=levels, n_scenarios=n, hours=(HOUR,), master_seed=seed, mode=MODES[workload]
    )
    driver.validate_config(cfg)
    net = load_network_file(cfg.network)
    profile = load_profile_file(cfg.profile)
    feeders = [load_feeder_file(path) for path, _ in cfg.feeders]
    attachments = [attach(net, bus, f) for (_, bus), f in zip(cfg.feeders, feeders)]
    t0 = time.perf_counter()
    drawn = [generate(f, list(levels), n, feeder_seed(seed, i)) for i, f in enumerate(feeders)]
    generate_s = time.perf_counter() - t0
    inputs = Inputs(workload, cfg, net, attachments, profile, generate_s=generate_s)
    if workload == "pv_stress":
        inputs.cases = [
            [scaled(per_feeder[sid], k) for per_feeder in drawn]
            for sid in range(n)
            for k in STRESS_K
        ]
    return inputs


@dataclass
class Round:
    """One pass over a workload's grid."""

    wall_s: float
    case_s: list[float]
    failures: list[tuple[str, str]]  # (side or layer, exception type) per failure
    failed: int  # cases that returned no solution
    unexpected: int  # failed cases that count as failed operations
    signature: object  # must repeat exactly across rounds
    problems: list[str]
    emit_bytes: int = 0
    kept: list = field(default_factory=list)  # pv_stress: converged cases for the checks


def _span(tracer, name, fn, *args, **kwargs):
    if tracer is None:
        return fn(*args, **kwargs)
    return tracer.call(name, fn, *args, **kwargs)


def _classify(exc: BaseException) -> str:
    return exc.side if isinstance(exc, CosimError) else type(exc).__name__


def _failure(where: str, exc: BaseException) -> tuple[str, str]:
    cause = exc.__cause__ if exc.__cause__ is not None else exc
    return where, type(cause).__name__


def warm_up(inputs: Inputs) -> None:
    """Run a few cases untimed so lazy imports and first calls are done."""
    if inputs.workload == "pv_stress":
        _stress_case(inputs, inputs.cases[0])
    else:
        driver.run(replace(inputs.config, levels=(LEVELS[0],), n_scenarios=1))


def run_round(inputs: Inputs, tracer=None, keep: bool = False) -> Round:
    if inputs.workload == "pv_stress":
        return _stress_round(inputs, tracer, keep)
    return _driver_round(inputs, tracer)


def _driver_round(inputs: Inputs, tracer) -> Round:
    cfg = inputs.config
    case_s: list[float] = []
    failures: list[tuple[str, str]] = []

    def timed_case(*args):
        t0 = time.perf_counter()
        try:
            if tracer is None:
                return safe_case(*args)
            tracer.case = len(case_s)
            return tracer.call("driver.case", safe_case, *args)
        finally:
            case_s.append(time.perf_counter() - t0)
            if tracer is not None:
                tracer.case = None

    def recorded(fn, where):
        def wrapper(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                failures.append(_failure(where or _classify(exc), exc))
                raise

        return wrapper

    # _safe_case is the driver's per-case entry point; it turns a failed case
    # into an error string, so the wrappers below see the exception first
    # and failures keep their side and type.
    safe_case = driver._safe_case
    originals = {"_safe_case": safe_case}
    driver._safe_case = timed_case
    for name, where in (("run_step", None), ("solve_unified", "unified")):
        if hasattr(driver, name):
            originals[name] = getattr(driver, name)
            setattr(driver, name, recorded(originals[name], where))
    out_dir = WORK / f"emit-{os.getpid()}"
    try:
        t0 = time.perf_counter()
        results = _span(tracer, "driver.run", driver.run, cfg)
        paths = driver.emit(results, out_dir) if inputs.workload == "noon_sweep" else {}
        wall_s = time.perf_counter() - t0
    finally:
        for name, fn in originals.items():
            setattr(driver, name, fn)

    problems = []
    records = list(results.baseline.values()) + results.records
    failed = [r for r in records if r.error is not None]
    for r in failed[:3]:
        problems.append(f"case ({r.scenario_id}, {r.level}) failed: {r.error}")
    over = [r for r in records if r.error is None and r.fpi_iterations > cfg.coupler.max_fpi]
    if over:
        problems.append(f"{len(over)} cases exceeded max_fpi")
    signature = None
    emit_bytes = 0
    if paths:
        signature = hashlib.sha256(paths["results"].read_bytes()).hexdigest()
        emit_bytes = sum(p.stat().st_size for p in paths.values())
        shutil.rmtree(out_dir)
    if cfg.mode == "both":
        diffs = [r.oracle_diff for r in records if r.error is None]
        signature = max(diffs, default=0.0)
        if not diffs or not signature < ORACLE_BOUND:
            problems.append(f"largest |dV1| {signature!r} pu is not below {ORACLE_BOUND}")
    return Round(
        wall_s=wall_s,
        case_s=case_s,
        failures=failures,
        failed=len(failed),
        unexpected=len(failed),
        signature=signature,
        problems=problems,
        emit_bytes=emit_bytes,
    )


def _stress_case(inputs: Inputs, scen):
    # Looked up on the module at call time, so a traced run sees the call.
    return coupler.run_step(
        inputs.net,
        inputs.attachments,
        HOUR,
        scen,
        inputs.config.coupler,
        profile=inputs.profile,
        solver_opts=inputs.config.solver,
    )


def _stress_round(inputs: Inputs, tracer, keep: bool) -> Round:
    case_s: list[float] = []
    failures: list[tuple[str, str]] = []
    outcomes = []
    kept = []
    unexpected = 0
    t_round = time.perf_counter()
    for cid, scen in enumerate(inputs.cases):
        t0 = time.perf_counter()
        try:
            if tracer is not None:
                tracer.case = cid
            result = _span(tracer, "bench.case", _stress_case, inputs, scen)
        except CosimError as exc:
            failures.append(_failure(exc.side, exc))
            outcomes.append(exc.side)
        except Exception as exc:
            # A stress case may fail, but only with a typed, located error.
            failures.append(_failure("untyped", exc))
            outcomes.append(type(exc).__name__)
            unexpected += 1
        else:
            outcomes.append(result.fpi_iterations)
            if keep:
                kept.append((scen, result))
        finally:
            case_s.append(time.perf_counter() - t0)
            if tracer is not None:
                tracer.case = None
    wall_s = time.perf_counter() - t_round
    problems = [f"{unexpected} cases failed without a CosimError"] if unexpected else []
    return Round(
        wall_s=wall_s,
        case_s=case_s,
        failures=failures,
        failed=len(failures),
        unexpected=unexpected,
        signature=tuple(outcomes),
        problems=problems,
        kept=kept,
    )


def check_stress(inputs: Inputs, kept) -> list[str]:
    """Every converged case must be a fixed point within the boundary tolerance."""
    opts = inputs.config.coupler
    worst = 0.0
    for scen, result in kept:
        shift = verify_fixed_point(
            inputs.net,
            inputs.attachments,
            result,
            opts,
            hour=HOUR,
            profile=inputs.profile,
            scenario_per_feeder=scen,
            solver_opts=inputs.config.solver,
        )
        worst = max(worst, shift)
    if worst > opts.tol_boundary:
        return [f"fixed-point shift {worst:.3e} exceeds tol_boundary {opts.tol_boundary}"]
    return []


def install_tracer(tracer) -> None:
    """Wrap the module attributes that pvcosim's callers look up."""

    def sweep(tr, args, kwargs, sol):
        tr.sample("sweep_iters", sol.iterations)

    def seq_ops(tr, args, kwargs, ops):
        tr.sample("seq_ops_network", hash(repr(args[0] if args else kwargs["net"])))

    def seq(tr, args, kwargs, sol):
        tr.sample("outer_passes", sol.iterations_outer)
        tr.sample("nr_iters", sol.iterations_nr)

    def step(tr, args, kwargs, res):
        tr.sample("fpi_iters", res.fpi_iterations)

    def oracle(tr, args, kwargs, sol):
        tr.sample("inner_iters", sol.iterations)

    tracer.wrap(coupler, "solve_feeder", "feeder.solve_feeder", sweep)
    tracer.wrap(coupler, "FeederOps", "feeder.FeederOps")
    tracer.wrap(coupler, "apply_scenario", "feeder.apply_scenario")
    tracer.wrap(coupler, "SequenceOps", "transmission.SequenceOps", seq_ops)
    tracer.wrap(coupler, "solve_three_sequence", "transmission.solve_three_sequence", seq)
    tracer.count(coupler, "ThreadPoolExecutor", "pools_created")
    tracer.wrap(transmission, "build_sequence_admittance", "network.build_sequence_admittance")
    tracer.wrap(driver, "run_step", "coupler.run_step", step)
    tracer.wrap(coupler, "run_step", "coupler.run_step", step)
    tracer.wrap(driver, "solve_unified", "unified.solve_unified", oracle)
    tracer.wrap(driver, "emit", "driver.emit")


def jobs_speedup(seed: int, size: str) -> float:
    """``noon_sweep`` wall time at ``jobs=1`` over wall time at ``jobs=2``,
    never with more worker processes than usable cores."""
    cfg = setup("noon_sweep", seed, size).config
    jobs = min(2, len(os.sched_getaffinity(0)))
    t0 = time.perf_counter()
    driver.run(cfg)
    t1 = time.perf_counter()
    driver.run(replace(cfg, jobs=jobs))
    t2 = time.perf_counter()
    return (t1 - t0) / (t2 - t1)
