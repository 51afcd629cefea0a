"""Penetration-sweep orchestration, summary metrics and file outputs.

``run`` drives the co-simulation (and optionally the unified solve)
over a (scenario, level, hour) grid, isolating per-run failures, and
returns a ``ResultSet`` whose CSV/JSON emission is bit-reproducible for
a fixed configuration and master seed. Each record keeps its case's
boundary history, failed cases included, and ``emit`` writes the
iteration trace from it. Wall-clock timings are kept out of
``results.csv`` and ``aggregates.json`` (they go to the trace) so
replays compare byte-for-byte.
"""

from __future__ import annotations

import csv
import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import data_path
from .coupler import (
    BoundaryState,
    CoSimOptions,
    CosimNonConvergenceError,
    attach,
    run_step,
    step_ops,
)
from .feeder import load_feeder_file
from .network import load_network_file
from .scenarios import PvScenario, feeder_seed, generate, load_profile_file, validate_draw
from .sequences import A_ANA, unbalance_factor
from .transmission import SolverOptions, branch_flows
from .unified import UnifiedOps, UnifiedSolution, compare, solve_unified

__all__ = [
    "RunConfig",
    "RunRecord",
    "ResultSet",
    "run",
    "detect_reverse_flow",
    "emit",
    "oracle_rows",
]


@dataclass(frozen=True)
class RunConfig:
    network: str
    feeders: tuple[tuple[str, int], ...]  # (feeder file, PCC bus)
    profile: str
    levels: tuple[int, ...] = tuple(range(10, 101, 10))
    n_scenarios: int = 1
    hours: tuple[int, ...] = (12,)
    master_seed: int = 1
    mode: str = "cosim"  # cosim | oracle | both
    out_dir: str = "out"
    scenario_mode: str = "incremental"
    jobs: int = 1
    solver: SolverOptions = field(default_factory=SolverOptions)
    coupler: CoSimOptions = field(default_factory=CoSimOptions)

    @staticmethod
    def bundled(**overrides) -> "RunConfig":
        """Configuration wired to the packaged desk-scale fixtures."""
        base = dict(
            network=str(data_path("ieee9.json")),
            feeders=(
                (str(data_path("desk13.json")), 5),
                (str(data_path("desk13.json")), 6),
                (str(data_path("desk13.json")), 8),
            ),
            profile=str(data_path("pv_profile.json")),
        )
        base.update(overrides)
        return RunConfig(**base)

    @staticmethod
    def from_file(path) -> "RunConfig":
        """Read a JSON configuration. A missing required key, or any unknown
        key or option, is a ``ValueError`` that names it."""
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
        base = Path(path).parent

        def required(doc, key, where):
            if key not in doc:
                raise ValueError(f"{where} lacks the required key {key!r}")
            return doc[key]

        def resolve(p):
            q = Path(p)
            return str(q if q.is_absolute() else base / q)

        def known(doc, names, what):
            unknown = sorted(set(doc) - set(names))
            if unknown:
                raise ValueError(f"unknown {what} {unknown[0]!r}")
            return doc

        def options(key, cls):
            return cls(**known(raw[key], [f.name for f in fields(cls)], f"{key} option"))

        known(raw, [f.name for f in fields(RunConfig)], "configuration key")
        feeders = []
        for i, f in enumerate(required(raw, "feeders", "configuration")):
            where = f"feeder {i}"
            known(f, ("path", "bus"), f"{where} key")
            feeders.append((resolve(required(f, "path", where)), int(required(f, "bus", where))))
        kwargs = dict(
            network=resolve(required(raw, "network", "configuration")),
            feeders=tuple(feeders),
            profile=resolve(required(raw, "profile", "configuration")),
        )
        for key in ("levels", "hours"):
            if key in raw:
                kwargs[key] = tuple(int(x) for x in raw[key])
        for key in ("n_scenarios", "master_seed", "jobs"):
            if key in raw:
                kwargs[key] = int(raw[key])
        for key in ("mode", "out_dir", "scenario_mode"):
            if key in raw:
                kwargs[key] = str(raw[key])
        if "solver" in raw:
            kwargs["solver"] = options("solver", SolverOptions)
        if "coupler" in raw:
            kwargs["coupler"] = options("coupler", CoSimOptions)
        cfg = RunConfig(**kwargs)
        validate_config(cfg)
        return cfg


def validate_config(cfg: RunConfig) -> None:
    if not cfg.levels:
        raise ValueError("levels must be non-empty")
    if not cfg.hours:
        raise ValueError("hours must be non-empty")
    if cfg.mode not in ("cosim", "oracle", "both"):
        raise ValueError(f"unknown mode {cfg.mode!r}")
    if not all(0 <= h <= 23 for h in cfg.hours):
        raise ValueError(f"hours must lie in 0..23, got {cfg.hours}")
    if cfg.n_scenarios < 0:
        raise ValueError(f"n_scenarios must not be negative, got {cfg.n_scenarios}")
    validate_draw(cfg.levels, cfg.scenario_mode)
    for p in [cfg.network, cfg.profile] + [f for f, _ in cfg.feeders]:
        if not Path(p).exists():
            raise FileNotFoundError(f"configured file missing: {p}")


@dataclass
class RunRecord:
    scenario_id: int
    level: int
    hour: int
    v_phase: np.ndarray  # (n_att, 3) complex pu
    s_phase: np.ndarray  # (n_att, 3) complex pu
    vuf: tuple[float, ...]
    slack_p: float
    slack_q: float
    flow_signs: dict[tuple[int, int], int]
    fpi_iterations: int
    wall_ms: float
    oracle_v1: tuple[complex, ...] | None = None
    oracle_diff: float | None = None
    error: str | None = None
    boundary_history: tuple[BoundaryState, ...] = ()  # the co-simulation's, for the trace


@dataclass
class ResultSet:
    config: RunConfig
    records: list[RunRecord]
    baseline: dict[int, RunRecord]  # hour -> no-PV record

    @property
    def buses(self) -> tuple[int, ...]:
        """The configured feeders' PCC buses: the rows of each record's arrays."""
        return tuple(bus for _, bus in self.config.feeders)

    def aggregates(self) -> dict:
        """Per-level means recomputed from the raw records, plus the
        per-PCC voltage-trend classification across levels."""
        out: dict = {"levels": {}, "n_scenarios": self.config.n_scenarios}
        ok = [r for r in self.records if r.error is None]
        levels = sorted({r.level for r in ok})
        for level in levels:
            sel = [r for r in ok if r.level == level]
            per_pcc = {}
            for i, bus in enumerate(self.buses):
                vmag = np.array([np.abs(r.v_phase[i]) for r in sel])
                p = np.array([r.s_phase[i].real for r in sel])
                vufs = np.array([r.vuf[i] for r in sel])
                per_pcc[str(bus)] = {
                    "mean_v": [float(x) for x in vmag.mean(axis=0)],
                    "mean_p": [float(x) for x in p.mean(axis=0)],
                    "vuf_mean": float(vufs.mean()),
                    "vuf_max": float(vufs.max()),
                }
            out["levels"][str(level)] = {
                "mean_fpi": float(np.mean([r.fpi_iterations for r in sel])),
                "n_records": len(sel),
                "pcc": per_pcc,
            }
        if ok and len(levels) >= 3:
            out["voltage_trend"] = {}
            for bus in map(str, self.buses):
                series = [
                    float(np.mean(out["levels"][str(lv)]["pcc"][bus]["mean_v"]))
                    for lv in levels
                ]
                peak = int(np.argmax(series))
                if peak < len(series) - 1 and series[-1] < series[peak] - 1e-9:
                    trend = "rises_then_falls"
                    peak_level = levels[peak]
                else:
                    trend = "monotonic_rise" if series[-1] >= series[0] else "falls"
                    peak_level = levels[-1] if trend == "monotonic_rise" else levels[0]
                out["voltage_trend"][bus] = {"trend": trend, "peak_level": peak_level}
        return out


class _Runner:
    """Loads models once and executes individual (scenario, level, hour) cases."""

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        self.net = load_network_file(cfg.network)
        self.profile = load_profile_file(cfg.profile)
        parsed = {p: load_feeder_file(p) for p in dict.fromkeys(p for p, _ in cfg.feeders)}
        self.feeders = [parsed[path] for path, _ in cfg.feeders]
        self.attachments = [
            attach(self.net, bus, f) for (_, bus), f in zip(cfg.feeders, self.feeders)
        ]
        # The co-simulation's operators, built here so that no case builds
        # them (the cases find them in step_ops' cache); oracle mode runs
        # none of it.
        if cfg.mode != "oracle":
            step_ops(self.net, self.attachments)
        self._unified_ops: UnifiedOps | None = None
        # Only PV cases draw scenarios, so a baseline-only run (n_scenarios=0)
        # also accepts a feeder without customers.
        self.scenarios: list[dict[tuple[int, int], PvScenario]] = []
        for k, f in enumerate(self.feeders):
            seed = feeder_seed(cfg.master_seed, k)
            drawn = (
                generate(f, list(cfg.levels), cfg.n_scenarios, seed, cfg.scenario_mode)
                if cfg.n_scenarios
                else []
            )
            self.scenarios.append({(s.scenario_id, s.penetration_pct): s for s in drawn})

    def oracle(self, hour: int, scen) -> UnifiedSolution:
        """The unified solve of one case. Its topology is built on first use,
        inside the case, and kept for the run: a network the oracle rejects
        fails each case that asks for it, not the whole run."""
        if self._unified_ops is None:
            self._unified_ops = UnifiedOps(self.net, self.attachments)
        return solve_unified(
            self.net, self.attachments, hour, scen, profile=self.profile, ops=self._unified_ops
        )

    def scenario_list(self, sid: int, level: int) -> list[PvScenario | None]:
        if level == 0:
            return [None] * len(self.attachments)
        return [tab[(sid, level)] for tab in self.scenarios]

    def run_case(self, sid: int, level: int, hour: int) -> RunRecord:
        cfg = self.cfg
        t0 = time.perf_counter()
        scen = self.scenario_list(sid, level)

        if cfg.mode == "oracle":
            us = self.oracle(hour, scen)
            return RunRecord(
                scenario_id=sid,
                level=level,
                hour=hour,
                v_phase=us.pcc_voltage.copy(),
                s_phase=us.pcc_power.copy(),
                vuf=tuple(unbalance_factor(v) for v in us.pcc_voltage),
                slack_p=float(us.slack_power_pu.real),
                slack_q=float(us.slack_power_pu.imag),
                flow_signs={},
                fpi_iterations=0,
                wall_ms=(time.perf_counter() - t0) * 1e3,
                oracle_v1=tuple(us.positive_sequence(a.bus) for a in self.attachments),
            )

        result = run_step(
            self.net,
            self.attachments,
            hour,
            scen,
            cfg.coupler,
            profile=self.profile,
            solver_opts=cfg.solver,
        )
        wall_ms = (time.perf_counter() - t0) * 1e3

        sol = result.seq_solution
        final = result.final_boundary
        vuf = tuple(unbalance_factor(v) for v in final.v_phase)
        flows = branch_flows(sol, self.net, ops=step_ops(self.net, self.attachments).seq)
        signs = {key: (1 if f[:, 0].real.sum() >= 0 else -1) for key, f in flows.items()}
        record = RunRecord(
            scenario_id=sid,
            level=level,
            hour=hour,
            v_phase=final.v_phase.copy(),
            s_phase=final.s_phase.copy(),
            vuf=vuf,
            slack_p=float(sol.slack_power_pu.real),
            slack_q=float(sol.slack_power_pu.imag),
            flow_signs=signs,
            fpi_iterations=result.fpi_iterations,
            wall_ms=wall_ms,
            boundary_history=result.boundary_history,
        )
        if cfg.mode == "both":
            # A failed oracle fails the case but keeps the co-simulation's results.
            try:
                us = self.oracle(hour, scen)
                rep = compare(result, us, self.attachments)
            except Exception as exc:
                record.error = _error_text(exc)
            else:
                record.oracle_v1 = tuple(r["v_unified"] for r in rep["per_pcc"])
                record.oracle_diff = float(rep["max_diff"])

        return record


def _error_text(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _safe_case(runner: _Runner, sid: int, level: int, hour: int) -> RunRecord:
    """Run one case under per-run isolation: failures become error records,
    which keep the boundary history of a co-simulation that did not converge."""
    t0 = time.perf_counter()
    try:
        return runner.run_case(sid, level, hour)
    except Exception as exc:
        return RunRecord(
            scenario_id=sid,
            level=level,
            hour=hour,
            v_phase=np.zeros((len(runner.attachments), 3), dtype=complex),
            s_phase=np.zeros((len(runner.attachments), 3), dtype=complex),
            vuf=tuple(0.0 for _ in runner.attachments),
            slack_p=0.0,
            slack_q=0.0,
            flow_signs={},
            fpi_iterations=0,
            wall_ms=(time.perf_counter() - t0) * 1e3,
            error=_error_text(exc),
            boundary_history=exc.history if isinstance(exc, CosimNonConvergenceError) else (),
        )


def _run_chunk(cfg: RunConfig, cases: list[tuple[int, int, int]]):
    runner = _Runner(cfg)
    return [_safe_case(runner, sid, level, hour) for sid, level, hour in cases]


def run(config: RunConfig) -> ResultSet:
    """Execute the configured sweep; failures are recorded, not raised."""
    validate_config(config)
    runner = _Runner(config)

    # No-PV baseline per hour anchors reverse-flow detection. A failed
    # baseline is recorded like any other failed run; when its
    # co-simulation failed it has no flow signs, and reverse-flow flags
    # then fall back to "no reference, no flag".
    baseline = {hour: _safe_case(runner, 0, 0, hour) for hour in config.hours}

    cases = [
        (sid, level, hour)
        for sid in range(config.n_scenarios)
        for level in config.levels
        for hour in config.hours
    ]
    if config.jobs > 1 and len(cases) > 1:
        chunks = [cases[i :: config.jobs] for i in range(config.jobs)]
        records = []
        with ProcessPoolExecutor(max_workers=config.jobs) as pool:
            for part in pool.map(_run_chunk, [config] * len(chunks), chunks):
                records.extend(part)
    else:
        records = [_safe_case(runner, sid, level, hour) for sid, level, hour in cases]

    records.sort(key=lambda r: (r.scenario_id, r.level, r.hour))
    return ResultSet(config=config, records=records, baseline=baseline)


def detect_reverse_flow(results: ResultSet) -> dict[tuple[int, int, int], dict]:
    """Flag sign flips against the no-PV baseline, plus slack absorption."""
    flags: dict[tuple[int, int, int], dict] = {}
    for rec in results.records:
        if rec.error is not None:
            continue
        base = results.baseline[rec.hour]
        flipped = tuple(
            sorted(
                key
                for key, sign in rec.flow_signs.items()
                if base.flow_signs.get(key, sign) != sign
            )
        )
        flags[(rec.scenario_id, rec.level, rec.hour)] = {
            "reversed_branches": flipped,
            "slack_absorbing": rec.slack_p < 0,
        }
    return flags


def oracle_rows(results: ResultSet):
    """Yield ``(record, bus, v1_cosim, v1_oracle)`` per PCC for every case
    solved by both models, the no-PV baselines first. The positive-sequence
    voltages are complex pu; ``v1_cosim`` comes from the record's phase
    voltages."""
    for rec in [*results.baseline.values(), *results.records]:
        if rec.oracle_diff is None:
            continue
        for i, bus in enumerate(results.buses):
            yield rec, bus, (A_ANA @ rec.v_phase[i])[1], rec.oracle_v1[i]


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def c_str(x: complex) -> str:
    return f"{x.real:.10g}{x.imag:+.10g}j"


def emit(results: ResultSet, out_dir) -> dict[str, Path]:
    """Write results.csv, aggregates.json, trace.jsonl and plot data, plus
    compare.csv in ``both`` mode."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    flags = detect_reverse_flow(results)

    header = ["scenario", "level", "hour", "error", "fpi_iterations", "slack_p", "slack_q"]
    for bus in results.buses:
        for ph in "abc":
            header += [
                f"v{bus}_{ph}_mag",
                f"v{bus}_{ph}_ang_deg",
                f"p{bus}_{ph}",
                f"q{bus}_{ph}",
            ]
        header.append(f"vuf{bus}")
    header += ["reversed_branches", "slack_absorbing", "oracle_diff"]

    rows = []
    for rec in results.records:
        row = [
            str(rec.scenario_id),
            str(rec.level),
            str(rec.hour),
            rec.error or "",
            str(rec.fpi_iterations),
            _fmt(rec.slack_p),
            _fmt(rec.slack_q),
        ]
        for v_row, s_row, vuf in zip(rec.v_phase, rec.s_phase, rec.vuf):
            for v, s in zip(v_row, s_row):
                row += [
                    _fmt(abs(v)),
                    _fmt(float(np.degrees(np.angle(v)))),
                    _fmt(s.real),
                    _fmt(s.imag),
                ]
            row.append(_fmt(vuf))
        fl = flags.get((rec.scenario_id, rec.level, rec.hour), {})
        row.append(
            ";".join(f"{a}-{b}" for a, b in fl.get("reversed_branches", ()))
        )
        row.append("1" if fl.get("slack_absorbing") else "0")
        row.append("" if rec.oracle_diff is None else _fmt(rec.oracle_diff))
        rows.append(row)

    results_csv = out / "results.csv"
    with open(results_csv, "w", encoding="utf-8", newline="") as fh:
        # Minimal quoting: a comma in an error message stays in its column.
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)

    agg = results.aggregates()
    aggregates_json = out / "aggregates.json"
    with open(aggregates_json, "w", encoding="utf-8") as fh:
        json.dump(agg, fh, indent=1, sort_keys=True)

    trace_jsonl = out / "trace.jsonl"
    with open(trace_jsonl, "w", encoding="utf-8") as fh:
        for rec in [*results.baseline.values(), *results.records]:
            for st in rec.boundary_history:
                row = {
                    "scenario": rec.scenario_id,
                    "level": rec.level,
                    "hour": rec.hour,
                    "fpi": st.iteration,
                    "v": [[c_str(x) for x in r] for r in st.v_phase],
                    "s": [[c_str(x) for x in r] for r in st.s_phase],
                    "err": st.error,
                    "wall_ms": round(rec.wall_ms, 3),
                }
                fh.write(json.dumps(row, sort_keys=True) + "\n")

    plot_v = out / "plot_voltage.csv"
    with open(plot_v, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("level,bus,phase,mean_v\n")
        for level, ldata in sorted(agg["levels"].items(), key=lambda kv: int(kv[0])):
            for bus, bdata in sorted(ldata["pcc"].items(), key=lambda kv: int(kv[0])):
                for k, ph in enumerate("abc"):
                    fh.write(f"{level},{bus},{ph},{_fmt(bdata['mean_v'][k])}\n")

    plot_it = out / "plot_iterations.csv"
    with open(plot_it, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("level,mean_fpi\n")
        for level, ldata in sorted(agg["levels"].items(), key=lambda kv: int(kv[0])):
            fh.write(f"{level},{_fmt(ldata['mean_fpi'])}\n")

    paths = {
        "results": results_csv,
        "aggregates": aggregates_json,
        "trace": trace_jsonl,
        "plot_voltage": plot_v,
        "plot_iterations": plot_it,
    }
    if results.config.mode == "both":
        paths["compare"] = out / "compare.csv"
        with open(paths["compare"], "w", encoding="utf-8", newline="\n") as fh:
            fh.write("scenario,level,hour,bus,v_cosim,v_unified,diff\n")
            for rec, bus, v_cs, v_us in oracle_rows(results):
                fh.write(
                    f"{rec.scenario_id},{rec.level},{rec.hour},{bus},{_fmt(abs(v_cs))},"
                    f"{_fmt(abs(v_us))},{_fmt(abs(v_cs - v_us))}\n"
                )
    return paths
