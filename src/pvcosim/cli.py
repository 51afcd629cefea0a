"""Command-line interface: run sweeps, compare models, validate inputs."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .driver import RunConfig, emit, oracle_rows, run, validate_config
from .feeder import load_feeder_file
from .network import load_network_file
from .scenarios import load_profile_file
from .unified import AGREEMENT_PU


def _load_config(args) -> RunConfig:
    cfg = RunConfig.from_file(args.config) if args.config else RunConfig.bundled()
    if getattr(args, "seed", None) is not None:
        cfg = replace(cfg, master_seed=args.seed)
    if getattr(args, "levels", None):
        cfg = replace(cfg, levels=tuple(int(x) for x in args.levels.split(",")))
    if getattr(args, "scenarios", None) is not None:
        cfg = replace(cfg, n_scenarios=args.scenarios)
    if getattr(args, "hours", None):
        cfg = replace(cfg, hours=tuple(int(x) for x in args.hours.split(",")))
    if getattr(args, "mode", None):
        cfg = replace(cfg, mode=args.mode)
    if getattr(args, "out", None):
        cfg = replace(cfg, out_dir=args.out)
    if getattr(args, "jobs", None) is not None:
        cfg = replace(cfg, jobs=args.jobs)
    validate_config(cfg)
    return cfg


def _cmd_run(cfg: RunConfig) -> int:
    results = run(cfg)
    paths = emit(results, cfg.out_dir)
    failed = [r for r in results.records if r.error is not None]
    print(f"completed {len(results.records)} runs ({len(failed)} failed)")
    for name, p in paths.items():
        print(f"  {name}: {p}")
    return 0 if not failed else 1


def _cmd_compare(cfg: RunConfig) -> int:
    results = run(replace(cfg, mode="both"))
    paths = emit(results, cfg.out_dir)
    failed = [r for r in [*results.baseline.values(), *results.records] if r.error]
    print(
        f"{'scen':>4} {'level':>5} {'hour':>4} {'bus':>4} "
        f"{'cosim':>9} {'unified':>9} {'diff':>11}"
    )
    worst = 0.0
    for rec, bus, v_cs, v_us in oracle_rows(results):
        diff = abs(v_cs - v_us)
        worst = max(worst, diff)
        print(
            f"{rec.scenario_id:>4} {rec.level:>5} {rec.hour:>4} {bus:>4} "
            f"{abs(v_cs):>9.4f} {abs(v_us):>9.4f} {diff:>11.3e}"
        )
    for rec in failed:
        print(f"case ({rec.scenario_id}, {rec.level}, {rec.hour}) failed: {rec.error}")
    print(f"max positive-sequence PCC difference: {worst:.3e} pu")
    print(f"wrote {paths['compare']}")
    return 0 if not failed and worst < AGREEMENT_PU else 1


def _cmd_validate(cfg: RunConfig) -> int:
    net = load_network_file(cfg.network)
    print(f"network: {len(net.buses)} buses, {len(net.branches)} branches, "
          f"{len(net.generators)} generators [ok]")
    for path, bus in cfg.feeders:
        f = load_feeder_file(path)
        print(f"feeder at bus {bus}: {len(f.nodes)} nodes, "
              f"{len(f.customers())} customers, peak {f.peak_kw:.0f} kW [ok]")
    profile = load_profile_file(cfg.profile)
    print(f"profile '{profile.name}': daily energy {profile.daily_energy_per_kw():.2f} kWh/kW [ok]")

    hour = cfg.hours[0]
    results = run(replace(cfg, mode="both", n_scenarios=0, hours=(hour,)))
    base = results.baseline[hour]
    if base.error:
        print(f"no-PV base case failed: {base.error}")
        print("FAIL")
        return 1
    print(f"no-PV base case: {base.fpi_iterations} boundary iterations")
    for _rec, bus, v_cs, v_us in oracle_rows(results):
        print(
            f"  bus {bus}: cosim {abs(v_cs):.4f} pu, "
            f"unified {abs(v_us):.4f} pu, diff {abs(v_cs - v_us):.2e}"
        )
    passed = base.oracle_diff < AGREEMENT_PU
    print(f"max difference {base.oracle_diff:.2e} pu "
          f"({'PASS' if passed else 'FAIL'} at {AGREEMENT_PU} pu)")
    return 0 if passed else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pvcosim",
        description="Transmission-distribution co-simulation PV penetration studies",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="run configuration file (JSON); bundled fixtures if omitted")
    common.add_argument("--seed", type=int, help="master seed override")
    common.add_argument("--levels", help="comma-separated penetration levels")
    common.add_argument("--scenarios", type=int, help="scenarios per level")
    common.add_argument("--hours", help="comma-separated hours (0-23)")
    common.add_argument("--mode", choices=["cosim", "oracle", "both"])
    common.add_argument("--out", help="output directory")
    common.add_argument("--jobs", type=int, help="parallel worker processes")

    p_run = sub.add_parser("run", parents=[common], help="execute the configured sweep")
    p_run.set_defaults(func=_cmd_run)

    p_cmp = sub.add_parser(
        "compare", parents=[common], help="co-simulation vs unified model over the grid"
    )
    p_cmp.set_defaults(func=_cmd_compare)

    p_val = sub.add_parser(
        "validate", parents=[common], help="validate inputs and check the no-PV base case"
    )
    p_val.set_defaults(func=_cmd_validate)

    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args)
    except (ValueError, FileNotFoundError) as exc:
        # A rejected configuration is a usage error, reported as argparse does.
        print(f"{parser.prog} {args.command}: error: {exc}", file=sys.stderr)
        return 2
    return args.func(cfg)


if __name__ == "__main__":
    sys.exit(main())
