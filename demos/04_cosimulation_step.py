"""One co-simulation time step, boundary iteration by boundary iteration.

Attaches three copies of the bundled feeder to the nine-bus system,
runs the fixed-point exchange at 40% PV penetration, and prints the
boundary variables as they settle.
"""

from pvcosim import (
    attach,
    data_path,
    generate,
    load_feeder_file,
    load_network_file,
    load_profile_file,
    run_step,
    verify_fixed_point,
)

net = load_network_file(data_path("ieee9.json"))
feeder = load_feeder_file(data_path("desk13.json"))
profile = load_profile_file(data_path("pv_profile.json"))

attachments = [attach(net, bus, feeder) for bus in (5, 6, 8)]
scenarios = [generate(feeder, [40], 1, master_seed=k)[0] for k in range(3)]
print("PV deployments at 40% penetration:")
for att, s in zip(attachments, scenarios):
    nodes = ", ".join(n for n, _p, _r in s.placements)
    total = sum(r for _n, _p, r in s.placements)
    print(f"  bus {att.bus}: {len(s.placements)} units ({total / 1e3:.1f} MW) at {nodes}")

result = run_step(net, attachments, hour=12, scenario_per_feeder=scenarios, profile=profile)

print(f"\nconverged in {result.fpi_iterations} boundary iterations")
print(f"{'iter':>4} {'error':>10}   per-PCC total P (pu)          per-PCC |V| phase a")
for k, state in enumerate(result.boundary_history):
    err = "" if state.error is None else f"{state.error:.2e}"
    p = "  ".join(f"{row.real.sum():+0.4f}" for row in state.s_phase)
    v = "  ".join(f"{abs(row[0]):.5f}" for row in state.v_phase)
    print(f"{k:>4} {err:>10}   {p}   {v}")

sol = result.seq_solution
print(f"\nslack power: {sol.slack_power_pu.real:+.4f} pu "
      f"({'absorbing' if sol.slack_power_pu.real < 0 else 'generating'})")

shift = verify_fixed_point(net, attachments, result,
                           hour=12, profile=profile, scenario_per_feeder=scenarios)
print(f"fixed-point certificate: re-solving both sides moves boundary "
      f"variables by {shift:.2e} pu at most")
