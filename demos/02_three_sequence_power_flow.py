"""Three-sequence transmission power flow on the bundled nine-bus system.

Solves the balanced base case, then repeats with a deliberately
unbalanced constant-power load at the three load buses and shows how the
negative-sequence voltage responds.
"""

import numpy as np

from pvcosim import (
    branch_flows,
    data_path,
    load_network_file,
    solve_three_sequence,
)

net = load_network_file(data_path("ieee9.json"))
print(f"network: {len(net.buses)} buses, {len(net.branches)} branches, "
      f"{len(net.generators)} generators\n")

sol = solve_three_sequence(net)
print("balanced three-sequence solve (degenerates to one sequence; chord steps")
print("once a step contracts 20-fold):")
print(f"  converged in {sol.iterations_nr} Newton steps, "
      f"final mismatch {sol.max_mismatch:.2e} pu")
print(f"  max |V0| {abs(sol.v0).max():.1e}, max |V2| {abs(sol.v2).max():.1e}")
print(f"  slack power {sol.slack_power_pu.real:+.4f} {sol.slack_power_pu.imag:+.4f}j pu")

print(f"\n{'bus':>4} {'|V1|':>8} {'angle':>8}")
for i, b in enumerate(net.buses):
    print(f"{b.id:>4} {abs(sol.v1[i]):>8.4f} {np.degrees(np.angle(sol.v1[i])):>8.3f}")

# 2% load unbalance at every load bus
pcc = {}
for b in net.buses:
    if b.load_p:
        s = complex(b.load_p, b.load_q) / 3
        pcc[b.id] = np.array([1.02 * s, s, 0.98 * s]) - s
unb = solve_three_sequence(net, pcc)
print(f"\nwith 2% per-phase load unbalance at the load buses "
      f"({unb.iterations_nr} Newton steps for all three sequences):")
print(f"{'bus':>4} {'|V1|':>8} {'|V2|':>10} {'vuf %':>8}")
for i, b in enumerate(net.buses):
    vuf = 100 * abs(unb.v2[i]) / abs(unb.v1[i])
    print(f"{b.id:>4} {abs(unb.v1[i]):>8.4f} {abs(unb.v2[i]):>10.2e} {vuf:>8.3f}")

print("\nper-sequence active flow on branch 4-5 (from end):")
flows = branch_flows(unb, net)[(4, 5)]
for name, row in zip(("zero", "positive", "negative"), flows):
    print(f"  {name:>8}: {row[0].real:+.5f} pu")
