"""Unbalanced feeder power flow with the forward-backward sweep.

Solves the bundled 13-node feeder at nominal voltage, prints the
per-phase voltage profile, then drops a large PV unit mid-feeder and
watches the head power reverse.
"""

import numpy as np

from pvcosim import data_path, load_feeder_file, load_profile_file, solve_feeder
from pvcosim.feeder import FeederOps, scenario_loads
from pvcosim.scenarios import PvScenario
from pvcosim.sequences import phases_from_sequences

feeder = load_feeder_file(data_path("desk13.json"))
ops = FeederOps(feeder)  # node indexing and sweep matrices, built once
profile = load_profile_file(data_path("pv_profile.json"))
print(f"feeder: {len(feeder.nodes)} nodes at {feeder.kv_base} kV, "
      f"{len(feeder.customers())} customers, peak {feeder.peak_kw / 1e3:.1f} MW\n")

source = phases_from_sequences(0.0, 1.0, 0.0)  # balanced 1.0 pu at the PCC
sol = solve_feeder(ops, source)
print(f"swept to convergence in {sol.iterations} iterations")
print(f"{'node':>6} {'|Va|':>8} {'|Vb|':>8} {'|Vc|':>8}   (pu)")
vm = np.abs(sol.v_pu())
for i, nid in enumerate(sol.node_ids):
    cells = [
        f"{vm[i, k]:8.4f}" if sol.phase_mask[i, k] else "       -"
        for k in range(3)
    ]
    print(f"{nid:>6} {' '.join(cells)}")

s = sol.pcc_power_kw
print(f"\nhead power per phase (kW): "
      f"{s[0].real:9.1f}  {s[1].real:9.1f}  {s[2].real:9.1f}")
print(f"total: {s.sum().real / 1e3:.2f} MW, {s.sum().imag / 1e3:.2f} Mvar")

print("\n--- 30 MW of PV at node 671, solar noon ---")
scen = PvScenario(scenario_id=0, penetration_pct=10, placements=(("671", "abc", 30000.0),))
sol_pv = solve_feeder(ops, source, loads=scenario_loads(ops, scen, 12, profile))
s = sol_pv.pcc_power_kw
print(f"head power per phase (kW): "
      f"{s[0].real:9.1f}  {s[1].real:9.1f}  {s[2].real:9.1f}")
print(f"total: {s.sum().real / 1e3:.2f} MW "
      f"({'reverse flow into the grid' if s.sum().real < 0 else 'still importing'})")

print("\n--- same unit at dawn (hour 7) ---")
s = solve_feeder(ops, source, loads=scenario_loads(ops, scen, 7, profile)).pcc_power_kw
print(f"total: {s.sum().real / 1e3:.2f} MW "
      f"(profile factor {profile.value(7)})")
