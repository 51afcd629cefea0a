import json
from dataclasses import replace

import numpy as np
import pytest

from pvcosim import generate, load_feeder, solve_feeder
from pvcosim.feeder import FeederDataError, FeederOps, FeederSolveError, forest, scenario_loads
from pvcosim.scenarios import GenerationProfile, PvScenario
from pvcosim.sequences import phases_from_sequences

from .conftest import constant_load_feeder, small_feeder
from .oracles import (
    feeder_nodal_solve,
    fold_scenario,
    tree_walk_sweep,
    two_bus_constant_power,
)

BAL = phases_from_sequences(0.0, 1.0, 0.0)

# Receiving-end voltage of the one-line fixture (2+4j ohm, 3000 kW +
# 1200 kvar, 34.5 kV), from the closed-form two-bus equation, frozen.
SMALL_FEEDER_V_END = 19348.392881366304 - 481.9619638452528j


def noon_profile(name="default"):
    f = [0.0] * 24
    f[12] = 1.0
    f[10] = 0.5
    return GenerationProfile(name=name, factors=tuple(f))


def test_bundled_feeder_shape(desk13):
    assert len(desk13.nodes) == 13
    assert len(desk13.lines) == 12
    assert desk13.root == "650"
    assert len(desk13.customers()) == 10
    assert desk13.peak_kw == pytest.approx(
        sum(sum(s.real for s in n.loads.values()) for n in desk13.nodes)
    )


def test_cycle_rejected():
    doc = json.loads(small_feeder())
    doc["lines"].append(
        {
            "from": "end",
            "to": "src",
            "z_abc": [[[0, 0]] * 3 for _ in range(3)],
        }
    )
    with pytest.raises(FeederDataError):
        load_feeder(json.dumps(doc))


def test_detached_cycle_rejected():
    doc = json.loads(small_feeder())
    doc["nodes"] += [{"id": "x", "phases": "abc"}, {"id": "y", "phases": "abc"}]
    zero = [[[0, 0]] * 3 for _ in range(3)]
    doc["lines"] += [{"from": "x", "to": "y", "z_abc": zero}, {"from": "y", "to": "x", "z_abc": zero}]
    with pytest.raises(FeederDataError, match="cycle"):
        load_feeder(json.dumps(doc))


def test_disconnected_node_rejected():
    doc = json.loads(small_feeder())
    doc["nodes"].append({"id": "orphan", "phases": "abc"})
    with pytest.raises(FeederDataError, match="one root"):
        load_feeder(json.dumps(doc))


def test_load_on_absent_phase_rejected():
    doc = json.loads(small_feeder())
    doc["nodes"][1]["loads"]["b"] = [100.0, 10.0]
    with pytest.raises(FeederDataError, match="absent phase"):
        load_feeder(json.dumps(doc))


def test_impedance_on_absent_phase_rejected():
    doc = json.loads(small_feeder())
    doc["lines"][0]["z_abc"][1][1] = [1.0, 1.0]
    with pytest.raises(FeederDataError, match="absent phase"):
        load_feeder(json.dumps(doc))


def test_child_phases_must_be_subset_of_parent():
    doc = json.loads(small_feeder())
    doc["nodes"][0]["phases"] = "ab"
    doc["nodes"].append({"id": "tail", "phases": "c"})
    doc["lines"].append(
        {"from": "end", "to": "tail", "z_abc": [[[0, 0]] * 3 for _ in range(3)]}
    )
    with pytest.raises(FeederDataError):
        load_feeder(json.dumps(doc))


def test_parse_error_reports_line():
    with pytest.raises(FeederDataError, match="line"):
        load_feeder("{\n nope\n}")


def test_single_node_feeder_is_valid():
    model = load_feeder(constant_load_feeder(1000.0, 300.0))
    assert len(model.nodes) == 1
    sol = solve_feeder(model, BAL)
    assert np.allclose(sol.pcc_power_kw.sum(), 1000 + 300j, atol=1e-9)


def test_zero_load_feeder_flat_voltage(desk13):
    stripped = json.loads((__import__("pvcosim").data_path("desk13.json")).read_text())
    for n in stripped["nodes"]:
        n.pop("loads", None)
    model = load_feeder(json.dumps(stripped))
    sol = solve_feeder(model, BAL)
    for i in range(len(sol.node_ids)):
        m = sol.phase_mask[i]
        assert np.allclose(sol.v[i][m], (BAL * model.v_ln_base)[m], atol=1e-9)
    assert np.allclose(sol.pcc_power_kw, 0, atol=1e-12)


def test_single_line_matches_closed_form():
    model = load_feeder(small_feeder())
    sol = solve_feeder(model, BAL, tol=1e-12)
    v_end = sol.voltage("end")[0]
    assert abs(v_end - SMALL_FEEDER_V_END) < 1e-6 * model.v_ln_base
    live = two_bus_constant_power(model.v_ln_base + 0j, 2 + 4j, (3000 + 1200j) * 1e3)
    assert abs(v_end - live) < 1e-6 * model.v_ln_base


def test_bundled_feeder_matches_nodal_oracle(desk13):
    sol = solve_feeder(desk13, BAL, tol=1e-10)
    ref = feeder_nodal_solve(desk13, BAL, tol=1e-12)
    worst = 0.0
    for i, nid in enumerate(sol.node_ids):
        node = desk13.nodes[i]
        for ph in node.phases:
            k = "abc".index(ph)
            worst = max(worst, abs(sol.v[i, k] - ref[(nid, ph)]) / desk13.v_ln_base)
    assert worst < 1e-6


@pytest.mark.parametrize(
    "level, source_v",
    [
        (None, BAL),
        (30, BAL),
        (100, BAL),
        (None, phases_from_sequences(0.01 + 0.005j, 1.02, 0.02 - 0.01j)),
    ],
    ids=["no_pv", "pv_30", "pv_100", "unbalanced_source"],
)
def test_sweep_matches_tree_walk_reference(desk13, profile, level, source_v):
    ops = FeederOps(desk13)
    model, loads = desk13, None
    if level is not None:
        scen = generate(desk13, [level], 1, master_seed=5)[0]
        model = fold_scenario(desk13, scen, 12, profile)
        loads = scenario_loads(ops, scen, 12, profile)
    sol = solve_feeder(ops, source_v, loads=loads)
    v_ref, currents_ref, head_ref, iterations_ref = tree_walk_sweep(model, source_v)

    assert sol.iterations == iterations_ref
    v_base = desk13.v_ln_base
    i_base = desk13.mva_base * 1e6 / 3 / v_base
    assert np.max(np.abs(sol.v - v_ref)) / v_base < 1e-12
    assert sol.line_currents.keys() == currents_ref.keys()
    for key, i_ref in currents_ref.items():
        assert np.max(np.abs(sol.line_currents[key] - i_ref)) / i_base < 1e-12
    assert np.max(np.abs(sol.head_current - head_ref)) / i_base < 1e-12


def assert_forest_matches_solo(parts, sources, loads, **kw):
    """A forest sweep returns, per feeder, the bytes and iteration count
    of that feeder's own solve."""
    both = solve_feeder(forest(parts), np.array(sources), loads=np.concatenate(loads), **kw)
    per_feeder = both.feeders()
    assert len(per_feeder) == len(parts)
    solos = [solve_feeder(ops, src, loads=ld, **kw) for ops, src, ld in zip(parts, sources, loads)]
    for got, solo in zip(per_feeder, solos):
        assert got.iterations == solo.iterations
        for name in ("v", "pcc_power_kw", "head_current"):
            assert getattr(got, name).tobytes() == getattr(solo, name).tobytes(), name
        assert got.line_currents.keys() == solo.line_currents.keys()
        for key, i in solo.line_currents.items():
            assert got.line_currents[key].tobytes() == i.tobytes()
    assert both.iterations == max(solo.iterations for solo in solos)
    return solos


def test_forest_matches_solo_desk13_copies(desk13, profile):
    parts = [FeederOps(desk13) for _ in range(3)]
    sources = [
        phases_from_sequences(0.01 + 0.005j, 1.02, 0.02 - 0.01j),
        phases_from_sequences(0.0, 0.97 - 0.03j, 0.01j),
        phases_from_sequences(-0.004, 1.05, -0.015),
    ]
    loads = [
        scenario_loads(ops, generate(desk13, [level], 1, master_seed=9)[0], 12, profile)
        for ops, level in zip(parts, (30, 70, 100))
    ]
    assert_forest_matches_solo(parts, sources, loads)


def test_forest_matches_solo_at_very_different_iteration_counts():
    # The slow feeder sits near its collapse point and needs far more
    # rounds than the heavy one, which stays frozen meanwhile.
    heavy = FeederOps(load_feeder(constant_load_feeder(150e3, 60e3)))
    slow = FeederOps(load_feeder(small_feeder(load_kw=2235.0, load_kvar=894.0, z_ohm=(20.0, 40.0))))
    sources = [phases_from_sequences(0.0, 1.0, 0.01), phases_from_sequences(0.0, 0.976, 0.0)]
    solos = assert_forest_matches_solo(
        [heavy, slow], sources, [heavy.loads, slow.loads], max_iter=400
    )
    assert solos[0].iterations < 5 and solos[1].iterations > 60


def at_kv(text: str, kv_base: float) -> str:
    doc = json.loads(text)
    doc["kv_base"] = kv_base
    return json.dumps(doc)


def test_forest_matches_solo_across_kv_bases(desk13):
    parts = [
        FeederOps(load_feeder(at_kv(small_feeder(load_kw=1000.0, load_kvar=400.0), 12.47))),
        FeederOps(desk13),
        FeederOps(load_feeder(at_kv(constant_load_feeder(1000.0, 300.0), 4.16))),
    ]
    assert len({ops.v_ln[0] for ops in parts}) == 3
    sources = [BAL, phases_from_sequences(0.0, 1.01, 0.02), 0.98 * BAL]
    assert_forest_matches_solo(parts, sources, [ops.loads for ops in parts], tol=1e-10)


def test_forest_source_shape(desk13):
    ops = FeederOps(desk13)
    two = forest([ops, ops])
    with pytest.raises(ValueError, match="per feeder"):
        solve_feeder(two, BAL)
    one = solve_feeder(forest([ops]), BAL[None, :])
    assert one.pcc_power_kw.shape == (1, 3)
    assert solve_feeder(ops, BAL).pcc_power_kw.tobytes() == one.pcc_power_kw[0].tobytes()


def test_warm_start_from_a_perturbed_solution_matches_cold(desk13, profile):
    # The start is a forest solution at other source voltages, its node
    # voltages perturbed by up to about 0.3 %; the warm sweep still lands
    # within the tolerance of the cold one, in fewer rounds.
    parts = [FeederOps(desk13), FeederOps(desk13)]
    ops = forest(parts)
    scen = generate(desk13, [80], 1, master_seed=5)[0]
    loads = np.concatenate([parts[0].loads, scenario_loads(parts[1], scen, 12, profile)])
    src = np.stack([phases_from_sequences(0.0, 1.03, 0.01), phases_from_sequences(0.002, 0.99, -0.01j)])
    tol = 1e-7
    cold = solve_feeder(ops, src, tol, loads=loads)
    before = solve_feeder(ops, 0.97 * src, tol, loads=loads)
    rng = np.random.default_rng(4)
    noise = 1e-3 * (rng.normal(size=before.v.shape) + 1j * rng.normal(size=before.v.shape))
    perturbed = replace(before, v=before.v * (1 + noise))
    warm = solve_feeder(ops, src, tol, loads=loads, start=perturbed)
    assert np.max(np.abs(warm.v_pu() - cold.v_pu())[ops.mask]) <= tol
    assert warm.iterations < cold.iterations


def test_forest_collapse_next_to_healthy_feeders(desk13):
    sick = FeederOps(load_feeder(small_feeder(load_kw=60000.0, load_kvar=30000.0)))
    ops = FeederOps(desk13)
    with pytest.raises(FeederSolveError, match="collapse|converge"):
        solve_feeder(forest([ops, sick, ops]), np.tile(BAL, (3, 1)))


def test_pcc_power_zero_load():
    model = load_feeder(constant_load_feeder(0.001, 0.0))
    # zero everything manually: single node, zero load not allowed by peak>0
    sol = solve_feeder(model, BAL)
    assert abs(sol.pcc_power_kw.sum().real - 0.001) < 1e-9


def test_reverse_flow_when_pv_exceeds_load():
    model = load_feeder(small_feeder(load_kw=1000.0, load_kvar=300.0))
    scen = PvScenario(0, 100, placements=(("end", "a", 5000.0),))
    ops = FeederOps(model)
    sol = solve_feeder(ops, BAL, loads=scenario_loads(ops, scen, 12, noon_profile()))
    assert sol.pcc_power_kw.sum().real < 0


def test_energy_audit(desk13, profile):
    scen = PvScenario(0, 50, placements=tuple(
        (n.id, "".join(sorted(n.loads)), 2000.0) for n in desk13.customers()[:5]
    ))
    ops = FeederOps(desk13)
    loads = scenario_loads(ops, scen, 12, profile)
    sol = solve_feeder(ops, BAL, tol=1e-10, loads=loads)

    net_load = loads.sum() * 1e3
    loss = 0j
    for ln in desk13.lines:
        i = sol.line_currents[(ln.from_node, ln.to_node)]
        vf = sol.voltage(ln.from_node)
        vt = sol.voltage(ln.to_node)
        loss += ((vf - vt) * np.conj(i)).sum()
    src = BAL * desk13.v_ln_base
    vroot = sol.voltage(desk13.root)
    loss += ((src - vroot) * np.conj(sol.head_current)).sum()

    audit = sol.pcc_power_kw.sum() * 1e3 - net_load - loss
    s_base = desk13.mva_base * 1e6
    assert abs(audit) / s_base < 1e-6


def test_kcl_at_every_node(desk13):
    sol = solve_feeder(desk13, BAL, tol=1e-10)
    children = {}
    for ln in desk13.lines:
        children.setdefault(ln.from_node, []).append(ln.to_node)
    i_base = desk13.mva_base * 1e6 / 3 / desk13.v_ln_base
    for i, node in enumerate(desk13.nodes):
        into = (
            sol.head_current
            if node.id == desk13.root
            else sol.line_currents[
                next((l.from_node, l.to_node) for l in desk13.lines if l.to_node == node.id)
            ]
        )
        out = np.zeros(3, dtype=complex)
        for ch in children.get(node.id, []):
            out += sol.line_currents[
                next((l.from_node, l.to_node) for l in desk13.lines if l.to_node == ch)
            ]
        load_i = np.zeros(3, dtype=complex)
        for ph, s_kw in node.loads.items():
            k = "abc".index(ph)
            load_i[k] = np.conj(s_kw * 1e3 / sol.v[i, k])
        residual = np.abs(into - out - load_i) / i_base
        assert residual.max() < 1e-6


def test_voltage_drop_consistency(desk13):
    sol = solve_feeder(desk13, BAL, tol=1e-10)
    nodes = {n.id: n for n in desk13.nodes}
    for ln in desk13.lines:
        vf = sol.voltage(ln.from_node)
        vt = sol.voltage(ln.to_node)
        i = sol.line_currents[(ln.from_node, ln.to_node)]
        drop = ln.z_matrix() @ i
        child = nodes[ln.to_node]
        for ph in child.phases:
            k = "abc".index(ph)
            assert abs((vf[k] - vt[k]) - drop[k]) <= 1e-9 * max(abs(vf[k]), 1.0)


def test_monotone_pv_response(desk13):
    ops = FeederOps(desk13)
    prev = np.inf
    for rating in (0.0, 1000.0, 2000.0, 4000.0):
        scen = PvScenario(0, 10, placements=(("671", "abc", rating),))
        sol = solve_feeder(ops, BAL, loads=scenario_loads(ops, scen, 12, noon_profile()))
        p = sol.pcc_power_kw.sum().real
        assert p <= prev + 1e-9
        prev = p


def test_determinism(desk13):
    a = solve_feeder(desk13, BAL)
    b = solve_feeder(desk13, BAL)
    assert np.array_equal(a.v, b.v)
    assert np.array_equal(a.pcc_power_kw, b.pcc_power_kw)


def test_scenario_loads_night_is_identity(desk13, profile):
    ops = FeederOps(desk13)
    scen = PvScenario(0, 10, placements=(("671", "abc", 1000.0),))
    assert scenario_loads(ops, scen, 2, profile).tobytes() == ops.loads.tobytes()


def test_scenario_loads_scales_linearly(desk13):
    ops = FeederOps(desk13)
    scen = PvScenario(0, 10, placements=(("671", "a", 100.0),))
    loads = scenario_loads(ops, scen, 10, noon_profile())  # factor 0.5
    i = ops.index["671"]
    assert ops.loads[i, 0] - loads[i, 0] == pytest.approx(50.0)


def test_scenario_loads_total_injection(desk13, profile):
    ops = FeederOps(desk13)
    placements = tuple(
        (n.id, "".join(sorted(n.loads)), 1500.0) for n in desk13.customers()
    )
    scen = PvScenario(0, 100, placements=placements)
    delta = (ops.loads.sum() - scenario_loads(ops, scen, 12, profile).sum()).real
    assert delta == pytest.approx(1500.0 * len(placements))


def test_voltage_collapse_aborts():
    model = load_feeder(small_feeder(load_kw=60000.0, load_kvar=30000.0))
    with pytest.raises(FeederSolveError, match="collapse|converge"):
        solve_feeder(model, BAL)


def test_non_convergence_reports_change(desk13):
    with pytest.raises(FeederSolveError) as err:
        solve_feeder(desk13, BAL, max_iter=1, tol=1e-12)
    assert err.value.last_change is not None


@pytest.mark.parametrize(
    "hour, placements",
    [
        (2, (("671", "abc", 1000.0),)),  # night: the profile factor is 0
        (12, (("671", "abc", 1000.0), ("634", "abc", 350.0), ("692", "ab", 120.0))),
        (12, (("684", "c", 250.0),)),  # single phase
        (10, (("671", "abc", 1000.0), ("671", "a", 400.0))),  # two units on one node
    ],
    ids=["night", "noon", "single_phase", "two_on_one_node"],
)
def test_scenario_loads_match_applied_model(desk13, profile, hour, placements):
    scen = PvScenario(0, 10, placements=placements)
    loads = scenario_loads(FeederOps(desk13), scen, hour, profile)
    expected = FeederOps(fold_scenario(desk13, scen, hour, profile)).loads
    assert loads.dtype == expected.dtype and loads.shape == expected.shape
    assert loads.tobytes() == expected.tobytes()


def test_scenario_loads_unknown_node(desk13, profile):
    scen = PvScenario(0, 10, placements=(("nowhere", "a", 100.0),))
    with pytest.raises(FeederDataError, match="unknown node"):
        scenario_loads(FeederOps(desk13), scen, 12, profile)


def test_apply_scenario_unknown_node(desk13, profile):
    # Applying a scenario rejects an unknown node at every hour, also at
    # night, when the placement would inject nothing.
    ops = FeederOps(desk13)
    scen = PvScenario(0, 10, placements=(("671", "abc", 500.0), ("nowhere", "a", 100.0)))
    for hour in (2, 12):
        with pytest.raises(FeederDataError, match="unknown node nowhere"):
            scenario_loads(ops, scen, hour, profile)


@pytest.mark.parametrize("phases", ["b", "ab", "x", ""])
def test_scenario_loads_rejects_a_phase_the_node_lacks(desk13, profile, phases):
    # Node 684 carries phases a and c. A unit on any other phase, or on
    # none, would produce nothing, so it is rejected at every hour.
    ops = FeederOps(desk13)
    assert "".join(ph for ph, m in zip("abc", ops.mask[ops.index["684"]]) if m) == "ac"
    scen = PvScenario(0, 10, placements=(("684", phases, 1000.0),))
    for hour in (2, 12):
        with pytest.raises(FeederDataError, match=f"phases {phases!r} of node 684, which has 'ac'"):
            scenario_loads(ops, scen, hour, profile)
    ok = PvScenario(0, 10, placements=(("684", "ac", 1000.0),))
    assert scenario_loads(ops, ok, 2, profile).tobytes() == ops.loads.tobytes()
