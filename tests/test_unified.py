import json
from dataclasses import replace

import numpy as np
import pytest

from pvcosim import (
    attach,
    compare,
    generate,
    run_step,
    solve_three_sequence,
    solve_unified,
)
from pvcosim.coupler import CoSimOptions, CosimError, _feeder_loads, source_voltage
from pvcosim.driver import RunConfig, _Runner
from pvcosim.network import Bus
from pvcosim.sequences import A_ANA
from pvcosim.unified import AGREEMENT_PU, UnifiedOps, UnifiedSolveError

from .conftest import (
    constant_load_feeder,
    island_variants,
    scaled,
    sequence_networks,
    small_feeder,
    stress_scenarios,
)
from .oracles import fixed_point_unified, union_find_islands


@pytest.fixture(scope="module")
def attachments(ieee9, desk13):
    return [attach(ieee9, b, desk13) for b in (5, 6, 8)]


def test_transmission_only_matches_sequence_solver(ieee9):
    us = solve_unified(ieee9, [], 12, None)
    sol = solve_three_sequence(ieee9)
    for i, b in enumerate(ieee9.buses):
        assert abs(us.positive_sequence(b.id) - sol.v1[i]) < 1e-6


def test_zero_load_flat_profile(ieee9):
    stripped = replace(
        ieee9,
        buses=tuple(
            replace(
                b,
                load_p=0.0,
                load_q=0.0,
                shunt_g=0.0,
                shunt_b=0.0,
                v_setpoint=1.02 if b.kind != "pq" else None,
            )
            for b in ieee9.buses
        ),
        branches=tuple(replace(br, b1=0.0, b0=0.0) for br in ieee9.branches),
        generators=tuple((g[0], 0.0, 1.02) for g in ieee9.generators),
    )
    us = solve_unified(stripped, [], 12, None)
    for b in stripped.buses:
        v1 = us.positive_sequence(b.id)
        assert abs(abs(v1) - 1.02) < 1e-7


def test_combined_model_matches_cosim(ieee9, attachments):
    cs = run_step(ieee9, attachments, 12, None)
    us = solve_unified(ieee9, attachments, 12, None)
    rep = compare(cs, us, attachments)
    assert rep["max_diff"] < 1e-3
    assert rep["passed"]
    # per-phase boundary power agreement too
    for k in range(3):
        assert np.max(np.abs(us.pcc_power[k] - cs.final_boundary.s_phase[k])) < 1e-3


def test_compare_with_itself_is_zero(ieee9, attachments):
    cs = run_step(ieee9, attachments, 12, None)
    us = solve_unified(ieee9, attachments, 12, None)
    mirrored = replace(
        us,
        pcc_voltage=source_voltage(cs.seq_solution, attachments),
    )
    rep = compare(cs, mirrored, attachments)
    assert rep["max_diff"] < 1e-14


def test_tightening_boundary_tolerance_shrinks_gap(ieee9, attachments):
    gaps = []
    for tol in (1e-4, 1e-5, 1e-6):
        cs = run_step(ieee9, attachments, 12, None, CoSimOptions(tol_boundary=tol))
        us = solve_unified(ieee9, attachments, 12, None)
        gaps.append(compare(cs, us, attachments)["max_diff"])
    assert gaps[1] <= gaps[0]
    assert gaps[2] <= gaps[1]


def test_halving_tolerance_never_increases_gap(ieee9, attachments):
    us = solve_unified(ieee9, attachments, 12, None)
    tol = 1e-3
    prev_gap = None
    while tol >= 1e-5:
        cs = run_step(ieee9, attachments, 12, None, CoSimOptions(tol_boundary=tol))
        gap = compare(cs, us, attachments)["max_diff"]
        if prev_gap is not None:
            assert gap <= prev_gap
        prev_gap = gap
        tol /= 2


def test_residual_reported(ieee9, attachments):
    us = solve_unified(ieee9, attachments, 12, None, tol=1e-9)
    assert us.residual <= 1e-9


def test_zero_transformer_impedance_rejected(ieee9):
    from pvcosim import load_feeder

    feeder = load_feeder(constant_load_feeder(1e4, 2e3))
    att = attach(ieee9, 5, feeder)
    with pytest.raises(UnifiedSolveError, match="transformer"):
        solve_unified(ieee9, [att], 12, None)


def test_feeder_root_missing_a_phase_rejected(ieee9):
    from pvcosim import load_feeder

    doc = json.loads(small_feeder(trafo_z=(0.01, 0.05)))
    doc["nodes"][0]["phases"] = "a"
    att = attach(ieee9, 5, load_feeder(json.dumps(doc)))
    with pytest.raises(UnifiedSolveError, match="three phases"):
        solve_unified(ieee9, [att], 12, None)


def test_compare_rejects_mismatched_sets(ieee9, attachments):
    cs = run_step(ieee9, attachments, 12, None)
    us = solve_unified(ieee9, attachments[:2], 12, None)
    with pytest.raises(ValueError):
        compare(cs, us, attachments)


def test_pcc_voltage_sequence_content(ieee9, attachments):
    us = solve_unified(ieee9, attachments, 12, None)
    for k in range(3):
        seq = A_ANA @ us.pcc_voltage[k]
        assert abs(seq[1]) > 1.0  # positive sequence dominates
        assert abs(seq[2]) < 0.01


def test_pinned_buses_match_union_find_islands():
    pinned_seen = 0
    for name, net in island_variants().items():
        slack = next(i for i, b in enumerate(net.buses) if b.kind == "slack")
        _, floating = union_find_islands(sequence_networks(net)[0], slack)
        keep = np.delete(np.arange(len(net.buses)), slack)
        pinned = UnifiedOps(net, []).pinned
        assert np.array_equal(pinned, keep[floating]), name
        pinned_seen += pinned.size
    # Only ieee9 as bundled floats buses: the two non-slack generator
    # buses behind zero_seq_open transformers.
    assert pinned_seen == 2


def test_newton_matches_fixed_point_reference():
    """Newton and the fixed point it replaced agree on the bundled sweep,
    with the reference's generator trim tightened to 1e-10."""
    runner = _Runner(RunConfig.bundled(master_seed=4242))
    ops = UnifiedOps(runner.net, runner.attachments)
    pv = [(slots[0], p, v) for slots, p, v in zip(ops.pv_slots, ops.pv_p, ops.pv_v)]
    for level in (0, *range(10, 101, 10)):
        scen = runner.scenario_list(0, level)
        us = solve_unified(
            runner.net, runner.attachments, 12, scen, profile=runner.profile, ops=ops
        )
        load_s = ops.load_s(_feeder_loads(runner.attachments, scen, 12, runner.profile))
        load_slot = np.flatnonzero(load_s)
        v = fixed_point_unified(
            ops.y, ops.unknown, ops.slack_slots, ops.slack_v, load_slot, load_s[load_slot], pv,
            ops.v_flat, pv_tol=1e-10,
        )
        for i, b in enumerate(ops.bus_ids):
            assert np.max(np.abs(us.bus_voltages[b] - v[3 * i : 3 * i + 3])) < 1e-9, (level, b)
        assert np.max(np.abs(us.pcc_voltage - v[ops.pcc_slots])) < 1e-9, level


@pytest.mark.parametrize("k", [3.25, 3.5, 3.75])
def test_converges_wherever_cosim_does_under_heavy_pv(ieee9, desk13, profile, attachments, k):
    # Criterion 1's full-penetration scenarios with every PV rating times
    # k: the co-simulation still converges here, so the oracle must too.
    scen = [scaled(generate(desk13, [100], 1, master_seed=s)[0], k) for s in range(3)]
    us = solve_unified(ieee9, attachments, 12, scen, profile=profile)
    cs = run_step(ieee9, attachments, 12, scen, profile=profile)
    assert compare(cs, us, attachments)["max_diff"] < AGREEMENT_PU


def _solution_bytes(us):
    arrays = [us.pcc_voltage, us.pcc_power, *us.bus_voltages.values()]
    scalars = (us.iterations, us.factorizations, us.residual, us.slack_power_pu)
    return b"".join(a.tobytes() for a in arrays), scalars


def test_case_order_does_not_change_the_answer(ieee9, desk13, profile, attachments):
    # The chord steps start from the run's reference factor, never from an
    # earlier case's: B after a heavy case A equals B on fresh operators.
    heavy = [scaled(generate(desk13, [100], 1, master_seed=s)[0], 3.75) for s in range(3)]
    light = [generate(desk13, [30], 1, master_seed=s)[0] for s in range(3)]
    ops = UnifiedOps(ieee9, attachments)
    first = solve_unified(ieee9, attachments, 12, heavy, profile=profile, ops=ops)
    assert first.factorizations >= 1
    after = solve_unified(ieee9, attachments, 12, light, profile=profile, ops=ops)
    fresh = solve_unified(
        ieee9, attachments, 12, light, profile=profile, ops=UnifiedOps(ieee9, attachments)
    )
    assert _solution_bytes(after) == _solution_bytes(fresh)


def test_base_case_runs_on_the_reference_factor(ieee9, attachments):
    us = solve_unified(ieee9, attachments, 12, None)
    assert us.factorizations == 0
    assert us.iterations >= 1


def test_factorizations_never_exceed_steps():
    runner = _Runner(RunConfig.bundled(master_seed=4242))
    ops = UnifiedOps(runner.net, runner.attachments)
    for level in (0, *range(10, 101, 10)):
        us = solve_unified(
            runner.net, runner.attachments, 12, runner.scenario_list(0, level),
            profile=runner.profile, ops=ops,
        )
        assert 0 <= us.factorizations <= us.iterations, level


def test_heavy_pv_refactors_and_still_agrees(ieee9, desk13, profile, attachments):
    scen = [scaled(generate(desk13, [100], 1, master_seed=s)[0], 3.75) for s in range(3)]
    us = solve_unified(ieee9, attachments, 12, scen, profile=profile)
    assert us.factorizations >= 1
    cs = run_step(ieee9, attachments, 12, scen, profile=profile)
    assert compare(cs, us, attachments)["max_diff"] < AGREEMENT_PU


def test_stress_convergence_edge_is_newtons(ieee9, desk13, profile, attachments):
    # The first pv_stress scenario at seed 4242: Newton converges at
    # k = 3.75 and fails at k = 3.875, where a root exists but not on the
    # operating branch; the chord steps must neither lose the first nor
    # converge to that root.
    ops = UnifiedOps(ieee9, attachments)
    us = solve_unified(
        ieee9, attachments, 12, stress_scenarios(desk13, 3.75), profile=profile, ops=ops
    )
    assert us.residual <= 1e-10
    with pytest.raises(UnifiedSolveError):
        solve_unified(
            ieee9, attachments, 12, stress_scenarios(desk13, 3.875), profile=profile, ops=ops
        )


@pytest.mark.parametrize("k", [3.8, 3.81, 3.815])
def test_accelerated_cosim_meets_the_boundary_tolerance_before_the_fold(
    ieee9, desk13, profile, attachments, k
):
    # Just before the fold the plain boundary map contracts slowly: at
    # k = 3.8 (ratio 0.76) it stops 2.7e-4 pu away from the oracle on some
    # phase, though its last change was below tol_boundary, and from
    # k = 3.81 on it does not converge within max_fpi. The accelerated
    # loop, which also stops only once its step is that small, lands
    # within tol_boundary on every phase of every PCC.
    scen = stress_scenarios(desk13, k)
    cs = run_step(ieee9, attachments, 12, scen, profile=profile)
    us = solve_unified(ieee9, attachments, 12, scen, profile=profile)
    gap = np.max(np.abs(cs.final_boundary.v_phase - us.pcc_voltage))
    assert gap <= CoSimOptions().tol_boundary


def test_accelerated_cosim_converges_up_to_the_fold(ieee9, desk13, profile, attachments):
    # The fold lies between k = 3.8202 and 3.8225. Below it the
    # co-simulation converges and agrees with the oracle by criterion 1;
    # past it the boundary loop must not settle anywhere.
    scen = stress_scenarios(desk13, 3.82)
    cs = run_step(ieee9, attachments, 12, scen, profile=profile)
    us = solve_unified(ieee9, attachments, 12, scen, profile=profile)
    assert compare(cs, us, attachments)["max_diff"] < AGREEMENT_PU
    with pytest.raises(CosimError):
        run_step(ieee9, attachments, 12, stress_scenarios(desk13, 3.8225), profile=profile)


def test_step_cap_raises_typed_error(ieee9, attachments):
    with pytest.raises(UnifiedSolveError, match=r"max_iter=1 steps: current mismatch \d\.\d+e"):
        solve_unified(ieee9, attachments, 12, None, max_iter=1)


def test_singular_jacobian_raises_typed_error(ieee9):
    # A bus without branches or shunts floats in the positive and
    # negative sequences, so the Newton matrix is singular.
    isolated = replace(ieee9, buses=ieee9.buses + (Bus(id=99, kind="pq", base_kv=230.0),))
    with pytest.raises(UnifiedSolveError, match="singular Jacobian"):
        solve_unified(isolated, [], 12, None)
    # The reference factor is taken when the operators are built.
    with pytest.raises(UnifiedSolveError, match="singular Jacobian"):
        UnifiedOps(isolated, [])


def test_jacobian_matches_finite_differences(ieee9, desk13, profile, attachments):
    ops = UnifiedOps(ieee9, attachments)
    scen = [generate(desk13, [50], 1, master_seed=s)[0] for s in range(3)]
    load_s = ops.load_s(_feeder_loads(attachments, scen, 12, profile))
    rng = np.random.default_rng(3)
    v = ops.v_flat * (1 + 0.05 * rng.standard_normal(ops.size))
    v[ops.slack_slots] = ops.slack_v
    q = 0.3 * rng.standard_normal(ops.pv_p.size)
    u, nu = ops.unknown, ops.unknown.size

    def equations(x):
        vx = v.copy()
        vx[u] = x[:nu] + 1j * x[nu : 2 * nu]
        cur, v1 = ops.mismatch(vx, x[2 * nu :], load_s)
        return np.concatenate([cur[u].real, cur[u].imag, np.abs(v1) - ops.pv_v])

    x = np.concatenate([v[u].real, v[u].imag, q])
    h = 1e-6
    numeric = np.column_stack(
        [(equations(x + h * e) - equations(x - h * e)) / (2 * h) for e in np.eye(x.size)]
    )
    jac = ops.jacobian(v, q, ops.mismatch(v, q, load_s)[1], load_s).toarray()
    assert np.max(np.abs(jac - numeric)) < 1e-6 * np.max(np.abs(jac))
