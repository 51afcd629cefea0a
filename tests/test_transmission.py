import json
from dataclasses import replace

import numpy as np
import pytest

from pvcosim import (
    attach,
    data_path,
    load_network,
    run_step,
    solve_three_sequence,
    transmission,
)
from pvcosim.coupler import CosimError, _pcc_loads, step_ops
from pvcosim.network import Branch, Bus, TransmissionNetwork
from pvcosim.sequences import A_SYN, phases_from_sequences, sequences_from_phases
from pvcosim.transmission import (
    NrNonConvergenceError,
    SequenceOps,
    SequenceSolveError,
    SingularJacobianError,
    SolverOptions,
    _islands,
    _jacobian,
    _load_terms,
    _mismatch,
    branch_flows,
)

from .conftest import island_variants, sequence_networks, stress_scenarios, two_bus_case
from .oracles import (
    balanced_power_flow,
    brute_force_sequence_y,
    gauss_seidel,
    jacobi_three_sequence,
    naive_branch_flows,
    per_bus_compensation,
    phase_frame_two_bus,
    union_find_islands,
)

# Receiving-end voltage of the standard two-bus fixture, computed once
# with the Gauss-Seidel reference to 1e-14 and frozen.
TWO_BUS_V2 = 0.9254115654281163 - 0.0949999999999995j


def test_two_bus_matches_frozen_gauss_seidel():
    net = load_network(two_bus_case())
    sol = solve_three_sequence(net)
    assert abs(sol.v1[1] - TWO_BUS_V2) < 1e-8
    assert sol.max_mismatch <= 1e-8


def test_two_bus_matches_live_gauss_seidel():
    net = load_network(two_bus_case())
    y = sequence_networks(net)[1]
    ref = gauss_seidel(
        y,
        np.array([0, -(1.0 + 0.5j)]),
        np.ones(2, dtype=complex),
        slack=0,
        pv=[],
        v_set=np.ones(2),
        tol=1e-12,
    )
    v = solve_three_sequence(net).v1
    assert np.max(np.abs(v - ref)) < 1e-8


def test_no_load_network_is_flat(ieee9):
    stripped = replace(
        ieee9,
        buses=tuple(replace(b, load_p=0.0, load_q=0.0, shunt_g=0.0, shunt_b=0.0) for b in ieee9.buses),
        branches=tuple(replace(br, b1=0.0, b0=0.0) for br in ieee9.branches),
        generators=tuple((g[0], 0.0, 1.02) for g in ieee9.generators),
    )
    stripped = replace(
        stripped,
        buses=tuple(
            replace(b, v_setpoint=1.02 if b.kind != "pq" else None) for b in stripped.buses
        ),
    )
    sol = solve_three_sequence(stripped)
    assert np.allclose(np.abs(sol.v1), 1.02, atol=1e-9)
    assert np.allclose(np.angle(sol.v1), 0.0, atol=1e-9)
    assert abs(sol.slack_power_pu) < 1e-8


def test_bundled_case_matches_gauss_seidel(ieee9):
    ops = SequenceOps(ieee9)
    sbus = (ops.p_gen - ops.static_loads).astype(complex)
    ref = gauss_seidel(
        sequence_networks(ieee9)[1],
        sbus,
        ops.flat_voltages(),
        slack=ops.slack,
        pv=list(ops.pv),
        v_set=ops.v_set,
        tol=1e-12,
        accel=1.3,
    )
    v = solve_three_sequence(ieee9).v1
    assert np.max(np.abs(v - ref)) < 1e-7


def record_mismatches(monkeypatch) -> list[float]:
    """The largest mismatch at every iterate Newton evaluates from here on."""
    norms = []
    mismatch = transmission._mismatch

    def recorded(*args):
        out = mismatch(*args)
        norms.append(out[1])
        return out

    monkeypatch.setattr(transmission, "_mismatch", recorded)
    return norms


def test_nr_quadratic_tail(ieee9, monkeypatch):
    # This cold solve keeps every step it evaluates: each of its chord
    # steps lowers the mismatch.
    hist = record_mismatches(monkeypatch)
    solve_three_sequence(ieee9)
    assert len(hist) >= 3
    assert hist[-1] <= hist[-2] / 10


def test_nr_non_convergence_reports_mismatch():
    # A solvable load that needs more than three steps stops at max_nr;
    # past the nose the stall rule stops the solve first, at step 3.
    for load_p, rule in ((2.0, "max_nr = 3"), (10.0, "stall, 2 kept steps")):
        net = load_network(two_bus_case(load_p=load_p, load_q=load_p / 2))
        with pytest.raises(NrNonConvergenceError, match=f"stop rule: {rule}") as err:
            solve_three_sequence(net, opts=SolverOptions(max_nr=3))
        assert err.value.iterations == 3
        assert err.value.mismatch > 0


def test_singular_jacobian_reports_bus():
    buses = (
        Bus(id=1, kind="slack", base_kv=230.0, v_setpoint=1.0),
        Bus(id=2, kind="pq", base_kv=230.0, load_p=0.1, load_q=0.05),
    )
    branches = (Branch(from_bus=1, to_bus=2, z1=1e30 + 0j, z2=1e30 + 0j, z0=1e30 + 0j),)
    net = TransmissionNetwork(buses=buses, branches=branches, generators=((1, 0.0, 1.0),))
    with pytest.raises(SingularJacobianError) as err:
        solve_three_sequence(net)
    assert err.value.bus_id == 2


# ---------------------------------------------------------------------------
# Sequence-network islands
# ---------------------------------------------------------------------------


def _floating_island_y():
    """Slack with a shunt, plus a two-bus island with no path to ground."""
    y = 1 / (0.0 + 0.3j)
    return np.array(
        [
            [2.0 + 0j, 0, 0],
            [0, y, -y],
            [0, -y, y],
        ]
    )


def test_island_partition_matches_union_find():
    cases = [
        *(y for net in island_variants().values() for y in sequence_networks(net)),
        _floating_island_y(),
    ]
    pinned_seen = 0
    for y in cases:
        grounded, pinned = _islands(y, 0)
        keep = np.arange(1, y.shape[0])  # union_find_islands counts from bus 1
        solvable_local, pinned_local = union_find_islands(y, 0)
        assert np.array_equal(grounded, keep[solvable_local])
        assert np.array_equal(pinned, keep[pinned_local])
        pinned_seen += pinned.size
    # ieee9's y0 floats the two non-slack generator buses behind
    # zero_seq_open, and the island case floats two buses.
    assert pinned_seen == 2 + 2


# ---------------------------------------------------------------------------
# Compensation currents
# ---------------------------------------------------------------------------
#
# Newton's currents hold the compensation: at stacked voltages x the
# generators inject ``y3 x`` plus each loaded bus's sequence load currents,
# which per sequence is ``y_k v_k - comp[:, k]`` plus the balanced load
# current in the positive sequence, with ``comp`` the oracle's per-bus
# compensation.


def _reference_currents(net, x, loads):
    """The stacked currents ``_mismatch`` returns, from the oracles alone."""
    n = len(net.buses)
    v = x.reshape(3, n)
    comp = per_bus_compensation(net, *v, loads)
    cur = np.concatenate([brute_force_sequence_y(net, s) @ v[s] - comp[:, s] for s in range(3)])
    cur[n : 2 * n] += np.conj(loads.sum(axis=1) / v[1])
    return cur


def _flat_currents(net, pcc_loads=None):
    """Newton's currents at flat voltages (V1 = 1, V0 = V2 = 0 at every bus),
    less ``y3 x``: the load currents alone, and the loads."""
    ops = SequenceOps(net)
    loads = ops.phase_load_matrix(pcc_loads)
    x = np.concatenate([np.zeros(ops.n), np.ones(ops.n), np.zeros(ops.n)]).astype(complex)
    _, _, cur = _mismatch(ops, _load_terms(loads), x)
    return (cur - ops.y3 @ x).reshape(3, ops.n), loads


def test_compensation_zero_for_balanced_transposed(ieee9):
    # Balanced loads at V0 = V2 = 0 draw no zero- or negative-sequence
    # current, and exactly the balanced current conj(sum(s) / v1) in the
    # positive sequence.
    load_cur, loads = _flat_currents(ieee9)
    balanced = np.conj(loads.sum(axis=1))
    for zero, positive, negative in zip(load_cur[0], load_cur[1] - balanced, load_cur[2]):
        assert abs(zero) < 1e-15
        assert abs(positive) < 1e-15
        assert abs(negative) < 1e-15


def test_compensation_single_coupling_hand_value():
    doc = json.loads(two_bus_case(load_p=0.0, load_q=0.0))
    doc["branches"][0]["z0"] = [0.025, 0.25]
    doc["branches"][0]["coupling"] = {"z12": [0.0, 0.02]}
    net = load_network(json.dumps(doc))
    ops = SequenceOps(net)
    n, f, t = ops.n, 0, 1

    # One-sided coupling z12 in Z gives Y[1,2] = -z12/(z1*z2): the positive
    # sequence at each end draws that admittance times the negative
    # sequence's across-voltage, and nothing couples into the zero sequence.
    z1 = 0.01 + 0.1j
    z2 = z1
    z12 = 0.02j
    y_off = -z12 / (z1 * z2)
    assert abs(ops.y3[n + f, 2 * n + f] - y_off) < 1e-14
    assert abs(ops.y3[n + f, 2 * n + t] + y_off) < 1e-14
    assert not ops.y3[:n, n:].any() and not ops.y3[n:, :n].any()


def test_compensation_unbalanced_load_excites_negative_sequence():
    net = load_network(two_bus_case(load_p=0.0, load_q=0.0))
    s_total = 0.9 + 0.3j
    third = s_total / 3
    pcc = {2: np.array([third * 1.05, third, third * 0.95])}
    load_cur, _ = _flat_currents(net, pcc)
    assert abs(load_cur[2, 1]) > 1e-4
    assert abs(load_cur[1, 1] - np.conj(s_total)) < 1e-12  # balanced current alone at V2=0


def _coupled_state(seed):
    """ieee9 with one coupled branch, random unbalanced loads on every bus
    but bus 9, and random stacked sequence voltages."""
    net = _coupled_ieee9()
    rng = np.random.default_rng(seed)
    n = len(net.buses)
    loads = rng.uniform(-1, 1, (n, 3)) + 1j * rng.uniform(-1, 1, (n, 3))
    loads[8] = 0  # one unloaded row, on no coupled branch
    v0, v2 = (0.05 * (rng.normal(size=n) + 1j * rng.normal(size=n)) for _ in range(2))
    v1 = rng.uniform(0.9, 1.1, n) * np.exp(1j * rng.uniform(-0.3, 0.3, n))
    return net, loads, np.concatenate([v0, v1, v2])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_compensation_arrays_match_per_bus_loop(seed):
    # Newton's currents at every bus, slack and pinned buses included,
    # against the oracle's per-bus compensation.
    net, loads, x = _coupled_state(seed)
    assert net.branches[3].coupling
    ops = SequenceOps(net)
    _, _, got = _mismatch(ops, _load_terms(loads), x)
    ref = _reference_currents(net, x, loads)
    assert np.all(got[8 :: ops.n] == (ops.y3 @ x)[8 :: ops.n])  # no load current
    assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))


def test_compensation_zero_phase_voltage_under_load_raises():
    ops = SequenceOps(load_network(two_bus_case(load_p=0.0, load_q=0.0)))
    loads = np.array([[0, 0, 0], [0.1, 0.1, 0.1]], dtype=complex)
    x = np.array([0, -1, 1, 1, 0, 0], dtype=complex)  # phase a of bus 2 at zero volts
    with pytest.raises(ZeroDivisionError):
        _mismatch(ops, _load_terms(loads), x)


def test_hoisted_load_terms_match_per_bus_loop():
    # The load terms hold no voltage: built once, they serve every Newton
    # step. Random unbalanced loads with an unloaded row and a zero load on
    # one phase, random sequence voltages, and one coupled branch.
    net, loads, x = _coupled_state(7)
    loads[4, 1] = 0
    assert net.branches[3].coupling
    ops = SequenceOps(net)
    n = ops.n

    terms = _load_terms(loads)
    assert list(terms.at[:, 0]) == [i for i in range(n) if i != 8]
    _mismatch(ops, terms, 1.01 * x)  # the terms serve another step first
    _, _, got = _mismatch(ops, terms, x)
    ref = _reference_currents(net, x, loads)
    assert np.all(got[8::n] == (ops.y3 @ x)[8::n])
    assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))
    assert got.tobytes() == _mismatch(ops, _load_terms(loads), x)[2].tobytes()


def _masked_phase_currents(s, v):
    """phase_currents' zero-voltage form: nothing drawn at zero volts."""
    out = np.zeros(v.shape, dtype=complex)
    nz = np.abs(v) > 0
    out[nz] = np.conj(3.0 * s[nz] / v[nz])
    return out


def test_zero_voltage_on_an_unloaded_phase_takes_the_fallback():
    # Phase a of bus 2 is at zero volts and draws nothing there, so the
    # direct division (0/0 there) is skipped; Newton's currents have the
    # bits of the masked form and stay finite.
    ops = SequenceOps(load_network(two_bus_case(load_p=0.0, load_q=0.0)))
    loads = np.array([[0, 0, 0], [0, 0.1 + 0.02j, 0.12 - 0.01j]], dtype=complex)
    x = np.array([0, -1, 1, 1, 0, 0], dtype=complex)
    _, _, got = _mismatch(ops, _load_terms(loads), x)

    v_ph = x[None, 1::2] @ A_SYN.T
    assert v_ph[0, 0] == 0 and v_ph[0, 1:].all()
    want = ops.y3 @ x
    want[1::2] += sequences_from_phases(_masked_phase_currents(loads[1:], v_ph))[0]
    assert np.isfinite(got).all()
    assert got.tobytes() == want.tobytes()

    # Under load, the same zero voltage still raises.
    loads[1, 0] = 0.05
    with pytest.raises(ZeroDivisionError):
        _mismatch(ops, _load_terms(loads), x)


# ---------------------------------------------------------------------------
# Three-sequence solve
# ---------------------------------------------------------------------------


def test_balanced_degeneracy(ieee9):
    # Against a textbook positive-sequence Newton to 1e-13; the solve runs
    # to 1e-12, since at the default 1e-8 it stops 3.0e-10 away.
    opts = SolverOptions(tol_nr=1e-12)
    sol = solve_three_sequence(ieee9, opts=opts)
    v_nr = balanced_power_flow(ieee9, 1e-13)
    assert np.max(np.abs(sol.v0)) < 1e-9
    assert np.max(np.abs(sol.v2)) < 1e-9
    assert np.max(np.abs(sol.v1 - v_nr)) < 1e-10
    assert sol.max_mismatch <= opts.tol_nr


def test_unbalance_bound_at_pcc(ieee9):
    # 0.2% load unbalance on each load bus.
    pcc = {}
    for b in ieee9.buses:
        if b.load_p:
            s = complex(b.load_p, b.load_q) / 3
            pcc[b.id] = np.array([s * 1.002, s, s * 0.998]) - s
    sol = solve_three_sequence(ieee9, pcc)
    for bus in (5, 6, 8):
        i = sol.index_of(bus)
        vuf = abs(sol.v2[i]) / abs(sol.v1[i])
        assert vuf <= 0.002


def test_two_bus_unbalanced_matches_phase_frame_oracle():
    doc = json.loads(two_bus_case(load_p=0.0, load_q=0.0))
    doc["branches"][0]["z0"] = [0.025, 0.25]
    net = load_network(json.dumps(doc))
    s = (0.8 + 0.25j) / 3
    s_ph = np.array([s * 1.06, s * 0.97, s * 0.97])
    sol = solve_three_sequence(net, {2: s_ph}, SolverOptions(tol_nr=1e-12))

    z_seq = np.diag([0.025 + 0.25j, 0.01 + 0.1j, 0.01 + 0.1j])
    v_ref = phase_frame_two_bus(z_seq, s_ph)
    v_pkg = phases_from_sequences(sol.v0, sol.v1, sol.v2)[sol.index_of(2)]
    assert np.max(np.abs(v_pkg - v_ref)) < 1e-6


def test_two_bus_coupled_matches_phase_frame_oracle():
    doc = json.loads(two_bus_case(load_p=0.0, load_q=0.0))
    doc["branches"][0]["z0"] = [0.025, 0.25]
    doc["branches"][0]["coupling"] = {"z12": [0.002, 0.015], "z21": [0.002, 0.015]}
    net = load_network(json.dumps(doc))
    s = (0.7 + 0.2j) / 3
    s_ph = np.array([s, s, s])  # balanced load; coupling alone drives V2
    sol = solve_three_sequence(net, {2: s_ph}, SolverOptions(tol_nr=1e-12))

    z_seq = np.diag([0.025 + 0.25j, 0.01 + 0.1j, 0.01 + 0.1j]).astype(complex)
    z_seq[1, 2] = 0.002 + 0.015j
    z_seq[2, 1] = 0.002 + 0.015j
    v_ref = phase_frame_two_bus(z_seq, s_ph)
    v_pkg = phases_from_sequences(sol.v0, sol.v1, sol.v2)[sol.index_of(2)]
    assert np.max(np.abs(sol.v2)) > 1e-5  # coupling actually excited
    assert np.max(np.abs(v_pkg - v_ref)) < 1e-6


def test_solver_options_validation():
    with pytest.raises(ValueError, match="tol_nr"):
        SolverOptions(tol_nr=0.0)
    with pytest.raises(ValueError, match="max_nr"):
        SolverOptions(max_nr=0)


# ---------------------------------------------------------------------------
# One Newton for all three sequences
# ---------------------------------------------------------------------------


def _coupled_ieee9():
    """ieee9 with z12 and z20 coupling on the line between buses 6 and 9."""
    doc = json.loads(data_path("ieee9.json").read_text())
    doc["branches"][3]["coupling"] = {"z12": [0.002, 0.015], "z20": [0.001, -0.004]}
    return load_network(json.dumps(doc))


@pytest.mark.parametrize("coupled", [False, True], ids=["ieee9", "coupled"])
def test_branch_two_ports_are_built_once_and_read_only(coupled):
    net = _coupled_ieee9() if coupled else load_network(data_path("ieee9.json").read_text())
    ops = SequenceOps(net)
    for k, br in enumerate(net.branches):
        assert ops.blocks[k][3] is br.admittance_blocks
    for blk in net.branches[3].admittance_blocks:
        with pytest.raises(ValueError, match="read-only"):
            blk[1, 1] = 0


def test_jacobian_matches_central_differences():
    # Heavily unbalanced loads on every bus but ieee9's two pinned
    # zero-sequence buses and one more, large V0/V2, and one coupled line.
    # The oracle's per-bus compensation states the equations on its own:
    # P and Q of V1 conj(I1) - p_gen at pv and pq buses, then Re and Im of
    # I0 and I2 at the grounded buses, in Newton's unknowns: V1's angle at
    # pv and pq buses and magnitude at pq buses, then Re and Im of V0 and V2.
    net = _coupled_ieee9()
    ops = SequenceOps(net)
    assert net.branches[3].coupling and ops.pinned0.size == 2
    rng = np.random.default_rng(3)
    n = ops.n
    loads = rng.uniform(-1, 1, (n, 3)) + 1j * rng.uniform(-1, 1, (n, 3))
    loads[ops.pinned0] = 0
    loads[8] = 0
    v0, v2 = (0.1 * (rng.normal(size=n) + 1j * rng.normal(size=n)) for _ in range(2))
    v1 = rng.uniform(0.9, 1.1, n) * np.exp(1j * rng.uniform(-0.3, 0.3, n))
    v0[ops.pinned0] = 0  # the unknowns' complement holds zero volts
    v0[ops.slack] = v2[ops.slack] = 0
    pvpq, pq, g0, g2 = ops.pvpq, ops.pq, ops.grounded0, ops.grounded2
    m = g0.size + g2.size

    def unpack(u):
        va, vm = np.angle(v1), np.abs(v1)
        va[pvpq] = u[: pvpq.size]
        vm[pq] = u[pvpq.size : pvpq.size + pq.size]
        z = u[-2 * m : -m] + 1j * u[-m:]
        w0, w2 = v0.copy(), v2.copy()
        w0[g0], w2[g2] = z[: g0.size], z[g0.size :]
        return w0, vm * np.exp(1j * va), w2

    y0, y1, y2 = sequence_networks(net)

    def residual(u):
        w0, w1, w2 = unpack(u)
        comp = per_bus_compensation(net, w0, w1, w2, loads)
        s1 = w1 * np.conj(y1 @ w1 - comp[:, 1] + np.conj(loads.sum(axis=1) / w1)) - ops.p_gen
        z = np.concatenate([(y0 @ w0 - comp[:, 0])[g0], (y2 @ w2 - comp[:, 2])[g2]])
        return np.concatenate([s1.real[pvpq], s1.imag[pq], z.real, z.imag])

    z = np.concatenate([v0[g0], v2[g2]])
    u = np.concatenate([np.angle(v1)[pvpq], np.abs(v1)[pq], z.real, z.imag])
    x = np.concatenate([v0, v1, v2])
    terms = _load_terms(loads)
    f, norm, cur = _mismatch(ops, terms, x)
    assert np.max(np.abs(f - residual(u))) <= 1e-13 * norm
    h = 1e-6
    fd = np.empty((u.size, u.size))
    for j in range(u.size):
        e = np.zeros(u.size)
        e[j] = h
        fd[:, j] = (residual(u + e) - residual(u - e)) / (2 * h)
    jac = _jacobian(ops, terms, x, cur)
    assert np.max(np.abs(jac - fd)) <= 1e-8 * np.max(np.abs(jac))


_UNBALANCED_LOADS = {
    5: np.array([0.3 + 0.1j, 0.2 + 0.05j, 0.25 + 0.12j]),
    8: np.array([-0.2 + 0.02j, 0.05 - 0.01j, 0.1 + 0.04j]),
}


def test_cold_newton_steps_converge_quadratically(monkeypatch):
    # With every step a Newton step, the cold solve's mismatch squares each
    # step from 1e-2 down; with chord steps it lands on the same solution.
    # Without chord steps, every iterate Newton evaluates is a kept step.
    net = _coupled_ieee9()
    chord = solve_three_sequence(net, _UNBALANCED_LOADS)
    history = record_mismatches(monkeypatch)
    monkeypatch.setattr(transmission, "CHORD_CONTRACTION", 0.0)
    sol = solve_three_sequence(net, _UNBALANCED_LOADS, SolverOptions(tol_nr=1e-13))
    tail = [r for r in history if r < 1e-2]
    assert len(tail) >= 2 and tail[-1] <= 1e-13
    for prev, r in zip(tail, tail[1:]):
        assert r <= 10 * prev**2 + 1e-15
    gap = max(np.max(np.abs(a - b)) for a, b in zip((sol.v0, sol.v1, sol.v2), (chord.v0, chord.v1, chord.v2)))
    assert gap <= 1e-8


def test_warm_call_on_the_previous_factor_matches_a_cold_call(monkeypatch):
    net = _coupled_ieee9()
    ops = SequenceOps(net)
    first = solve_three_sequence(net, _UNBALANCED_LOADS, ops=ops)
    assert first.factor is not None
    moved = {bus: s * 1.01 for bus, s in _UNBALANCED_LOADS.items()}
    cold = solve_three_sequence(net, moved, ops=ops)

    factors = []
    factor = transmission._factor
    monkeypatch.setattr(transmission, "_factor", lambda *a: factors.append(1) or factor(*a))
    warm = solve_three_sequence(net, moved, ops=ops, start=first)
    assert factors == [] and 1 <= warm.iterations_nr < cold.iterations_nr
    assert warm.factor is first.factor
    tol = SolverOptions().tol_nr
    for a, b in ((warm.v0, cold.v0), (warm.v1, cold.v1), (warm.v2, cold.v2)):
        assert np.max(np.abs(a - b)) <= tol


def test_current_into_a_pinned_bus_is_rejected(ieee9):
    # Buses 2 and 3 lie behind zero_seq_open transformers, so their
    # zero-sequence island is pinned at zero volts; a one-phase load there
    # would drive zero-sequence current into it.
    ops = SequenceOps(ieee9)
    pinned = int(ops.pinned0[0])
    bus = ieee9.buses[pinned].id
    with pytest.raises(SequenceSolveError, match="ungrounded island") as err:
        solve_three_sequence(ieee9, {bus: np.array([0.1, 0, 0])}, ops=ops)
    assert err.value.bus_positions == [pinned]
    sol = solve_three_sequence(ieee9, {bus: np.full(3, 0.1 / 3)}, ops=ops)
    assert np.all(sol.v0[ops.pinned0] == 0)


def _stress_case(ieee9, desk13, k):
    """Attachments and scaled scenarios of ``pv_stress`` scenario 0 at seed
    4242: 100 % penetration on all three desk13 feeders, ratings times k."""
    return [attach(ieee9, b, desk13) for b in (5, 6, 8)], stress_scenarios(desk13, k)


def test_coupled_solve_matches_tight_jacobi_reference(ieee9, desk13, profile):
    # The PCC loads where the stress case converges at k = 3.75, near the
    # nose, where the per-sequence loop contracts slowly: the Newton lands
    # next to that loop run to 1e-12.
    attachments, scen = _stress_case(ieee9, desk13, 3.75)
    res = run_step(ieee9, attachments, 12, scen, profile=profile)
    ops = step_ops(ieee9, attachments).seq
    pcc = _pcc_loads(attachments, res.final_boundary.s_phase)
    sol = solve_three_sequence(ops.net, pcc, ops=ops)
    v0, v1, v2, _passes = jacobi_three_sequence(ops.net, ops.phase_load_matrix(pcc), 1e-12)
    gap = max(np.max(np.abs(a - b)) for a, b in ((sol.v0, v0), (sol.v1, v1), (sol.v2, v2)))
    assert gap <= 1e-8


def test_stress_failure_past_the_nose_is_newtons(ieee9, desk13, profile):
    # k = 3.75 converges in 6 accelerated boundary iterations (11 plain).
    # At k = 3.875 the boundary loop drives the transmission Newton off the
    # branch from the no-PV case.
    attachments, scen = _stress_case(ieee9, desk13, 3.75)
    res = run_step(ieee9, attachments, 12, scen, profile=profile)
    assert res.fpi_iterations == 6
    attachments, scen = _stress_case(ieee9, desk13, 3.875)
    with pytest.raises(CosimError, match="stop rule: stall, 2 kept steps") as err:
        run_step(ieee9, attachments, 12, scen, profile=profile)
    assert err.value.side == "transmission"
    assert isinstance(err.value.__cause__, NrNonConvergenceError)


def test_newton_fails_fast_past_the_nose(ieee9, desk13, profile):
    # At k = 4.0 there is no operating point on the branch from the no-PV
    # case: the Newton stalls or diverges within a few steps, well before
    # max_nr.
    attachments, scen = _stress_case(ieee9, desk13, 4.0)
    with pytest.raises(CosimError, match=r"^\[transmission\] Newton-Raphson") as err:
        run_step(ieee9, attachments, 12, scen, profile=profile)
    cause = err.value.__cause__
    assert isinstance(cause, NrNonConvergenceError)
    assert cause.iterations <= 3 < SolverOptions().max_nr


# ---------------------------------------------------------------------------
# Slack power and branch flows
# ---------------------------------------------------------------------------


def test_slack_power_positive_at_nominal(ieee9):
    sol = solve_three_sequence(ieee9)
    assert sol.slack_power_pu.real > 0


def test_slack_absorbs_when_load_below_generation(ieee9):
    light = {b.id: -np.full(3, (complex(b.load_p, b.load_q) * 0.95) / 3)
             for b in ieee9.buses if b.load_p}
    sol = solve_three_sequence(ieee9, light)
    assert sol.slack_power_pu.real < 0


def test_monotone_load_response(ieee9):
    prev = np.inf
    for scale in (1.0, 0.9, 0.8, 0.7, 0.6, 0.5):
        pcc = {
            b.id: -np.full(3, complex(b.load_p, b.load_q) * (1 - scale) / 3)
            for b in ieee9.buses
            if b.load_p
        }
        sol = solve_three_sequence(ieee9, pcc)
        assert sol.slack_power_pu.real < prev
        prev = sol.slack_power_pu.real


def test_branch_flow_two_bus_hand_value():
    net = load_network(two_bus_case())
    sol = solve_three_sequence(net)
    flows = branch_flows(sol, net)[(1, 2)]
    z = 0.01 + 0.1j
    i = (sol.v1[0] - sol.v1[1]) / z
    assert abs(flows[1, 0] - sol.v1[0] * np.conj(i)) < 1e-12
    assert abs(flows[1, 1] - sol.v1[1] * np.conj(-i)) < 1e-12
    # from-end + to-end equals the series loss
    assert abs((flows[1, 0] + flows[1, 1]) - abs(i) ** 2 * z) < 1e-12


_UNBALANCED_PCC = {2: np.array([0.3 + 0.1j, 0.2 + 0.05j, 0.25 + 0.12j])}


@pytest.mark.parametrize(
    "extra",
    [
        {"tap": 1.05, "b1": 0.2, "b0": 0.1, "z0": [0.03, 0.3]},
        {"b1": 0.2, "coupling": {"z12": [0.002, 0.015], "z21": [0.001, 0.008]}},
    ],
    ids=["tap_and_charging", "coupled"],
)
def test_branch_flows_match_per_sequence_formula(extra):
    doc = json.loads(two_bus_case())
    doc["branches"][0].update(extra)
    net = load_network(json.dumps(doc))
    br = net.branches[0]
    sol = solve_three_sequence(net, _UNBALANCED_PCC)
    vf = np.array([sol.v0[0], sol.v1[0], sol.v2[0]])
    vt = np.array([sol.v0[1], sol.v1[1], sol.v2[1]])
    assert np.min(np.abs(vt[[0, 2]])) > 1e-4  # every sequence carries flow

    flows = branch_flows(sol, net)[(1, 2)]
    assert np.max(np.abs(flows - naive_branch_flows(br, vf, vt))) < 1e-12

    # from-end + to-end = series loss + line charging, per sequence
    zm = br.series_impedance_matrix()
    dv = vf / br.tap - vt
    i_ser = np.linalg.solve(zm, dv)
    loss = dv * np.conj(i_ser)
    charging = -0.5j * np.array([br.b0, br.b1, br.b1]) * (np.abs(vf / br.tap) ** 2 + np.abs(vt) ** 2)
    assert np.max(np.abs(flows.sum(axis=1) - (loss + charging))) < 1e-12


def test_branch_flows_match_per_sequence_formula_on_ieee9(ieee9):
    # ieee9 has line charging and zero_seq_open generator transformers.
    pcc = {5: np.array([0.3 + 0.1j, 0.2 + 0.05j, 0.25 + 0.12j])}
    sol = solve_three_sequence(ieee9, pcc)
    flows = branch_flows(sol, ieee9)
    for br in ieee9.branches:
        f, t = sol.index_of(br.from_bus), sol.index_of(br.to_bus)
        vf = np.array([sol.v0[f], sol.v1[f], sol.v2[f]])
        vt = np.array([sol.v0[t], sol.v1[t], sol.v2[t]])
        ref = naive_branch_flows(br, vf, vt)
        assert np.max(np.abs(flows[(br.from_bus, br.to_bus)] - ref)) < 1e-12


def test_branch_flows_cover_exactly_model_branches(ieee9):
    sol = solve_three_sequence(ieee9)
    assert set(branch_flows(sol, ieee9)) == {(br.from_bus, br.to_bus) for br in ieee9.branches}


def test_flow_direction_reverses_under_high_injection(ieee9):
    base = solve_three_sequence(ieee9)
    # net injection at the load buses (PV beyond local load)
    pcc = {b.id: -np.full(3, complex(b.load_p * 1.4, b.load_q) / 3)
           for b in ieee9.buses if b.load_p}
    high = solve_three_sequence(ieee9, pcc)
    s_base = branch_flows(base, ieee9)[(4, 5)][1, 0].real
    s_high = branch_flows(high, ieee9)[(4, 5)][1, 0].real
    assert np.sign(s_base) != np.sign(s_high)


def test_power_balance(ieee9):
    for net, pcc in (
        (ieee9, None),
        (ieee9, {5: np.array([0.05 + 0.01j, 0.04 + 0.01j, 0.045 + 0.012j])}),
        (_coupled_ieee9(), _UNBALANCED_LOADS),
    ):
        sol = solve_three_sequence(net, pcc)
        ops = SequenceOps(net)
        n = ops.n
        x = np.concatenate([sol.v0, sol.v1, sol.v2])
        loads = ops.phase_load_matrix(pcc)
        _, _, cur = _mismatch(ops, _load_terms(loads), x)

        total_gen = sol.slack_power_pu
        slack = next(b.id for b in net.buses if b.kind == "slack")
        for gbus, p_set, _v in net.generators:
            if gbus == slack:
                continue
            i = sol.index_of(gbus)
            # the positive-sequence current Newton's generators inject
            total_gen += sol.v1[i] * np.conj(cur[n + i])

        total_load = loads.sum()

        losses = 0j
        for (f, t), fl in branch_flows(sol, net, ops=ops).items():
            losses += fl.sum()
        shunt = 0j
        seq_v = [sol.v0, sol.v1, sol.v2]
        for b in net.buses:
            i = sol.index_of(b.id)
            ysh = complex(b.shunt_g, b.shunt_b)
            if ysh != 0:
                for vv in seq_v:
                    shunt += abs(vv[i]) ** 2 * np.conj(ysh)

        imbalance = total_gen - total_load - losses - shunt
        assert abs(imbalance.real) < 1e-7
        assert abs(imbalance.imag) < 1e-7
