import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pvcosim import (
    attach,
    boundary_error,
    coupler,
    data_path,
    equivalent_load,
    generate,
    load_feeder,
    load_network_file,
    run_step,
    solve_feeder,
    solve_three_sequence,
    source_voltage,
    verify_fixed_point,
)
from pvcosim.coupler import (
    BoundaryState,
    CoSimOptions,
    CosimError,
    CosimNonConvergenceError,
    effective_network,
    step_ops,
)
from pvcosim.feeder import forest
from pvcosim.sequences import A_ANA, phases_from_sequences
from pvcosim.transmission import SequenceOps, SequenceSolveError, SolverOptions

from .conftest import constant_load_feeder, small_feeder

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def attachments(ieee9, desk13):
    return [attach(ieee9, b, desk13) for b in (5, 6, 8)]


@pytest.fixture(scope="module")
def base_result(ieee9, attachments):
    return run_step(ieee9, attachments, 12, None)


# ---------------------------------------------------------------------------
# boundary_error
# ---------------------------------------------------------------------------


def _state(v, s, it=0):
    return BoundaryState(v_phase=np.asarray(v, complex), s_phase=np.asarray(s, complex), iteration=it)


def test_boundary_error_identical_states_is_zero():
    v = np.ones((2, 3), dtype=complex)
    s = np.full((2, 3), 0.1 + 0.02j)
    assert boundary_error(_state(v, s), _state(v, s, 1)) == 0.0


def test_boundary_error_single_entry():
    v = np.ones((1, 3), dtype=complex)
    s = np.zeros((1, 3), dtype=complex)
    v2 = v.copy()
    v2[0, 1] += 0.01
    assert boundary_error(_state(v, s), _state(v2, s, 1)) == pytest.approx(0.01)


@settings(max_examples=50)
@given(st.integers(0, 2**32 - 1))
def test_boundary_error_matches_recomputation(seed):
    rng = np.random.default_rng(seed)
    v1, v2 = (rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3)) for _ in range(2))
    s1, s2 = (rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3)) for _ in range(2))
    got = boundary_error(_state(v1, s1), _state(v2, s2, 1))
    expect = max(np.abs(v2 - v1).max(), np.abs(s2 - s1).max())
    assert got == pytest.approx(expect)


def test_boundary_error_mismatched_sets():
    with pytest.raises(ValueError):
        boundary_error(
            _state(np.ones((1, 3)), np.zeros((1, 3))),
            _state(np.ones((2, 3)), np.zeros((2, 3)), 1),
        )


# ---------------------------------------------------------------------------
# run_step
# ---------------------------------------------------------------------------


def test_degenerate_feeders_reproduce_plain_solve(ieee9):
    atts = []
    for b in ieee9.buses:
        if b.load_p:
            f = load_feeder(constant_load_feeder(b.load_p * 1e5, b.load_q * 1e5))
            atts.append(attach(ieee9, b.id, f))
    result = run_step(ieee9, atts, 12, None)
    assert result.fpi_iterations <= 2

    plain = solve_three_sequence(ieee9)
    for att in atts:
        i = plain.index_of(att.bus)
        j = result.seq_solution.index_of(att.bus)
        assert abs(plain.v1[i] - result.seq_solution.v1[j]) < 1e-4


def test_iteration_accounting(base_result):
    assert base_result.fpi_iterations == len(base_result.boundary_history) - 1


def test_fixed_point_certificate(ieee9, attachments, base_result):
    shift = verify_fixed_point(ieee9, attachments, base_result)
    assert shift <= CoSimOptions().tol_boundary


def test_fixed_point_certificate_tags_transmission_failures(ieee9, attachments, base_result):
    with pytest.raises(CosimError) as err:
        verify_fixed_point(
            ieee9, attachments, base_result, solver_opts=SolverOptions(tol_nr=1e-14, max_nr=1)
        )
    assert err.value.side == "transmission"


def test_boundary_history_carries_each_error_once(base_result):
    hist = base_result.boundary_history
    assert hist[0].error is None
    for prev, state in zip(hist, hist[1:]):
        assert state.error == boundary_error(prev, state)
    assert hist[-1].error <= CoSimOptions().tol_boundary


def test_fixed_point_certificate_uses_feeder_max_iter(ieee9):
    # A heavy balanced load pulls the PCC down, which leaves the small
    # single-phase feeder close to its voltage-collapse point: its cold
    # sweep, the one verify_fixed_point runs, needs more than the default
    # 60 iterations there.
    heavy = load_feeder(constant_load_feeder(150e3, 60e3))
    slow = load_feeder(small_feeder(load_kw=2235.0, load_kvar=894.0, z_ohm=(20.0, 40.0)))
    atts = [attach(ieee9, 5, heavy), attach(ieee9, 5, slow)]
    opts = CoSimOptions(feeder_max_iter=400)
    res = run_step(ieee9, atts, 12, None, opts)
    cold = solve_feeder(slow, res.final_boundary.v_phase[1], opts.feeder_tol, opts.feeder_max_iter)
    assert cold.iterations > CoSimOptions().feeder_max_iter
    assert res.feeder_solutions[0].iterations < 5  # each attachment keeps its own count
    assert verify_fixed_point(ieee9, atts, res, opts) <= opts.tol_boundary


def test_one_forest_sweep_per_boundary_round(ieee9, attachments, desk13, profile, monkeypatch):
    calls = []
    sweep = coupler.solve_feeder

    def counted(*args, **kwargs):
        calls.append(args[1].shape)
        return sweep(*args, **kwargs)

    monkeypatch.setattr(coupler, "solve_feeder", counted)
    s = generate(desk13, [60], 1, master_seed=2)[0]
    res = run_step(ieee9, attachments, 12, [s, s, s], profile=profile)
    assert len(calls) == res.fpi_iterations + 1
    assert set(calls) == {(3, 3)}
    assert [fs.node_ids for fs in res.feeder_solutions] == [a.ops.ids for a in attachments]


def test_collapsing_feeder_among_healthy_ones_is_a_distribution_failure(ieee9, desk13):
    from pvcosim.coupler import CosimError

    sick = load_feeder(small_feeder(load_kw=4.0e5, load_kvar=2.0e5))
    atts = [attach(ieee9, 5, desk13), attach(ieee9, 6, sick), attach(ieee9, 8, desk13)]
    with pytest.raises(CosimError) as err:
        run_step(ieee9, atts, 12, None)
    assert err.value.side == "distribution"


def test_prebuilt_sequence_ops_is_bit_identical(desk13, profile):
    # The first step on a fresh network builds the operators; every later
    # step finds them built.
    net = load_network_file(data_path("ieee9.json"))
    atts = [attach(net, b, desk13) for b in (5, 6, 8)]
    for level in (40, 100):
        s = generate(desk13, [level], 1, master_seed=3)[0]
        scen = [s, s, s]
        own = run_step(net, atts, 12, scen, profile=profile)
        ops = step_ops(net, atts)
        shared = run_step(net, atts, 12, scen, profile=profile)
        assert step_ops(net, atts) is ops
        for v in ("v0", "v1", "v2"):
            assert getattr(own.seq_solution, v).tobytes() == getattr(shared.seq_solution, v).tobytes()
        assert own.fpi_iterations == shared.fpi_iterations
        assert len(own.boundary_history) == len(shared.boundary_history)
        for a, b in zip(own.boundary_history, shared.boundary_history):
            assert a.iteration == b.iteration
            assert a.error == b.error
            assert a.v_phase.tobytes() == b.v_phase.tobytes()
            assert a.s_phase.tobytes() == b.s_phase.tobytes()


def _step_arrays(net, feeder, buses, profile) -> list[np.ndarray]:
    """One step at 100 % PV on ``feeder`` at each bus: its sequence voltages
    and boundary history as arrays."""
    s = generate(feeder, [100], 1, master_seed=3)[0]
    atts = [attach(net, b, feeder) for b in buses]
    res = run_step(net, atts, 12, [s] * len(buses), profile=profile)
    arrays = [res.seq_solution.v0, res.seq_solution.v1, res.seq_solution.v2]
    return arrays + [a for st in res.boundary_history for a in (st.v_phase, st.s_phase)]


FRESH_STEP = """
import sys

import numpy as np

from pvcosim import data_path, load_feeder_file, load_network_file, load_profile_file
from tests.test_coupler import _step_arrays

net = load_network_file(data_path("ieee9.json"))
feeder = load_feeder_file(data_path("desk13.json"))
profile = load_profile_file(data_path("pv_profile.json"))
np.savez(sys.argv[1], *_step_arrays(net, feeder, (5, 6), profile))
"""


def test_step_operators_built_once_per_network_and_attachment_set(
    monkeypatch, tmp_path, desk13, profile
):
    builds = []
    build_seq = SequenceOps.__init__

    def counted_seq(self, *args, **kwargs):
        builds.append("SequenceOps")
        build_seq(self, *args, **kwargs)

    def counted_forest(parts):
        builds.append("forest")
        return forest(parts)

    monkeypatch.setattr(SequenceOps, "__init__", counted_seq)
    monkeypatch.setattr(coupler, "forest", counted_forest)
    net = load_network_file(data_path("ieee9.json"))
    atts = [attach(net, b, desk13) for b in (5, 6, 8)]
    s = generate(desk13, [100], 1, master_seed=3)[0]
    res = run_step(net, atts, 12, [s, s, s], profile=profile)
    for _ in range(2):
        shift = verify_fixed_point(
            net, atts, res, hour=12, profile=profile, scenario_per_feeder=[s, s, s]
        )
        assert shift <= CoSimOptions().tol_boundary
    assert sorted(builds) == ["SequenceOps", "forest"]

    # Feeders at buses 5 and 6 only: a second attachment set on the same
    # network gets its own operators, and the bytes of a fresh process.
    builds.clear()
    arrays = _step_arrays(net, desk13, (5, 6), profile)
    assert sorted(builds) == ["SequenceOps", "forest"]
    assert step_ops(net, atts[:2]) is not step_ops(net, atts)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    out = tmp_path / "fresh.npz"
    subprocess.run(
        [sys.executable, "-c", FRESH_STEP, str(out)], cwd=ROOT, env=env, check=True, timeout=120
    )
    with np.load(out) as fresh:
        assert len(fresh.files) == len(arrays)
        for k, a in enumerate(arrays):
            assert fresh[f"arr_{k}"].tobytes() == a.tobytes()


def test_another_feeder_model_at_the_same_bus_gets_its_own_operators(desk13):
    net = load_network_file(data_path("ieee9.json"))
    atts = [attach(net, b, desk13) for b in (5, 6, 8)]
    ops = step_ops(net, atts)
    assert step_ops(net, [attach(net, b, desk13) for b in (5, 6, 8)]) is ops
    other = step_ops(net, [attach(net, 5, load_feeder(small_feeder()))] + atts[1:])
    assert other is not ops
    assert other.feeders is not ops.feeders
    assert step_ops(net, atts) is not other


def test_failed_operator_build_caches_nothing(monkeypatch, desk13):
    net = load_network_file(data_path("ieee9.json"))
    atts = [attach(net, b, desk13) for b in (5, 6, 8)]
    calls = []

    def failing(network):
        calls.append(network)
        raise SequenceSolveError([4], "injected")

    monkeypatch.setattr(coupler, "SequenceOps", failing)
    for _ in range(2):
        with pytest.raises(SequenceSolveError, match="injected"):
            run_step(net, atts, 12, None)
    assert len(calls) == 2
    monkeypatch.undo()
    assert run_step(net, atts, 12, None).fpi_iterations > 0


def test_boundary_conservation(ieee9, attachments, base_result):
    # What transmission served at each PCC (its load model) vs what the
    # feeders actually drew at the final voltages.
    final = base_result.final_boundary
    sol = base_result.seq_solution
    tol = CoSimOptions().tol_boundary
    for k, att in enumerate(attachments):
        i = sol.index_of(att.bus)
        served = sol.loads_phase[i]
        assert np.max(np.abs(served - final.s_phase[k])) <= 10 * tol


def test_max_fpi_must_allow_one_iteration():
    with pytest.raises(ValueError, match="max_fpi"):
        CoSimOptions(max_fpi=0)
    with pytest.raises(ValueError, match="feeder_max_iter must be at least 1"):
        CoSimOptions(feeder_max_iter=0)
    for tol in (0.0, -1e-7):
        with pytest.raises(ValueError, match="feeder_tol must be positive"):
            CoSimOptions(feeder_tol=tol)


def test_non_convergence_carries_history(ieee9, attachments):
    with pytest.raises(CosimNonConvergenceError) as err:
        run_step(ieee9, attachments, 12, None, CoSimOptions(max_fpi=1, tol_boundary=1e-12))
    assert len(err.value.history) >= 2


def test_attach_validates_bus(ieee9, desk13):
    with pytest.raises(ValueError, match="unknown bus"):
        attach(ieee9, 99, desk13)
    with pytest.raises(ValueError, match="pq"):
        attach(ieee9, 1, desk13)


@pytest.mark.parametrize("mva_base", [50, 200])
def test_attach_rejects_a_feeder_on_another_mva_base(ieee9, mva_base):
    # Both models read the substation transformer impedance on their own
    # base, so a feeder on another base would disagree with the oracle.
    raw = json.loads(data_path("desk13.json").read_text(encoding="utf-8"))
    other = load_feeder(json.dumps({**raw, "mva_base": mva_base}))
    message = f"feeder MVA base {mva_base} differs from the network's 100$"
    with pytest.raises(ValueError, match=message):
        attach(ieee9, 5, other)
    same = load_feeder(json.dumps({**raw, "mva_base": 100}))
    assert attach(ieee9, 5, same).feeder is same


def test_solver_errors_tagged_with_side(ieee9):
    from pvcosim.coupler import CosimError

    from .conftest import small_feeder

    # distribution side: load beyond the feeder line's transfer limit
    sick = load_feeder(small_feeder(load_kw=4.0e5, load_kvar=2.0e5))
    with pytest.raises(CosimError) as err:
        run_step(ieee9, [attach(ieee9, 5, sick)], 12, None)
    assert err.value.side == "distribution"

    # transmission side: boundary load far beyond transfer capability but
    # harmless for the ideal degenerate feeder itself
    heavy = load_feeder(constant_load_feeder(9.0e5, 3.0e5))
    with pytest.raises(CosimError) as err2:
        run_step(ieee9, [attach(ieee9, 5, heavy)], 12, None)
    assert err2.value.side == "transmission"


def test_multiple_attachments_per_bus(ieee9):
    one = load_feeder(constant_load_feeder(25e3, 6e3))
    double = load_feeder(constant_load_feeder(50e3, 12e3))
    two_small = run_step(ieee9, [attach(ieee9, 5, one), attach(ieee9, 5, one)], 12, None)
    one_big = run_step(ieee9, [attach(ieee9, 5, double)], 12, None)
    va = two_small.seq_solution.v1[two_small.seq_solution.index_of(5)]
    vb = one_big.seq_solution.v1[one_big.seq_solution.index_of(5)]
    assert abs(va - vb) < 1e-6


# ---------------------------------------------------------------------------
# equivalent_load / source_voltage
# ---------------------------------------------------------------------------


def test_equivalent_load_zero_feeder(ieee9):
    feeder = load_feeder(constant_load_feeder(1e-6, 0.0))
    att = attach(ieee9, 5, feeder)

    fs = solve_feeder(feeder, phases_from_sequences(0.0, 1.0, 0.0))
    s = equivalent_load(fs, [att])
    assert s.shape == (1, 3)
    assert np.max(np.abs(s)) < 1e-10


def test_equivalent_load_balanced_feeder_has_no_negative_sequence(ieee9, desk13):
    # a perfectly balanced degenerate feeder yields phase powers whose
    # sequence current content is pure positive
    feeder = load_feeder(constant_load_feeder(30e3, 9e3))
    att = attach(ieee9, 5, feeder)
    from pvcosim.sequences import phase_currents

    fs = solve_feeder(feeder, phases_from_sequences(0.0, 1.0, 0.0))
    (s,) = equivalent_load(fs, [att])
    i_ph = phase_currents(s, phases_from_sequences(0.0, 1.0, 0.0))
    i_seq = A_ANA @ i_ph
    assert abs(i_seq[0]) < 1e-9
    assert abs(i_seq[2]) < 1e-9


def test_unbalanced_feeder_excites_negative_sequence_at_pcc(ieee9):
    doc = json.loads(constant_load_feeder(45e3, 11e3))
    loads = doc["nodes"][0]["loads"]
    loads["a"][0] *= 1.05
    loads["c"][0] *= 0.95
    feeder = load_feeder(json.dumps(doc))
    atts = [attach(ieee9, 5, feeder)]
    res = run_step(ieee9, atts, 12, None)
    sol = res.seq_solution
    i = sol.index_of(5)
    assert abs(sol.v2[i]) > 1e-5
    # cross-check against a direct three-sequence solve with the same
    # boundary powers on the same effective network
    from pvcosim.coupler import effective_network

    direct = solve_three_sequence(
        effective_network(ieee9, atts), {5: res.final_boundary.s_phase[0]}, SolverOptions()
    )
    assert abs(direct.v2[direct.index_of(5)] - sol.v2[i]) < 1e-4


def test_source_voltage_balanced(base_result, attachments):
    sol = base_result.seq_solution

    v = source_voltage(sol, attachments)
    assert v.shape == (len(attachments), 3)
    for row, att in zip(v, attachments):
        i = sol.index_of(att.bus)
        expected = phases_from_sequences(sol.v0[i], sol.v1[i], sol.v2[i])
        assert row.tobytes() == expected.tobytes()


def test_source_voltage_reconstruction_spread():
    from pvcosim.transmission import SeqSolution

    sol = SeqSolution(
        bus_ids=(5,),
        v0=np.array([0j]),
        v1=np.array([1.05 + 0j]),
        v2=np.array([0.002 + 0j]),
        slack_power_pu=0j,
        iterations_outer=1,
        iterations_nr=1,
        max_mismatch=0.0,
        loads_phase=np.zeros((1, 3), dtype=complex),
    )

    class Att:
        bus = 5

    (v,) = source_voltage(sol, [Att()])
    mags = np.abs(v)
    assert mags.max() - mags.min() <= 2 * 0.002 + 1e-12
    assert mags.max() - mags.min() > 0


def test_pcc_band_under_sweeps(ieee9, attachments, desk13, profile):
    mags = []
    for level in (0, 50, 100):
        scen = None
        if level:
            s = generate(desk13, [level], 1, master_seed=1)[0]
            scen = [s, s, s]
        res = run_step(ieee9, attachments, 12, scen, profile=profile)
        mags.append(np.abs(res.final_boundary.v_phase))
    allmag = np.concatenate([m.ravel() for m in mags])
    assert allmag.min() >= 1.04
    assert allmag.max() <= 1.07
