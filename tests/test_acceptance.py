"""Acceptance suite: one test per release criterion, each printing a
PASS line with the measured figure when it holds.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the figures.
"""

import time

import numpy as np
import pytest

from pvcosim import (
    attach,
    compare,
    generate,
    run_step,
    solve_feeder,
    solve_three_sequence,
    solve_unified,
    verify_fixed_point,
)
from pvcosim.coupler import CoSimOptions
from pvcosim.driver import RunConfig, emit, run
from pvcosim.sequences import phase_to_sequence, phases_from_sequences, sequence_to_phase
from pvcosim.transmission import SolverOptions

from .oracles import balanced_power_flow

LEVELS = tuple(range(10, 101, 10))


@pytest.fixture(scope="module")
def attachments(ieee9, desk13):
    return [attach(ieee9, b, desk13) for b in (5, 6, 8)]


@pytest.fixture(scope="module")
def full_sweep():
    """The 100-scenario x 10-level noon sweep shared by criteria 5 and 6."""
    cfg = RunConfig.bundled(levels=LEVELS, n_scenarios=100, hours=(12,), master_seed=1)
    t0 = time.perf_counter()
    results = run(cfg)
    elapsed = time.perf_counter() - t0
    print(f"\n[sweep] {len(results.records)} co-simulations in {elapsed:.1f} s")
    return results


def test_criterion_1_cosim_vs_oracle_equivalence(ieee9, desk13, profile, attachments):
    """Max positive-sequence PCC difference < 0.001 pu across all levels."""
    t0 = time.perf_counter()
    worst = 0.0
    for level in LEVELS:
        scen = [
            generate(desk13, [level], 1, master_seed=k)[0] for k in range(3)
        ]
        cs = run_step(ieee9, attachments, 12, scen, profile=profile)
        us = solve_unified(ieee9, attachments, 12, scen, profile=profile)
        rep = compare(cs, us, attachments)
        worst = max(worst, rep["max_diff"])
    elapsed = time.perf_counter() - t0
    assert worst < 1e-3
    assert elapsed < 60.0
    print(
        f"\nPASS criterion 1: co-sim vs unified oracle, 10 levels, "
        f"max |dV1| = {worst:.2e} pu (< 1e-3), {elapsed:.1f} s (< 60 s)"
    )


def test_criterion_2_balanced_degeneracy(ieee9):
    """Balanced loads and transposed lines collapse to one sequence.

    The reference is a textbook polar Newton on the positive sequence
    alone, run to 1e-13. The solve runs to 1e-12, so that the gap measures
    the degeneracy and not where Newton stops: at the default 1e-8 it
    stops 3.0e-10 away.
    """
    t0 = time.perf_counter()
    sol = solve_three_sequence(ieee9, opts=SolverOptions(tol_nr=1e-12))
    v_nr = balanced_power_flow(ieee9, 1e-13)
    v0 = float(np.max(np.abs(sol.v0)))
    v2 = float(np.max(np.abs(sol.v2)))
    gap = float(np.max(np.abs(sol.v1 - v_nr)))
    elapsed = time.perf_counter() - t0
    assert v0 < 1e-9 and v2 < 1e-9
    assert gap < 1e-10
    assert elapsed < 1.0
    print(
        f"\nPASS criterion 2: balanced degeneracy, max|V0| = {v0:.1e}, "
        f"max|V2| = {v2:.1e} (< 1e-9), vs textbook single-sequence NR {gap:.1e} "
        f"(< 1e-10), {elapsed*1e3:.0f} ms (< 1 s)"
    )


def test_criterion_3_certificates(ieee9, desk13, attachments):
    """Transform, solver, feeder and fixed-point certificates."""
    rng = np.random.default_rng(42)
    worst_rt = 0.0
    for _ in range(200):
        v = rng.normal(size=3) + 1j * rng.normal(size=3)
        back = sequence_to_phase(phase_to_sequence(*v))
        worst_rt = max(worst_rt, float(np.max(np.abs(np.array(back) - v))))
    assert worst_rt < 1e-12

    mismatch = solve_three_sequence(ieee9).max_mismatch
    assert mismatch <= 1e-8

    src = phases_from_sequences(0.0, 1.0, 0.0)
    fs = solve_feeder(desk13, src, tol=1e-10)
    i_base = desk13.mva_base * 1e6 / 3 / desk13.v_ln_base
    children = {}
    for ln in desk13.lines:
        children.setdefault(ln.from_node, []).append((ln.from_node, ln.to_node))
    kcl_worst = 0.0
    for i, node in enumerate(desk13.nodes):
        into = (
            fs.head_current
            if node.id == desk13.root
            else fs.line_currents[
                next(
                    (l.from_node, l.to_node)
                    for l in desk13.lines
                    if l.to_node == node.id
                )
            ]
        )
        out = sum(
            (fs.line_currents[key] for key in children.get(node.id, [])),
            np.zeros(3, dtype=complex),
        )
        load_i = np.zeros(3, dtype=complex)
        for ph, s_kw in node.loads.items():
            k = "abc".index(ph)
            load_i[k] = np.conj(s_kw * 1e3 / fs.v[i, k])
        kcl_worst = max(kcl_worst, float(np.max(np.abs(into - out - load_i)) / i_base))
    assert kcl_worst <= 1e-6

    loss = 0j
    for ln in desk13.lines:
        i = fs.line_currents[(ln.from_node, ln.to_node)]
        loss += ((fs.voltage(ln.from_node) - fs.voltage(ln.to_node)) * np.conj(i)).sum()
    loss += ((src * desk13.v_ln_base - fs.voltage(desk13.root)) * np.conj(fs.head_current)).sum()
    net_load = sum(n.load_vector().sum() for n in desk13.nodes) * 1e3
    audit = abs(fs.pcc_power_kw.sum() * 1e3 - net_load - loss) / (desk13.mva_base * 1e6)
    assert audit <= 1e-6

    ieee9_result = run_step(ieee9, attachments, 12, None)
    cert = verify_fixed_point(ieee9, attachments, ieee9_result)
    assert cert <= CoSimOptions().tol_boundary

    print(
        f"\nPASS criterion 3: roundtrip {worst_rt:.1e} (< 1e-12), "
        f"NR mismatch {mismatch:.1e} (<= 1e-8), feeder KCL {kcl_worst:.1e} "
        f"and audit {audit:.1e} (<= 1e-6), FPI certificate {cert:.1e} "
        f"(<= {CoSimOptions().tol_boundary})"
    )


def test_criterion_4_slack_absorption_and_voltage_reversal(ieee9, desk13, profile, attachments):
    """A threshold level exists: slack absorbs and a PCC voltage peaks."""
    slack_p = {}
    mean_v = {b: {} for b in (5, 6, 8)}
    for level in (0,) + LEVELS:
        scen = None
        if level:
            scen = [generate(desk13, [level], 1, master_seed=k)[0] for k in range(3)]
        res = run_step(ieee9, attachments, 12, scen, profile=profile)
        slack_p[level] = res.seq_solution.slack_power_pu.real
        for i, bus in enumerate((5, 6, 8)):
            mean_v[bus][level] = float(np.mean(np.abs(res.final_boundary.v_phase[i])))

    absorbing = [lvl for lvl in (0,) + LEVELS if slack_p[lvl] < 0]
    assert absorbing, "no slack-absorption level found"
    threshold = absorbing[0]
    assert all(slack_p[lvl] < 0 for lvl in LEVELS if lvl >= threshold), (
        "slack absorption must persist at all higher levels"
    )

    reversing = []
    for bus, series in mean_v.items():
        levels = sorted(series)
        values = [series[lvl] for lvl in levels]
        peak = int(np.argmax(values))
        if 0 < peak < len(values) - 1 and values[-1] < values[peak] - 1e-5:
            reversing.append((bus, levels[peak]))
    assert reversing, "at least one PCC voltage must rise then fall"

    print(
        f"\nPASS criterion 4: slack absorbs from level {threshold}% "
        f"(P_slack {slack_p[threshold]:+.3f} pu) and stays absorbing; "
        f"voltage trend reverses at PCC(s) {reversing}"
    )


def test_criterion_5_directional_trend_and_unbalance(full_sweep):
    """Mean PCC draw strictly decreases per phase; unbalance stays < 1%."""
    ok = [r for r in full_sweep.records if r.error is None]
    assert len(ok) == len(full_sweep.records)
    prev = None
    for level in LEVELS:
        sel = [r for r in ok if r.level == level]
        mean_p = np.mean([r.s_phase.real for r in sel], axis=0)  # (pcc, phase)
        if prev is not None:
            assert np.all(mean_p < prev - 1e-9), f"not strictly decreasing at {level}%"
        prev = mean_p

    worst_vuf = max(max(r.vuf) for r in ok)
    assert worst_vuf < 1.0
    print(
        f"\nPASS criterion 5: mean PCC draw strictly decreasing in every phase "
        f"across levels; worst unbalance factor {worst_vuf:.3f}% (< 1%)"
    )


def test_criterion_6_convergence_behaviour(full_sweep, tmp_path):
    """Every sweep case converges within 20 boundary iterations at 1e-4."""
    ok = [r for r in full_sweep.records if r.error is None]
    assert len(ok) == 1000
    worst = max(r.fpi_iterations for r in ok)
    assert worst <= 20

    paths = emit(full_sweep, tmp_path)
    agg = full_sweep.aggregates()
    means = {int(lvl): round(d["mean_fpi"], 3) for lvl, d in agg["levels"].items()}
    assert paths["plot_iterations"].exists()
    print(
        f"\nPASS criterion 6: all 1000 cases converged, max {worst} boundary "
        f"iterations (<= 20 at tol 1e-4); mean iterations per level {means}"
    )


def test_criterion_7_replay_determinism(tmp_path):
    """Identical config and master seed reproduce results.csv bit-exactly."""
    cfg = RunConfig.bundled(levels=LEVELS, n_scenarios=5, hours=(12,), master_seed=11)
    a = emit(run(cfg), tmp_path / "a")["results"].read_bytes()
    b = emit(run(cfg), tmp_path / "b")["results"].read_bytes()
    assert a == b
    print(
        f"\nPASS criterion 7: two identical runs produced bit-identical "
        f"results.csv ({len(a)} bytes, 50 records)"
    )
