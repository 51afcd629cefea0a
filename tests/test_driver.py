import csv
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from pvcosim import (
    attach,
    compare,
    data_path,
    generate,
    run_step,
    solve_unified,
    unbalance_factor,
)
from pvcosim import coupler, driver
from pvcosim.cli import main as cli_main
from pvcosim.coupler import CoSimOptions
from pvcosim.driver import (
    RunConfig,
    _Runner,
    detect_reverse_flow,
    emit,
    run,
    validate_config,
)
from pvcosim.feeder import FeederOps, forest
from pvcosim.scenarios import feeder_seed
from pvcosim.transmission import SequenceOps
from pvcosim.unified import UnifiedOps

from .conftest import constant_load_feeder, small_feeder

ROOT = Path(__file__).resolve().parents[1]

COMPARE_HEADER = "scenario,level,hour,bus,v_cosim,v_unified,diff"


def small_config(**overrides):
    base = dict(levels=(10,), n_scenarios=1, hours=(12,), master_seed=7)
    base.update(overrides)
    return RunConfig.bundled(**base)


@pytest.fixture(scope="module")
def small_results():
    return run(small_config())


def test_single_record_matches_direct_coupler_call(ieee9, desk13, small_results):
    assert len(small_results.records) == 1
    base = small_results.baseline[12]
    atts = [attach(ieee9, b, desk13) for b in (5, 6, 8)]
    direct = run_step(ieee9, atts, 12, None)
    fb = direct.final_boundary
    assert np.max(np.abs(base.v_phase - fb.v_phase)) < 1e-12
    assert np.max(np.abs(base.s_phase - fb.s_phase)) < 1e-12
    assert base.fpi_iterations == direct.fpi_iterations


def test_record_count_matches_grid():
    cfg = small_config(levels=(10, 20), n_scenarios=2)
    rs = run(cfg)
    assert len(rs.records) == 4
    keys = {(r.scenario_id, r.level, r.hour) for r in rs.records}
    assert len(keys) == 4


def test_emit_files(tmp_path, small_results):
    paths = emit(small_results, tmp_path)
    for p in paths.values():
        assert p.exists()
    assert not (tmp_path / "compare.csv").exists()  # written in "both" mode only
    with open(paths["results"]) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    row = rows[0]
    assert row["scenario"] == "0"
    assert row["level"] == "10"
    rec = small_results.records[0]
    assert float(row["slack_p"]) == pytest.approx(rec.slack_p)
    assert float(row["v5_a_mag"]) == pytest.approx(abs(rec.v_phase[0, 0]))

    agg = json.loads(paths["aggregates"].read_text())
    assert "10" in agg["levels"]

    with open(paths["trace"]) as fh:
        lines = [json.loads(line) for line in fh]
    assert all("fpi" in entry for entry in lines)


def test_empty_resultset_emits_headers(tmp_path, small_results):
    from pvcosim.driver import ResultSet

    empty = ResultSet(config=small_results.config, records=[], baseline=small_results.baseline)
    paths = emit(empty, tmp_path / "empty")
    text = paths["results"].read_text().splitlines()
    assert len(text) == 1 and text[0].startswith("scenario,")


def test_error_with_commas_stays_one_column(tmp_path, small_results):
    from pvcosim.driver import ResultSet

    message = "SequenceSolveError: singular sequence network; affected buses [1, 2]"
    failed = replace(small_results.records[0], error=message)
    rs = ResultSet(config=small_results.config, records=[failed], baseline={})
    with open(emit(rs, tmp_path)["results"], newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert [len(row) for row in rows] == [len(header)]
    assert rows[0][header.index("error")] == message


def test_replay_is_bit_identical(tmp_path):
    cfg = small_config(levels=(10, 30), n_scenarios=2)
    a = emit(run(cfg), tmp_path / "a")
    b = emit(run(cfg), tmp_path / "b")
    assert a["results"].read_bytes() == b["results"].read_bytes()
    assert a["aggregates"].read_bytes() == b["aggregates"].read_bytes()


def test_aggregates_match_csv_recomputation(tmp_path):
    cfg = small_config(levels=(10, 50), n_scenarios=3)
    rs = run(cfg)
    paths = emit(rs, tmp_path)
    agg = json.loads(paths["aggregates"].read_text())
    with open(paths["results"]) as fh:
        rows = [r for r in csv.DictReader(fh) if not r["error"]]
    for level, ldata in agg["levels"].items():
        sel = [r for r in rows if r["level"] == level]
        assert ldata["n_records"] == len(sel)
        fpi = [int(r["fpi_iterations"]) for r in sel]
        assert abs(ldata["mean_fpi"] - sum(fpi) / len(fpi)) < 1e-12
        for bus, bdata in ldata["pcc"].items():
            for k, ph in enumerate("abc"):
                mean_v = sum(float(r[f"v{bus}_{ph}_mag"]) for r in sel) / len(sel)
                assert abs(bdata["mean_v"][k] - mean_v) < 1e-12


def test_unbalance_factor_balanced_is_zero():
    # The package export is the function the driver records VUF with.
    assert unbalance_factor is driver.unbalance_factor
    v = np.array([1, np.exp(-2j * np.pi / 3), np.exp(2j * np.pi / 3)])
    assert unbalance_factor(v) == pytest.approx(0.0, abs=1e-12)


def test_unbalance_factor_hand_value():
    # |V2| / |V1| written out from the Fortescue definition, a = 1 at 120 degrees.
    a = np.exp(2j * np.pi / 3)
    va, vb, vc = 1.0, np.exp(-2j * np.pi / 3), 1.02 * np.exp(2j * np.pi / 3)
    v1 = (va + a * vb + a * a * vc) / 3
    v2 = (va + a * a * vb + a * vc) / 3
    got = unbalance_factor(np.array([va, vb, vc]))
    assert got == pytest.approx(100 * abs(v2) / abs(v1), abs=1e-12)


def test_reverse_flow_baseline_has_no_flags(small_results):
    flags = detect_reverse_flow(small_results)
    rec = small_results.records[0]  # 10% PV: no reversals expected
    f = flags[(rec.scenario_id, rec.level, rec.hour)]
    assert f["reversed_branches"] == ()
    assert not f["slack_absorbing"]


def test_reverse_flow_threshold_scan():
    cfg = small_config(levels=tuple(range(10, 101, 10)), n_scenarios=1)
    rs = run(cfg)
    flags = detect_reverse_flow(rs)
    absorbing = [
        (r.level, flags[(r.scenario_id, r.level, r.hour)]["slack_absorbing"])
        for r in rs.records
    ]
    absorbing.sort()
    levels_on = [lvl for lvl, on in absorbing if on]
    assert levels_on, "a slack-absorption crossing level must exist"
    first = levels_on[0]
    assert all(on for lvl, on in absorbing if lvl >= first)

    reversed_sets = {
        r.level: set(flags[(r.scenario_id, r.level, r.hour)]["reversed_branches"])
        for r in rs.records
    }
    assert any(reversed_sets[lvl] for lvl in reversed_sets), "some branch must reverse"


def test_per_run_isolation():
    cfg = small_config(
        levels=(10, 50), n_scenarios=1, coupler=CoSimOptions(max_fpi=1, tol_boundary=1e-12)
    )
    rs = run(cfg)
    assert all(r.error is not None for r in rs.records)
    # the sweep completed and is still emittable
    import tempfile

    with tempfile.TemporaryDirectory() as d:
        paths = emit(rs, d)
        assert paths["results"].exists()


def _trace_rows(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh]


def test_trace_rows_are_the_boundary_histories(tmp_path):
    rs = run(small_config(levels=(10, 50)))
    rows = _trace_rows(emit(rs, tmp_path)["trace"])
    expected = [
        (rec, st) for rec in [*rs.baseline.values(), *rs.records] for st in rec.boundary_history
    ]
    assert len(rows) == len(expected) > 0
    for row, (rec, st) in zip(rows, expected):
        key = [rec.scenario_id, rec.level, rec.hour]
        assert [row["scenario"], row["level"], row["hour"]] == key
        assert row["fpi"] == st.iteration
        assert row["err"] == st.error
        for name, arr in (("v", st.v_phase), ("s", st.s_phase)):
            got = np.array([[complex(x) for x in r] for r in row[name]])
            np.testing.assert_allclose(got, arr, rtol=1e-9, atol=0)


def test_failed_case_keeps_its_boundary_history(tmp_path):
    cfg = small_config(coupler=CoSimOptions(max_fpi=2, tol_boundary=1e-12))
    rs = run(cfg)
    (rec,) = rs.records
    assert rec.error.startswith("CosimNonConvergenceError: ")
    rows = [
        row
        for row in _trace_rows(emit(rs, tmp_path)["trace"])
        if (row["scenario"], row["level"]) == (rec.scenario_id, rec.level)
    ]
    assert [row["fpi"] for row in rows] == [0, 1, 2]
    assert rows[0]["err"] is None
    assert all(row["err"] is not None and row["err"] > 1e-12 for row in rows[1:])


def test_each_feeder_file_parsed_once(monkeypatch):
    parsed = []
    load = driver.load_feeder_file

    def counted(path):
        parsed.append(path)
        return load(path)

    monkeypatch.setattr(driver, "load_feeder_file", counted)
    cfg = small_config()
    runner = _Runner(cfg)
    assert parsed == [str(data_path("desk13.json"))]
    assert len(runner.attachments) == len(cfg.feeders) == 3


def test_one_feeder_operator_per_distinct_feeder(monkeypatch):
    builds = []
    build = FeederOps.__init__

    def counted(self, model):
        builds.append(model)
        build(self, model)

    monkeypatch.setattr(FeederOps, "__init__", counted)
    runner = _Runner(RunConfig.bundled(levels=(10,)))
    assert len(builds) == 1
    assert len({id(a.ops) for a in runner.attachments}) == 1


def test_config_from_file(tmp_path):
    from pvcosim import data_path

    doc = {
        "network": str(data_path("ieee9.json")),
        "feeders": [
            {"path": str(data_path("desk13.json")), "bus": 5},
            {"path": str(data_path("desk13.json")), "bus": 6},
        ],
        "profile": str(data_path("pv_profile.json")),
        "levels": [10, 20],
        "n_scenarios": 2,
        "master_seed": 3,
        "mode": "cosim",
        "solver": {"tol_nr": 1e-9},
        "coupler": {"tol_boundary": 1e-5},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    cfg = RunConfig.from_file(path)
    assert cfg.levels == (10, 20)
    assert cfg.solver.tol_nr == 1e-9
    assert cfg.coupler.tol_boundary == 1e-5


@pytest.mark.parametrize("removed", ["tol_seq", "max_outer"])
def test_config_from_file_rejects_removed_solver_options(tmp_path, removed):
    # One Newton solves all three sequences: there is no sequence-coupling
    # loop left for these two options to stop.
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**BUNDLED_DOC, "solver": {"tol_nr": 1e-9, removed: 5}}))
    with pytest.raises(ValueError, match=f"unknown solver option '{removed}'"):
        RunConfig.from_file(path)


def test_config_validation(tmp_path):
    with pytest.raises(ValueError):
        validate_config(small_config(levels=()))
    with pytest.raises(ValueError):
        validate_config(small_config(mode="quantum"))
    with pytest.raises(FileNotFoundError):
        validate_config(small_config(network=str(tmp_path / "missing.json")))
    for hours in [(25,), (12, -1), (24,)]:
        with pytest.raises(ValueError, match="hours"):
            validate_config(small_config(hours=hours))
    # What generate would reject fails here, before any case runs.
    with pytest.raises(ValueError, match="n_scenarios"):
        validate_config(small_config(n_scenarios=-1))
    for levels in [(150,), (10, 15), (0,)]:
        with pytest.raises(ValueError, match="levels"):
            validate_config(small_config(levels=levels))
    with pytest.raises(ValueError, match="scenario mode"):
        validate_config(small_config(scenario_mode="chaotic"))


def test_both_mode_records_diff():
    cfg = small_config(mode="both")
    rs = run(cfg)
    rec = rs.records[0]
    assert rec.oracle_diff is not None
    assert rec.oracle_diff < 1e-3


def test_compare_csv_matches_direct_calls(tmp_path, ieee9, desk13, profile):
    cfg = small_config(mode="both")
    paths = emit(run(cfg), tmp_path)
    with open(paths["compare"]) as fh:
        assert fh.readline().strip() == COMPARE_HEADER
        fh.seek(0)
        rows = list(csv.DictReader(fh))
    assert [(r["scenario"], r["level"], r["hour"]) for r in rows] == (
        [("0", "0", "12")] * 3 + [("0", "10", "12")] * 3
    )

    atts = [attach(ieee9, b, desk13) for b in (5, 6, 8)]
    drawn = [
        generate(desk13, [10], 1, feeder_seed(cfg.master_seed, k))[0] for k in range(3)
    ]
    for level, scen in ((0, None), (10, drawn)):
        cs = run_step(ieee9, atts, 12, scen, profile=profile)
        us = solve_unified(ieee9, atts, 12, scen, profile=profile)
        per_pcc = compare(cs, us, atts)["per_pcc"]
        got = [r for r in rows if r["level"] == str(level)]
        for row, ref in zip(got, per_pcc, strict=True):
            assert int(row["bus"]) == ref["bus"]
            assert float(row["v_unified"]) == abs(ref["v_unified"])
            assert abs(float(row["v_cosim"]) - abs(ref["v_cosim"])) < 1e-12
            assert abs(float(row["diff"]) - ref["diff"]) < 1e-12


def test_oracle_mode_runs_unified_only():
    cosim = run(small_config()).records[0]
    rec = run(small_config(mode="oracle")).records[0]
    assert rec.fpi_iterations == 0
    assert rec.oracle_v1 is not None
    assert np.max(np.abs(rec.v_phase - cosim.v_phase)) < 1e-3
    assert abs(rec.slack_p - cosim.slack_p) < 1e-3


def test_multi_hour_sweep_shape():
    cfg = small_config(hours=(7, 12, 19))
    rs = run(cfg)
    assert len(rs.records) == 3
    assert sorted(r.hour for r in rs.records) == [7, 12, 19]
    assert set(rs.baseline) == {7, 12, 19}


def test_voltage_trend_classification():
    cfg = small_config(levels=tuple(range(10, 101, 10)), n_scenarios=1)
    rs = run(cfg)
    trend = rs.aggregates()["voltage_trend"]
    assert set(trend) == {"5", "6", "8"}
    kinds = {t["trend"] for t in trend.values()}
    assert "rises_then_falls" in kinds
    assert trend["8"]["trend"] == "monotonic_rise"


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_validate(capsys):
    rc = cli_main(["validate"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "PASS" in out


def test_cli_run(tmp_path, capsys):
    rc = cli_main(
        ["run", "--levels", "10", "--scenarios", "1", "--out", str(tmp_path)]
    )
    assert rc == 0
    assert (tmp_path / "results.csv").exists()
    assert (tmp_path / "aggregates.json").exists()
    assert (tmp_path / "trace.jsonl").exists()
    assert (tmp_path / "plot_voltage.csv").exists()
    assert (tmp_path / "plot_iterations.csv").exists()


@pytest.mark.parametrize(
    "command, args, message",
    [
        ("run", ["--hours", "25"], "pvcosim run: error: hours must lie in 0..23, got (25,)"),
        ("validate", ["--config", "missing.json"], "pvcosim validate: error: [Errno 2]"),
        ("compare", ["--config", "missing.json"], "pvcosim compare: error: [Errno 2]"),
    ],
)
def test_cli_rejected_config_is_a_usage_error(tmp_path, command, args, message):
    _assert_usage_error(tmp_path, command, args, message)


def _assert_usage_error(tmp_path, command, args, message):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, "-m", "pvcosim.cli", command, *args, "--out", str(tmp_path)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 2
    assert "Traceback" not in done.stderr
    assert done.stderr.startswith(message) and done.stderr.count("\n") == 1
    assert done.stdout == ""


BUNDLED_DOC = {
    "network": str(data_path("ieee9.json")),
    "feeders": [{"path": str(data_path("desk13.json")), "bus": 5}],
    "profile": str(data_path("pv_profile.json")),
}


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda d: d.pop("network"), "configuration lacks the required key 'network'"),
        (lambda d: d.pop("profile"), "configuration lacks the required key 'profile'"),
        (lambda d: d["feeders"][0].pop("bus"), "feeder 0 lacks the required key 'bus'"),
        (lambda d: d.update(solver={"tol": 1e-9}), "unknown solver option 'tol'"),
        (lambda d: d.update(coupler={"max_fpi": 5, "damping": 0.5}),
         "unknown coupler option 'damping'"),
        (lambda d: d.update(scenario_mode="chaotic"), "unknown scenario mode 'chaotic'"),
        (lambda d: d.update(n_scenario=3), "unknown configuration key 'n_scenario'"),
        (lambda d: d["feeders"][0].update(weight=2), "unknown feeder 0 key 'weight'"),
        (lambda d: d.update(hours=[]), "hours must be non-empty"),
        (lambda d: d.update(coupler={"feeder_max_iter": 0}),
         "feeder_max_iter must be at least 1"),
        (lambda d: d.update(coupler={"feeder_tol": 0}), "feeder_tol must be positive"),
    ],
)
def test_cli_malformed_config_file_is_a_usage_error(tmp_path, edit, message):
    doc = json.loads(json.dumps(BUNDLED_DOC))
    edit(doc)
    (tmp_path / "cfg.json").write_text(json.dumps(doc))
    _assert_usage_error(tmp_path, "run", ["--config", "cfg.json"], f"pvcosim run: error: {message}")


@pytest.mark.parametrize(
    "args, message",
    [
        (["--scenarios", "-1"], "n_scenarios must not be negative, got -1"),
        (["--levels", "150"], "levels must be multiples of 10 in 10..100, got 150"),
    ],
)
def test_cli_bad_sweep_option_is_a_usage_error(tmp_path, args, message):
    _assert_usage_error(tmp_path, "run", args, f"pvcosim run: error: {message}")


def one_feeder_config(tmp_path, feeder_path, **extra):
    doc = {
        "network": str(data_path("ieee9.json")),
        "feeders": [{"path": str(feeder_path), "bus": 5}],
        "profile": str(data_path("pv_profile.json")),
        **extra,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_cli_validate_failed_base_case(tmp_path, capsys):
    cfg = one_feeder_config(
        tmp_path, data_path("desk13.json"), coupler={"max_fpi": 1, "tol_boundary": 1e-12}
    )
    rc = cli_main(["validate", "--config", cfg])
    out = capsys.readouterr().out
    assert rc == 1
    assert "FAIL" in out
    assert "[coupler]" in out


def test_cli_validate_feeder_without_customers(tmp_path, capsys):
    feeder = json.loads(small_feeder(trafo_z=(0.5, 2.0)))
    del feeder["nodes"][1]["loads"]
    (tmp_path / "feeder.json").write_text(json.dumps(feeder))
    rc = cli_main(["validate", "--config", one_feeder_config(tmp_path, "feeder.json")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "0 customers" in out
    assert "PASS" in out


def test_both_mode_keeps_cosim_when_oracle_fails(tmp_path):
    # A zero substation impedance suits the sweep; the unified solve rejects it.
    (tmp_path / "feeder.json").write_text(constant_load_feeder(1e4, 2e3))

    def sweep(mode):
        cfg = one_feeder_config(tmp_path, "feeder.json", levels=[10], mode=mode)
        return run(RunConfig.from_file(cfg))

    cosim, both = sweep("cosim"), sweep("both")
    assert len(both.records) == 1
    for ref, rec in ((cosim.baseline[12], both.baseline[12]), (cosim.records[0], both.records[0])):
        assert ref.error is None
        assert rec.error.startswith("UnifiedSolveError: ")
        assert rec.oracle_v1 is None and rec.oracle_diff is None
        assert rec.v_phase.tobytes() == ref.v_phase.tobytes()
        assert rec.s_phase.tobytes() == ref.s_phase.tobytes()
        assert rec.fpi_iterations == ref.fpi_iterations
        assert len(rec.boundary_history) == len(ref.boundary_history) > 0
        for a, b in zip(rec.boundary_history, ref.boundary_history):
            assert a.v_phase.tobytes() == b.v_phase.tobytes()
            assert a.s_phase.tobytes() == b.s_phase.tobytes()
            assert a.error == b.error
    # The oracle's topology build failed in the baseline case; the next
    # case builds it again and fails with the same text.
    assert both.records[0].error == both.baseline[12].error


def test_oracle_topology_built_once_per_run_and_only_for_the_oracle(monkeypatch):
    builds = []
    build = UnifiedOps.__init__

    def counted(self, *args, **kwargs):
        builds.append(args)
        build(self, *args, **kwargs)

    monkeypatch.setattr(UnifiedOps, "__init__", counted)
    run(small_config(levels=(10, 20)))
    assert builds == []
    run(small_config(levels=(10, 20), mode="both"))
    assert len(builds) == 1


def test_cosim_operators_built_once_per_run_and_not_for_the_oracle(monkeypatch):
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
    for mode in ("oracle", "cosim", "both"):
        builds.clear()
        run(small_config(levels=(10, 20), mode=mode))
        assert sorted(builds) == ([] if mode == "oracle" else ["SequenceOps", "forest"]), mode


def test_cli_compare(tmp_path, capsys):
    rc = cli_main(
        ["compare", "--levels", "10,50", "--scenarios", "1", "--out", str(tmp_path)]
    )
    out = capsys.readouterr().out
    assert rc == 0
    lines = (tmp_path / "compare.csv").read_text().splitlines()
    assert lines[0] == COMPARE_HEADER
    assert len(lines) == 1 + 3 * 3  # baseline, 10 % and 50 %, three PCCs each
    assert "max positive-sequence PCC difference" in out


def test_cli_compare_covers_every_hour(tmp_path, capsys):
    rc = cli_main(
        ["compare", "--levels", "10", "--hours", "7,12", "--out", str(tmp_path)]
    )
    assert rc == 0
    with open(tmp_path / "compare.csv") as fh:
        cases = {(r["level"], r["hour"]) for r in csv.DictReader(fh)}
    assert cases == {("0", "7"), ("0", "12"), ("10", "7"), ("10", "12")}


def test_cli_jobs_parallel_matches_serial(tmp_path):
    cfg_doc = None
    rc = cli_main(
        ["run", "--levels", "10,20", "--scenarios", "2", "--out", str(tmp_path / "s"),
         "--jobs", "1"]
    )
    assert rc == 0
    rc = cli_main(
        ["run", "--levels", "10,20", "--scenarios", "2", "--out", str(tmp_path / "p"),
         "--jobs", "2"]
    )
    assert rc == 0
    assert (tmp_path / "s" / "results.csv").read_bytes() == (
        tmp_path / "p" / "results.csv"
    ).read_bytes()
