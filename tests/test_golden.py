"""The bundled sweep reproduces a checked-in ``results.csv`` and ``compare.csv``.

``tests/data/results_small.csv`` was emitted for
``RunConfig.bundled(n_scenarios=2, levels=(10, 50, 100), hours=(7, 12))``.
Identifiers, iteration counts, errors and flags must match exactly; every
float within 1e-12 absolute, which leaves room for last-bit differences
between BLAS builds but catches any change to the numerics.

``tests/data/compare_small.csv`` was emitted for the same grid in ``both``
mode. Its ``v_unified`` values were first those of the Newton oracle,
before its steps reused a factor; the chord-step oracle that emitted the
current file moved them by at most 1.3e-11 pu. Identifiers and
``v_cosim`` must match as above; the oracle's ``v_unified`` and ``diff``
within 1e-9 pu, the bound that holds Newton to the fixed-point reference
in ``test_newton_matches_fixed_point_reference``.
"""

import csv
from pathlib import Path

import pytest

from pvcosim.driver import RunConfig, emit, run

GOLDEN = Path(__file__).parent / "data" / "results_small.csv"
GOLDEN_COMPARE = Path(__file__).parent / "data" / "compare_small.csv"
GRID = dict(n_scenarios=2, levels=(10, 50, 100), hours=(7, 12))
EXACT = (
    "scenario",
    "level",
    "hour",
    "error",
    "fpi_iterations",
    "reversed_branches",
    "slack_absorbing",
)


def _read(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_small_sweep_matches_golden_results(tmp_path):
    cfg = RunConfig.bundled(**GRID)
    got = _read(emit(run(cfg), tmp_path)["results"])
    want = _read(GOLDEN)
    assert got[0] == want[0]
    header = want[0]
    assert len(got) == len(want)
    for got_row, want_row in zip(got[1:], want[1:]):
        assert len(got_row) == len(want_row) == len(header)
        key = got_row[:3]
        for name, g, w in zip(header, got_row, want_row):
            if name in EXACT or not w:
                assert g == w, (key, name)
            else:
                assert float(g) == pytest.approx(float(w), rel=0, abs=1e-12), (key, name)


def test_small_sweep_matches_golden_comparison(tmp_path):
    got = _read(emit(run(RunConfig.bundled(**GRID, mode="both")), tmp_path)["compare"])
    want = _read(GOLDEN_COMPARE)
    assert got[0] == want[0] == ["scenario", "level", "hour", "bus", "v_cosim", "v_unified", "diff"]
    assert len(got) == len(want)
    for got_row, want_row in zip(got[1:], want[1:]):
        assert got_row[:4] == want_row[:4]
        key = got_row[:4]
        assert float(got_row[4]) == pytest.approx(float(want_row[4]), rel=0, abs=1e-12), key
        for g, w in zip(got_row[5:], want_row[5:]):
            assert float(g) == pytest.approx(float(w), rel=0, abs=1e-9), key
