"""The bundled sweep reproduces a checked-in ``results.csv``.

``tests/data/results_small.csv`` was emitted for
``RunConfig.bundled(n_scenarios=2, levels=(10, 50, 100), hours=(7, 12))``.
Identifiers, iteration counts, errors and flags must match exactly; every
float within 1e-12 absolute, which leaves room for last-bit differences
between BLAS builds but catches any change to the numerics.
"""

import csv
from pathlib import Path

import pytest

from pvcosim.driver import RunConfig, emit, run

GOLDEN = Path(__file__).parent / "data" / "results_small.csv"
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
    cfg = RunConfig.bundled(n_scenarios=2, levels=(10, 50, 100), hours=(7, 12))
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
