import json

import numpy as np
import pytest

from pvcosim import generate, load_feeder, load_profile, pv_rating
from pvcosim.scenarios import GenerationProfile


def synthetic_feeder(n_customers=20, commercial_every=5):
    nodes = [{"id": "sub", "phases": "abc"}]
    lines = []
    for k in range(n_customers):
        cls = "commercial" if commercial_every and (k % commercial_every == 0) else "residential"
        nodes.append(
            {
                "id": f"c{k}",
                "phases": "abc",
                "customer_class": cls,
                "loads": {"a": [50, 12], "b": [50, 12], "c": [50, 12]},
            }
        )
        lines.append(
            {
                "from": "sub",
                "to": f"c{k}",
                "z_abc": [
                    [[0.1, 0.2], [0, 0], [0, 0]],
                    [[0, 0], [0.1, 0.2], [0, 0]],
                    [[0, 0], [0, 0], [0.1, 0.2]],
                ],
            }
        )
    return load_feeder(
        json.dumps(
            {
                "kv_base": 12.47,
                "peak_kw": n_customers * 150.0,
                "transformer": {"ratio": 10.0, "z": [0.001, 0.02]},
                "nodes": nodes,
                "lines": lines,
            }
        )
    )


# ---------------------------------------------------------------------------
# Profiles
# ---------------------------------------------------------------------------


def test_bundled_profile_invariants(profile):
    for h in list(range(0, 6)) + list(range(20, 24)):
        assert profile.value(h) == 0.0
    assert profile.value(12) == 1.0
    assert profile.daily_energy_per_kw() == pytest.approx(sum(profile.factors))


def test_profile_rejects_out_of_range_hour(profile):
    with pytest.raises(ValueError):
        profile.value(24)
    with pytest.raises(ValueError):
        profile.value(-1)


def test_profile_validation():
    flat = [0.0] * 24
    with pytest.raises(ValueError, match="24"):
        GenerationProfile("x", tuple(flat[:23]))
    bad_night = list(flat)
    bad_night[2] = 0.5
    bad_night[12] = 1.0
    with pytest.raises(ValueError, match="night"):
        GenerationProfile("x", tuple(bad_night))
    no_peak = list(flat)
    no_peak[12] = 0.9
    with pytest.raises(ValueError, match="noon"):
        GenerationProfile("x", tuple(no_peak))


def test_load_profile_roundtrip(profile):
    text = json.dumps({"name": profile.name, "factors": list(profile.factors)})
    again = load_profile(text)
    assert again == profile


# ---------------------------------------------------------------------------
# Ratings
# ---------------------------------------------------------------------------


def test_rating_formula_defaults():
    assert pv_rating("residential", 1000.0, 100) == pytest.approx(10.0)
    assert pv_rating("commercial", 1000.0, 100) == pytest.approx(30.0)


def test_rating_rejects_bad_input():
    with pytest.raises(ValueError):
        pv_rating("residential", 0.0, 10)
    with pytest.raises(ValueError):
        pv_rating("industrial", 1000.0, 10)


def test_full_penetration_total_rating(desk13):
    scenarios = generate(desk13, [100], 1, master_seed=3)
    total = sum(r for _n, _p, r in scenarios[0].placements)
    classes = [n.customer_class for n in desk13.customers()]
    count = len(classes)
    expected = sum(
        desk13.peak_kw / count * (3.0 if c == "commercial" else 1.0) for c in classes
    )
    assert total == pytest.approx(expected)


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------


def test_cardinality_forced_by_level():
    feeder = synthetic_feeder(10, commercial_every=0)
    for level, expect in ((10, 1), (30, 3), (100, 10)):
        scen = generate(feeder, [level], 5, master_seed=9)
        assert all(len(s.placements) == expect for s in scen)


def test_same_seed_is_bit_exact(desk13):
    a = generate(desk13, [10, 50, 100], 4, master_seed=123)
    b = generate(desk13, [10, 50, 100], 4, master_seed=123)
    assert a == b


def test_different_seeds_differ(desk13):
    a = generate(desk13, [50], 8, master_seed=1)
    b = generate(desk13, [50], 8, master_seed=2)
    assert any(x.placements != y.placements for x, y in zip(a, b))


def test_no_duplicate_customers(desk13):
    for s in generate(desk13, list(range(10, 101, 10)), 10, master_seed=5):
        names = [n for n, _p, _r in s.placements]
        assert len(names) == len(set(names))


def test_incremental_mode_nests(desk13):
    scen = generate(desk13, list(range(10, 101, 10)), 6, master_seed=17)
    by_sid = {}
    for s in scen:
        by_sid.setdefault(s.scenario_id, []).append(s)
    for rows in by_sid.values():
        rows.sort(key=lambda s: s.penetration_pct)
        prev = set()
        for s in rows:
            cur = {n for n, _p, _r in s.placements}
            assert prev <= cur
            prev = cur


def test_independent_mode_deterministic_but_not_nested(desk13):
    a = generate(desk13, [10, 50], 20, master_seed=4, mode="independent")
    b = generate(desk13, [10, 50], 20, master_seed=4, mode="independent")
    assert a == b
    by_sid = {}
    for s in a:
        by_sid.setdefault(s.scenario_id, {})[s.penetration_pct] = {
            n for n, _p, _r in s.placements
        }
    nested = sum(1 for d in by_sid.values() if d[10] <= d[50])
    assert nested < len(by_sid)  # nesting is not enforced in this mode


def test_uniform_selection_statistics():
    feeder = synthetic_feeder(20, commercial_every=0)
    scen = generate(feeder, [50], 100, master_seed=2024)
    counts = {n.id: 0 for n in feeder.customers()}
    for s in scen:
        for name, _p, _r in s.placements:
            counts[name] += 1
    freqs = np.array(list(counts.values())) / 100
    assert np.all(freqs >= 0.35) and np.all(freqs <= 0.65)
    # chi-square sanity against the uniform-selection model
    expected = 50.0
    chi2 = float(np.sum((np.array(list(counts.values())) - expected) ** 2 / expected))
    assert chi2 < 2 * 19  # far inside any reasonable acceptance region


def test_levels_validated(desk13):
    with pytest.raises(ValueError, match="levels"):
        generate(desk13, [15], 1, master_seed=1)
    with pytest.raises(ValueError, match="mode"):
        generate(desk13, [10], 1, master_seed=1, mode="chaotic")

