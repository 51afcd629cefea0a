"""Reproducible Monte Carlo PV deployment scenarios and generation profiles.

Customer selection uses numpy's PCG64 generator seeded from explicit
``SeedSequence`` material, so a scenario set is a pure function of
``(master_seed, scenario_id, level)`` on any platform. The default
incremental mode draws one customer permutation per scenario id and lets
each penetration level take a prefix, so higher levels extend lower
ones; independent mode resamples per level.

A run's scenario set is replayed by drawing it again from the run's
master seed and the feeder's index (``feeder_seed``), not from a file.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .feeder import FeederModel

__all__ = [
    "GenerationProfile",
    "PvScenario",
    "pv_rating",
    "feeder_seed",
    "generate",
    "validate_draw",
    "load_profile",
    "load_profile_file",
    "DEFAULT_RATING_FACTORS",
]

DEFAULT_RATING_FACTORS = {"residential": 1.0, "commercial": 3.0}

NIGHT_HOURS = tuple(range(0, 6)) + tuple(range(20, 24))
NOON = 12


@dataclass(frozen=True)
class GenerationProfile:
    """24 hourly output factors in [0, 1], zero at night, unity at noon."""

    name: str
    factors: tuple[float, ...]

    def __post_init__(self):
        if len(self.factors) != 24:
            raise ValueError("profile needs 24 hourly factors")
        if any(f < 0 or f > 1 for f in self.factors):
            raise ValueError("profile factors must lie in [0, 1]")
        if any(self.factors[h] != 0 for h in NIGHT_HOURS):
            raise ValueError("night hours (0-5, 20-23) must be zero")
        if self.factors[NOON] != 1.0:
            raise ValueError("solar-noon factor must be 1.0")

    def value(self, hour: int) -> float:
        if not 0 <= hour <= 23:
            raise ValueError(f"hour must be in 0..23, got {hour}")
        return self.factors[hour]

    def daily_energy_per_kw(self) -> float:
        return float(sum(self.factors))


@dataclass(frozen=True)
class PvScenario:
    """One PV deployment at one penetration level.

    To replay it, draw it again with ``generate`` from the same
    ``(master_seed, feeder index)``; it is not read back from a file.
    """

    scenario_id: int
    penetration_pct: int
    placements: tuple[tuple[str, str, float], ...]  # (node id, phases, rating kW)


def pv_rating(customer_class: str, feeder_peak_kw: float, customer_count: int) -> float:
    """Nameplate kW for one new PV unit, sized from feeder peak demand."""
    if feeder_peak_kw <= 0 or customer_count <= 0:
        raise ValueError("peak demand and customer count must be positive")
    if customer_class not in DEFAULT_RATING_FACTORS:
        raise ValueError(f"unknown customer class {customer_class!r}")
    return feeder_peak_kw / customer_count * DEFAULT_RATING_FACTORS[customer_class]


def feeder_seed(master_seed: int, feeder_index: int) -> int:
    """Master seed of the scenario set drawn for the ``feeder_index``-th
    configured feeder."""
    ss = np.random.SeedSequence([int(master_seed), int(feeder_index)])
    return int(ss.generate_state(1, np.uint64)[0])


def validate_draw(levels, mode: str) -> None:
    """Reject penetration levels or a scenario mode that ``generate``
    cannot draw."""
    if mode not in ("incremental", "independent"):
        raise ValueError(f"unknown scenario mode {mode!r}")
    for lv in levels:
        if lv not in range(10, 101, 10):
            raise ValueError(f"levels must be multiples of 10 in 10..100, got {lv}")


def generate(
    feeder: FeederModel,
    levels: list[int],
    n_scenarios: int,
    master_seed: int,
    mode: str = "incremental",
) -> list[PvScenario]:
    """Draw ``n_scenarios`` deployments for every penetration level."""
    customers = feeder.customers()
    if not customers:
        raise ValueError("feeder has no customer nodes")
    validate_draw(levels, mode)

    count = len(customers)
    ratings = {n.id: pv_rating(n.customer_class, feeder.peak_kw, count) for n in customers}

    out: list[PvScenario] = []
    for sid in range(n_scenarios):
        if mode == "incremental":
            rng = np.random.Generator(
                np.random.PCG64(np.random.SeedSequence([int(master_seed), sid]))
            )
            perm = rng.permutation(count)
        for level in sorted(levels):
            k = round(level / 100 * count)
            if mode == "incremental":
                chosen = perm[:k]
            else:
                rng = np.random.Generator(
                    np.random.PCG64(np.random.SeedSequence([int(master_seed), sid, level]))
                )
                chosen = rng.choice(count, size=k, replace=False)
            placements = tuple(
                (customers[i].id, "".join(sorted(customers[i].loads)), ratings[customers[i].id])
                for i in sorted(chosen)
            )
            out.append(PvScenario(scenario_id=sid, penetration_pct=level, placements=placements))
    return out


def load_profile(text: str) -> GenerationProfile:
    raw = json.loads(text)
    return GenerationProfile(name=raw.get("name", "custom"), factors=tuple(raw["factors"]))


def load_profile_file(path) -> GenerationProfile:
    with open(path, encoding="utf-8") as fh:
        return load_profile(fh.read())

