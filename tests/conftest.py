from __future__ import annotations

import json

import pytest

from pvcosim import (
    build_sequence_admittance,
    data_path,
    load_feeder_file,
    load_network,
    load_network_file,
    load_profile_file,
)


@pytest.fixture(scope="session")
def ieee9():
    return load_network_file(data_path("ieee9.json"))


@pytest.fixture(scope="session")
def desk13():
    return load_feeder_file(data_path("desk13.json"))


@pytest.fixture(scope="session")
def profile():
    return load_profile_file(data_path("pv_profile.json"))


def island_variants():
    """ieee9 as bundled, then without ``zero_seq_open`` ("grounded"), then
    also without line charging and shunts ("series_only").

    In "series_only" every row sum vanishes, so only the coupling to the
    slack grounds a component.
    """
    doc = json.loads(data_path("ieee9.json").read_text())
    nets = {"ieee9": load_network(json.dumps(doc))}
    for br in doc["branches"]:
        br.pop("zero_seq_open", None)
    nets["grounded"] = load_network(json.dumps(doc))
    for br in doc["branches"]:
        br["b1"] = br["b0"] = 0.0
    for bus in doc["buses"]:
        bus["shunt_g"] = bus["shunt_b"] = 0.0
    nets["series_only"] = load_network(json.dumps(doc))
    return nets


def sequence_networks(net):
    """The zero-, positive- and negative-sequence networks: the diagonal
    blocks of the stacked sequence admittance."""
    n = len(net.buses)
    y3 = build_sequence_admittance(net)
    return [y3[s * n : (s + 1) * n, s * n : (s + 1) * n] for s in range(3)]


def two_bus_case(load_p=1.0, load_q=0.5, r=0.01, x=0.1):
    return json.dumps(
        {
            "mva_base": 100.0,
            "buses": [
                {"id": 1, "kind": "slack", "base_kv": 230.0, "v_setpoint": 1.0},
                {"id": 2, "kind": "pq", "base_kv": 230.0, "load_p": load_p, "load_q": load_q},
            ],
            "branches": [{"from": 1, "to": 2, "z1": [r, x]}],
            "generators": [{"bus": 1, "p_set": 0.0, "v_set": 1.0}],
        }
    )


def small_feeder(load_kw=3000.0, load_kvar=1200.0, z_ohm=(2.0, 4.0), trafo_z=(0.0, 0.0)):
    """One line, one constant-power load on phase a; 34.5 kV base."""
    return json.dumps(
        {
            "kv_base": 34.5,
            "peak_kw": load_kw,
            "transformer": {"ratio": 230.0 / 34.5, "z": list(trafo_z)},
            "nodes": [
                {"id": "src", "phases": "abc"},
                {
                    "id": "end",
                    "phases": "a",
                    "loads": {"a": [load_kw, load_kvar]},
                    "customer_class": "residential",
                },
            ],
            "lines": [
                {
                    "from": "src",
                    "to": "end",
                    "z_abc": [
                        [list(z_ohm), [0, 0], [0, 0]],
                        [[0, 0], [0, 0], [0, 0]],
                        [[0, 0], [0, 0], [0, 0]],
                    ],
                }
            ],
        }
    )


def constant_load_feeder(p_kw, q_kvar):
    """Degenerate single-node feeder: a pure constant-power load."""
    third_p, third_q = p_kw / 3, q_kvar / 3
    return json.dumps(
        {
            "kv_base": 34.5,
            "peak_kw": p_kw,
            "transformer": {"ratio": 230.0 / 34.5, "z": [0.0, 0.0]},
            "nodes": [
                {
                    "id": "sub",
                    "phases": "abc",
                    "loads": {
                        "a": [third_p, third_q],
                        "b": [third_p, third_q],
                        "c": [third_p, third_q],
                    },
                }
            ],
            "lines": [],
        }
    )
