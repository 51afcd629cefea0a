import json

import numpy as np
import pytest

from pvcosim import build_sequence_admittance, data_path, load_network
from pvcosim.network import NetworkDataError

from .oracles import brute_force_sequence_y
from .conftest import sequence_networks, two_bus_case


def test_bundled_case_shape(ieee9):
    assert len(ieee9.buses) == 9
    assert len(ieee9.branches) == 9
    assert len(ieee9.generators) == 3
    assert [b.id for b in ieee9.buses if b.kind == "slack"] == [1]


def test_empty_case_rejected():
    with pytest.raises(NetworkDataError, match="no buses"):
        load_network(json.dumps({"mva_base": 100, "buses": [], "branches": []}))


def test_duplicate_bus_id_rejected():
    doc = json.loads(two_bus_case())
    doc["buses"].append(dict(doc["buses"][1]))
    with pytest.raises(NetworkDataError, match="duplicate bus id"):
        load_network(json.dumps(doc))


def test_two_slack_buses_rejected():
    doc = json.loads(two_bus_case())
    doc["buses"][1]["kind"] = "slack"
    doc["buses"][1]["v_setpoint"] = 1.0
    with pytest.raises(NetworkDataError, match="one slack"):
        load_network(json.dumps(doc))


def test_pv_bus_without_setpoint_rejected():
    doc = json.loads(two_bus_case())
    doc["buses"][1]["kind"] = "pv"
    with pytest.raises(NetworkDataError, match="setpoint"):
        load_network(json.dumps(doc))


@pytest.mark.parametrize("gen, v_set", [(0, 1.05), (1, 1.00)])
def test_setpoint_differing_from_generator_rejected(gen, v_set):
    doc = json.loads(data_path("ieee9.json").read_text())
    doc["generators"][gen]["v_set"] = v_set
    bus = doc["generators"][gen]["bus"]
    setpoint = next(b["v_setpoint"] for b in doc["buses"] if b["id"] == bus)
    with pytest.raises(NetworkDataError, match=f"bus {bus}: v_setpoint {setpoint}.*{v_set}"):
        load_network(json.dumps(doc))


def test_disconnected_network_rejected():
    doc = json.loads(two_bus_case())
    doc["buses"].append({"id": 3, "kind": "pq", "base_kv": 230.0})
    with pytest.raises(NetworkDataError, match="not connected"):
        load_network(json.dumps(doc))


def test_parse_error_reports_line():
    with pytest.raises(NetworkDataError, match="line"):
        load_network('{\n "mva_base": 100,\n oops\n}')


def test_zero_impedance_branch_rejected():
    doc = json.loads(two_bus_case())
    doc["branches"][0]["z1"] = [0.0, 0.0]
    with pytest.raises(NetworkDataError, match="z1"):
        load_network(json.dumps(doc))


@pytest.mark.parametrize("zero_seq_open", [False, True])
@pytest.mark.parametrize("name", ["z0", "z2"])
def test_zero_sequence_impedance_branch_rejected(name, zero_seq_open):
    doc = json.loads(two_bus_case())
    doc["branches"][0][name] = [0.0, 0.0]
    doc["branches"][0]["zero_seq_open"] = zero_seq_open
    with pytest.raises(NetworkDataError, match=rf"branch 1-2: \|{name}\| must be > 0"):
        load_network(json.dumps(doc))


def test_single_branch_admittance_matrix():
    net = load_network(
        json.dumps(
            {
                "mva_base": 100,
                "buses": [
                    {"id": 1, "kind": "slack", "base_kv": 230, "v_setpoint": 1.0},
                    {"id": 2, "kind": "pq", "base_kv": 230},
                ],
                "branches": [{"from": 1, "to": 2, "z1": [0.0, 0.1]}],
                "generators": [{"bus": 1, "v_set": 1.0}],
            }
        )
    )
    y1 = sequence_networks(net)[1]
    expected = np.array([[-10j, 10j], [10j, -10j]])
    assert np.allclose(y1, expected, atol=1e-15)


def test_zero_seq_open_blocks_coupling():
    net = load_network(
        json.dumps(
            {
                "mva_base": 100,
                "buses": [
                    {"id": 1, "kind": "slack", "base_kv": 230, "v_setpoint": 1.0},
                    {"id": 2, "kind": "pq", "base_kv": 230},
                ],
                "branches": [
                    {"from": 1, "to": 2, "z1": [0.0, 0.1], "z0": [0.0, 0.25],
                     "zero_seq_open": True}
                ],
                "generators": [{"bus": 1, "v_set": 1.0}],
            }
        )
    )
    y0 = sequence_networks(net)[0]
    assert y0[0, 1] == 0 and y0[1, 0] == 0
    assert y0[0, 0] == 0
    assert y0[1, 1] == pytest.approx(1 / 0.25j)  # grounding leg on the to side


def test_coupled_branches_fill_the_inter_sequence_blocks():
    # Two coupled lines (unit tap): each adds the off-diagonal part of its
    # inverse sequence impedance matrix at both ends, plus at from-to and
    # to-from with the opposite sign; the diagonal blocks stay the
    # per-sequence networks.
    doc = json.loads(data_path("ieee9.json").read_text())
    doc["branches"][3]["coupling"] = {"z12": [0.002, 0.015], "z20": [0.001, -0.004]}
    doc["branches"][5]["coupling"] = {"z01": [0.003, 0.01], "z21": [0.001, 0.02]}
    net = load_network(json.dumps(doc))
    n = len(net.buses)
    pos = {b.id: i for i, b in enumerate(net.buses)}
    ref = np.zeros((3 * n, 3 * n), dtype=complex)
    for s in range(3):
        ref[s * n : (s + 1) * n, s * n : (s + 1) * n] = brute_force_sequence_y(net, s)
    for br in net.branches:
        if not br.coupling:
            continue
        zm = np.diag([br.z0, br.z1, br.z2]).astype(complex)
        for key, val in br.coupling.items():
            zm[int(key[1]), int(key[2])] = val
        ym = np.linalg.inv(zm)
        f, t = pos[br.from_bus], pos[br.to_bus]
        for s in range(3):
            for r in range(3):
                if s != r:
                    ref[s * n + f, r * n + f] += ym[s, r]
                    ref[s * n + t, r * n + t] += ym[s, r]
                    ref[s * n + f, r * n + t] -= ym[s, r]
                    ref[s * n + t, r * n + f] -= ym[s, r]
    y = build_sequence_admittance(net)
    assert y.shape == (3 * n, 3 * n)
    assert np.max(np.abs(y - ref)) < 1e-12


def test_bundled_y1_matches_brute_force(ieee9):
    for seq in (0, 1, 2):
        y = sequence_networks(ieee9)[seq]
        ref = brute_force_sequence_y(ieee9, seq)
        assert np.max(np.abs(y - ref)) < 1e-12


def test_admittance_symmetry(ieee9):
    for seq in (0, 1, 2):
        y = sequence_networks(ieee9)[seq]
        assert np.max(np.abs(y - y.T)) < 1e-14


def test_row_sums_vanish_without_shunts(ieee9):
    doc = json.loads((__import__("pvcosim").data_path("ieee9.json")).read_text())
    for br in doc["branches"]:
        br["b1"] = 0.0
        br["b0"] = 0.0
        br.pop("zero_seq_open", None)
    for bus in doc["buses"]:
        bus["shunt_g"] = 0.0
        bus["shunt_b"] = 0.0
    net = load_network(json.dumps(doc))
    for seq in (0, 1, 2):
        y = sequence_networks(net)[seq]
        assert np.max(np.abs(y.sum(axis=1))) < 1e-12


def test_coupling_keys_validated():
    doc = json.loads(two_bus_case())
    doc["branches"][0]["coupling"] = {"z99": [0.0, 0.01]}
    with pytest.raises(NetworkDataError, match="coupling"):
        load_network(json.dumps(doc))


def test_coupling_on_zero_seq_open_rejected():
    doc = json.loads(two_bus_case())
    doc["branches"][0]["zero_seq_open"] = True
    doc["branches"][0]["coupling"] = {"z12": [0.0, 0.01]}
    with pytest.raises(NetworkDataError, match="zero_seq_open"):
        load_network(json.dumps(doc))


def test_z2_defaults_to_z1():
    net = load_network(two_bus_case())
    br = net.branches[0]
    assert br.z2 == br.z1
