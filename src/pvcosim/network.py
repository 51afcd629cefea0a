"""Transmission network model: case parsing, validation, admittance assembly.

The case file is JSON with top-level keys ``mva_base``, ``buses``,
``branches`` and ``generators``. Complex quantities are ``[re, im]``
pairs; angles in files are degrees (none appear in the bus/branch data,
but scenario/solution dumps follow the same rule). Everything internal
is per-unit on the single system MVA base, angles in radians.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.sparse.csgraph import connected_components

__all__ = [
    "Bus",
    "Branch",
    "TransmissionNetwork",
    "NetworkDataError",
    "load_network",
    "load_network_file",
    "build_sequence_admittance",
]


class NetworkDataError(ValueError):
    """Raised for case-file parse failures and invariant violations."""


@dataclass(frozen=True)
class Bus:
    id: int
    kind: str  # slack | pv | pq
    base_kv: float
    v_setpoint: float | None = None
    load_p: float = 0.0
    load_q: float = 0.0
    shunt_g: float = 0.0
    shunt_b: float = 0.0


@dataclass(frozen=True)
class Branch:
    from_bus: int
    to_bus: int
    z1: complex
    z2: complex
    z0: complex
    b1: float = 0.0
    b0: float = 0.0
    tap: float = 1.0
    zero_seq_open: bool = False
    # Optional inter-sequence series coupling impedances, keyed "z01",
    # "z02", "z10", "z12", "z20", "z21" (row couples into, column from).
    coupling: dict[str, complex] = field(default_factory=dict)

    def series_impedance_matrix(self) -> np.ndarray:
        """3x3 sequence-domain series impedance (order zero, pos, neg)."""
        z = np.diag([self.z0, self.z1, self.z2]).astype(complex)
        for key, val in self.coupling.items():
            r, c = int(key[1]), int(key[2])
            z[r, c] = val
        return z

    @cached_property
    def admittance_blocks(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sequence-domain two-port ``(yff, yft, ytt)``, 3x3 each; ``ytf == yft``.

        Pi model with the off-nominal tap on the from side. A
        ``zero_seq_open`` branch carries no zero-sequence current between
        its terminals, only the grounding leg ``1/z0`` on its to side
        (delta/wye-grounded convention with the delta winding on the
        from side). Built once per branch, read-only.
        """
        if self.coupling:
            yser = np.linalg.inv(self.series_impedance_matrix())
        else:
            yser = np.diag([1.0 / self.z0, 1.0 / self.z1, 1.0 / self.z2]).astype(complex)
        bsh = 0.5j * np.diag([self.b0, self.b1, self.b1])
        yff = (yser + bsh) / self.tap**2
        yft = -yser / self.tap
        ytt = yser + bsh
        if self.zero_seq_open:
            for blk in (yff, yft, ytt):
                blk[0, :] = 0
                blk[:, 0] = 0
            ytt[0, 0] = 1.0 / self.z0
        for blk in (yff, yft, ytt):
            blk.flags.writeable = False
        return yff, yft, ytt


@dataclass(frozen=True)
class TransmissionNetwork:
    buses: tuple[Bus, ...]
    branches: tuple[Branch, ...]
    generators: tuple[tuple[int, float, float], ...]  # (bus, p_set, v_set)
    mva_base: float = 100.0

    def bus_index(self) -> dict[int, int]:
        return {b.id: i for i, b in enumerate(self.buses)}


def _cx(value, what: str) -> complex:
    if not (isinstance(value, (list, tuple)) and len(value) == 2):
        raise NetworkDataError(f"{what}: expected [re, im] pair, got {value!r}")
    return complex(float(value[0]), float(value[1]))


def load_network(text: str) -> TransmissionNetwork:
    """Parse and validate a JSON case file."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise NetworkDataError(f"parse error at line {exc.lineno}: {exc.msg}") from exc

    try:
        mva_base = float(raw.get("mva_base", 100.0))
        buses = []
        for rb in raw.get("buses", []):
            buses.append(
                Bus(
                    id=int(rb["id"]),
                    kind=str(rb["kind"]),
                    base_kv=float(rb["base_kv"]),
                    v_setpoint=(
                        float(rb["v_setpoint"]) if rb.get("v_setpoint") is not None else None
                    ),
                    load_p=float(rb.get("load_p", 0.0)),
                    load_q=float(rb.get("load_q", 0.0)),
                    shunt_g=float(rb.get("shunt_g", 0.0)),
                    shunt_b=float(rb.get("shunt_b", 0.0)),
                )
            )
        branches = []
        for rb in raw.get("branches", []):
            z1 = _cx(rb["z1"], "branch z1")
            z2 = _cx(rb["z2"], "branch z2") if "z2" in rb else z1
            z0 = _cx(rb["z0"], "branch z0") if "z0" in rb else z1
            coupling = {k: _cx(v, f"coupling {k}") for k, v in rb.get("coupling", {}).items()}
            branches.append(
                Branch(
                    from_bus=int(rb["from"]),
                    to_bus=int(rb["to"]),
                    z1=z1,
                    z2=z2,
                    z0=z0,
                    b1=float(rb.get("b1", 0.0)),
                    b0=float(rb.get("b0", 0.0)),
                    tap=float(rb.get("tap", 1.0)),
                    zero_seq_open=bool(rb.get("zero_seq_open", False)),
                    coupling=coupling,
                )
            )
        generators = tuple(
            (int(g["bus"]), float(g.get("p_set", 0.0)), float(g["v_set"]))
            for g in raw.get("generators", [])
        )
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, NetworkDataError):
            raise
        raise NetworkDataError(f"malformed case data: {exc}") from exc

    net = TransmissionNetwork(
        buses=tuple(buses), branches=tuple(branches), generators=generators, mva_base=mva_base
    )
    validate_network(net)
    return net


def load_network_file(path) -> TransmissionNetwork:
    with open(path, encoding="utf-8") as fh:
        return load_network(fh.read())


def validate_network(net: TransmissionNetwork) -> None:
    if not net.buses:
        raise NetworkDataError("network has no buses")
    if net.mva_base <= 0:
        raise NetworkDataError("mva_base must be positive")

    ids = [b.id for b in net.buses]
    if len(set(ids)) != len(ids):
        dup = sorted({i for i in ids if ids.count(i) > 1})
        raise NetworkDataError(f"duplicate bus id(s): {dup}")

    slacks = [b.id for b in net.buses if b.kind == "slack"]
    if len(slacks) != 1:
        raise NetworkDataError(f"exactly one slack bus required, found {len(slacks)}")

    known = {"slack", "pv", "pq"}
    gen_buses = {g[0] for g in net.generators}
    for b in net.buses:
        if b.kind not in known:
            raise NetworkDataError(f"bus {b.id}: unknown kind {b.kind!r}")
        if b.base_kv <= 0:
            raise NetworkDataError(f"bus {b.id}: base_kv must be positive")
        if b.kind in ("slack", "pv") and b.v_setpoint is None and b.id not in gen_buses:
            raise NetworkDataError(f"bus {b.id}: {b.kind} bus needs a voltage setpoint")
        if b.kind == "pv" and b.id not in gen_buses:
            raise NetworkDataError(f"bus {b.id}: pv bus has no generation setpoint")

    idset = set(ids)
    for br in net.branches:
        if br.from_bus not in idset or br.to_bus not in idset:
            raise NetworkDataError(f"branch {br.from_bus}-{br.to_bus}: unknown bus")
        if br.from_bus == br.to_bus:
            raise NetworkDataError(f"branch at bus {br.from_bus}: from == to")
        for name in ("z1", "z2", "z0"):
            if abs(getattr(br, name)) == 0:
                raise NetworkDataError(f"branch {br.from_bus}-{br.to_bus}: |{name}| must be > 0")
        if br.tap <= 0:
            raise NetworkDataError(f"branch {br.from_bus}-{br.to_bus}: tap must be > 0")
        if br.coupling:
            bad = [k for k in br.coupling if k not in ("z01", "z02", "z10", "z12", "z20", "z21")]
            if bad:
                raise NetworkDataError(f"branch {br.from_bus}-{br.to_bus}: bad coupling keys {bad}")
            if br.zero_seq_open:
                raise NetworkDataError(
                    f"branch {br.from_bus}-{br.to_bus}: coupling on a zero_seq_open branch"
                )
            if br.tap != 1.0:
                raise NetworkDataError(
                    f"branch {br.from_bus}-{br.to_bus}: coupling requires unit tap"
                )

    for g in net.generators:
        bus = next((b for b in net.buses if b.id == g[0]), None)
        if bus is None:
            raise NetworkDataError(f"generator references unknown bus {g[0]}")
        if bus.kind == "pq":
            raise NetworkDataError(f"generator at pq bus {g[0]}")
        if bus.v_setpoint is not None and bus.v_setpoint != g[2]:
            raise NetworkDataError(
                f"bus {g[0]}: v_setpoint {bus.v_setpoint} differs from its "
                f"generator's v_set {g[2]}"
            )

    # Connectivity over the branch graph.
    idx = net.bus_index()
    graph = np.zeros((len(ids), len(ids)), dtype=bool)
    for br in net.branches:
        graph[idx[br.from_bus], idx[br.to_bus]] = True
    _, labels = connected_components(graph, directed=False)
    unreachable = sorted(b.id for b, lab in zip(net.buses, labels) if lab != labels[0])
    if unreachable:
        raise NetworkDataError(f"network not connected; unreachable buses {unreachable}")


def build_sequence_admittance(net: TransmissionNetwork) -> np.ndarray:
    """Stacked nodal admittance (3n x 3n) of the three sequence networks.

    Entry ``s * n + i`` is sequence ``s`` (zero, positive, negative) at bus
    ``i``. Every branch adds its full ``Branch.admittance_blocks``, so
    the sequence networks fill the diagonal blocks and a coupled branch's
    inter-sequence admittance the off-diagonal ones; every bus adds its
    shunt to all three sequences.
    """
    idx = net.bus_index()
    n = len(net.buses)
    y = np.zeros((3 * n, 3 * n), dtype=complex)
    for br in net.branches:
        f, t = idx[br.from_bus], idx[br.to_bus]
        yff, yft, ytt = br.admittance_blocks
        y[f::n, f::n] += yff
        y[t::n, t::n] += ytt
        y[f::n, t::n] += yft
        y[t::n, f::n] += yft
    diag = np.arange(3 * n)
    y[diag, diag] += np.tile([complex(b.shunt_g, b.shunt_b) for b in net.buses], 3)
    return y
