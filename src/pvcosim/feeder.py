"""Unbalanced three-phase radial feeder model and matrix-form forward-backward sweep.

Feeder files are JSON with ``nodes``, ``lines``, ``transformer``,
``kv_base`` and ``peak_kw``. Line impedance matrices are 3x3 nested
``[re, im]`` pairs in ohms; loads are kW/kvar per phase. The solver
works in volts and ohms; the source voltage at the PCC is given in
per-unit of the feeder line-to-neutral base (the substation transformer
ratio is nominal, so transmission per-unit maps one-to-one).

``FeederOps`` holds one feeder's sweep operator, built once per model
(``FeederModel.ops``); ``forest`` stacks several into one operator with
block-diagonal sweep matrices, so ``solve_feeder`` sweeps every feeder
attached to a transmission system in one loop. A single feeder is a
forest of one. Convergence is per feeder: a feeder that has converged
keeps the iterate of that round, so each feeder's result is the one its
own solve would give.

A PV deployment never changes the model: ``scenario_loads`` folds it
into a per-node load array that every solve takes as ``loads``.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp

__all__ = [
    "FeederNode",
    "FeederLine",
    "SubstationTransformer",
    "FeederModel",
    "FeederSolution",
    "FeederDataError",
    "FeederSolveError",
    "FeederOps",
    "forest",
    "load_feeder",
    "load_feeder_file",
    "solve_feeder",
    "scenario_loads",
]

PHASES = "abc"


class FeederDataError(ValueError):
    """Raised for feeder-file parse failures and invariant violations."""


class FeederSolveError(RuntimeError):
    def __init__(self, message: str, *, last_change: float | None = None):
        super().__init__(message)
        self.last_change = last_change


@dataclass(frozen=True)
class FeederNode:
    id: str
    phases: str  # subset of "abc", canonical order
    loads: dict[str, complex] = field(default_factory=dict)  # phase -> kW + j kvar
    customer_class: str = "residential"

    def load_vector(self) -> np.ndarray:
        out = np.zeros(3, dtype=complex)
        for ph, s in self.loads.items():
            out[PHASES.index(ph)] = s
        return out


@dataclass(frozen=True)
class FeederLine:
    from_node: str
    to_node: str
    z_abc: tuple  # 3x3 nested tuple of complex ohms

    def z_matrix(self) -> np.ndarray:
        return np.array(self.z_abc, dtype=complex).reshape(3, 3)


@dataclass(frozen=True)
class SubstationTransformer:
    ratio: float  # nominal HV/LV voltage ratio
    z_pu: complex  # series impedance, system MVA base at feeder kv


@dataclass(frozen=True)
class FeederModel:
    nodes: tuple[FeederNode, ...]
    lines: tuple[FeederLine, ...]
    transformer: SubstationTransformer
    kv_base: float
    peak_kw: float
    mva_base: float = 100.0

    @cached_property
    def root(self) -> str:
        children = {ln.to_node for ln in self.lines}
        return next(n.id for n in self.nodes if n.id not in children)

    @cached_property
    def ops(self) -> FeederOps:
        """The feeder's sweep operator, built on first use and then reused."""
        return FeederOps(self)

    def customers(self) -> tuple[FeederNode, ...]:
        return tuple(n for n in self.nodes if n.loads)

    @property
    def v_ln_base(self) -> float:
        return self.kv_base * 1e3 / np.sqrt(3.0)

    @property
    def z_base(self) -> float:
        return self.kv_base**2 / self.mva_base


@dataclass
class FeederSolution:
    """A sweep's result on the nodes of ``ops``, one feeder or a forest.

    ``pcc_power_kw`` and ``head_current`` hold one row per feeder, or one
    triple when the solve was given one source triple. ``feeders()``
    splits a forest's solution into one solution per feeder; the
    node-id accessors need a single feeder.
    """

    ops: FeederOps = field(repr=False)
    v: np.ndarray  # (n, 3) complex volts, parent value carried on absent phases
    branch_currents: np.ndarray  # (n, 3) amps into each node through its feeding branch
    pcc_power_kw: np.ndarray  # (3,) or (k, 3) complex kW at the transmission side
    head_current: np.ndarray  # (3,) or (k, 3) amps into the substation transformer
    feeder_iterations: np.ndarray  # (k,) sweep rounds of each feeder

    @property
    def iterations(self) -> int:
        """Sweep rounds; in a forest, those of the slowest feeder."""
        return int(self.feeder_iterations.max())

    @property
    def node_ids(self) -> tuple[str, ...]:
        return self.ops.ids

    @property
    def phase_mask(self) -> np.ndarray:
        return self.ops.mask

    @cached_property
    def line_currents(self) -> dict[tuple[str, str], np.ndarray]:
        """(3,) amps into the to-node of each line, keyed ``(from, to)``;
        built on first use."""
        index = self.ops.index
        return {
            (ln.from_node, ln.to_node): self.branch_currents[index[ln.to_node]]
            for ln in self.ops.model.lines
        }

    def v_pu(self) -> np.ndarray:
        return self.v / self.ops.v_ln[:, None]

    def voltage(self, node_id: str) -> np.ndarray:
        return self.v[self.ops.index[node_id]]

    def feeders(self) -> tuple[FeederSolution, ...]:
        """One solution per feeder of the forest, each with its own iterations."""
        pcc = self.pcc_power_kw.reshape(-1, 3)
        head = self.head_current.reshape(-1, 3)
        bounds = self.ops.offsets
        return tuple(
            FeederSolution(
                ops=part,
                v=self.v[a:b],
                branch_currents=self.branch_currents[a:b],
                pcc_power_kw=pcc[k],
                head_current=head[k],
                feeder_iterations=self.feeder_iterations[k : k + 1],
            )
            for k, (part, a, b) in enumerate(zip(self.ops.parts, bounds, bounds[1:]))
        )


# ---------------------------------------------------------------------------
# Parsing and validation
# ---------------------------------------------------------------------------


def _cx(value) -> complex:
    return complex(float(value[0]), float(value[1]))


def load_feeder(text: str) -> FeederModel:
    """Parse and validate a JSON feeder file."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FeederDataError(f"parse error at line {exc.lineno}: {exc.msg}") from exc

    try:
        nodes = []
        for rn in raw["nodes"]:
            loads = {ph: _cx(v) for ph, v in rn.get("loads", {}).items()}
            nodes.append(
                FeederNode(
                    id=str(rn["id"]),
                    phases="".join(p for p in PHASES if p in rn.get("phases", "abc")),
                    loads=loads,
                    customer_class=rn.get("customer_class", "residential"),
                )
            )
        lines = []
        for rl in raw.get("lines", []):
            z = tuple(tuple(_cx(e) for e in row) for row in rl["z_abc"])
            lines.append(FeederLine(from_node=str(rl["from"]), to_node=str(rl["to"]), z_abc=z))
        rt = raw["transformer"]
        transformer = SubstationTransformer(ratio=float(rt["ratio"]), z_pu=_cx(rt["z"]))
        model = FeederModel(
            nodes=tuple(nodes),
            lines=tuple(lines),
            transformer=transformer,
            kv_base=float(raw["kv_base"]),
            peak_kw=float(raw["peak_kw"]),
            mva_base=float(raw.get("mva_base", 100.0)),
        )
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        if isinstance(exc, FeederDataError):
            raise
        raise FeederDataError(f"malformed feeder data: {exc}") from exc

    validate_feeder(model)
    return model


def load_feeder_file(path) -> FeederModel:
    with open(path, encoding="utf-8") as fh:
        return load_feeder(fh.read())


def validate_feeder(model: FeederModel) -> None:
    if not model.nodes:
        raise FeederDataError("feeder has no nodes")
    if model.kv_base <= 0 or model.peak_kw <= 0:
        raise FeederDataError("kv_base and peak_kw must be positive")

    nodes = {n.id: n for n in model.nodes}
    if len(nodes) != len(model.nodes):
        raise FeederDataError("duplicate node ids")

    for n in model.nodes:
        if not n.phases or any(p not in PHASES for p in n.phases):
            raise FeederDataError(f"node {n.id}: invalid phases {n.phases!r}")
        for ph in n.loads:
            if ph not in n.phases:
                raise FeederDataError(f"node {n.id}: load on absent phase {ph}")

    parents: dict[str, str] = {}
    children: dict[str, list[str]] = {}
    for ln in model.lines:
        if ln.from_node not in nodes or ln.to_node not in nodes:
            raise FeederDataError(f"line {ln.from_node}-{ln.to_node}: unknown node")
        if ln.to_node in parents:
            raise FeederDataError(f"node {ln.to_node} has two parents (cycle)")
        parents[ln.to_node] = ln.from_node
        children.setdefault(ln.from_node, []).append(ln.to_node)
        z = ln.z_matrix()
        child = nodes[ln.to_node]
        missing = set(child.phases) - set(nodes[ln.from_node].phases)
        if missing:
            raise FeederDataError(
                f"line {ln.from_node}-{ln.to_node}: child phases {sorted(missing)} "
                "not carried by the parent node"
            )
        for r in range(3):
            for c in range(3):
                if (PHASES[r] not in child.phases or PHASES[c] not in child.phases) and z[
                    r, c
                ] != 0:
                    raise FeederDataError(
                        f"line {ln.from_node}-{ln.to_node}: impedance on absent phase"
                    )

    roots = [i for i in nodes if i not in parents]
    if len(roots) != 1:
        raise FeederDataError(f"feeder must have exactly one root, found {roots}")

    # One root and one parent for every other node: a walk down from the
    # root reaches every node except those on a cycle.
    reached = set()
    stack = [roots[0]]
    while stack:
        nid = stack.pop()
        reached.add(nid)
        stack.extend(children.get(nid, ()))
    for nid in nodes:
        if nid not in reached:
            raise FeederDataError(f"cycle detected at node {nid}")


# ---------------------------------------------------------------------------
# Feeder operator and scenario loads
# ---------------------------------------------------------------------------


class FeederOps:
    """Node indexing, base loads and the sweep matrices of one feeder.

    Built once per feeder and reused by every solve. ``bibc`` is the
    branch-to-node path incidence of Teng's direct load flow: row ``c``
    is the branch feeding node ``c`` (the substation transformer for the
    root) and ``bibc[c, j] = 1`` when node ``j`` lies in the subtree fed
    through that branch. ``z`` stacks each branch's 3x3 impedance in ohms
    in the same row order, and ``v_ln`` holds each node's line-to-neutral
    base in volts.

    The same attributes describe a forest (see ``forest``): ``parts``
    lists its feeders, feeder ``k`` owns nodes ``offsets[k]`` to
    ``offsets[k + 1]`` and has its root at ``roots[k]``. A single feeder
    is its own only part; ``model``, ``ids`` and ``index`` exist only on
    a single feeder.
    """

    def __init__(self, model: FeederModel):
        self.model = model
        self.ids = tuple(n.id for n in model.nodes)
        self.index = {nid: i for i, nid in enumerate(self.ids)}
        root = self.index[model.root]

        n = len(self.ids)
        self.mask = np.zeros((n, 3), dtype=bool)
        self.loads = np.zeros((n, 3), dtype=complex)  # kW + j kvar
        for i, node in enumerate(model.nodes):
            for ph in node.phases:
                self.mask[i, PHASES.index(ph)] = True
            self.loads[i] = node.load_vector()

        parent = np.full(n, -1, dtype=int)
        self.z = np.zeros((n, 3, 3), dtype=complex)
        self.z[root] = model.transformer.z_pu * model.z_base * np.eye(3)
        for ln in model.lines:
            t = self.index[ln.to_node]
            parent[t] = self.index[ln.from_node]
            self.z[t] = ln.z_matrix()

        # Every node lies below each branch on its path from the root.
        rows, cols = [], []
        for j in range(n):
            c = j
            while c >= 0:
                rows.append(c)
                cols.append(j)
                c = parent[c]
        ones = np.ones(len(rows), dtype=complex)
        self.bibc = sp.coo_matrix((ones, (rows, cols)), shape=(n, n)).tocsr()
        self.bibc_t = self.bibc.T.tocsr()
        self.v_ln = np.full(n, model.v_ln_base)

        self.parts = (self,)
        self.roots = np.array([root])
        self.offsets = np.array([0, n])


def forest(parts: Sequence[FeederOps]) -> FeederOps:
    """One operator over several feeders, in the order given.

    The per-node arrays are concatenated and the sweep matrices are the
    ``scipy.sparse.block_diag`` of the feeders' own; no path is walked
    again.
    """
    parts = tuple(single for ops in parts for single in ops.parts)
    sizes = [len(p.ids) for p in parts]
    out = FeederOps.__new__(FeederOps)
    out.parts = parts
    out.offsets = np.concatenate([[0], np.cumsum(sizes)])
    out.roots = np.array([p.roots[0] for p in parts]) + out.offsets[:-1]
    out.mask = np.concatenate([p.mask for p in parts])
    out.loads = np.concatenate([p.loads for p in parts])
    out.z = np.concatenate([p.z for p in parts])
    out.v_ln = np.concatenate([p.v_ln for p in parts])
    out.bibc = sp.block_diag([p.bibc for p in parts], format="csr")
    out.bibc_t = sp.block_diag([p.bibc_t for p in parts], format="csr")
    return out


def scenario_loads(ops: FeederOps, scenario, hour: int, profile) -> np.ndarray:
    """Per-node loads (kW + j kvar) of the feeder with a PV deployment folded in.

    This is the package's one scenario application: the co-simulation
    and the unified solve both read a scenario's loads from here. Each
    placement injects ``rating * profile(hour)`` kW at unity power
    factor, split equally across the unit's phases, as negative load.
    """
    factor = profile.value(hour)
    loads = ops.loads.copy()
    for node_id, phases, rating_kw in scenario.placements:
        i = ops.index.get(node_id)
        if i is None:
            raise FeederDataError(f"scenario places PV at unknown node {node_id}")
        carried = "".join(ph for ph, m in zip(PHASES, ops.mask[i]) if m)
        if not phases or not set(phases) <= set(carried):
            raise FeederDataError(
                f"scenario places PV on phases {phases!r} of node {node_id}, which has {carried!r}"
            )
        inj = rating_kw * factor
        if inj == 0:
            continue
        share = inj / len(phases)
        for ph in phases:
            loads[i, PHASES.index(ph)] -= share
    return loads


# ---------------------------------------------------------------------------
# Forward-backward sweep
# ---------------------------------------------------------------------------


def solve_feeder(
    feeder: FeederModel | FeederOps,
    source_v: np.ndarray,
    tol: float = 1e-7,
    max_iter: int = 60,
    *,
    loads: np.ndarray | None = None,
    start: FeederSolution | None = None,
) -> FeederSolution:
    """Forward-backward sweep of one feeder, or of a forest, at fixed source voltages.

    ``source_v`` is the PCC voltage in per-unit of the feeder
    line-to-neutral base: one row of three complex phasors per feeder,
    shape ``(k, 3)``, or three phasors for a single feeder. ``loads``
    replaces the feeders' own node loads (kW + j kvar, shape of
    ``FeederOps.loads``), e.g. with ``scenario_loads``. The sweep starts
    at flat source voltages, or from ``start``, a solution on the same
    ``ops``: its node voltages shifted by each feeder's change in source
    voltage.

    Each round is the matrix form of J.-H. Teng, "A direct approach for
    distribution system load flow solutions", IEEE Trans. Power Delivery
    18(3), 2003: node currents at the present voltages, branch currents
    ``BIBC @ I``, node voltages ``src - BIBC^T @ (Z I_branch)``, with one
    product of each kind for all feeders of a forest together.

    Convergence is per feeder. Once a feeder's largest per-unit voltage
    change is at most ``tol``, its voltages and branch currents stay at
    that round's values, so every feeder returns exactly the iterate and
    iteration count of its own solve. A collapse below 0.5 pu in any
    feeder, or a feeder still moving after ``max_iter`` rounds, raises
    ``FeederSolveError``.
    """
    ops = feeder if isinstance(feeder, FeederOps) else feeder.ops
    k = len(ops.parts)
    src = np.asarray(source_v, dtype=complex)
    if src.shape != (k, 3) and not (k == 1 and src.shape == (3,)):
        raise ValueError("source_v must be three phasors per feeder")
    src = src.reshape(k, 3) * ops.v_ln[ops.roots, None]
    if np.any(np.abs(src) == 0):
        raise ValueError("source voltage must be nonzero on all phases")

    starts = ops.offsets[:-1]
    owner = np.repeat(np.arange(k), np.diff(ops.offsets))  # feeder of each node
    s = (ops.loads if loads is None else loads) * 1e3  # VA
    nz = ops.mask & (np.abs(s) > 0)
    s_nz = s[nz]
    src_node = src[owner]
    v = src_node
    if start is not None:
        # A sweep's root voltage is its source less the transformer's drop.
        head = start.branch_currents[ops.roots]
        src_start = start.v[ops.roots] + np.einsum("kij,kj->ki", ops.z[ops.roots], head)
        v = start.v + (src - src_start)[owner]
    i_line = np.zeros_like(v)
    inode = np.zeros_like(v)

    rounds = np.zeros(k, dtype=int)
    change = np.full(k, np.inf)
    active = np.ones(k, dtype=bool)
    it = 0
    while it < max_iter and active.any():
        it += 1
        inode[nz] = np.conj(s_nz / v[nz])
        i_new = ops.bibc @ inode  # current into each node through its feeding branch
        v_new = src_node - ops.bibc_t @ np.einsum("nij,nj->ni", ops.z, i_new)

        step = np.where(ops.mask, np.abs(v_new - v), 0.0).max(axis=1) / ops.v_ln
        change = np.where(active, np.maximum.reduceat(step, starts), change)
        moving = active[owner, None]
        v = np.where(moving, v_new, v)
        i_line = np.where(moving, i_new, i_line)
        rounds[active] = it
        low = (np.abs(v) / ops.v_ln[:, None])[ops.mask] < 0.5
        if np.any(low):
            raise FeederSolveError(
                "voltage collapse: node voltage below 0.5 pu during sweep",
                last_change=float(change[active].max()),
            )
        active = ~(change <= tol)
    if active.any():
        last = float(change[active].max())
        raise FeederSolveError(
            f"sweep did not converge in {max_iter} iterations (last change {last:.3e} pu)",
            last_change=last,
        )

    head = i_line[ops.roots]
    s_pcc = src * np.conj(head) / 1e3  # complex kW per phase, transmission side
    if np.ndim(source_v) == 1:
        head, s_pcc = head[0], s_pcc[0]
    return FeederSolution(
        ops=ops,
        v=v,
        branch_currents=i_line,
        pcc_power_kw=s_pcc,
        head_current=head,
        feeder_iterations=rounds,
    )
