"""Monolithic phase-frame solve of the combined T&D network.

This is a second, methodologically independent solution of the same
physics the co-simulation computes by decomposition: every transmission
bus and feeder node appears in one phase-frame admittance matrix, loads
are constant-power current injections, and the system is driven to a
current-injection fixed point. Generator buses other than the slack
inject a balanced positive-sequence current with fixed active power; an
outer secant loop trims their reactive power until the
positive-sequence voltage magnitude sits on the setpoint.

Agreement between this solve and the coupler's boundary iteration is
the package's primary validation check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import connected_components

from .coupler import CoSimResult, _feeder_loads, effective_network
from .network import TransmissionNetwork
from .sequences import A_ANA, A_SYN
from .transmission import PowerFlowError

__all__ = ["UnifiedSolution", "UnifiedSolveError", "solve_unified", "compare", "AGREEMENT_PU"]

AGREEMENT_PU = 1e-3  # largest positive-sequence PCC difference that passes


class UnifiedSolveError(PowerFlowError):
    pass


@dataclass
class UnifiedSolution:
    bus_voltages: dict[int, np.ndarray]  # transmission bus -> (3,) pu phases
    pcc_voltage: np.ndarray  # (n_att, 3) pu
    pcc_power: np.ndarray  # (n_att, 3) per-phase system pu
    iterations: int
    residual: float
    slack_power_pu: complex = 0j

    def positive_sequence(self, bus_id: int) -> complex:
        return (A_ANA @ self.bus_voltages[bus_id])[1]


def _seq_block_to_phase(block: np.ndarray) -> np.ndarray:
    return A_SYN @ block @ A_ANA


class _CombinedModel:
    """Phase-frame admittance and injection bookkeeping for one snapshot.

    Transmission bus ``i`` owns slots ``3i..3i+2``. Each attachment's
    present (node, phase) pairs follow, in node order, and ``slots[a]``
    maps them as an ``(n, 3)`` table with -1 on absent phases.
    ``feeder_loads`` holds one ``(n, 3)`` kW + j kvar array per attachment.
    """

    def __init__(self, net: TransmissionNetwork, attachments, feeder_loads):
        nb = len(net.buses)
        pos = net.bus_index()
        size = 3 * nb
        self.slots: list[np.ndarray] = []
        for att in attachments:
            table = np.full(att.ops.mask.shape, -1, dtype=int)
            table[att.ops.mask] = size + np.arange(att.ops.mask.sum())
            size += int(att.ops.mask.sum())
            self.slots.append(table)
        self.size = size
        pcc_pos = np.array([pos[a.bus] for a in attachments], dtype=int)
        self.pcc_slots = 3 * pcc_pos[:, None] + np.arange(3)
        self.root_slots = np.array(
            [t[a.ops.root] for a, t in zip(attachments, self.slots)], dtype=int
        ).reshape(-1, 3)
        self.ytr: list[complex] = []

        rows: list[np.ndarray] = []
        cols: list[np.ndarray] = []
        vals: list[np.ndarray] = []

        def put(r, c, v):
            rows.append(np.ravel(r))
            cols.append(np.ravel(c))
            vals.append(np.ravel(v))

        def stamp(r, c, block: np.ndarray):
            put(np.repeat(r, len(c)), np.tile(c, len(r)), block)

        def phases_of(i: int) -> np.ndarray:
            return 3 * i + np.arange(3)

        # --- transmission branches and shunts ----------------------------
        y0 = np.zeros((nb, nb), dtype=complex)  # the zero-sequence network stamped here
        for br in net.branches:
            f, t = pos[br.from_bus], pos[br.to_bus]
            yser = (
                np.linalg.inv(br.series_impedance_matrix())
                if br.coupling
                else np.diag([1.0 / br.z0, 1.0 / br.z1, 1.0 / br.z2]).astype(complex)
            )
            bsh = np.diag([br.b0, br.b1, br.b1]).astype(complex) * 0.5j
            yff = (yser + bsh) / br.tap**2
            yft = -yser / br.tap
            ytf = -yser / br.tap
            ytt = yser + bsh
            if br.zero_seq_open:
                for blk in (yff, yft, ytf, ytt):
                    blk[0, :] = 0
                    blk[:, 0] = 0
                ytt[0, 0] = 1.0 / br.z0
            for (a, b), blk in zip(((f, f), (f, t), (t, f), (t, t)), (yff, yft, ytf, ytt)):
                stamp(phases_of(a), phases_of(b), _seq_block_to_phase(blk))
                y0[a, b] += blk[0, 0]

        ysh = np.array([complex(b.shunt_g, b.shunt_b) for b in net.buses])
        put(np.arange(3 * nb), np.arange(3 * nb), np.repeat(ysh, 3))
        y0[np.diag_indices(nb)] += ysh

        # Buses isolated in the zero-sequence network (behind zero_seq_open
        # transformers) leave a floating mode in the phase frame. Pin their
        # zero-sequence potential to ground: a component of the network
        # without the slack floats unless a member has a path to ground
        # (a nonzero row sum) or couples to the slack. No current flows
        # through the leg, so the physics is unchanged.
        slack_pos = next(i for i, b in enumerate(net.buses) if b.kind == "slack")
        keep = np.delete(np.arange(nb), slack_pos)
        scale = np.maximum(1.0, np.abs(y0).max(axis=1))
        anchored = (np.abs(y0.sum(axis=1)) > 1e-8 * scale) | (np.abs(y0[:, slack_pos]) > 0)
        _, labels = connected_components(y0[np.ix_(keep, keep)] != 0, directed=False)
        floating = np.bincount(labels, weights=anchored[keep])[labels] == 0
        self.pinned = keep[floating]  # bus positions
        zero_ground = _seq_block_to_phase(np.diag([1.0, 0.0, 0.0]).astype(complex))
        for i in self.pinned:
            stamp(phases_of(i), phases_of(i), zero_ground)

        # --- substation transformers and feeder lines --------------------
        for att, table, pcc, root in zip(attachments, self.slots, self.pcc_slots, self.root_slots):
            f = att.feeder
            if f.transformer.z_pu == 0:
                raise UnifiedSolveError(
                    f"attachment at bus {att.bus}: unified solve needs a nonzero "
                    "substation transformer impedance"
                )
            if np.any(root < 0):
                raise UnifiedSolveError(
                    f"attachment at bus {att.bus}: the feeder root must carry all three phases"
                )
            ytr = 1.0 / f.transformer.z_pu
            self.ytr.append(ytr)
            put(
                np.column_stack([pcc, root, pcc, root]),
                np.column_stack([pcc, root, root, pcc]),
                np.tile([ytr, ytr, -ytr, -ytr], (3, 1)),
            )

            for ln in f.lines:
                child = att.ops.index[ln.to_node]
                ph = np.flatnonzero(att.ops.mask[child])
                zsub = ln.z_matrix()[np.ix_(ph, ph)] / f.z_base
                try:
                    ysub = np.linalg.inv(zsub)
                except np.linalg.LinAlgError as exc:
                    raise UnifiedSolveError(
                        f"line {ln.from_node}-{ln.to_node}: singular impedance matrix"
                    ) from exc
                fr = table[att.ops.index[ln.from_node], ph]
                to = table[child, ph]
                stamp(fr, fr, ysub)
                stamp(to, to, ysub)
                stamp(fr, to, -ysub)
                stamp(to, fr, -ysub)

        r, c, v = (np.concatenate(x) for x in (rows, cols, vals))
        nz = v != 0
        self.y = sp.csr_matrix(
            (v[nz], (r[nz], c[nz])), shape=(self.size, self.size), dtype=complex
        ).tocsc()

        # --- constant-power loads (slot, per-phase s in pu) ---------------
        load_slot = [np.arange(3 * nb)]
        load_s = [np.repeat([complex(b.load_p, b.load_q) / 3.0 for b in net.buses], 3)]
        for att, table, kw in zip(attachments, self.slots, feeder_loads):
            base = 1e3 * att.mva_base
            # Split by parts: numpy's complex / real rounds unlike Python's complex / float.
            load_s.append((kw.real / base + 1j * (kw.imag / base))[table >= 0])
            load_slot.append(table[table >= 0])
        self.load_slot, self.load_s = np.concatenate(load_slot), np.concatenate(load_s)
        nz = self.load_s != 0
        self.load_slot, self.load_s = self.load_slot[nz], self.load_s[nz]

        # --- generators ----------------------------------------------------
        slack = net.buses[slack_pos]
        self.slack_slots = phases_of(slack_pos)
        vset = slack.v_setpoint
        if vset is None:
            g = net.generator_at(slack.id)
            vset = g[2] if g else 1.0
        self.slack_v = vset * A_SYN[:, 1]

        # (first slot, p_set, v_set) of each non-slack generator bus
        self.pv_buses = [
            (3 * pos[gbus], p_set, v_set)
            for gbus, p_set, v_set in net.generators
            if net.buses[pos[gbus]].kind == "pv"
        ]

        self.unknown = np.delete(np.arange(self.size), self.slack_slots)
        yuu = self.y[np.ix_(self.unknown, self.unknown)].tocsc()
        self.y_us = self.y[np.ix_(self.unknown, self.slack_slots)].tocsc()
        try:
            self.lu = spla.splu(yuu)
        except RuntimeError as exc:
            raise UnifiedSolveError(f"combined admittance is singular: {exc}") from exc

    def injections(self, v: np.ndarray, q_pv: np.ndarray) -> np.ndarray:
        """Nodal phase-current injections at the current voltage estimate."""
        inj = np.zeros(self.size, dtype=complex)
        inj[self.load_slot] -= np.conj(3.0 * self.load_s / v[self.load_slot])
        for k, (base, p_set, _v_set) in enumerate(self.pv_buses):
            v1 = (A_ANA @ v[base : base + 3])[1]
            i1 = np.conj(complex(p_set, q_pv[k]) / v1)
            inj[base : base + 3] += i1 * A_SYN[:, 1]
        return inj


def solve_unified(
    net: TransmissionNetwork,
    attachments,
    hour: int,
    scenarios,
    tol: float = 1e-10,
    max_iter: int = 400,
    *,
    profile=None,
    pv_tol: float = 1e-8,
    max_outer: int = 40,
) -> UnifiedSolution:
    """Solve transmission plus all attached feeders as one phase-frame model.

    Feeder loads come from the co-simulation's own scenario application,
    so both models see the same PV deployment.
    """
    attachments = list(attachments)
    loads = _feeder_loads(attachments, scenarios, hour, profile)
    model = _CombinedModel(effective_network(net, attachments), attachments, loads)

    # Flat start aligned with each slot's phase angle.
    v = np.zeros(model.size, dtype=complex)
    v[: 3 * len(net.buses)] = np.tile(A_SYN[:, 1], len(net.buses))
    for table in model.slots:
        present = table >= 0
        v[table[present]] = np.broadcast_to(A_SYN[:, 1], table.shape)[present]
    v[model.slack_slots] = model.slack_v

    n_pv = len(model.pv_buses)
    q = np.zeros(n_pv)
    total_inner = 0

    def inner_solve(vv: np.ndarray, qq: np.ndarray) -> tuple[np.ndarray, float, int, bool]:
        it = 0
        res = np.inf
        while it < max_iter:
            it += 1
            inj = model.injections(vv, qq)
            rhs = inj[model.unknown] - model.y_us @ model.slack_v
            v_new = vv.copy()
            v_new[model.unknown] = model.lu.solve(rhs)
            res_vec = model.y @ v_new - model.injections(v_new, qq)
            res = float(np.max(np.abs(res_vec[model.unknown])))
            vv = v_new
            if res <= tol:
                return vv, res, it, True
        return vv, res, it, False

    def deviation(vv: np.ndarray) -> np.ndarray:
        return np.array(
            [abs((A_ANA @ vv[base : base + 3])[1]) - v_set for base, _p, v_set in model.pv_buses]
        )

    v, res, it, ok = inner_solve(v, q)
    total_inner += it
    if not ok:
        raise UnifiedSolveError(f"current-injection iteration stalled at residual {res:.3e}")

    if n_pv:
        dev = deviation(v)
        jac = None
        outer = 0
        while np.max(np.abs(dev)) > pv_tol:
            outer += 1
            if outer > max_outer:
                raise UnifiedSolveError(
                    "reactive adjustment did not settle; "
                    f"|V1| deviation {np.max(np.abs(dev)):.3e}"
                )
            if jac is None:
                # One-time finite-difference sensitivity d(dev)/dQ.
                jac = np.zeros((n_pv, n_pv))
                delta = 0.05
                for k in range(n_pv):
                    qp = q.copy()
                    qp[k] += delta
                    vp, _r, itp, okp = inner_solve(v.copy(), qp)
                    total_inner += itp
                    if not okp:
                        raise UnifiedSolveError("sensitivity probe did not converge")
                    jac[:, k] = (deviation(vp) - dev) / delta
            step = np.linalg.solve(jac, -dev)
            scale = min(1.0, 0.5 / max(1e-12, float(np.max(np.abs(step)))))
            step *= scale
            lam = 1.0
            for _ in range(8):
                v_try, res, it, ok = inner_solve(v.copy(), q + lam * step)
                total_inner += it
                if ok and np.max(np.abs(deviation(v_try))) < np.max(np.abs(dev)):
                    break
                lam *= 0.5
            else:
                raise UnifiedSolveError("reactive adjustment could not reduce deviation")
            q = q + lam * step
            v = v_try
            dev = deviation(v)

    # --- extract PCC quantities -----------------------------------------
    pcc_v = v[model.pcc_slots]
    i_ph = np.array(model.ytr).reshape(-1, 1) * (pcc_v - v[model.root_slots])
    pcc_s = pcc_v * np.conj(i_ph) / 3.0

    bus_voltages = {b.id: v[3 * i : 3 * i + 3].copy() for i, b in enumerate(net.buses)}
    i_slack = np.array((model.y @ v)[model.slack_slots]) - np.array(
        model.injections(v, q)[model.slack_slots]
    )
    slack_s = complex((model.slack_v * np.conj(i_slack)).sum() / 3.0)
    return UnifiedSolution(
        bus_voltages=bus_voltages,
        pcc_voltage=pcc_v,
        pcc_power=pcc_s,
        iterations=total_inner,
        residual=res,
        slack_power_pu=slack_s,
    )


def compare(
    cs: CoSimResult, us: UnifiedSolution, attachments, threshold: float = AGREEMENT_PU
) -> dict:
    """Per-PCC positive-sequence voltage comparison of the two models."""
    attachments = list(attachments)
    if us.pcc_voltage.shape[0] != len(attachments):
        raise ValueError("unified solution covers a different attachment set")
    rows = []
    for i, att in enumerate(attachments):
        v_cs = cs.seq_solution.v1[cs.seq_solution.index_of(att.bus)]
        v_us = (A_ANA @ us.pcc_voltage[i])[1]
        rows.append(
            {
                "bus": att.bus,
                "v_cosim": complex(v_cs),
                "v_unified": complex(v_us),
                "diff": abs(v_cs - v_us),
                "diff_mag": abs(abs(v_cs) - abs(v_us)),
            }
        )
    max_diff = max((r["diff"] for r in rows), default=0.0)
    return {
        "per_pcc": rows,
        "max_diff": max_diff,
        "threshold": threshold,
        "passed": max_diff < threshold,
    }
