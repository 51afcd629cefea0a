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

from .coupler import CoSimResult, effective_network
from .feeder import PHASES, FeederModel, apply_scenario
from .network import TransmissionNetwork, build_sequence_admittance
from .sequences import A_ANA, A_SYN
from .transmission import PowerFlowError, _LinearSequenceSolver

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
    """Phase-frame admittance and injection bookkeeping for one snapshot."""

    def __init__(self, net: TransmissionNetwork, attachments, feeders: list[FeederModel]):
        self.net = net
        self.attachments = list(attachments)
        self.feeders = feeders

        # --- global unknown numbering -----------------------------------
        self.bus_slot: dict[int, int] = {}
        slot = 0
        for b in net.buses:
            self.bus_slot[b.id] = slot
            slot += 3
        self.feeder_slot: list[dict[str, dict[str, int]]] = []
        for f in feeders:
            nodemap: dict[str, dict[str, int]] = {}
            for node in f.nodes:
                phmap = {}
                for ph in node.phases:
                    phmap[ph] = slot
                    slot += 1
                nodemap[node.id] = phmap
            self.feeder_slot.append(nodemap)
        self.size = slot

        rows: list[int] = []
        cols: list[int] = []
        vals: list[complex] = []

        def add(r: int, c: int, v: complex):
            if v != 0:
                rows.append(r)
                cols.append(c)
                vals.append(v)

        def add_block(rbase: list[int], cbase: list[int], mat: np.ndarray):
            for i, r in enumerate(rbase):
                for j, c in enumerate(cbase):
                    add(r, c, mat[i, j])

        # --- transmission branches ---------------------------------------
        for br in net.branches:
            fr = [self.bus_slot[br.from_bus] + k for k in range(3)]
            to = [self.bus_slot[br.to_bus] + k for k in range(3)]
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
            add_block(fr, fr, _seq_block_to_phase(yff))
            add_block(fr, to, _seq_block_to_phase(yft))
            add_block(to, fr, _seq_block_to_phase(ytf))
            add_block(to, to, _seq_block_to_phase(ytt))

        for b in net.buses:
            ysh = complex(b.shunt_g, b.shunt_b)
            if ysh != 0:
                base = self.bus_slot[b.id]
                for k in range(3):
                    add(base + k, base + k, ysh)

        # Buses isolated in the zero-sequence network (behind zero_seq_open
        # transformers) leave a floating mode in the phase frame. Pin their
        # zero-sequence potential to ground exactly as the sequence-domain
        # solver does; no current flows through the leg, so the physics is
        # unchanged.
        slack_pos = [i for i, b in enumerate(net.buses) if b.kind == "slack"][0]
        lin0 = _LinearSequenceSolver(build_sequence_admittance(net)[0], slack_pos)
        zero_ground = _seq_block_to_phase(np.diag([1.0, 0.0, 0.0]).astype(complex))
        for local in lin0.pinned_local:
            bus_pos = int(lin0.keep[local])
            base = self.bus_slot[net.buses[bus_pos].id]
            add_block(
                [base, base + 1, base + 2], [base, base + 1, base + 2], zero_ground
            )

        # --- substation transformers and feeder lines --------------------
        for a_idx, (att, f) in enumerate(zip(self.attachments, feeders)):
            if att.feeder.transformer.z_pu == 0:
                raise UnifiedSolveError(
                    f"attachment at bus {att.bus}: unified solve needs a nonzero "
                    "substation transformer impedance"
                )
            ytr = 1.0 / att.feeder.transformer.z_pu
            root_map = self.feeder_slot[a_idx][f.root]
            pcc = self.bus_slot[att.bus]
            for ph in PHASES:  # feeder root is three-phase
                r = root_map[ph]
                p = pcc + PHASES.index(ph)
                add(p, p, ytr)
                add(r, r, ytr)
                add(p, r, -ytr)
                add(r, p, -ytr)

            zb = f.z_base
            for ln in f.lines:
                child = f.node(ln.to_node)
                ph_idx = [PHASES.index(p) for p in child.phases]
                zsub = ln.z_matrix()[np.ix_(ph_idx, ph_idx)] / zb
                try:
                    ysub = np.linalg.inv(zsub)
                except np.linalg.LinAlgError as exc:
                    raise UnifiedSolveError(
                        f"line {ln.from_node}-{ln.to_node}: singular impedance matrix"
                    ) from exc
                fmap = self.feeder_slot[a_idx][ln.from_node]
                tmap = self.feeder_slot[a_idx][ln.to_node]
                fr = [fmap[p] for p in child.phases]
                to = [tmap[p] for p in child.phases]
                add_block(fr, fr, ysub)
                add_block(to, to, ysub)
                add_block(fr, to, -ysub)
                add_block(to, fr, -ysub)

        self.y = sp.csr_matrix(
            (vals, (rows, cols)), shape=(self.size, self.size), dtype=complex
        ).tocsc()

        # --- constant-power loads (slot, s_phase pu) ----------------------
        self.loads: list[tuple[int, complex]] = []
        for b in net.buses:
            s_total = complex(b.load_p, b.load_q)
            if s_total != 0:
                for k in range(3):
                    self.loads.append((self.bus_slot[b.id] + k, s_total / 3.0))
        for a_idx, (att, f) in enumerate(zip(self.attachments, feeders)):
            for node in f.nodes:
                for ph, s_kw in node.loads.items():
                    s_pu = s_kw / (1e3 * att.mva_base)
                    if s_pu != 0:
                        self.loads.append((self.feeder_slot[a_idx][node.id][ph], s_pu))

        # --- generators ----------------------------------------------------
        slack = self.net.slack_bus
        self.slack_slots = [self.bus_slot[slack.id] + k for k in range(3)]
        vset = slack.v_setpoint
        if vset is None:
            g = net.generator_at(slack.id)
            vset = g[2] if g else 1.0
        self.slack_v = vset * A_SYN[:, 1]

        self.pv_buses: list[tuple[int, float, float]] = []  # (bus, p_set, v_set)
        for gbus, p_set, v_set in net.generators:
            bus = next(b for b in net.buses if b.id == gbus)
            if bus.kind == "pv":
                self.pv_buses.append((gbus, p_set, v_set))

        self.unknown = np.array(
            [i for i in range(self.size) if i not in set(self.slack_slots)], dtype=int
        )
        self.pos_of = {g: i for i, g in enumerate(self.unknown)}
        yuu = self.y[np.ix_(self.unknown, self.unknown)].tocsc()
        self.y_us = self.y[np.ix_(self.unknown, np.array(self.slack_slots))].tocsc()
        try:
            self.lu = spla.splu(yuu)
        except RuntimeError as exc:
            raise UnifiedSolveError(f"combined admittance is singular: {exc}") from exc

    def injections(self, v: np.ndarray, q_pv: np.ndarray) -> np.ndarray:
        """Nodal phase-current injections at the current voltage estimate."""
        inj = np.zeros(self.size, dtype=complex)
        for slot, s_ph in self.loads:
            inj[slot] -= np.conj(3.0 * s_ph / v[slot])
        for k, (gbus, p_set, _v_set) in enumerate(self.pv_buses):
            base = self.bus_slot[gbus]
            v1 = (A_ANA @ v[base : base + 3])[1]
            i1 = np.conj(complex(p_set, q_pv[k]) / v1)
            inj[base : base + 3] += i1 * A_SYN[:, 1]
        return inj

    def v1_at(self, v: np.ndarray, bus_id: int) -> complex:
        base = self.bus_slot[bus_id]
        return (A_ANA @ v[base : base + 3])[1]


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
    """Solve transmission plus all attached feeders as one phase-frame model."""
    attachments = list(attachments)
    if scenarios is None:
        scenarios = [None] * len(attachments)
    feeders = []
    for att, scen in zip(attachments, scenarios):
        if scen is None:
            feeders.append(att.feeder)
        else:
            if profile is None:
                raise ValueError("a generation profile is required to apply scenarios")
            feeders.append(apply_scenario(att.feeder, scen, hour, profile))

    net_eff = effective_network(net, attachments)
    model = _CombinedModel(net_eff, attachments, feeders)

    # Flat start aligned with each slot's phase angle.
    v = np.zeros(model.size, dtype=complex)
    for bus_id, base in model.bus_slot.items():
        v[base : base + 3] = A_SYN[:, 1]
    for a_idx, f in enumerate(feeders):
        for node in f.nodes:
            for ph, slot in model.feeder_slot[a_idx][node.id].items():
                v[slot] = A_SYN[PHASES.index(ph), 1]
    for slot, vs in zip(model.slack_slots, model.slack_v):
        v[slot] = vs

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
            [abs(model.v1_at(vv, gbus)) - v_set for gbus, _p, v_set in model.pv_buses]
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
    n_att = len(attachments)
    pcc_v = np.zeros((n_att, 3), dtype=complex)
    pcc_s = np.zeros((n_att, 3), dtype=complex)
    for a_idx, (att, f) in enumerate(zip(attachments, feeders)):
        base = model.bus_slot[att.bus]
        vp = v[base : base + 3]
        root_map = model.feeder_slot[a_idx][f.root]
        vroot = np.array([v[root_map[p]] for p in PHASES])
        ytr = 1.0 / att.feeder.transformer.z_pu
        i_ph = ytr * (vp - vroot)
        pcc_v[a_idx] = vp
        pcc_s[a_idx] = vp * np.conj(i_ph) / 3.0

    bus_voltages = {
        b.id: v[model.bus_slot[b.id] : model.bus_slot[b.id] + 3].copy() for b in net.buses
    }
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
