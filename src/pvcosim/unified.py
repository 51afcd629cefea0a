"""Monolithic phase-frame solve of the combined T&D network.

This is a second, methodologically independent solution of the same
physics the co-simulation computes by decomposition: every transmission
bus and feeder node appears in one phase-frame admittance matrix, loads
are constant-power current injections, and Newton's method drives the
current mismatch ``Y v - I(v, q)`` to zero (the current injection method
of Garcia et al., IEEE Trans. Power Systems 15(2), 2000). Generator
buses other than the slack inject a balanced positive-sequence current
with fixed active power. Their reactive powers are unknowns of the same
Newton system, closed by one positive-sequence voltage-magnitude
equation per generator, so there is no outer loop.

The iteration is a safeguarded chord method. ``UnifiedOps`` factors one
reference Newton matrix per run (flat start, base loads, ``q = 0``), and
every step solves with the current factor. A step whose mismatch is not
below ``CHORD_CONTRACTION`` times the previous step's first factors the
true Newton matrix at the current iterate, and that solve's later steps
reuse it, so a case that the reference serves badly falls back to
Newton steps.

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

__all__ = [
    "UnifiedOps", "UnifiedSolution", "UnifiedSolveError", "solve_unified", "compare",
    "AGREEMENT_PU",
]

AGREEMENT_PU = 1e-3  # largest positive-sequence PCC difference that passes
# A chord step keeps its factor while the mismatch falls below this share
# of the previous step's. From 0.3 up the chord also converges past the
# stress nose (pv_stress k = 3.875, PCC |V| about 0.72), where Newton
# fails, so it would widen the oracle's convergence set.
CHORD_CONTRACTION = 0.2


class UnifiedSolveError(PowerFlowError):
    pass


@dataclass
class UnifiedSolution:
    bus_voltages: dict[int, np.ndarray]  # transmission bus -> (3,) pu phases
    pcc_voltage: np.ndarray  # (n_att, 3) pu
    pcc_power: np.ndarray  # (n_att, 3) per-phase system pu
    iterations: int  # chord steps
    residual: float  # final max |current mismatch|
    factorizations: int  # Newton matrices factored by this solve, beyond the reference
    slack_power_pu: complex = 0j

    def positive_sequence(self, bus_id: int) -> complex:
        return (A_ANA @ self.bus_voltages[bus_id])[1]


def _seq_block_to_phase(block: np.ndarray) -> np.ndarray:
    return A_SYN @ block @ A_ANA


def _factor(jac: sp.csc_matrix, where: str):
    try:
        return spla.splu(jac)
    except RuntimeError as exc:
        raise UnifiedSolveError(f"{where}: singular Jacobian ({exc})") from exc


class UnifiedOps:
    """Phase-frame topology of the combined T&D network, built once per run.

    Transmission bus ``i`` owns slots ``3i..3i+2``. Each attachment's
    present (node, phase) pairs follow, in node order, and ``slots[a]``
    maps them as an ``(n, 3)`` table with -1 on absent phases. The
    attached buses' static loads are dropped (the feeders replace them).

    The Newton unknowns are ``Re v`` and ``Im v`` of every non-slack slot
    (``unknown``, in that order) and then the reactive power of each
    non-slack generator bus. ``jac_y`` is the constant part of the
    Jacobian, the real form of ``Y[unknown, unknown]``; ``jac_rows`` and
    ``jac_cols`` place the voltage-dependent load and generator terms
    that ``jacobian`` adds to it. ``lu`` is the ``splu`` factor of the
    reference Newton matrix that every solve's chord steps start from:
    the Jacobian at ``v_flat`` and ``q = 0`` under the feeders' base
    loads. It depends on no case, so no result depends on case order.
    """

    def __init__(self, net: TransmissionNetwork, attachments):
        attachments = list(attachments)
        net = effective_network(net, attachments)
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
        self.bus_ids = tuple(b.id for b in net.buses)
        pcc_pos = np.array([pos[a.bus] for a in attachments], dtype=int)
        self.pcc_slots = 3 * pcc_pos[:, None] + np.arange(3)
        self.root_slots = np.array(
            [t[a.ops.roots[0]] for a, t in zip(attachments, self.slots)], dtype=int
        ).reshape(-1, 3)
        self.ytr: list[complex] = []

        entries: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []  # rows, cols, values

        def put(r, c, v):
            entries.append((np.ravel(r), np.ravel(c), np.ravel(v)))

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

        r, c, v = (np.concatenate(x) for x in zip(*entries))
        nz = v != 0
        self.y = sp.csr_matrix(
            (v[nz], (r[nz], c[nz])), shape=(self.size, self.size), dtype=complex
        ).tocsc()

        # --- loads: static bus loads here, feeder loads per call ----------
        self.bus_s = np.repeat([complex(b.load_p, b.load_q) / 3.0 for b in net.buses], 3)
        self.kw_base = [1e3 * att.feeder.mva_base for att in attachments]

        # --- generators ----------------------------------------------------
        slack = net.buses[slack_pos]
        self.slack_slots = phases_of(slack_pos)
        vset = next((v for g, _p, v in net.generators if g == slack.id), slack.v_setpoint)
        self.slack_v = vset * A_SYN[:, 1]
        # (bus position, p_set, v_set) of each non-slack generator bus
        pv = [(pos[g], p, v) for g, p, v in net.generators if net.buses[pos[g]].kind == "pv"]
        pv = np.array(pv, dtype=float).reshape(-1, 3)
        self.pv_slots = 3 * pv[:, :1].astype(int) + np.arange(3)
        self.pv_p, self.pv_v = pv[:, 1], pv[:, 2]

        # Flat start aligned with each slot's phase angle.
        phase = [np.tile(np.arange(3), nb)] + [np.nonzero(a.ops.mask)[1] for a in attachments]
        self.v_flat = A_SYN[np.concatenate(phase), 1]
        self.v_flat[self.slack_slots] = self.slack_v

        # --- Newton system -------------------------------------------------
        self.unknown = np.delete(np.arange(self.size), self.slack_slots)
        nu = self.unknown.size
        col_of = np.full(self.size, -1, dtype=int)
        col_of[self.unknown] = np.arange(nu)
        self.jac_shape = (2 * nu + len(pv),) * 2
        # d(Y v) = Y dv in real form: [[Re Y, -Im Y], [Im Y, Re Y]].
        yu = self.y[np.ix_(self.unknown, self.unknown)].tocoo()
        r, c, t = yu.row, yu.col, yu.data
        rc = (np.concatenate([r, r, r + nu, r + nu]), np.concatenate([c, c + nu, c, c + nu]))
        self.jac_y = sp.csc_matrix(
            (np.concatenate([t.real, -t.imag, t.imag, t.real]), rc), self.jac_shape
        )
        # Terms in conj(dv), real form [[Re, Im], [Im, -Re]]: one diagonal
        # entry per unknown slot for the loads, a 3x3 block per generator
        # bus through v1 = A_ANA[1] @ v; then each generator's q column
        # and |V1| row (see ``jacobian`` for the values).
        gen = col_of[self.pv_slots]  # (n_pv, 3)
        r = np.concatenate([np.arange(nu), np.repeat(gen, 3, axis=1)], axis=None)
        c = np.concatenate([np.arange(nu), np.tile(gen, 3)], axis=None)
        qk = np.repeat(2 * nu + np.arange(len(pv)), 3)
        self.jac_rows = np.concatenate([r, r, r + nu, r + nu, gen, gen + nu, qk, qk], axis=None)
        self.jac_cols = np.concatenate([c, c + nu, c, c + nu, qk, qk, gen, gen + nu], axis=None)

        base_s = self.load_s([att.ops.loads for att in attachments])
        q0 = np.zeros(self.pv_p.size)
        v1 = self.mismatch(self.v_flat, q0, base_s)[1]
        self.lu = _factor(self.jacobian(self.v_flat, q0, v1, base_s), "reference Newton matrix")

    def load_s(self, feeder_loads) -> np.ndarray:
        """Per-phase constant-power load (system pu) on every slot, from one
        ``(n, 3)`` kW + j kvar array per attachment. Feeder slots are
        numbered in node order, so the present phases line up."""
        # Split by parts: numpy's complex / real rounds unlike Python's complex / float.
        parts = zip(self.slots, self.kw_base, feeder_loads)
        feeders = [(kw.real / b + 1j * (kw.imag / b))[t >= 0] for t, b, kw in parts]
        return np.concatenate([self.bus_s, *feeders])

    def mismatch(self, v, q, load_s) -> tuple[np.ndarray, np.ndarray]:
        """Current mismatch ``Y v - I(v, q)`` on every slot, and the
        positive-sequence voltage of each non-slack generator bus."""
        inj = -np.conj(3.0 * load_s / v)
        v1 = v[self.pv_slots] @ A_ANA[1]
        inj[self.pv_slots] += np.conj((self.pv_p + 1j * q) / v1)[:, None] * A_SYN[:, 1]
        return self.y @ v - inj, v1

    def jacobian(self, v, q, v1, load_s) -> sp.csc_matrix:
        """The Newton matrix at ``(v, q)``: ``jac_y`` plus one values array."""
        # A constant-power load current -conj(3 s / v) depends on conj(v) only.
        dload = -3.0 * np.conj(load_s) / np.conj(v) ** 2
        # The generator current conj((p + jq) / v1) * a with a = A_SYN[:, 1].
        dgen = np.conj(self.pv_p + 1j * q) / np.conj(v1) ** 2
        block = dgen[:, None, None] * np.outer(A_SYN[:, 1], np.conj(A_ANA[1]))
        t = np.concatenate([dload[self.unknown], block], axis=None)
        dq = (1j / np.conj(v1))[:, None] * A_SYN[:, 1]  # d(mismatch)/dq
        dmag = (np.conj(v1) / np.abs(v1))[:, None] * A_ANA[1]  # d|V1|/dv
        vals = np.concatenate(
            [t.real, t.imag, t.imag, -t.real, dq.real, dq.imag, dmag.real, -dmag.imag], axis=None
        )
        return self.jac_y + sp.csc_matrix((vals, (self.jac_rows, self.jac_cols)), self.jac_shape)


def solve_unified(
    net: TransmissionNetwork,
    attachments,
    hour: int,
    scenarios,
    tol: float = 1e-10,
    max_iter: int = 30,
    *,
    profile=None,
    pv_tol: float = 1e-8,
    ops: UnifiedOps | None = None,
) -> UnifiedSolution:
    """Solve transmission plus all attached feeders as one phase-frame model.

    Feeder loads come from the co-simulation's own scenario application,
    so both models see the same PV deployment. ``ops`` is
    ``UnifiedOps(net, attachments)``, built here when not given. Chord
    steps run from a flat start on ``ops.lu``, refactoring as the module
    docstring says, until the largest current mismatch is at most ``tol``
    and every generator's ``|V1|`` is within ``pv_tol`` of its setpoint,
    for at most ``max_iter`` steps.
    """
    attachments = list(attachments)
    loads = _feeder_loads(attachments, scenarios, hour, profile)
    ops = ops if ops is not None else UnifiedOps(net, attachments)
    load_s = ops.load_s(loads)
    u, nu = ops.unknown, ops.unknown.size
    v, q = ops.v_flat.copy(), np.zeros(ops.pv_p.size)
    lu, last = ops.lu, np.inf
    steps = factorizations = 0
    while True:
        cur, v1 = ops.mismatch(v, q, load_s)
        r, dev = cur[u], np.abs(v1) - ops.pv_v
        res, worst = float(np.max(np.abs(r))), float(np.max(np.abs(dev), initial=0.0))
        if res <= tol and worst <= pv_tol:
            break
        if steps == max_iter:
            raise UnifiedSolveError(
                f"Newton did not converge within max_iter={steps} steps: current mismatch "
                f"{res:.3e}, |V1| deviation {worst:.3e}"
            )
        steps += 1
        if max(res, worst) >= CHORD_CONTRACTION * last:
            lu = _factor(ops.jacobian(v, q, v1, load_s), f"Newton step {steps}")
            factorizations += 1
        last = max(res, worst)
        dx = lu.solve(-np.concatenate([r.real, r.imag, dev]))
        if not np.all(np.isfinite(dx)):
            raise UnifiedSolveError(f"Newton step {steps}: non-finite update")
        v[u] += dx[:nu] + 1j * dx[nu : 2 * nu]
        q += dx[2 * nu :]

    pcc_v = v[ops.pcc_slots]
    i_ph = np.array(ops.ytr).reshape(-1, 1) * (pcc_v - v[ops.root_slots])
    slack_s = complex((ops.slack_v * np.conj(cur[ops.slack_slots])).sum() / 3.0)
    return UnifiedSolution(
        bus_voltages={b: v[3 * i : 3 * i + 3].copy() for i, b in enumerate(ops.bus_ids)},
        pcc_voltage=pcc_v,
        pcc_power=pcc_v * np.conj(i_ph) / 3.0,
        iterations=steps,
        residual=res,
        factorizations=factorizations,
        slack_power_pu=slack_s,
    )


def compare(cs: CoSimResult, us: UnifiedSolution, attachments) -> dict:
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
            }
        )
    max_diff = max((r["diff"] for r in rows), default=0.0)
    return {
        "per_pcc": rows,
        "max_diff": max_diff,
        "passed": max_diff < AGREEMENT_PU,
    }
