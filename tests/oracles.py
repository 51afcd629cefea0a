"""Independent reference methods used to check the package's solvers.

Everything here is deliberately naive and shares no code with the
package: Gauss-Seidel and a textbook polar Newton for the
positive-sequence power flow, dense phase-frame fixed-point nodal
solves, closed-form two-bus voltage, element-by-element admittance
assembly, per-sequence branch flows, union-find sequence-network
islands, compensation currents one bus and one branch at a time, the
sequence-coupling loop as a plain Jacobi iteration on those
compensation currents, the feeder sweep as a node-by-node tree walk, PV
scenarios written into node loads, and the unified solve as a
current-injection fixed point with a secant trim of the generators'
reactive power.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import scipy.sparse.linalg as spla

ALPHA = np.exp(2j * np.pi / 3)
SYN = np.array(
    [[1, 1, 1], [1, ALPHA**2, ALPHA], [1, ALPHA, ALPHA**2]], dtype=complex
)


def gauss_seidel(y, sbus, v0, slack, pv, v_set, tol=1e-10, max_iter=200000, accel=1.4):
    """Classic Gauss-Seidel power flow with PV-bus magnitude correction."""
    y = np.asarray(y, dtype=complex)
    n = y.shape[0]
    v = np.asarray(v0, dtype=complex).copy()
    pv = set(int(i) for i in pv)
    for _ in range(max_iter):
        v_prev = v.copy()
        for i in range(n):
            if i == slack:
                continue
            s_i = sbus[i]
            if i in pv:
                q_i = -np.imag(np.conj(v[i]) * (y[i] @ v))
                s_i = complex(sbus[i].real, q_i)
            total = y[i] @ v - y[i, i] * v[i]
            v_new = (np.conj(s_i / v[i]) - total) / y[i, i]
            v[i] = v[i] + accel * (v_new - v[i])
            if i in pv:
                v[i] = v_set[i] * v[i] / abs(v[i])
        if np.max(np.abs(v - v_prev)) < tol:
            return v
    raise RuntimeError("Gauss-Seidel did not converge")


def two_bus_constant_power(vs: complex, z: complex, s: complex) -> complex:
    """Closed-form receiving-end voltage for one line and a P-Q load."""
    p, q = s.real, s.imag
    r, x = z.real, z.imag
    b = 2 * (p * r + q * x) - abs(vs) ** 2
    c = (p * p + q * q) * (r * r + x * x)
    disc = b * b - 4 * c
    if disc < 0:
        raise ValueError("no real solution: load beyond maximum transfer")
    u = (-b + np.sqrt(disc)) / 2
    return np.conj((u + z * np.conj(s)) / vs)


def brute_force_sequence_y(net, seq: int) -> np.ndarray:
    """Element-by-element nodal assembly (dense), naive reference version."""
    ids = [b.id for b in net.buses]
    pos = {bid: i for i, bid in enumerate(ids)}
    n = len(ids)
    y = np.zeros((n, n), dtype=complex)
    for br in net.branches:
        f, t = pos[br.from_bus], pos[br.to_bus]
        z = {0: br.z0, 1: br.z1, 2: br.z2}[seq]
        bsh = br.b0 if seq == 0 else br.b1
        if seq == 0 and br.zero_seq_open:
            y[t, t] += 1 / z
            continue
        if br.coupling:
            zm = np.diag([br.z0, br.z1, br.z2]).astype(complex)
            for key, val in br.coupling.items():
                zm[int(key[1]), int(key[2])] = val
            ys = np.linalg.inv(zm)[seq, seq]
        else:
            ys = 1 / z
        y[f, f] += (ys + 1j * bsh / 2) / br.tap**2
        y[t, t] += ys + 1j * bsh / 2
        y[f, t] -= ys / br.tap
        y[t, f] -= ys / br.tap
    for b in net.buses:
        y[pos[b.id], pos[b.id]] += complex(b.shunt_g, b.shunt_b)
    return y


def union_find_islands(y, slack: int) -> tuple[np.ndarray, np.ndarray]:
    """Solvable and pinned buses of a slack-grounded sequence network.

    Positions are local to the non-slack buses. Buses are joined by
    union-find over the nonzero off-diagonal entries of the reduced
    matrix; a component is solvable iff some member has a path to ground
    (a nonzero row sum, i.e. a shunt, or a nonzero entry to the slack).
    """
    y = np.asarray(y.toarray() if hasattr(y, "toarray") else y, dtype=complex)
    n = y.shape[0]
    keep = [i for i in range(n) if i != slack]
    parent = list(range(len(keep)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for r in range(len(keep)):
        for c in range(len(keep)):
            if r != c and abs(y[keep[r], keep[c]]) > 0:
                pr, pc = find(r), find(c)
                if pr != pc:
                    parent[pr] = pc

    anchored = {}
    for k, bus in enumerate(keep):
        scale = max(1.0, max(abs(v) for v in y[bus]))
        grounded = abs(y[bus].sum()) > 1e-8 * scale or abs(y[bus, slack]) > 0
        anchored[find(k)] = anchored.get(find(k), False) or grounded
    solvable = [k for k in range(len(keep)) if anchored[find(k)]]
    pinned = [k for k in range(len(keep)) if not anchored[find(k)]]
    return np.array(solvable, dtype=int), np.array(pinned, dtype=int)


def naive_branch_flows(br, vf, vt) -> np.ndarray:
    """Per-sequence complex power into one branch at each end, (3, 2).

    Pi model with the off-nominal tap on the from side, written out one
    sequence at a time from the branch fields.
    """
    zm = np.diag([br.z0, br.z1, br.z2]).astype(complex)
    for key, val in br.coupling.items():
        zm[int(key[1]), int(key[2])] = val
    ym = np.linalg.inv(zm)
    out = np.zeros((3, 2), dtype=complex)
    for s in range(3):
        bsh = br.b0 if s == 0 else br.b1
        if s == 0 and br.zero_seq_open:
            i_f = 0j
            i_t = vt[0] / br.z0
        else:
            i_ser = sum(ym[s, k] * (vf[k] / br.tap - vt[k]) for k in range(3))
            i_f = i_ser / br.tap + 0.5j * bsh * vf[s] / br.tap**2
            i_t = -i_ser + 0.5j * bsh * vt[s]
        out[s, 0] = vf[s] * np.conj(i_f)
        out[s, 1] = vt[s] * np.conj(i_t)
    return out


def per_bus_compensation(net, v0, v1, v2, loads_ph) -> np.ndarray:
    """Sequence compensation current injections (n, 3), generator sign.

    A loaded bus injects minus the sequence components of its
    constant-power phase currents ``conj(3 s / v)``, less the balanced
    positive-sequence current ``conj(sum(s) / v1)`` that the
    positive-sequence Newton already carries. A coupled branch (unit tap)
    drives the off-diagonal part of its inverse sequence impedance
    matrix times the across-voltage out of its from bus and into its to
    bus.
    """
    ana = np.conj(SYN) / 3  # the analysis matrix, SYN's inverse
    pos = {b.id: i for i, b in enumerate(net.buses)}
    inj = np.zeros((len(net.buses), 3), dtype=complex)
    for i in range(len(net.buses)):
        s = loads_ph[i]
        if not np.any(s):
            continue
        v_ph = SYN @ np.array([v0[i], v1[i], v2[i]])
        i_ph = np.array([np.conj(3 * s[k] / v_ph[k]) for k in range(3)])
        i_seq = ana @ i_ph
        i_seq[1] -= np.conj(sum(s) / v1[i])
        inj[i] -= i_seq
    for br in net.branches:
        if not br.coupling:
            continue
        zm = np.diag([br.z0, br.z1, br.z2]).astype(complex)
        for key, val in br.coupling.items():
            zm[int(key[1]), int(key[2])] = val
        ym = np.linalg.inv(zm)
        f, t = pos[br.from_bus], pos[br.to_bus]
        dv = np.array([v0[f] - v0[t], v1[f] - v1[t], v2[f] - v2[t]])
        di = (ym - np.diag(np.diag(ym))) @ dv
        inj[f] -= di
        inj[t] += di
    return inj


def _polar_newton(y, sbus, v, slack, pv, pq, tol, max_iter=30):
    """Textbook polar Newton-Raphson with dense derivative matrices."""
    pvpq = list(pv) + list(pq)
    n_p = len(pvpq)
    for _ in range(max_iter):
        i_bus = y @ v
        mis = v * np.conj(i_bus) - sbus
        f = np.concatenate([mis.real[pvpq], mis.imag[pq]])
        if np.max(np.abs(f)) <= tol:
            return v
        vn = v / np.abs(v)
        ds_dva = 1j * np.diag(v) @ np.conj(np.diag(i_bus) - y @ np.diag(v))
        ds_dvm = np.diag(v) @ np.conj(y @ np.diag(vn)) + np.conj(np.diag(i_bus)) @ np.diag(vn)
        jac = np.block(
            [
                [ds_dva.real[np.ix_(pvpq, pvpq)], ds_dvm.real[np.ix_(pvpq, pq)]],
                [ds_dva.imag[np.ix_(pq, pvpq)], ds_dvm.imag[np.ix_(pq, pq)]],
            ]
        )
        dx = np.linalg.solve(jac, f)
        va, vm = np.angle(v), np.abs(v)
        va[pvpq] -= dx[:n_p]
        vm[pq] -= dx[n_p:]
        v = vm * np.exp(1j * va)
    raise RuntimeError("Newton-Raphson did not converge")


def _bus_roles(net):
    """Slack position, pv and pq positions, flat start with the generators'
    voltage setpoints, and the non-slack generators' active power."""
    kinds = [b.kind for b in net.buses]
    pos = {b.id: i for i, b in enumerate(net.buses)}
    slack = kinds.index("slack")
    pv = [i for i, k in enumerate(kinds) if k == "pv"]
    pq = [i for i, k in enumerate(kinds) if k == "pq"]
    v = np.ones(len(kinds), dtype=complex)
    p_gen = np.zeros(len(kinds))
    if net.buses[slack].v_setpoint is not None:
        v[slack] = net.buses[slack].v_setpoint
    for gbus, p_set, v_set in net.generators:
        v[pos[gbus]] = v_set
        if pos[gbus] != slack:
            p_gen[pos[gbus]] = p_set
    return slack, pv, pq, v, p_gen


def balanced_power_flow(net, tol):
    """Positive-sequence voltages of ``net`` under its balanced static loads,
    by the textbook polar Newton on the element-by-element admittance."""
    slack, pv, pq, v, p_gen = _bus_roles(net)
    sbus = p_gen - np.array([complex(b.load_p, b.load_q) for b in net.buses])
    return _polar_newton(brute_force_sequence_y(net, 1), sbus, v, slack, pv, pq, tol)


def jacobi_three_sequence(net, loads_ph, tol, max_passes=500):
    """The sequence-coupling loop with plain per-sequence updates.

    ``loads_ph`` is the (n, 3) per-phase constant-power load of every bus,
    static loads included. Each pass takes the compensation currents at
    the last voltages, solves the positive sequence by Newton-Raphson with
    them as extra injection, and solves V0 and V2 from them alone (slack
    grounded, islands without a path to ground held at zero volts). Stops
    once no sequence voltage moves by more than ``tol`` after the first
    pass. Returns ``(v0, v1, v2, passes)``.
    """
    ys = [brute_force_sequence_y(net, s) for s in range(3)]
    slack, pv, pq, v1, p_gen = _bus_roles(net)
    n = len(net.buses)
    keep = [i for i in range(n) if i != slack]
    grounded = []
    for s in (0, 2):
        solvable, _pinned = union_find_islands(ys[s], slack)
        grounded.append([keep[k] for k in solvable])

    v0 = np.zeros(n, dtype=complex)
    v2 = np.zeros(n, dtype=complex)
    for passes in range(1, max_passes + 1):
        comp = per_bus_compensation(net, v0, v1, v2, loads_ph)
        sbus = p_gen - loads_ph.sum(axis=1) + v1 * np.conj(comp[:, 1])
        v1_new = _polar_newton(ys[1], sbus, v1.copy(), slack, pv, pq, tol=1e-12)
        v02_new = []
        for s, idx in zip((0, 2), grounded):
            v = np.zeros(n, dtype=complex)
            v[idx] = np.linalg.solve(ys[s][np.ix_(idx, idx)], comp[idx, s])
            v02_new.append(v)
        delta = max(
            np.max(np.abs(v1_new - v1)),
            np.max(np.abs(v02_new[0] - v0)),
            np.max(np.abs(v02_new[1] - v2)),
        )
        v0, v1, v2 = v02_new[0], v1_new, v02_new[1]
        if passes > 1 and delta <= tol:
            return v0, v1, v2, passes
    raise RuntimeError("Jacobi sequence loop did not converge")


def phase_frame_two_bus(
    z_seq: np.ndarray,
    s_phase_load: np.ndarray,
    v_slack_mag: float = 1.0,
    tol: float = 1e-12,
) -> np.ndarray:
    """Brute-force abc solve of slack -- series branch -- load bus.

    ``z_seq`` is the branch's 3x3 sequence impedance matrix (including
    couplings), ``s_phase_load`` the per-phase constant-power load in
    system pu. Returns the load-bus phase voltages.
    """
    ainv = np.linalg.inv(SYN)
    z_abc = SYN @ z_seq @ ainv
    y_abc = np.linalg.inv(z_abc)
    v_s = v_slack_mag * SYN[:, 1]
    v = v_s.copy()
    for _ in range(100000):
        i_load = np.conj(3 * s_phase_load / v)
        v_new = v_s - z_abc @ i_load
        if np.max(np.abs(v_new - v)) < tol:
            return v_new
        v = v_new
    raise RuntimeError("phase-frame fixed point did not converge")


def feeder_nodal_solve(model, source_v_pu, tol=1e-12, max_iter=200000):
    """Dense nodal fixed point for a radial feeder, in volts and ohms.

    Independent of the sweep solver: assembles the full phase-frame
    admittance over all (node, phase) unknowns and iterates current
    injections, treating the substation transformer as the only source
    branch.
    """
    phases = "abc"
    slots = {}
    k = 0
    for node in model.nodes:
        for ph in node.phases:
            slots[(node.id, ph)] = k
            k += 1
    n = k
    y = np.zeros((n, n), dtype=complex)

    zb = model.kv_base**2 / model.mva_base  # ohm base
    z_tr = model.transformer.z_pu * zb
    v_ln = model.kv_base * 1e3 / np.sqrt(3)
    src = np.asarray(source_v_pu, dtype=complex) * v_ln

    # transformer: source to root (three phases, diagonal impedance)
    root = model.root
    inj_fixed = np.zeros(n, dtype=complex)
    if z_tr != 0:
        ytr = 1 / z_tr
        for i, ph in enumerate(phases):
            sl = slots[(root, ph)]
            y[sl, sl] += ytr
            inj_fixed[sl] += ytr * src[i]
        root_fixed = None
    else:
        root_fixed = [slots[(root, ph)] for ph in phases]

    for ln in model.lines:
        child = next(nd for nd in model.nodes if nd.id == ln.to_node)
        ph_idx = [phases.index(p) for p in child.phases]
        zsub = np.array(ln.z_abc, dtype=complex).reshape(3, 3)[np.ix_(ph_idx, ph_idx)]
        ysub = np.linalg.inv(zsub)
        fr = [slots[(ln.from_node, p)] for p in child.phases]
        to = [slots[(ln.to_node, p)] for p in child.phases]
        for a in range(len(ph_idx)):
            for b in range(len(ph_idx)):
                y[fr[a], fr[b]] += ysub[a, b]
                y[to[a], to[b]] += ysub[a, b]
                y[fr[a], to[b]] -= ysub[a, b]
                y[to[a], fr[b]] -= ysub[a, b]

    loads = np.zeros(n, dtype=complex)  # VA
    for node in model.nodes:
        for ph, s_kw in node.loads.items():
            loads[slots[(node.id, ph)]] = s_kw * 1e3

    if root_fixed is not None:
        free = [i for i in range(n) if i not in root_fixed]
        v = np.zeros(n, dtype=complex)
        for i, ph in enumerate(phases):
            v[slots[(root, ph)]] = src[i]
        for node in model.nodes:
            for ph in node.phases:
                if v[slots[(node.id, ph)]] == 0:
                    v[slots[(node.id, ph)]] = src[phases.index(ph)]
        yff = y[np.ix_(free, free)]
        yfs = y[np.ix_(free, root_fixed)]
        vs = v[root_fixed]
        for _ in range(max_iter):
            i_inj = np.zeros(len(free), dtype=complex)
            for j, sl in enumerate(free):
                if loads[sl] != 0:
                    i_inj[j] = -np.conj(loads[sl] / v[sl])
            v_new_free = np.linalg.solve(yff, i_inj - yfs @ vs)
            delta = np.max(np.abs(v_new_free - v[free])) / v_ln
            v[free] = v_new_free
            if delta < tol:
                break
        else:
            raise RuntimeError("nodal fixed point did not converge")
        return {key: v[sl] for key, sl in slots.items()}

    v = np.zeros(n, dtype=complex)
    for node in model.nodes:
        for ph in node.phases:
            v[slots[(node.id, ph)]] = src[phases.index(ph)]
    lu = np.linalg.inv(y)
    for _ in range(max_iter):
        i_inj = inj_fixed.copy()
        nz = loads != 0
        i_inj[nz] -= np.conj(loads[nz] / v[nz])
        v_new = lu @ i_inj
        delta = np.max(np.abs(v_new - v)) / v_ln
        v = v_new
        if delta < tol:
            return {key: v[sl] for key, sl in slots.items()}
    raise RuntimeError("nodal fixed point did not converge")


def tree_walk_sweep(model, source_v_pu, tol=1e-7, max_iter=60):
    """Forward-backward sweep as an explicit node-by-node tree walk.

    The backward pass accumulates load currents from the leaves up to
    the substation; the forward pass pushes voltage drops from the
    source down, through the substation transformer and every line.
    Same convergence test as the package's sweep (largest per-unit
    voltage change on present phases). Returns node voltages (n, 3) in
    volts, line currents keyed by (from, to), the head current and the
    iteration count.
    """
    phases = "abc"
    ids = [node.id for node in model.nodes]
    pos = {nid: i for i, nid in enumerate(ids)}
    n = len(ids)
    mask = np.zeros((n, 3), dtype=bool)
    loads = np.zeros((n, 3), dtype=complex)  # VA
    for i, node in enumerate(model.nodes):
        for ph in node.phases:
            mask[i, phases.index(ph)] = True
        for ph, s_kw in node.loads.items():
            loads[i, phases.index(ph)] = s_kw * 1e3

    parent = [-1] * n
    children = [[] for _ in range(n)]
    z = {}
    for ln in model.lines:
        f, t = pos[ln.from_node], pos[ln.to_node]
        parent[t] = f
        children[f].append(t)
        z[t] = np.array(ln.z_abc, dtype=complex).reshape(3, 3)
    root = parent.index(-1)
    order = []
    stack = [root]
    while stack:
        i = stack.pop()
        order.append(i)
        stack.extend(children[i])

    v_ln = model.kv_base * 1e3 / np.sqrt(3)
    z_tr = model.transformer.z_pu * (model.kv_base**2 / model.mva_base) * np.eye(3)
    src = np.asarray(source_v_pu, dtype=complex) * v_ln
    v = np.tile(src, (n, 1))
    i_line = np.zeros((n, 3), dtype=complex)
    for it in range(1, max_iter + 1):
        i_line[:] = 0
        for i in reversed(order):
            for k in range(3):
                if mask[i, k] and loads[i, k] != 0:
                    i_line[i, k] += np.conj(loads[i, k] / v[i, k])
            if parent[i] >= 0:
                i_line[parent[i]] += i_line[i]
        v_new = v.copy()
        v_new[root] = src - z_tr @ i_line[root]
        for i in order:
            for c in children[i]:
                v_new[c] = v_new[i] - z[c] @ i_line[c]
        change = np.max(np.abs((v_new - v)[mask])) / v_ln
        v = v_new
        if change <= tol:
            currents = {
                (ln.from_node, ln.to_node): i_line[pos[ln.to_node]].copy() for ln in model.lines
            }
            return v, currents, i_line[root].copy(), it
    raise RuntimeError("tree-walk sweep did not converge")


def fold_scenario(model, scenario, hour, profile):
    """The feeder with a PV deployment written into its node loads.

    Each unit makes its rating times the profile factor of the hour in
    kW at unity power factor, split equally over the unit's phases, and
    enters as negative load.
    """
    factor = profile.factors[hour]
    loads = {node.id: dict(node.loads) for node in model.nodes}
    for node_id, phases, rating_kw in scenario.placements:
        for ph in phases:
            loads[node_id][ph] = loads[node_id].get(ph, 0j) - rating_kw * factor / len(phases)
    return replace(model, nodes=tuple(replace(n, loads=loads[n.id]) for n in model.nodes))


def fixed_point_unified(
    y, unknown, slack, slack_v, load_slot, load_s, pv, v_start,
    tol=1e-10, pv_tol=1e-8, max_iter=400, max_outer=40,
):
    """Phase-frame T&D solve by the current-injection fixed point.

    ``y`` is the sparse phase-frame admittance over all slots; ``unknown``
    and ``slack`` are slot indices, ``slack_v`` the slack's three phase
    voltages. Constant-power loads draw ``s`` (per phase, system pu) at
    ``load_slot``. ``pv`` lists ``(first slot, p_set, v_set)`` of each
    generator bus: it injects a balanced positive-sequence current of
    fixed active power, and an outer secant loop, started from a
    finite-difference sensitivity and halving rejected steps, trims its
    reactive power until ``|V1|`` is within ``pv_tol`` of ``v_set``.
    Returns the slot voltages from ``v_start``.
    """
    ana1 = np.linalg.inv(SYN)[1]  # phases -> positive sequence
    lu = spla.splu(y[np.ix_(unknown, unknown)].tocsc())
    y_us = y[np.ix_(unknown, slack)]

    def injections(v, q):
        inj = np.zeros(y.shape[0], dtype=complex)
        inj[load_slot] -= np.conj(3.0 * load_s / v[load_slot])
        for k, (base, p_set, _v_set) in enumerate(pv):
            v1 = ana1 @ v[base : base + 3]
            inj[base : base + 3] += np.conj(complex(p_set, q[k]) / v1) * SYN[:, 1]
        return inj

    def inner(v, q):
        for _ in range(max_iter):
            v = v.copy()
            v[unknown] = lu.solve(injections(v, q)[unknown] - y_us @ slack_v)
            if np.max(np.abs((y @ v - injections(v, q))[unknown])) <= tol:
                return v
        raise RuntimeError("current-injection iteration stalled")

    def deviation(v):
        return np.array([abs(ana1 @ v[b : b + 3]) - v_set for b, _p, v_set in pv])

    v = np.asarray(v_start, dtype=complex).copy()
    v[slack] = slack_v
    q = np.zeros(len(pv))
    v = inner(v, q)
    dev = deviation(v)
    jac = None
    outer = 0
    while pv and np.max(np.abs(dev)) > pv_tol:
        outer += 1
        if outer > max_outer:
            raise RuntimeError("reactive adjustment did not settle")
        if jac is None:
            delta = 0.05
            jac = np.column_stack(
                [(deviation(inner(v, q + delta * e)) - dev) / delta for e in np.eye(len(pv))]
            )
        step = np.linalg.solve(jac, -dev)
        step *= min(1.0, 0.5 / max(1e-12, float(np.max(np.abs(step)))))
        lam = 1.0
        for _ in range(8):
            v_try = inner(v, q + lam * step)
            if np.max(np.abs(deviation(v_try))) < np.max(np.abs(dev)):
                break
            lam *= 0.5
        else:
            raise RuntimeError("reactive adjustment could not reduce deviation")
        q = q + lam * step
        v, dev = v_try, deviation(v_try)
    return v
