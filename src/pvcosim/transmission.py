"""Three-sequence transmission power flow.

The sequence-frame method of Abdel-Akher, Nor and Rashid (IEEE Trans.
Power Systems 20(3), 2005). The positive-sequence network is solved with
a full Newton-Raphson in polar form; the negative- and zero-sequence
networks are linear solves. Anything that couples the sequences
(inter-sequence branch coupling, unbalanced constant-power loads) is
represented as compensation current injections recomputed from the
latest voltage estimate, and the whole thing is iterated until no
sequence voltage moves by more than ``tol_seq``.

Loads are constant-power per phase. A balanced bus load is the triple
``(S/3, S/3, S/3)``; PCC loads arrive as explicit per-phase triples.

Constant-power loads also couple V0 and V2. To first order a loaded
bus's compensation moves by ``dc = B conj(dV)`` with
``B = A_ANA diag(3 conj(s_ph / v_ph**2)) conj(A_SYN)``, so a V2 change
draws zero-sequence current and a V0 change negative-sequence current,
and the per-sequence solves swing between the two. Near the voltage
nose that swing contracts slowly. A call therefore switches once, from
the second pass on, when the largest V0/V2 change of a pass is not below
``SLOW_CONTRACTION`` times the previous pass's: right after the next
Newton solve it factors ``Y - B conj(.)`` over the solvable zero- and
negative-sequence buses, in real form, and every later pass takes one
Newton step of ``Y v - c(v) = 0`` for (V0, V2) on that factor. The
solution records the switch (``SeqSolution.coupled``); a call that
starts from a coupled solution factors right after its first Newton
solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg import get_lapack_funcs
from scipy.sparse.csgraph import connected_components

from .network import Branch, TransmissionNetwork, build_sequence_admittance
from .sequences import A_ANA, A_SYN, phase_currents, sequences_from_phases

__all__ = [
    "SolverOptions",
    "SeqSolution",
    "PowerFlowError",
    "NrNonConvergenceError",
    "SingularJacobianError",
    "SequenceSolveError",
    "OuterNonConvergenceError",
    "solve_positive_nr",
    "solve_three_sequence",
    "slack_power",
    "branch_flows",
]


# The one LU path: LAPACK's factor/solve, real (Newton) and complex (V0, V2).
_DGETRF, _DGETRS = get_lapack_funcs(("getrf", "getrs"), dtype=np.float64)
_ZGETRF, _ZGETRS = get_lapack_funcs(("getrf", "getrs"), dtype=np.complex128)

# The outer loop switches to the load-coupled V0/V2 update once the largest
# V0/V2 change of a pass is not below this share of the previous pass's.
SLOW_CONTRACTION = 0.5

# The rows of A_ANA and the conjugated columns of A_SYN for sequences (0, 2).
_ANA02 = A_ANA[[0, 2]]
_SYN02 = np.conj(A_SYN[:, [0, 2]])


class PowerFlowError(RuntimeError):
    pass


class NrNonConvergenceError(PowerFlowError):
    def __init__(self, iterations: int, mismatch: float):
        super().__init__(
            f"Newton-Raphson did not converge in {iterations} iterations "
            f"(final mismatch {mismatch:.3e} pu)"
        )
        self.iterations = iterations
        self.mismatch = mismatch


class SingularJacobianError(PowerFlowError):
    def __init__(self, bus_id: int):
        super().__init__(f"singular Jacobian pivot associated with bus {bus_id}")
        self.bus_id = bus_id


class SequenceSolveError(PowerFlowError):
    def __init__(self, bus_positions: list[int], detail: str = ""):
        msg = f"singular sequence network; affected buses {bus_positions}"
        super().__init__(msg + (f" ({detail})" if detail else ""))
        self.bus_positions = bus_positions


class OuterNonConvergenceError(PowerFlowError):
    def __init__(self, iterations: int, delta: float):
        super().__init__(
            f"sequence-coupling loop did not converge in {iterations} passes "
            f"(largest sequence-voltage change {delta:.3e} pu)"
        )
        self.iterations = iterations
        self.delta = delta


@dataclass(frozen=True)
class SolverOptions:
    tol_nr: float = 1e-8
    tol_seq: float = 1e-6
    max_outer: int = 30
    max_nr: int = 20

    def __post_init__(self):
        if self.tol_nr <= 0 or self.tol_seq <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_outer < 1 or self.max_nr < 1:
            raise ValueError("max_outer and max_nr must be at least 1")


@dataclass
class SeqSolution:
    """Converged three-sequence solution, immutable by convention."""

    bus_ids: tuple[int, ...]
    v0: np.ndarray
    v1: np.ndarray
    v2: np.ndarray
    slack_power_pu: complex
    iterations_outer: int
    iterations_nr: int
    max_mismatch: float
    comp_injections: np.ndarray  # (n, 3) sequence current injections
    loads_phase: np.ndarray  # (n, 3) per-phase powers actually served
    coupled: bool = False  # V0/V2 came from the load-coupled update

    def index_of(self, bus_id: int) -> int:
        return self.bus_ids.index(bus_id)


# ---------------------------------------------------------------------------
# Prebuilt per-network context
# ---------------------------------------------------------------------------


class SequenceOps:
    """Index maps, admittances and factorizations reused across solves."""

    def __init__(self, net: TransmissionNetwork):
        self.net = net
        self.idx = net.bus_index()
        self.n = len(net.buses)
        self.bus_ids = tuple(b.id for b in net.buses)

        self.y0, self.y1, self.y2 = build_sequence_admittance(net)

        kinds = [b.kind for b in net.buses]
        self.slack = kinds.index("slack")
        self.pv = np.array([i for i, k in enumerate(kinds) if k == "pv"], dtype=int)
        self.pq = np.array([i for i, k in enumerate(kinds) if k == "pq"], dtype=int)
        self.pvpq = np.concatenate([self.pv, self.pq])

        # Newton's equations are P at pv and pq buses, then Q at pq buses;
        # its unknowns are the angles at pv and pq buses, then the
        # magnitudes at pq buses. ``nr_bus`` is the bus of each equation.
        # Viewed as floats, a complex array holds (re, im) pairs, so
        # ``mismatch_take`` picks the real or imaginary part of each
        # equation's bus from a power mismatch, and ``jac_take`` picks
        # each Jacobian entry from the float view of the n x 2n matrix
        # ``[dS/dVa | dS/dVm]``.
        n_p = self.pvpq.size
        self.diag = np.diag_indices(self.n)
        self.nr_bus = np.concatenate([self.pvpq, self.pq])
        part = (np.arange(self.nr_bus.size) >= n_p).astype(int)  # 0: P (real), 1: Q (imag)
        self.mismatch_take = 2 * self.nr_bus + part
        unknown_col = np.concatenate([self.pvpq, self.n + self.pq])
        self.jac_take = (
            self.nr_bus[:, None] * (4 * self.n) + 2 * unknown_col[None, :] + part[:, None]
        )

        # A bus's v_setpoint equals its generator's v_set (validate_network);
        # only a slack bus without a generator needs its own.
        self.v_set = np.ones(self.n)
        if net.buses[self.slack].v_setpoint is not None:
            self.v_set[self.slack] = net.buses[self.slack].v_setpoint
        self.p_gen = np.zeros(self.n)
        for gbus, p_set, v_set in net.generators:
            i = self.idx[gbus]
            self.v_set[i] = v_set
            if i != self.slack:
                self.p_gen[i] = p_set

        self.static_loads = np.array([complex(b.load_p, b.load_q) for b in net.buses])
        self.lin2 = _LinearSequenceSolver(self.y2, self.slack)
        self.lin0 = _LinearSequenceSolver(self.y0, self.slack)

        # The load-coupled V0/V2 system (``_CoupledStep``) has one complex
        # unknown per solvable bus of the zero, then the negative sequence,
        # at ``v02_flat`` in the stacked (V0, V2) and at ``comp_take`` in a
        # flattened compensation matrix. ``y02`` is its admittance, block
        # diagonal, in the real form [[G, -H], [H, G]] of G + jH. Entry
        # ``v02_src`` of the per-bus sensitivities, flattened from
        # (n, 2, 2), goes to entry ``v02_dest`` of the flattened m x m
        # sensitivity; entries at the slack or a pinned bus are dropped.
        s0, s2 = self.lin0.solvable, self.lin2.solvable
        m0, m = s0.size, s0.size + s2.size
        self.v02_buses = np.concatenate([s0, s2])
        self.v02_flat = np.concatenate([s0, self.n + s2])
        self.comp_take = np.concatenate([3 * s0, 3 * s2 + 2])
        y02 = np.zeros((m, m), dtype=complex)
        y02[:m0, :m0] = self.y0[np.ix_(s0, s0)]
        y02[m0:, m0:] = self.y2[np.ix_(s2, s2)]
        self.y02 = np.block([[y02.real, -y02.imag], [y02.imag, y02.real]])
        unknown = np.full((self.n, 2), -1)
        unknown[s0, 0] = np.arange(m0)
        unknown[s2, 1] = np.arange(m0, m)
        rows, cols = np.broadcast_arrays(unknown[:, :, None], unknown[:, None, :])
        keep = ((rows >= 0) & (cols >= 0)).ravel()
        self.v02_src = np.flatnonzero(keep)
        self.v02_dest = (rows.ravel() * m + cols.ravel())[keep]

        # Each branch's two-port, for flows; branches with inter-sequence
        # coupling also keep the off-diagonal series admittance that the
        # sequence matrices leave to compensation currents.
        self.blocks: list[tuple[int, int, Branch, tuple[np.ndarray, ...]]] = [
            (self.idx[br.from_bus], self.idx[br.to_bus], br, br.admittance_blocks())
            for br in net.branches
        ]
        self.coupled: list[tuple[int, int, np.ndarray]] = []
        for f, t, _br, (_yff, yft, _ytt) in self.blocks:
            yoff = -yft
            np.fill_diagonal(yoff, 0)
            if yoff.any():
                self.coupled.append((f, t, yoff))

    def flat_voltages(self) -> np.ndarray:
        v = np.ones(self.n, dtype=complex)
        v[self.slack] = self.v_set[self.slack]
        if self.pv.size:
            v[self.pv] = self.v_set[self.pv]
        return v

    def phase_load_matrix(self, pcc_loads: dict[int, np.ndarray] | None) -> np.ndarray:
        """Per-bus per-phase constant-power loads (n, 3), system pu."""
        loads = np.repeat(self.static_loads[:, None] / 3.0, 3, axis=1).astype(complex)
        if pcc_loads:
            for bus_id, s_ph in pcc_loads.items():
                if bus_id not in self.idx:
                    raise KeyError(f"PCC load references unknown bus {bus_id}")
                loads[self.idx[bus_id]] += np.asarray(s_ph, dtype=complex)
        return loads


class _LinearSequenceSolver:
    """Slack-grounded linear solver for one sequence network.

    The slack bus is held at zero volts. Connected components of the
    remaining network with no path to ground (no shunt, no slack
    coupling) are only solvable for zero injection; they are pinned to
    zero volts and flagged if they ever receive current.
    """

    def __init__(self, y: np.ndarray, slack: int):
        self.n = y.shape[0]
        self.slack = slack
        keep = np.delete(np.arange(self.n), slack)
        ysub = y[np.ix_(keep, keep)]

        row_scale = np.abs(y).max(axis=1)
        row_sum = np.abs(y.sum(axis=1))
        anchored_bus = (row_sum > 1e-8 * np.maximum(1.0, row_scale)) | (np.abs(y[:, slack]) > 0)

        # Components of the reduced matrix's nonzero structure; a component
        # is solvable iff some member is anchored.
        _, labels = connected_components(ysub != 0, directed=False)
        solvable = np.bincount(labels, weights=anchored_bus[keep])[labels] > 0
        self.solvable_local = np.where(solvable)[0]
        self.pinned_local = np.where(~solvable)[0]
        self.solvable = keep[self.solvable_local]  # bus positions
        self.pinned = keep[self.pinned_local]

        self.lu = None
        if self.solvable_local.size:
            core = ysub[np.ix_(self.solvable_local, self.solvable_local)]
            lu, piv, info = _ZGETRF(core)
            if info > 0:
                raise SequenceSolveError(
                    [int(i) for i in self.solvable], f"zero pivot {info} in the LU factor"
                )
            self.lu = (lu, piv)

    def check_pinned(self, inj: np.ndarray) -> None:
        """Raise if ``inj`` drives current into a pinned bus."""
        if self.pinned.size and np.any(np.abs(inj[self.pinned]) > 1e-11):
            bad = [int(i) for i in self.pinned if abs(inj[i]) > 1e-11]
            raise SequenceSolveError(bad, "current injected into ungrounded island")

    def solve(self, injections: np.ndarray) -> np.ndarray:
        inj = np.asarray(injections, dtype=complex)
        if inj.shape != (self.n,):
            raise ValueError(f"injection vector must have length {self.n}")
        self.check_pinned(inj)
        v = np.zeros(self.n, dtype=complex)
        if self.lu is not None:
            v[self.solvable] = _ZGETRS(*self.lu, inj[self.solvable])[0]
        return v


# ---------------------------------------------------------------------------
# Newton-Raphson, positive sequence
# ---------------------------------------------------------------------------


def _nr_solve(
    ops: SequenceOps,
    sbus: np.ndarray,
    opts: SolverOptions,
    v_start: np.ndarray | None = None,
) -> tuple[np.ndarray, int, float, list[float]]:
    """Full NR in polar form. Returns (V, iterations, mismatch, history)."""
    y = ops.y1
    pv, pq, pvpq, slack = ops.pv, ops.pq, ops.pvpq, ops.slack
    n_p = pvpq.size
    diag = ops.diag

    v = ops.flat_voltages() if v_start is None else np.array(v_start, dtype=complex)
    v[slack] = ops.v_set[slack]
    if pv.size:
        v[pv] = ops.v_set[pv] * v[pv] / np.abs(v[pv])

    def mismatch(vv):
        ibus = y @ vv
        ds = vv * np.conj(ibus) - sbus
        return ibus, np.take(ds.view(np.float64), ops.mismatch_take)

    ibus, f = mismatch(v)
    norm = float(np.max(np.abs(f))) if f.size else 0.0
    history = [norm]
    it = 0
    while norm > opts.tol_nr and it < opts.max_nr:
        it += 1
        vm = np.abs(v)
        vn = v / vm
        # [dS/dVa | dS/dVm] by broadcasting, in C order for the float view:
        # dS/dVa = j diag(V) conj(diag(I) - Y diag(V)) and
        # dS/dVm = diag(V) conj(Y diag(Vn)) + conj(diag(I)) diag(Vn).
        ds = np.empty((ops.n, 2 * ops.n), dtype=complex)
        ds_dva, ds_dvm = ds[:, : ops.n], ds[:, ops.n :]
        d = -(y * v)
        d[diag] += ibus
        ds_dva[:] = 1j * v[:, None] * np.conj(d)
        ds_dvm[:] = v[:, None] * np.conj(y * vn)
        ds_dvm[diag] += np.conj(ibus) * vn
        jac = np.take(ds.view(np.float64), ops.jac_take)

        lu, piv, _info = _DGETRF(jac)  # a zero pivot fails the check below
        udiag = np.abs(np.diag(lu))
        if udiag.size and udiag.min() < 1e-12 * max(1.0, udiag.max()):
            raise SingularJacobianError(ops.bus_ids[ops.nr_bus[int(np.argmin(udiag))]])
        dx = _DGETRS(lu, piv, f)[0]

        va = np.angle(v)
        va[pvpq] -= dx[:n_p]
        vm[pq] -= dx[n_p:]
        v = vm * np.exp(1j * va)

        ibus, f = mismatch(v)
        norm = float(np.max(np.abs(f))) if f.size else 0.0
        history.append(norm)

    if norm > opts.tol_nr:
        raise NrNonConvergenceError(it, norm)
    return v, it, norm, history


def solve_positive_nr(
    net: TransmissionNetwork,
    extra_injections: dict[int, complex] | None = None,
    opts: SolverOptions | None = None,
    *,
    ops: SequenceOps | None = None,
    v_start: np.ndarray | None = None,
) -> tuple[np.ndarray, dict]:
    """Positive-sequence Newton-Raphson power flow.

    ``extra_injections`` maps bus ids to complex power added to the bus
    balance (generation-positive). Returns the complex bus voltages in
    ``net.buses`` order and an info dict with iteration diagnostics.
    """
    opts = opts or SolverOptions()
    ops = ops or SequenceOps(net)
    sbus = (ops.p_gen - ops.static_loads).astype(complex)
    if extra_injections:
        for bus_id, s in extra_injections.items():
            sbus[ops.idx[bus_id]] += s
    v, it, norm, history = _nr_solve(ops, sbus, opts, v_start=v_start)
    return v, {"iterations": it, "mismatch": norm, "history": history}


# ---------------------------------------------------------------------------
# Compensation currents
# ---------------------------------------------------------------------------


class _LoadTerms(NamedTuple):
    """The compensation's terms that depend only on the per-phase loads."""

    loaded: np.ndarray  # positions of the buses with any load
    s_ph: np.ndarray  # their per-phase powers
    s_sum: np.ndarray  # their row sums, the balanced load the NR carries


def _load_terms(loads_ph: np.ndarray) -> _LoadTerms:
    loaded = np.flatnonzero(np.abs(loads_ph).sum(axis=1) > 0)
    s_ph = loads_ph[loaded]
    return _LoadTerms(loaded, s_ph, s_ph.sum(axis=1))


def _compensation_arrays(
    ops: SequenceOps,
    v0: np.ndarray,
    v1: np.ndarray,
    v2: np.ndarray,
    loads_ph: np.ndarray,
    terms: _LoadTerms | None = None,
) -> np.ndarray:
    """Sequence-domain compensation current injections, (n, 3).

    Column order (zero, positive, negative); generator sign convention
    (positive current flows into the network). For loads the
    positive-sequence column carries only the correction relative to the
    balanced constant-power model the NR already accounts for, so a
    balanced system yields an all-zero matrix. ``terms`` are
    ``_load_terms(loads_ph)``, for a caller that reuses one load matrix.
    """
    if terms is None:
        terms = _load_terms(loads_ph)
    inj = np.zeros((ops.n, 3), dtype=complex)
    seq = np.stack([v0, v1, v2], axis=1)

    loaded = terms.loaded
    i_seq = sequences_from_phases(phase_currents(terms.s_ph, seq[loaded] @ A_SYN.T))
    i_seq[:, 1] -= np.conj(terms.s_sum / v1[loaded])  # the balanced part NR carries
    inj[loaded] -= i_seq

    for f, t, yoff in ops.coupled:
        dv = seq[f] - seq[t]  # (3,) sequence-domain across-voltages
        di = yoff @ dv  # extra series current per sequence
        inj[f] -= di
        inj[t] += di
    return inj


# ---------------------------------------------------------------------------
# Load-coupled V0/V2 update
# ---------------------------------------------------------------------------


class _CoupledStep:
    """Newton steps of ``Y v - c(v) = 0`` for (V0, V2) on one factor.

    ``v`` stacks V0 and V2 at ``ops.v02_buses`` and ``c`` is their
    compensation. With V1 held, a loaded bus's compensation moves by
    ``dc = B conj(dV)``, where ``B = A_ANA diag(3 conj(s_ph / v_ph**2))
    conj(A_SYN)`` restricted to sequences (0, 2). With ``Y = G + jH`` and
    ``B = P + jQ``, the step solves the real system
    ``[[G - P, -H - Q], [H - Q, G + P]]`` in (Re dv, Im dv), factored
    once at the voltages given. Coupled branches stay in ``c`` only.
    """

    def __init__(self, ops: SequenceOps, v0, v1, v2, terms: _LoadTerms):
        self.ops = ops
        lu, piv, _info = _DGETRF(_coupled_matrix(ops, v0, v1, v2, terms))  # checked below
        udiag = np.abs(np.diag(lu))
        small = np.flatnonzero(udiag < 1e-12 * max(1.0, udiag.max()))
        if small.size:
            m = ops.v02_buses.size
            buses = sorted({int(ops.v02_buses[j % m]) for j in small})
            raise SequenceSolveError(buses, "singular load-coupled V0/V2 factor")
        self.lu = (lu, piv)

    def step(self, comp: np.ndarray, v0: np.ndarray, v2: np.ndarray):
        """The next (V0, V2) from the compensation ``comp`` at (v0, v2)."""
        ops = self.ops
        ops.lin0.check_pinned(comp[:, 0])
        ops.lin2.check_pinned(comp[:, 2])
        m = ops.v02_buses.size
        v = np.concatenate([v0, v2])[ops.v02_flat]
        r = ops.y02 @ np.concatenate([v.real, v.imag])
        c = comp.ravel()[ops.comp_take]
        r[:m] -= c.real
        r[m:] -= c.imag
        dv = _DGETRS(*self.lu, r)[0]
        out = np.zeros(2 * ops.n, dtype=complex)
        out[ops.v02_flat] = v - (dv[:m] + 1j * dv[m:])
        return out[: ops.n], out[ops.n :]


def _coupled_matrix(ops: SequenceOps, v0, v1, v2, terms: _LoadTerms) -> np.ndarray:
    """The real matrix that ``_CoupledStep`` factors, at (v0, v1, v2)."""
    loaded = terms.loaded
    v_ph = np.stack([v0[loaded], v1[loaded], v2[loaded]], axis=1) @ A_SYN.T
    d = np.zeros((ops.n, 3), dtype=complex)
    d[loaded] = 3.0 * np.conj(terms.s_ph / v_ph**2)
    b = np.zeros(ops.v02_buses.size**2, dtype=complex)
    b[ops.v02_dest] = ((_ANA02 * d[:, None, :]) @ _SYN02).ravel()[ops.v02_src]
    m = ops.v02_buses.size
    p, q = b.real.reshape(m, m), b.imag.reshape(m, m)
    jac = ops.y02.copy()
    jac[:m, :m] -= p
    jac[:m, m:] -= q
    jac[m:, :m] -= q
    jac[m:, m:] += p
    return jac


# ---------------------------------------------------------------------------
# Outer three-sequence loop
# ---------------------------------------------------------------------------


def solve_three_sequence(
    net: TransmissionNetwork,
    pcc_loads: dict[int, np.ndarray] | None = None,
    opts: SolverOptions | None = None,
    *,
    ops: SequenceOps | None = None,
    start: SeqSolution | None = None,
) -> SeqSolution:
    """Solve the network in three-sequence detail.

    ``pcc_loads`` maps bus id to a per-phase complex power triple
    (system pu) added on top of the bus's balanced static load.
    """
    opts = opts or SolverOptions()
    ops = ops or SequenceOps(net)
    loads_ph = ops.phase_load_matrix(pcc_loads)
    sbus_const = (ops.p_gen - loads_ph.sum(axis=1)).astype(complex)
    terms = _load_terms(loads_ph)  # fixed for the whole call

    if start is not None:
        v0, v1, v2 = start.v0.copy(), start.v1.copy(), start.v2.copy()
    else:
        v1 = ops.flat_voltages()
        v0 = np.zeros(ops.n, dtype=complex)
        v2 = np.zeros(ops.n, dtype=complex)

    total_nr = 0
    mismatch = np.inf
    comp = np.zeros((ops.n, 3), dtype=complex)
    converged = False
    outer = 0
    switch = start is not None and start.coupled
    coupled: _CoupledStep | None = None
    prev02 = np.inf
    while outer < opts.max_outer:
        outer += 1
        comp = _compensation_arrays(ops, v0, v1, v2, loads_ph, terms)
        extra = v1 * np.conj(comp[:, 1])
        v1_new, it, mismatch, _ = _nr_solve(ops, sbus_const + extra, opts, v_start=v1)
        total_nr += it
        if switch and coupled is None:
            coupled = _CoupledStep(ops, v0, v1_new, v2, terms)
        if coupled is None:
            v0_new = ops.lin0.solve(comp[:, 0])
            v2_new = ops.lin2.solve(comp[:, 2])
        else:
            v0_new, v2_new = coupled.step(comp, v0, v2)
        # The positive-sequence change alone can read zero one pass before
        # the coupling feedback arrives, so all three sequences gate the
        # exit.
        d02 = float(max(np.max(np.abs(v0_new - v0)), np.max(np.abs(v2_new - v2))))
        delta = max(float(np.max(np.abs(v1_new - v1))), d02)
        v0, v1, v2 = v0_new, v1_new, v2_new
        if outer > 1 and delta <= opts.tol_seq:
            converged = True
            break
        # A V0/V2 change that does not shrink below SLOW_CONTRACTION of the
        # last one is the V0 <-> V2 swing; the next pass factors the
        # load-coupled update right after its Newton solve.
        if outer > 1 and d02 > 0 and d02 >= SLOW_CONTRACTION * prev02:
            switch = True
        prev02 = d02
    if not converged:
        raise OuterNonConvergenceError(outer, delta)

    sol = SeqSolution(
        bus_ids=ops.bus_ids,
        v0=v0,
        v1=v1,
        v2=v2,
        slack_power_pu=0j,
        iterations_outer=outer,
        iterations_nr=total_nr,
        max_mismatch=mismatch,
        comp_injections=comp,
        loads_phase=loads_ph,
        coupled=coupled is not None,
    )
    sol.slack_power_pu = slack_power(sol, net, ops=ops)
    return sol


def slack_power(
    sol: SeqSolution, net: TransmissionNetwork, *, ops: SequenceOps | None = None
) -> complex:
    """Slack generator complex output, positive = generating."""
    ops = ops or SequenceOps(net)
    s = ops.slack
    i_net = (ops.y1 @ sol.v1)[s]
    i_comp = sol.comp_injections[s, 1]
    s_load = sol.loads_phase[s].sum()
    i_load = np.conj(s_load / sol.v1[s]) if abs(s_load) > 0 else 0j
    i_gen = i_net - i_comp + i_load
    return complex(sol.v1[s] * np.conj(i_gen))


def branch_flows(
    sol: SeqSolution, net: TransmissionNetwork, *, ops: SequenceOps | None = None
) -> dict[tuple[int, int], np.ndarray]:
    """Per-branch per-sequence complex power at both ends.

    Returns ``{(from, to): array (3, 2)}`` with rows (zero, positive,
    negative) and columns (from-end, to-end); currents are taken flowing
    into the branch at each end so the two columns sum to the loss.
    """
    ops = ops or SequenceOps(net)
    seq = np.stack([sol.v0, sol.v1, sol.v2], axis=1)
    out: dict[tuple[int, int], np.ndarray] = {}
    for f, t, br, (yff, yft, ytt) in ops.blocks:
        vf, vt = seq[f], seq[t]
        i_f = yff @ vf + yft @ vt
        i_t = yft @ vf + ytt @ vt
        out[(br.from_bus, br.to_bus)] = np.stack([vf * np.conj(i_f), vt * np.conj(i_t)], axis=1)
    return out
