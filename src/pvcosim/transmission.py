"""Three-sequence transmission power flow.

The sequence-frame model of Abdel-Akher, Nor and Rashid (IEEE Trans.
Power Systems 20(3), 2005): a zero-, a positive- and a negative-sequence
network, coupled by the inter-sequence admittance of untransposed
branches and by unbalanced constant-power loads. Loads are
constant-power per phase. A balanced bus load is the triple
``(S/3, S/3, S/3)``; PCC loads arrive as explicit per-phase triples.

One Newton-Raphson solves all three sequences. Its unknowns are V1 in
polar form (the angle at pv and pq buses, the magnitude at pq buses) and
Re/Im of V0 and V2 at the buses with a path to ground. The slack is
grounded, and a zero- or negative-sequence island without such a path is
held at zero volts and must receive no current. With ``I = Y v +
A_ANA conj(3 s_ph / v_ph)``, the current the generators inject, where
``Y`` is the stacked 3n x 3n sequence admittance with the coupled
branches' inter-sequence blocks, the equations are the positive-sequence
power mismatch ``v1 conj(I1) - p_gen`` and the currents ``I0`` and
``I2``. A loaded bus adds ``D conj(dv)`` to ``dI = Y dv``, with the 3x3
block ``D = -A_ANA diag(3 conj(s_ph / v_ph**2)) conj(A_SYN)``; the polar
chain rule of V1 gives the rest of the Jacobian.

A step reuses the last LU factor (a chord step) while the mismatch falls
below ``CHORD_CONTRACTION`` times the previous step's, and otherwise the
next step factors the Jacobian at its iterate. A chord step that does
not lower the mismatch is taken again as a Newton step. The factor
travels in the returned ``SeqSolution``, so a solve started from one (the
next boundary iteration of a co-simulation case) begins with chord steps.
A solve stops with ``NrNonConvergenceError`` when its mismatch grows past
``DIVERGENCE`` times its starting value, or when ``STALL`` kept steps in
a row find no new lowest mismatch: past the voltage nose there is no
operating point on the branch from the no-PV case, and the Newton would
otherwise wander until ``max_nr``. The error's message names the rule
that stopped the solve.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    "solve_three_sequence",
    "branch_flows",
]


# The one LU path: LAPACK's real factor/solve.
_DGETRF, _DGETRS = get_lapack_funcs(("getrf", "getrs"), dtype=np.float64)

# A step keeps the last factor while the mismatch falls below this share
# of the previous step's mismatch. A larger share keeps weaker chord steps:
# at 0.1 the stress workload spends about a tenth more time here.
CHORD_CONTRACTION = 0.05
# A solve stops once its mismatch exceeds this multiple of its start. On
# the three benchmark workloads no converging solve's mismatch rises above
# 1.02 times its start.
DIVERGENCE = 10.0
# A solve stops after this many kept steps in a row without a new lowest
# mismatch. On the three benchmark workloads no converging solve goes
# more than one kept step without one; the pv_stress solves that fail
# past the nose (k = 3.875, 4.0) then end after 4 and 3 steps, not 17
# and 20 once the boundary loop is accelerated.
STALL = 2


class PowerFlowError(RuntimeError):
    pass


class NrNonConvergenceError(PowerFlowError):
    def __init__(self, iterations: int, mismatch: float, rule: str):
        super().__init__(
            f"Newton-Raphson did not converge in {iterations} iterations "
            f"(final mismatch {mismatch:.3e} pu; stop rule: {rule})"
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


@dataclass(frozen=True)
class SolverOptions:
    tol_nr: float = 1e-8
    max_nr: int = 20

    def __post_init__(self):
        if self.tol_nr <= 0:
            raise ValueError("tol_nr must be positive")
        if self.max_nr < 1:
            raise ValueError("max_nr must be at least 1")


@dataclass
class SeqSolution:
    """Converged three-sequence solution, immutable by convention."""

    bus_ids: tuple[int, ...]
    v0: np.ndarray
    v1: np.ndarray
    v2: np.ndarray
    slack_power_pu: complex  # the slack generator's output, positive = generating
    iterations_outer: int  # always 1: one Newton solves all three sequences
    iterations_nr: int
    max_mismatch: float
    # The LU factor of the last Newton matrix; a solve started from this
    # solution takes its first steps on it.
    factor: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False)

    def index_of(self, bus_id: int) -> int:
        return self.bus_ids.index(bus_id)


# ---------------------------------------------------------------------------
# Prebuilt per-network context
# ---------------------------------------------------------------------------


class SequenceOps:
    """Index maps and admittances reused across solves."""

    def __init__(self, net: TransmissionNetwork):
        self.net = net
        self.idx = net.bus_index()
        self.n = n = len(net.buses)
        self.bus_ids = tuple(b.id for b in net.buses)

        # The stacked sequence admittance over (V0, V1, V2), entry s * n + i
        # for sequence s at bus i; the three networks are its diagonal blocks.
        self.y3 = build_sequence_admittance(net)

        kinds = [b.kind for b in net.buses]
        self.slack = kinds.index("slack")
        self.pv = np.array([i for i, k in enumerate(kinds) if k == "pv"], dtype=int)
        self.pq = np.array([i for i, k in enumerate(kinds) if k == "pq"], dtype=int)
        self.pvpq = np.concatenate([self.pv, self.pq])

        # A bus's v_setpoint equals its generator's v_set (validate_network);
        # only a slack bus without a generator needs its own.
        self.v_set = np.ones(n)
        if net.buses[self.slack].v_setpoint is not None:
            self.v_set[self.slack] = net.buses[self.slack].v_setpoint
        self.p_gen = np.zeros(n)
        for gbus, p_set, v_set in net.generators:
            i = self.idx[gbus]
            self.v_set[i] = v_set
            if i != self.slack:
                self.p_gen[i] = p_set
        self.static_loads = np.array([complex(b.load_p, b.load_q) for b in net.buses])

        # Each branch's two-port, for flows: the blocks the assembly above read.
        self.blocks: list[tuple[int, int, Branch, tuple[np.ndarray, ...]]] = [
            (self.idx[br.from_bus], self.idx[br.to_bus], br, br.admittance_blocks)
            for br in net.branches
        ]

        # Newton's unknowns are V1's angle at pv and pq buses and magnitude at
        # pq buses, then Re and Im of V0 and V2 at their grounded buses; its
        # equations are P at the same pv and pq buses, Q at the same pq
        # buses, then Re and Im of I0 and I2 at the same grounded buses. So
        # unknown and equation j share ``pos[j]`` in the stacked vector and
        # ``part[j]``, 0 for the real and 1 for the imaginary part. Viewed
        # as floats, a complex array holds (re, im) pairs: ``mismatch_take``
        # picks each equation from the stacked mismatch and ``jac_take``
        # each entry from the 3n x m complex derivatives along the unknowns.
        self.grounded0, self.pinned0 = _islands(self.y3[:n, :n], self.slack)
        self.grounded2, self.pinned2 = _islands(self.y3[2 * n :, 2 * n :], self.slack)
        self.v02 = np.concatenate([self.grounded0, 2 * n + self.grounded2])
        self.pinned02 = np.concatenate([self.pinned0, 2 * n + self.pinned2])
        self.pos = np.concatenate([n + self.pvpq, n + self.pq, self.v02, self.v02])
        sizes = [self.pvpq.size, self.pq.size, self.v02.size, self.v02.size]
        part = np.repeat([0, 1, 0, 1], sizes)
        m = self.pos.size
        self.mismatch_take = 2 * self.pos + part
        self.jac_take = self.pos[:, None] * (2 * m) + 2 * np.arange(m) + part[:, None]
        self.c02 = np.repeat([1.0, 1j], self.v02.size)  # the V0/V2 unknowns' directions
        self.diag1 = (n + np.arange(n),) * 2

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


def _islands(y: np.ndarray, slack: int) -> tuple[np.ndarray, np.ndarray]:
    """Grounded and pinned bus positions of a slack-grounded sequence network.

    The slack bus is held at zero volts. Connected components of the
    remaining network with no path to ground (no shunt, no slack
    coupling) are only solvable for zero injection; they are pinned to
    zero volts.
    """
    keep = np.delete(np.arange(y.shape[0]), slack)
    row_scale = np.abs(y).max(axis=1)
    row_sum = np.abs(y.sum(axis=1))
    anchored_bus = (row_sum > 1e-8 * np.maximum(1.0, row_scale)) | (np.abs(y[:, slack]) > 0)
    # Components of the reduced matrix's nonzero structure; a component is
    # grounded iff some member is anchored.
    _, labels = connected_components(y[np.ix_(keep, keep)] != 0, directed=False)
    grounded = np.bincount(labels, weights=anchored_bus[keep])[labels] > 0
    return keep[grounded], keep[~grounded]


# ---------------------------------------------------------------------------
# One Newton-Raphson for all three sequences
# ---------------------------------------------------------------------------


class _LoadTerms(NamedTuple):
    """The terms that depend only on the per-phase loads."""

    s_ph: np.ndarray  # the per-phase powers of the buses with any load
    at: np.ndarray  # (loaded, 3) their sequences' positions in the stacked vector


def _load_terms(loads_ph: np.ndarray) -> _LoadTerms:
    loaded = np.flatnonzero(np.abs(loads_ph).sum(axis=1) > 0)
    return _LoadTerms(loads_ph[loaded], loaded[:, None] + loads_ph.shape[0] * np.arange(3))


def _load_phases(terms: _LoadTerms, x: np.ndarray) -> np.ndarray:
    """Phase voltages (loaded, 3) of the loaded buses, from stacked ``x``."""
    return x[terms.at] @ A_SYN.T


def _mismatch(ops: SequenceOps, terms: _LoadTerms, x: np.ndarray):
    """Newton's equations at the stacked voltages ``x`` = (V0, V1, V2).

    Returns the equations' values, their largest magnitude and the
    stacked currents the generators inject.
    """
    n = ops.n
    cur = ops.y3 @ x
    cur[terms.at] += sequences_from_phases(phase_currents(terms.s_ph, _load_phases(terms, x)))
    eqs = cur.copy()
    eqs[n : 2 * n] = x[n : 2 * n] * np.conj(cur[n : 2 * n]) - ops.p_gen
    f = np.take(eqs.view(np.float64), ops.mismatch_take)
    return f, float(np.abs(f).max()) if f.size else 0.0, cur


def _jacobian(ops: SequenceOps, terms: _LoadTerms, x: np.ndarray, cur: np.ndarray) -> np.ndarray:
    """The derivative of ``_mismatch``'s equations in Newton's unknowns,
    at ``x`` and its currents ``cur``."""
    n = ops.n
    v1, i1 = x[n : 2 * n], cur[n : 2 * n]
    # dI = a dx + d conj(dx) in the stacked vector; the positive sequence's
    # rows then become power rows, dS1 = conj(I1) dV1 + V1 conj(dI1).
    d = np.zeros((3 * n, 3 * n), dtype=complex)
    load = 3.0 * np.conj(terms.s_ph / _load_phases(terms, x) ** 2)
    d[terms.at[:, :, None], terms.at[:, None, :]] = -(A_ANA * load[:, None, :]) @ np.conj(A_SYN)
    a = ops.y3.copy()
    a[n : 2 * n] = v1[:, None] * np.conj(d[n : 2 * n])
    a[ops.diag1] += np.conj(i1)
    d[n : 2 * n] = v1[:, None] * np.conj(ops.y3[n : 2 * n])
    # Each unknown moves x along c: j V1 for an angle, V1 / |V1| for a
    # magnitude, 1 and j for Re and Im of V0 or V2.
    c = np.concatenate([1j * v1[ops.pvpq], v1[ops.pq] / np.abs(v1[ops.pq]), ops.c02])
    jc = np.take(a, ops.pos, axis=1) * c + np.take(d, ops.pos, axis=1) * np.conj(c)
    return np.take(jc.view(np.float64), ops.jac_take)


def _factor(ops: SequenceOps, jac: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    lu, piv, _info = _DGETRF(jac)  # a zero pivot fails the check below
    udiag = np.abs(np.diag(lu))
    if udiag.size and udiag.min() < 1e-12 * max(1.0, udiag.max()):
        raise SingularJacobianError(ops.bus_ids[ops.pos[int(np.argmin(udiag))] % ops.n])
    return lu, piv


def _advance(ops: SequenceOps, x: np.ndarray, dx: np.ndarray) -> np.ndarray:
    """``x`` moved by minus the Newton update ``dx``."""
    n, n_a, n_v, m = ops.n, ops.pvpq.size, ops.pvpq.size + ops.pq.size, ops.v02.size
    v1 = x[n : 2 * n]
    va, vm = np.angle(v1), np.abs(v1)
    va[ops.pvpq] -= dx[:n_a]
    vm[ops.pq] -= dx[n_a:n_v]
    out = x.copy()
    out[n : 2 * n] = vm * np.exp(1j * va)
    out[ops.v02] -= dx[n_v : n_v + m] + 1j * dx[n_v + m :]
    return out


def _newton(
    ops: SequenceOps,
    terms: _LoadTerms,
    opts: SolverOptions,
    x: np.ndarray,
    lu: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, int, float, tuple | None, np.ndarray]:
    """Newton-Raphson from the stacked voltages ``x`` = (V0, V1, V2), with
    chord steps on ``lu`` first when given. Returns (x, steps, mismatch,
    factor, currents); the currents are those the generators inject at
    ``x``."""
    n = ops.n
    x = x.astype(complex)
    x[n + ops.slack] = ops.v_set[ops.slack]
    v = x[n + ops.pv]
    x[n + ops.pv] = ops.v_set[ops.pv] * v / np.abs(v)

    f, norm, cur = _mismatch(ops, terms, x)
    start = best = norm
    steps = stalled = 0
    refactor = lu is None
    while norm > opts.tol_nr:
        if steps == opts.max_nr:
            raise NrNonConvergenceError(steps, norm, f"max_nr = {opts.max_nr}")
        steps += 1
        fresh = refactor
        if fresh:
            lu = _factor(ops, _jacobian(ops, terms, x, cur))
        x_new = _advance(ops, x, _DGETRS(*lu, f)[0])
        f_new, norm_new, cur_new = _mismatch(ops, terms, x_new)
        if not fresh and not norm_new < norm:
            refactor = True  # take the step again on the Jacobian at x
            continue
        if not norm_new <= DIVERGENCE * start:
            raise NrNonConvergenceError(
                steps, norm_new, f"divergence, mismatch past {DIVERGENCE:g} times its start"
            )
        stalled = 0 if norm_new < best else stalled + 1
        if stalled == STALL:
            raise NrNonConvergenceError(
                steps, norm_new, f"stall, {STALL} kept steps without a new lowest mismatch"
            )
        best = min(best, norm_new)
        refactor = norm_new >= CHORD_CONTRACTION * norm
        x, f, norm, cur = x_new, f_new, norm_new, cur_new

    # A pinned island holds zero volts, so it must draw no current.
    stray = np.abs(cur[ops.pinned02]) > 1e-11
    if stray.any():
        bad = sorted(int(p) % n for p in ops.pinned02[stray])
        raise SequenceSolveError(bad, "current injected into ungrounded island")
    return x, steps, norm, lu, cur


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
    (system pu) added on top of the bus's balanced static load. ``start``
    is a solution on the same ``ops`` whose voltages and factor the
    Newton starts from; without it, V1 starts flat, V0 and V2 at zero.
    """
    opts = opts or SolverOptions()
    ops = ops or SequenceOps(net)
    terms = _load_terms(ops.phase_load_matrix(pcc_loads))
    if start is not None:
        x, lu = np.concatenate([start.v0, start.v1, start.v2]), start.factor
    else:
        zero = np.zeros(ops.n, dtype=complex)
        x, lu = np.concatenate([zero, ops.flat_voltages(), zero]), None
    x, it, norm, lu, cur = _newton(ops, terms, opts, x, lu)
    v0, v1, v2 = x.reshape(3, ops.n)
    s = ops.n + ops.slack
    return SeqSolution(
        bus_ids=ops.bus_ids,
        v0=v0,
        v1=v1,
        v2=v2,
        slack_power_pu=complex(x[s] * np.conj(cur[s])),
        iterations_outer=1,
        iterations_nr=it,
        max_mismatch=norm,
        factor=lu,
    )


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
