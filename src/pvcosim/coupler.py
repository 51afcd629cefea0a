"""One co-simulation time step: alternating T&D solves with boundary exchange.

One boundary iteration is two half-steps. ``_solve_transmission`` solves
the transmission system at the last per-phase PCC powers and returns the
PCC phase voltages; ``_solve_feeders`` sweeps all attached feeders at
those voltages, in one forest sweep (``feeder.forest``), and returns the
PCC powers. ``run_step`` repeats the pair until no boundary variable
(phase voltage or phase power, both in per-unit) moves by more than the
boundary tolerance between consecutive iterations; each
``BoundaryState`` carries that change as its ``error``. Within a case,
each half-step starts from its previous solution: the transmission
Newton from its voltages and LU factor, the feeder sweep from its node
voltages; the first of each starts cold, so cases stay independent.
``verify_fixed_point`` runs the same pair once at the final boundary,
with the feeder sweep cold.

Both read their operators from ``step_ops``: the ``SequenceOps`` of the
effective network and the feeder forest are built once and cached on the
network instance for its last attachment set, next to the model as
``FeederModel.ops`` is.

Attaching a feeder to a bus replaces that bus's static load; the
substation transformer ratio is nominal, so per-unit voltages map
one-to-one across the boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .feeder import (
    FeederModel,
    FeederOps,
    FeederSolution,
    forest,
    scenario_loads,
    solve_feeder,
)
from .network import TransmissionNetwork
from .sequences import phases_from_sequences
from .transmission import (
    PowerFlowError,
    SeqSolution,
    SequenceOps,
    SolverOptions,
    solve_three_sequence,
)

__all__ = [
    "Attachment",
    "BoundaryState",
    "CoSimOptions",
    "CoSimResult",
    "CosimError",
    "CosimNonConvergenceError",
    "run_step",
    "boundary_error",
    "equivalent_load",
    "source_voltage",
    "attach",
    "effective_network",
    "StepOps",
    "step_ops",
    "verify_fixed_point",
]


class CosimError(RuntimeError):
    def __init__(self, message: str, side: str):
        super().__init__(f"[{side}] {message}")
        self.side = side


class CosimNonConvergenceError(CosimError):
    def __init__(self, iterations: int, error: float, history):
        super().__init__(
            f"boundary exchange did not converge in {iterations} iterations "
            f"(last error {error:.3e} pu)",
            side="coupler",
        )
        self.iterations = iterations
        self.error = error
        self.history = history


@dataclass(frozen=True)
class Attachment:
    bus: int
    feeder: FeederModel

    @property
    def ops(self) -> FeederOps:  # the feeder's sweep operator, one per model
        return self.feeder.ops


def attach(net: TransmissionNetwork, bus_id: int, feeder: FeederModel) -> Attachment:
    """Build an attachment; the PCC must be a pq bus, and the feeder must
    be on the network's system MVA base, as the boundary powers are."""
    bus = next((b for b in net.buses if b.id == bus_id), None)
    if bus is None:
        raise ValueError(f"unknown bus {bus_id}")
    if bus.kind != "pq":
        raise ValueError(f"PCC bus {bus_id} must be a pq bus, is {bus.kind}")
    if feeder.mva_base != net.mva_base:
        raise ValueError(
            f"feeder MVA base {feeder.mva_base:g} differs from the network's {net.mva_base:g}"
        )
    return Attachment(bus=bus_id, feeder=feeder)


@dataclass(frozen=True)
class BoundaryState:
    """Per-PCC boundary variables at one iteration.

    ``v_phase`` holds transmission-side phase voltages (pu), ``s_phase``
    distribution-side per-phase complex powers (pu, system base); one
    row per attachment.
    """

    v_phase: np.ndarray  # (n_att, 3) complex
    s_phase: np.ndarray  # (n_att, 3) complex
    iteration: int
    error: float | None = None  # boundary_error from the previous state; None at iteration 0


@dataclass(frozen=True)
class CoSimOptions:
    tol_boundary: float = 1e-4
    max_fpi: int = 20
    feeder_tol: float = 1e-7
    feeder_max_iter: int = 60

    def __post_init__(self):
        if self.tol_boundary <= 0:
            raise ValueError("tol_boundary must be positive")
        if self.max_fpi < 1:
            raise ValueError("max_fpi must be at least 1")
        if self.feeder_tol <= 0:
            raise ValueError("feeder_tol must be positive")
        if self.feeder_max_iter < 1:
            raise ValueError("feeder_max_iter must be at least 1")


@dataclass
class CoSimResult:
    seq_solution: SeqSolution
    feeder_solutions: tuple[FeederSolution, ...]
    boundary_history: tuple[BoundaryState, ...]

    @property
    def fpi_iterations(self) -> int:
        return len(self.boundary_history) - 1

    @property
    def final_boundary(self) -> BoundaryState:
        return self.boundary_history[-1]


def boundary_error(prev: BoundaryState, curr: BoundaryState) -> float:
    """Infinity norm of the change in all boundary variables."""
    if prev.v_phase.shape != curr.v_phase.shape:
        raise ValueError("boundary states cover different attachment sets")
    dv = float(np.max(np.abs(curr.v_phase - prev.v_phase)))
    ds = float(np.max(np.abs(curr.s_phase - prev.s_phase)))
    return max(dv, ds)


def equivalent_load(fs: FeederSolution, attachments) -> np.ndarray:
    """Feeder PCC powers as per-phase system-pu rows, one per attachment."""
    base = np.array([[1e3 * att.feeder.mva_base] for att in attachments])
    return fs.pcc_power_kw / base


def source_voltage(ts: SeqSolution, attachments) -> np.ndarray:
    """PCC phase voltages (pu) seen by the feeders, one row per attachment."""
    i = [ts.index_of(att.bus) for att in attachments]
    # Stacked as (k, 1, 3): each row then goes through the same
    # vector-matrix product as a single PCC would.
    seq = [v[i][:, None] for v in (ts.v0, ts.v1, ts.v2)]
    return phases_from_sequences(*seq)[:, 0]


def effective_network(net: TransmissionNetwork, attachments) -> TransmissionNetwork:
    """Zero the static load at every attached bus (the feeder replaces it)."""
    attached = {a.bus for a in attachments}
    buses = tuple(
        replace(b, load_p=0.0, load_q=0.0) if b.id in attached else b for b in net.buses
    )
    return replace(net, buses=buses)


@dataclass(frozen=True)
class StepOps:
    """The operators of one co-simulation step on a network."""

    seq: SequenceOps  # of the effective network, on which the step solves
    feeders: FeederOps  # the forest of the attachments' operators, in order
    attachments: tuple[Attachment, ...]  # the attachment set they were built for


def _same_set(a: tuple[Attachment, ...], b: tuple[Attachment, ...]) -> bool:
    return len(a) == len(b) and all(x.bus == y.bus and x.feeder is y.feeder for x, y in zip(a, b))


def step_ops(net: TransmissionNetwork, attachments) -> StepOps:
    """The step's operators for ``net`` and this attachment set, built on
    first use and then reused.

    The network instance's ``__dict__`` (which the dataclass fields, and so
    equality and ``replace``, ignore) holds the operators of the last
    attachment set asked for; a set with other PCC buses or feeder models,
    in order, rebuilds them. The entry keeps its feeder models alive, so
    an identity it compares with cannot be reused while it is cached. A
    build that raises caches nothing.
    """
    attachments = tuple(attachments)
    ops = net.__dict__.get("_step_ops")
    if ops is None or not _same_set(ops.attachments, attachments):
        ops = StepOps(
            seq=SequenceOps(effective_network(net, attachments)),
            feeders=forest([att.ops for att in attachments]),
            attachments=attachments,
        )
        net.__dict__["_step_ops"] = ops
    return ops


_NOMINAL_V = phases_from_sequences(0.0, 1.0, 0.0)


def _feeder_loads(attachments, scenario_per_feeder, hour: int, profile) -> list[np.ndarray]:
    """Per-node loads of every attached feeder under its scenario (or none)."""
    if scenario_per_feeder is None:
        return [att.ops.loads for att in attachments]
    if len(scenario_per_feeder) != len(attachments):
        raise ValueError("one scenario entry (or None) required per attachment")
    if profile is None and any(scen is not None for scen in scenario_per_feeder):
        raise ValueError("a generation profile is required to apply scenarios")
    return [
        att.ops.loads if scen is None else scenario_loads(att.ops, scen, hour, profile)
        for att, scen in zip(attachments, scenario_per_feeder)
    ]


def _pcc_loads(attachments, s_rows: np.ndarray) -> dict[int, np.ndarray]:
    """Sum the per-attachment boundary powers onto their PCC buses."""
    pcc: dict[int, np.ndarray] = {}
    for att, s in zip(attachments, s_rows):
        pcc[att.bus] = pcc.get(att.bus, np.zeros(3, dtype=complex)) + s
    return pcc


def _solve_transmission(
    attachments, s_rows: np.ndarray, ops: SequenceOps, solver_opts: SolverOptions, start
) -> tuple[SeqSolution, np.ndarray]:
    """Solve the effective network (``ops.net``) at the PCC powers; return
    the solution and the per-attachment PCC phase voltages."""
    try:
        seq_sol = solve_three_sequence(
            ops.net, _pcc_loads(attachments, s_rows), solver_opts, ops=ops, start=start
        )
    except PowerFlowError as exc:
        raise CosimError(str(exc), side="transmission") from exc
    return seq_sol, source_voltage(seq_sol, attachments)


def _solve_feeders(
    attachments,
    feeder_ops: FeederOps,
    loads: np.ndarray,
    v_rows: np.ndarray,
    opts: CoSimOptions,
    start: FeederSolution | None = None,
) -> tuple[FeederSolution, np.ndarray]:
    """Sweep every feeder at its PCC voltage in one call, from ``start``
    when given; return the forest's solution and the per-attachment PCC
    powers (system pu)."""
    try:
        fsol = solve_feeder(
            feeder_ops,
            v_rows,
            tol=opts.feeder_tol,
            max_iter=opts.feeder_max_iter,
            loads=loads,
            start=start,
        )
    except Exception as exc:
        raise CosimError(str(exc), side="distribution") from exc
    return fsol, equivalent_load(fsol, attachments)


def run_step(
    net: TransmissionNetwork,
    attachments,
    hour: int,
    scenario_per_feeder,
    opts: CoSimOptions | None = None,
    *,
    profile=None,
    solver_opts: SolverOptions | None = None,
) -> CoSimResult:
    """Run one quasi-static co-simulation step to boundary convergence,
    on the operators ``step_ops`` keeps for ``net`` and ``attachments``."""
    opts = opts or CoSimOptions()
    solver_opts = solver_opts or SolverOptions()
    attachments = list(attachments)
    loads = np.concatenate(_feeder_loads(attachments, scenario_per_feeder, hour, profile))
    ops = step_ops(net, attachments)

    # Decoupled first solves: each feeder at nominal balanced voltage.
    v_rows = np.tile(_NOMINAL_V, (len(attachments), 1))
    fsol, s_rows = _solve_feeders(attachments, ops.feeders, loads, v_rows, opts)
    history = [BoundaryState(v_phase=v_rows, s_phase=s_rows, iteration=0)]

    seq_sol: SeqSolution | None = None
    for it in range(1, opts.max_fpi + 1):
        seq_sol, v_rows = _solve_transmission(attachments, s_rows, ops.seq, solver_opts, seq_sol)
        fsol, s_rows = _solve_feeders(attachments, ops.feeders, loads, v_rows, opts, fsol)
        state = BoundaryState(v_phase=v_rows, s_phase=s_rows, iteration=it)
        state = replace(state, error=boundary_error(history[-1], state))
        history.append(state)
        if state.error <= opts.tol_boundary:
            break
    else:
        raise CosimNonConvergenceError(opts.max_fpi, history[-1].error, tuple(history))

    return CoSimResult(
        seq_solution=seq_sol,
        feeder_solutions=fsol.feeders(),
        boundary_history=tuple(history),
    )


def verify_fixed_point(
    net: TransmissionNetwork,
    attachments,
    result: CoSimResult,
    opts: CoSimOptions | None = None,
    *,
    hour: int = 12,
    profile=None,
    scenario_per_feeder=None,
    solver_opts: SolverOptions | None = None,
) -> float:
    """Run both half-steps once at the converged boundary; return how far
    they move it (``boundary_error``).

    A sound fixed point moves no boundary variable by more than the
    boundary tolerance.
    """
    opts = opts or CoSimOptions()
    solver_opts = solver_opts or SolverOptions()
    attachments = list(attachments)
    final = result.final_boundary

    loads = np.concatenate(_feeder_loads(attachments, scenario_per_feeder, hour, profile))
    ops = step_ops(net, attachments)
    _, v_rows = _solve_transmission(
        attachments, final.s_phase, ops.seq, solver_opts, result.seq_solution
    )
    _, s_rows = _solve_feeders(attachments, ops.feeders, loads, final.v_phase, opts)
    state = BoundaryState(v_phase=v_rows, s_phase=s_rows, iteration=final.iteration + 1)
    return boundary_error(final, state)
