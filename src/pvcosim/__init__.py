"""Transmission-distribution co-simulation for distributed-PV impact studies.

A three-sequence transmission power flow is iteratively coupled to
unbalanced radial feeder solves at their points of common coupling,
driven over Monte Carlo PV deployment scenarios, and validated against
a monolithic phase-frame solve of the combined network.
"""

from importlib import resources
from pathlib import Path

__version__ = "0.1.0"


def data_path(name: str) -> Path:
    """Path to a bundled fixture file (network, feeder or profile)."""
    return Path(resources.files("pvcosim") / "data" / name)


from .coupler import (  # noqa: E402
    Attachment,
    BoundaryState,
    CoSimOptions,
    CoSimResult,
    attach,
    boundary_error,
    equivalent_load,
    run_step,
    source_voltage,
    verify_fixed_point,
)
from .driver import (  # noqa: E402
    ResultSet,
    RunConfig,
    detect_reverse_flow,
    emit,
    oracle_rows,
    run,
)
from .feeder import (  # noqa: E402
    FeederModel,
    FeederSolution,
    load_feeder,
    load_feeder_file,
    solve_feeder,
)
from .network import (  # noqa: E402
    Branch,
    Bus,
    TransmissionNetwork,
    build_sequence_admittance,
    load_network,
    load_network_file,
)
from .scenarios import (  # noqa: E402
    GenerationProfile,
    PvScenario,
    generate,
    load_profile,
    load_profile_file,
    pv_rating,
)
from .sequences import (  # noqa: E402
    SequenceSet,
    phase_to_sequence,
    sequence_to_phase,
    unbalance_factor,
)
from .transmission import (  # noqa: E402
    SeqSolution,
    SolverOptions,
    branch_flows,
    solve_three_sequence,
)
from .unified import UnifiedOps, UnifiedSolution, compare, solve_unified  # noqa: E402
