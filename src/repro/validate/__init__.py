"""Paper-style validation: longest-path simulation with aggressor
alignment, compared against the STA bounds."""

from repro.validate.align import (
    AlignmentRecord,
    SimulationOutcome,
    align_aggressors,
    quiet_simulation,
    simulate_path,
)
from repro.validate.compare import BoundCheck, check_bounds, format_bound_checks
from repro.validate.pathsim import AggressorHandle, PathCircuit, build_path_circuit

__all__ = [
    "AggressorHandle",
    "AlignmentRecord",
    "BoundCheck",
    "PathCircuit",
    "SimulationOutcome",
    "align_aggressors",
    "build_path_circuit",
    "check_bounds",
    "format_bound_checks",
    "quiet_simulation",
    "simulate_path",
]
