"""End-to-end design preparation (place -> route -> extract -> loads)."""

from repro.flow.design import Design, NetLoad, prepare_design
from repro.flow.edits import EDIT_ACTIONS, apply_edit, edit_nets
from repro.flow.optimizer import (
    REPAIR_SCHEMA,
    format_repair,
    repair_session,
    validate_repair,
)
from repro.flow.repair import adjust_coupling, respace_nets, upsize_drivers

__all__ = [
    "Design",
    "EDIT_ACTIONS",
    "NetLoad",
    "REPAIR_SCHEMA",
    "adjust_coupling",
    "apply_edit",
    "edit_nets",
    "format_repair",
    "prepare_design",
    "repair_session",
    "respace_nets",
    "upsize_drivers",
    "validate_repair",
]
