"""The crosstalk-aware static timing analysis engine (the paper's
contribution)."""

from repro.core.analyzer import CrosstalkSTA, StaResult
from repro.core.constraints import (
    ConstraintReport,
    EndpointSlack,
    HoldReport,
    HoldSlack,
    check_hold,
    check_setup,
    minimum_period,
)
from repro.core.explain import (
    EXPLAIN_SCHEMA,
    explain_result,
    format_explain,
    validate_explain,
)
from repro.core.export import (
    load_json,
    path_to_dict,
    results_to_dict,
    save_json,
    sta_result_to_dict,
)
from repro.core.graph import Provenance, evaluation_order
from repro.core.iterative import (
    IterationRecord,
    IterativeResult,
    esperance_recalc_cells,
    run_iterative,
)
from repro.core.modes import AnalysisMode, StaConfig, WindowCheck
from repro.core.minpath import (
    MinAnalysisMode,
    MinPropagator,
    MinStaResult,
    merge_earliest,
)
from repro.core.netreport import NetExposure, format_net_report, rank_crosstalk_nets
from repro.core.paths import (
    CriticalPath,
    PathStep,
    extract_critical_path,
    k_worst_paths,
)
from repro.core.propagation import (
    EndpointArrival,
    PassResult,
    Propagator,
    ideal_ramp_event,
)
from repro.core.report import check_mode_ordering, format_table, result_rows
from repro.core.slack import (
    SLACK_SCHEMA,
    SlackResult,
    compute_slack,
    format_slack,
    slack_payload,
    validate_slack,
)

__all__ = [
    "AnalysisMode",
    "ConstraintReport",
    "CriticalPath",
    "CrosstalkSTA",
    "EXPLAIN_SCHEMA",
    "EndpointArrival",
    "EndpointSlack",
    "HoldReport",
    "HoldSlack",
    "IterationRecord",
    "IterativeResult",
    "MinAnalysisMode",
    "MinPropagator",
    "MinStaResult",
    "NetExposure",
    "PassResult",
    "PathStep",
    "Propagator",
    "Provenance",
    "SLACK_SCHEMA",
    "SlackResult",
    "StaConfig",
    "StaResult",
    "WindowCheck",
    "check_hold",
    "check_mode_ordering",
    "check_setup",
    "compute_slack",
    "esperance_recalc_cells",
    "evaluation_order",
    "explain_result",
    "extract_critical_path",
    "format_explain",
    "format_net_report",
    "format_slack",
    "format_table",
    "merge_earliest",
    "results_to_dict",
    "save_json",
    "sta_result_to_dict",
    "minimum_period",
    "rank_crosstalk_nets",
    "ideal_ramp_event",
    "k_worst_paths",
    "load_json",
    "path_to_dict",
    "result_rows",
    "run_iterative",
    "slack_payload",
    "validate_explain",
    "validate_slack",
]
