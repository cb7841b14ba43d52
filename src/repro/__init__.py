"""repro -- Crosstalk-aware static timing analysis.

A from-scratch reproduction of M. Ringe, T. Lindenkreuz, E. Barke,
"Static Timing Analysis Taking Crosstalk into Account" (DATE 2000):
a transistor-level static timing analyzer whose longest-path bound
accounts for the delay impact of capacitive coupling, together with every
substrate the paper relies on -- standard-cell netlists, a 0.5 um
two-metal place/route/extract flow, table-based device models, and an MNA
transient simulator for validation.

Quick start::

    from repro import AnalysisMode, CrosstalkSTA, prepare_design, s27

    design = prepare_design(s27())
    sta = CrosstalkSTA(design)
    results = sta.run_all_modes()
    for mode, result in results.items():
        print(mode.value, result.longest_delay_ns, "ns")
"""

from repro.circuit import (
    Circuit,
    default_library,
    generate_circuit,
    load_bench,
    map_to_circuit,
    parse_bench,
    s27,
    s35932_like,
    s38417_like,
    s38584_like,
    validate_circuit,
)
from repro.core import (
    AnalysisMode,
    CriticalPath,
    CrosstalkSTA,
    MinAnalysisMode,
    MinPropagator,
    SlackResult,
    StaConfig,
    StaResult,
    WindowCheck,
    check_hold,
    check_mode_ordering,
    check_setup,
    compute_slack,
    extract_critical_path,
    format_table,
    minimum_period,
    rank_crosstalk_nets,
)
from repro.flow import (
    Design,
    prepare_design,
    repair_session,
    respace_nets,
)

__version__ = "1.0.0"

__all__ = [
    "AnalysisMode",
    "Circuit",
    "CriticalPath",
    "CrosstalkSTA",
    "Design",
    "MinAnalysisMode",
    "MinPropagator",
    "SlackResult",
    "StaConfig",
    "StaResult",
    "WindowCheck",
    "__version__",
    "check_hold",
    "check_mode_ordering",
    "check_setup",
    "compute_slack",
    "default_library",
    "extract_critical_path",
    "format_table",
    "generate_circuit",
    "load_bench",
    "map_to_circuit",
    "parse_bench",
    "minimum_period",
    "prepare_design",
    "rank_crosstalk_nets",
    "repair_session",
    "respace_nets",
    "s27",
    "s35932_like",
    "s38417_like",
    "s38584_like",
    "validate_circuit",
]
