#!/usr/bin/env python3
"""Close the loop: analyze -> rank -> fix -> re-analyze.

Finds the crosstalk-critical nets of a synthetic design, sets the clock
just below the design's minimum period, and lets the slack-driven repair
optimizer close the violation: it evaluates candidate fixes (drop an
aggressor coupling, re-route the victim with guard spacing, upsize its
driver) warm and commits only strict worst-slack improvements.  A final
cold re-analysis must land bit-identically on the warm result.

Usage::

    python examples/crosstalk_repair.py [scale]
"""

import sys

from repro import (
    AnalysisMode,
    CrosstalkSTA,
    StaConfig,
    minimum_period,
    prepare_design,
    s35932_like,
)
from repro.core.netreport import format_net_report, rank_crosstalk_nets
from repro.flow import format_repair
from repro.obs import Observability
from repro.service import Session


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.04
    design = prepare_design(s35932_like(scale=scale))
    result = CrosstalkSTA(design).run(AnalysisMode.ITERATIVE)
    print(f"{design.circuit.stats()}")
    print(f"initial iterative bound: {result.longest_delay * 1e9:.3f} ns\n")

    print("Top crosstalk-critical nets:")
    exposures = rank_crosstalk_nets(design, result.final_pass, top=8)
    print(format_net_report(exposures))

    # A clock 1% below the minimum period leaves a small negative slack.
    clock_period = 0.99 * minimum_period(result)
    session = Session(
        session_id="example",
        spec="gen:s35932",
        design=design,
        config=StaConfig(mode=AnalysisMode.ITERATIVE, clock_period=clock_period),
        obs=Observability.disabled(),
        scale=scale,
    )
    transcript = session.repair(max_edits=4, cold_verify=True)
    print(f"\n{format_repair(transcript)}")

    respaced = [
        net
        for edit in transcript["committed_edits"]
        if edit["action"] == "respace"
        for net in edit["nets"]
    ]
    if respaced:
        print("\nRespaced nets (coupling capacitance before -> after):")
    for net in respaced:
        before = design.loads[net].c_coupling_total
        after = session.design.loads[net].c_coupling_total
        print(f"  {net}: C_c {before * 1e15:.1f} -> {after * 1e15:.1f} fF")

    assert transcript["cold_verify"]["identical"], "cold re-check must match"
    print("\nThe cold re-analysis of the repaired design is bit-identical.")


if __name__ == "__main__":
    main()
