#!/usr/bin/env python3
"""Reproduce the shape of the paper's Tables 1-3 at a chosen scale.

Runs the five analysis modes on synthetic stand-ins for s35932, s38417 and
s38584 (see DESIGN.md for the substitution rationale) and optionally
re-simulates each longest path under every mode's scenario to check its
bound.

Usage::

    python examples/paper_tables.py [--scale 0.05] [--simulate]
    REPRO_FULL=1 python examples/paper_tables.py   # paper-size circuits
"""

import argparse
import os
import time

from repro import AnalysisMode, CrosstalkSTA, check_mode_ordering, format_table, prepare_design
from repro.circuit import s35932_like, s38417_like, s38584_like
from repro.validate import check_bounds, format_bound_checks

CIRCUITS = [
    ("Table 1: s35932", s35932_like),
    ("Table 2: s38417", s38417_like),
    ("Table 3: s38584", s38584_like),
]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=None, help="circuit scale (1.0 = paper size)")
    parser.add_argument("--simulate", action="store_true", help="re-simulate the longest paths")
    args = parser.parse_args()

    scale = args.scale
    if scale is None:
        scale = 1.0 if os.environ.get("REPRO_FULL") else 0.05

    for title, factory in CIRCUITS:
        t0 = time.time()
        circuit = factory(scale=scale)
        design = prepare_design(circuit)
        print(f"\n{'='*60}")
        print(f"{title} at scale {scale} -> {circuit.cell_count()} cells "
              f"(prepared in {time.time()-t0:.1f} s)")

        sta = CrosstalkSTA(design)
        results = sta.run_all_modes()
        print(format_table(title, results, cell_count=circuit.cell_count()))
        if args.simulate:
            path = sta.critical_path(results[AnalysisMode.ITERATIVE])
            print()
            print(format_bound_checks(check_bounds(design, results, path)))

        violations = check_mode_ordering(results)
        print("  ordering:", "OK" if not violations else violations)


if __name__ == "__main__":
    main()
