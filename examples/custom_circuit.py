#!/usr/bin/env python3
"""Build a custom synchronous circuit with the netlist API and analyze it.

Constructs a small pipelined datapath-like block by hand (no .bench file),
runs the crosstalk-aware STA, inspects per-endpoint arrivals and validates
the critical path against the transistor-level simulator.

Usage::

    python examples/custom_circuit.py
"""

from repro import AnalysisMode, Circuit, CrosstalkSTA, format_table, prepare_design
from repro.validate import check_bounds, format_bound_checks


def build_pipeline() -> Circuit:
    """Two register stages around a cone of random-ish logic."""
    circuit = Circuit("pipeline")
    circuit.add_clock("CLK")
    for name in ("a", "b", "c", "d"):
        circuit.add_input(name)

    # Input registers.
    for i, src in enumerate(("a", "b", "c", "d")):
        circuit.add_cell("DFF_X1", f"ri{i}", {"D": src, "CLK": "CLK", "Q": f"r{i}"})

    # Logic cone: a 4-input AND-OR structure built from NAND/NOR/INV.
    circuit.add_cell("NAND2_X1", "g0", {"A": "r0", "B": "r1", "Y": "n0"})
    circuit.add_cell("NAND2_X1", "g1", {"A": "r2", "B": "r3", "Y": "n1"})
    circuit.add_cell("NAND2_X2", "g2", {"A": "n0", "B": "n1", "Y": "n2"})
    circuit.add_cell("INV_X1", "g3", {"A": "n2", "Y": "n3"})
    circuit.add_cell("NOR2_X1", "g4", {"A": "n3", "B": "r0", "Y": "n4"})
    circuit.add_cell("AOI21_X1", "g5", {"A": "n4", "B": "r1", "C": "n0", "Y": "n5"})
    circuit.add_cell("OAI21_X1", "g6", {"A": "n5", "B": "r2", "C": "n2", "Y": "n6"})
    circuit.add_cell("INV_X2", "g7", {"A": "n6", "Y": "n7"})

    # Output register and port.
    circuit.add_cell("DFF_X1", "ro", {"D": "n7", "CLK": "CLK", "Q": "q"})
    circuit.add_output("out", net_name="q")
    return circuit


def main() -> None:
    circuit = build_pipeline()
    print(f"Built {circuit.stats()}")

    design = prepare_design(circuit)
    sta = CrosstalkSTA(design)
    results = sta.run_all_modes()
    print()
    print(format_table("pipeline", results, cell_count=circuit.cell_count()))

    # Per-endpoint arrivals of the iterative analysis.
    iterative = results[AnalysisMode.ITERATIVE]
    print("\nEndpoint arrivals (iterative bound):")
    for (endpoint, direction), t in sorted(iterative.arrival_map().items()):
        print(f"  {endpoint:<12} {direction:<5} {t * 1e12:8.1f} ps")

    # Validate every bound on the longest path with the transistor-level
    # simulator, each mode under its own scenario.
    path = sta.critical_path(iterative)
    print(f"\nLongest path: {' -> '.join(path.net_sequence())}")
    checks = check_bounds(design, results, path)
    print(format_bound_checks(checks))
    assert all(check.holds for check in checks.values()), "bound violated!"
    print("bounds hold: no simulation exceeds its mode's STA estimate.")


if __name__ == "__main__":
    main()
