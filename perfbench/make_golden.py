"""Record the golden ``float.hex()`` digests the correctness gate checks.

    python3 perfbench/make_golden.py     # from the repository root

Writes ``perfbench/golden.json``: for the first designs the default seed
draws (``design_seed``), every mode's longest delay of ``table1-cold`` and
the cold one_step longest delay of ``eco-session``'s designs, at each
workload's default scale and at the smoke check's scale 0.01.  Run it only when a change is meant to move a
delay, and say so in the change.
"""

from __future__ import annotations

import json
import sys

from run import SRC

sys.path.insert(0, str(SRC))

from common import DEFAULT_SEED, GOLDEN_PATH, circuit_spec, sta_config, write_bench_file  # noqa: E402
from workloads import (  # noqa: E402
    ECO_PROBE_DESIGNS,
    MODES,
    TABLE1_DESIGNS,
    WORKLOADS,
    design_seed,
)


def table1_digests(seed: int, scale: float) -> dict:
    from repro.circuit.generators import generate_circuit
    from repro.core.analyzer import CrosstalkSTA
    from repro.flow.design import prepare_design

    design = prepare_design(generate_circuit(circuit_spec(seed, scale)))
    return {
        mode: float(CrosstalkSTA(design, sta_config(mode)).run().longest_delay).hex()
        for mode in MODES
    }


def session_digest(seed: int, scale: float) -> dict:
    from repro.service import SessionManager

    manager = SessionManager(config=sta_config("one_step"))
    session = manager.open(write_bench_file(seed, scale), config={"mode": "one_step"})
    return {"one_step": float(session.analyze().longest_delay).hex()}


def main() -> int:
    golden: dict = {}
    for workload, (_, _, default_scale) in WORKLOADS.items():
        for scale in sorted({default_scale, 0.01}):
            if workload == "table1-cold":
                seeds = [design_seed(DEFAULT_SEED, i) for i in range(TABLE1_DESIGNS)]
                entries = {seed: table1_digests(seed, scale) for seed in seeds}
            else:
                seeds = [design_seed(DEFAULT_SEED, i) for i in range(ECO_PROBE_DESIGNS)]
                entries = {seed: session_digest(seed, scale) for seed in seeds}
            golden.setdefault(workload, {})[f"{scale:g}"] = {
                str(seed): digests for seed, digests in entries.items()
            }
    GOLDEN_PATH.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
