"""Record the golden propagation digests the tier-1 suite checks.

    PYTHONPATH=src python3 tests/golden/make_golden.py           # rewrite
    PYTHONPATH=src python3 tests/golden/make_golden.py --check   # compare

Writes ``tests/golden/propagation.json``: one entry per design x variant
with ``float.hex()`` fingerprints of everything a pass produces -- the
longest delay, every endpoint arrival, every pass's delay and work
counters, the arc counts, the provenance-ledger histogram and the slack
sweep.  Each entry is computed by a fresh analyzer, so cache-dependent
counters (ledger origins) are reproducible.

The committed digests were recorded while the analyzer still offered an
object-graph propagation core and a scalar waveform engine beside the
columnar core and the batch engine: every entry was computed on all four
core x engine combinations, and the file was written only because all
four agreed on every digest.  Regenerate only when a change is meant to
move a number, and say so in the change.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN_PATH = HERE / "propagation.json"
SCHEMA = "repro.golden-propagation/1"

if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parent.parent / "src"))

from repro.circuit import s27  # noqa: E402
from repro.circuit.generators import (  # noqa: E402
    S35932_SPEC,
    GeneratorSpec,
    generate_circuit,
)
from repro.core.analyzer import CrosstalkSTA  # noqa: E402
from repro.core.modes import AnalysisMode, StaConfig, WindowCheck  # noqa: E402
from repro.core.slack import compute_slack  # noqa: E402
from repro.flow import prepare_design  # noqa: E402

# The ``small_design`` test fixture: ~120 cells, 8 levels, up to 7
# coupling waves in one level.
SMALL_SPEC = GeneratorSpec(
    name="tiny",
    seed=42,
    n_inputs=4,
    n_outputs=4,
    n_ff=8,
    n_gates=90,
    depth=7,
)

DESIGNS = ("s27", "small", "s35932")

# Clock periods of the slack digests: all of s27's endpoints meet the
# first and most violate the second.
SLACK_PERIODS = {"met": 1.2e-9, "violated": 0.4e-9}

VARIANTS: dict[str, dict] = {
    **{mode.value: {"mode": mode} for mode in AnalysisMode},
    "one_step-overlap": {
        "mode": AnalysisMode.ONE_STEP,
        "window_check": WindowCheck.OVERLAP,
    },
    "iterative-overlap": {
        "mode": AnalysisMode.ITERATIVE,
        "window_check": WindowCheck.OVERLAP,
    },
    "iterative-no-incremental": {
        "mode": AnalysisMode.ITERATIVE,
        "incremental": False,
    },
    "iterative-esperance": {"mode": AnalysisMode.ITERATIVE, "esperance": True},
    "one_step-clock": {
        "mode": AnalysisMode.ONE_STEP,
        "clock_period": SLACK_PERIODS["violated"],
    },
}

@functools.lru_cache(maxsize=None)
def build_design(name: str):
    """The prepared design behind a golden design name (cached; treat
    it as read-only)."""
    if name == "s27":
        return prepare_design(s27())
    if name == "small":
        return prepare_design(generate_circuit(SMALL_SPEC))
    if name == "s35932":
        spec = dataclasses.replace(S35932_SPEC.scaled(0.01), seed=1000)
        return prepare_design(generate_circuit(spec))
    raise KeyError(name)


def run_variant(design, variant: str):
    """One variant's analysis on a fresh analyzer."""
    return CrosstalkSTA(design, StaConfig(**VARIANTS[variant])).run()


def _sha(lines) -> str:
    return hashlib.sha256("\n".join(sorted(lines)).encode()).hexdigest()


def slack_digest(slack) -> dict:
    return {
        "worst": float(slack.worst_slack).hex(),
        "tns": float(slack.total_negative_slack).hex(),
        "violations": slack.violations,
        "net_sha256": _sha(
            f"{net}|{d}|{float(v).hex()}" for (net, d), v in slack.net_slack.items()
        ),
        "arc_sha256": _sha(
            f"{cell}|{pin}|{d}|{float(v).hex()}"
            for (cell, pin, d), v in slack.arc_slack.items()
        ),
    }


def arrivals_sha256(result) -> str:
    return _sha(
        f"{endpoint}|{direction}|{t.hex()}"
        for (endpoint, direction), t in result.arrival_map().items()
    )


def passes(result) -> list[dict]:
    return [
        {
            "delay": record.longest_delay.hex(),
            "evaluations": record.waveform_evaluations,
            "dirty": record.dirty_arcs,
            "reused": record.reused_arcs,
        }
        for record in result.history
    ]


def digest(design, result) -> dict:
    """Every golden fingerprint of one finished analysis."""
    return {
        "longest_delay": result.longest_delay.hex(),
        "critical": [result.critical_endpoint, result.critical_direction],
        "arrivals_sha256": arrivals_sha256(result),
        "passes": passes(result),
        "arcs": result.arcs_processed,
        "coupled_arcs": result.coupled_arcs,
        "ledger": result.ledger.counts() if result.ledger is not None else None,
        "arc_slack_sha256": (
            slack_digest(result.slack)["arc_sha256"]
            if result.slack is not None
            else None
        ),
        "slack": {
            label: slack_digest(compute_slack(design, result, period))
            for label, period in SLACK_PERIODS.items()
        },
    }


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())["entries"]


def mismatches(key: str, got: dict, fields=None) -> list[str]:
    """The fields of a fresh digest that differ from golden entry
    ``key`` (all fields, or just ``fields``)."""
    want = load_golden()[key]
    return [
        f"{key} {field}: {got.get(field)!r} != {want[field]!r}"
        for field in (fields if fields is not None else sorted(want))
        if got.get(field) != want[field]
    ]


def record() -> dict:
    """Digest every design x variant."""
    entries: dict[str, dict] = {}
    for name in DESIGNS:
        design = build_design(name)
        for variant in VARIANTS:
            key = f"{name}/{variant}"
            entries[key] = digest(design, run_variant(design, variant))
            print(f"{key}: {entries[key]['longest_delay']}", flush=True)
    return entries


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="compare with the committed file instead of rewriting it",
    )
    args = parser.parse_args(argv)
    entries = record()
    if args.check:
        stale = sorted(
            key for key, value in load_golden().items() if entries.get(key) != value
        )
        for key in stale:
            print(f"FAIL: {key} differs from {GOLDEN_PATH.name}", file=sys.stderr)
        return 1 if stale else 0
    payload = {
        "schema": SCHEMA,
        # The core x engine paths the entries were computed on; the
        # object core and the scalar engine no longer exist.
        "paths_agreeing": ["columnar/batch"],
        "entries": entries,
    }
    GOLDEN_PATH.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(entries)} entries to {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
