"""Record the golden propagation digests the tier-1 suite checks.

    PYTHONPATH=src python3 tests/golden/make_golden.py           # rewrite
    PYTHONPATH=src python3 tests/golden/make_golden.py --check   # compare

Writes ``tests/golden/propagation.json``: one entry per design x variant
with ``float.hex()`` fingerprints of everything a pass produces -- the
longest delay, every endpoint arrival, every pass's delay and work
counters, the arc counts, the provenance-ledger histogram and the slack
sweep.  Each entry is computed by a fresh analyzer, so cache-dependent
counters (ledger origins) are reproducible.

Also writes ``tests/golden/minpath.json``: one entry per design x
min-delay mode (:class:`~repro.core.minpath.MinAnalysisMode`) with the
shortest delay, the critical endpoint, every endpoint arrival, the pass
and waveform-evaluation counts and the hold slacks at ``HOLD_TIME``.

Also writes ``tests/golden/routing.json``: per routing design, a sha256
over every wire segment (net-name order) and the overflow count of two
routings -- the full :func:`~repro.layout.routing.route` and
:func:`~repro.flow.repair.respace_nets` of the design's four
most-coupled nets -- plus, on the scale-0.03 designs, that respace with
two guard tracks.  Every coupling capacitance comes from this geometry.

``--check`` fails on any digest that differs from the committed one and
on any recorded key the committed file lacks.

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
MIN_GOLDEN_PATH = HERE / "minpath.json"
MIN_SCHEMA = "repro.golden-minpath/1"
ROUTING_GOLDEN_PATH = HERE / "routing.json"
ROUTING_SCHEMA = "repro.golden-routing/1"

if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parent.parent / "src"))

from repro.circuit import s27  # noqa: E402
from repro.circuit.generators import (  # noqa: E402
    S35932_SPEC,
    S38584_SPEC,
    GeneratorSpec,
    generate_circuit,
)
from repro.core.analyzer import CrosstalkSTA  # noqa: E402
from repro.core.constraints import check_hold  # noqa: E402
from repro.core.minpath import MinAnalysisMode, MinPropagator  # noqa: E402
from repro.core.modes import AnalysisMode, StaConfig, WindowCheck  # noqa: E402
from repro.core.slack import compute_slack  # noqa: E402
from repro.flow import prepare_design, respace_nets  # noqa: E402
from repro.layout.routing import route  # noqa: E402

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

# Generated designs of the routing digests: the Table 1 and Table 3
# stand-ins at two scales and two seeds each.
ROUTING_GENERATED = {
    f"{name}-{scale}-seed{seed}": dataclasses.replace(spec.scaled(scale), seed=seed)
    for name, spec in (("s35932", S35932_SPEC), ("s38584", S38584_SPEC))
    for scale in (0.01, 0.03)
    for seed in (1, 7)
}
# A deep search: the router's outward track offsets reach the hundreds.
ROUTING_GENERATED["s35932-0.2-seed1"] = dataclasses.replace(
    S35932_SPEC.scaled(0.2), seed=1
)
ROUTING_DESIGNS = ("s27", "small", *ROUTING_GENERATED)

# Nets ``respace`` re-routes with shield spacing: the most-coupled ones.
RESPACE_NETS = 4

# Guard tracks per side of each respace routing.
RESPACE_GUARDS = {"respace": 1, "respace-guard2": 2}

# Every routing digest: the full route and the one-guard respace of
# every routing design, and the two-guard respace of the 0.03 designs.
ROUTING_KEYS = (
    *(
        f"{name}/{routing}"
        for name in ROUTING_DESIGNS
        for routing in ("route", "respace")
    ),
    *(f"{name}/respace-guard2" for name in ROUTING_GENERATED if "-0.03-" in name),
)

# Clock periods of the slack digests: all of s27's endpoints meet the
# first and most violate the second.
SLACK_PERIODS = {"met": 1.2e-9, "violated": 0.4e-9}

# Hold requirement of the min-delay digests (the StaConfig default).
HOLD_TIME = 50e-12

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
    if name in ROUTING_GENERATED:
        return prepare_design(generate_circuit(ROUTING_GENERATED[name]))
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


def run_min_mode(design, mode: str):
    """One min-delay mode's analysis on a fresh propagator."""
    return MinPropagator(design).run(MinAnalysisMode(mode))


def min_digest(result) -> dict:
    """Every golden fingerprint of one finished min-delay analysis."""
    return {
        "shortest_delay": result.shortest_delay.hex(),
        "critical": [result.critical_endpoint, result.critical_direction],
        "arrivals_sha256": arrivals_sha256(result),
        "passes": result.passes,
        "evaluations": result.waveform_evaluations,
        "hold_sha256": _sha(
            f"{s.endpoint}|{s.direction}|{float(s.slack).hex()}"
            for s in check_hold(result, HOLD_TIME).slacks
        ),
    }


def run_routing(design, routing: str):
    """One routing of a design: the full route or a respace of the
    design's most-coupled nets (chosen from the extraction alone)."""
    if routing == "route":
        return route(design.circuit, design.placement, design.technology)
    if routing in RESPACE_GUARDS:
        loads = sorted(
            design.loads.values(), key=lambda load: (-load.c_coupling_total, load.net)
        )
        victims = [load.net for load in loads[:RESPACE_NETS]]
        return respace_nets(
            design, victims, guard_tracks=RESPACE_GUARDS[routing]
        ).routing
    raise KeyError(routing)


def routing_digest(routing) -> dict:
    """Every golden fingerprint of one routing."""
    segments = (
        f"{seg.net}|{seg.layer}|{seg.track}|{float(seg.lo).hex()}|{float(seg.hi).hex()}"
        for name in sorted(routing.routes)
        for seg in routing.routes[name].segments()
    )
    return {
        "segments_sha256": hashlib.sha256("\n".join(segments).encode()).hexdigest(),
        "overflow_count": routing.overflow_count,
    }


def load_golden(path: Path = GOLDEN_PATH) -> dict:
    return json.loads(path.read_text())["entries"]


def mismatches(key: str, got: dict, fields=None, path: Path = GOLDEN_PATH) -> list[str]:
    """The fields of a fresh digest that differ from golden entry
    ``key`` of ``path`` (all fields, or just ``fields``)."""
    want = load_golden(path)[key]
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


def record_min() -> dict:
    """Digest every design x min-delay mode."""
    entries: dict[str, dict] = {}
    for name in DESIGNS:
        design = build_design(name)
        for mode in MinAnalysisMode:
            key = f"{name}/{mode.value}"
            entries[key] = min_digest(run_min_mode(design, mode.value))
            print(f"{key}: {entries[key]['shortest_delay']}", flush=True)
    return entries


def record_routing() -> dict:
    """Digest every routing key."""
    entries: dict[str, dict] = {}
    for key in ROUTING_KEYS:
        name, routing = key.split("/", 1)
        entries[key] = routing_digest(run_routing(build_design(name), routing))
        print(f"{key}: {entries[key]['segments_sha256'][:16]}", flush=True)
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
    min_entries = record_min()
    routing_entries = record_routing()
    if args.check:
        stale = []
        for path, got in (
            (GOLDEN_PATH, entries),
            (MIN_GOLDEN_PATH, min_entries),
            (ROUTING_GOLDEN_PATH, routing_entries),
        ):
            committed = load_golden(path)
            for key, value in sorted(committed.items()):
                if got.get(key) != value:
                    print(f"FAIL: {key} differs from {path.name}", file=sys.stderr)
                    stale.append(key)
            for key in sorted(set(got) - set(committed)):
                print(f"FAIL: {key} is missing from {path.name}", file=sys.stderr)
                stale.append(key)
        return 1 if stale else 0
    payload = {
        "schema": SCHEMA,
        # The core x engine paths that agreed on every committed entry
        # when it was recorded; a rewrite keeps that record.
        "paths_agreeing": json.loads(GOLDEN_PATH.read_text())["paths_agreeing"],
        "entries": entries,
    }
    GOLDEN_PATH.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(entries)} entries to {GOLDEN_PATH}")
    min_payload = {"schema": MIN_SCHEMA, "entries": min_entries}
    MIN_GOLDEN_PATH.write_text(
        json.dumps(min_payload, indent=1, sort_keys=True) + "\n"
    )
    print(f"wrote {len(min_entries)} entries to {MIN_GOLDEN_PATH}")
    routing_payload = {"schema": ROUTING_SCHEMA, "entries": routing_entries}
    ROUTING_GOLDEN_PATH.write_text(
        json.dumps(routing_payload, indent=1, sort_keys=True) + "\n"
    )
    print(f"wrote {len(routing_entries)} entries to {ROUTING_GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
