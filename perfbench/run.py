"""Repository benchmark: cold Table-1 analysis and an interactive ECO
session (with the repair loop in its traced run), end to end and per layer.

Run from the repository root (no build step; the program is imported from
``src/``)::

    python3 perfbench/run.py --workload table1-cold --seed 1 --seconds 45 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` makes a separate traced run on the same seeded inputs and
prints every per-layer metric, the end-to-end metric it should move, and
the tracing overhead.  Metric names and units come from ``BENCHMARK.json``.
The lines before the last are a human-readable report; the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Exits 1 when the correctness
gate fails and 2 when the program or ``BENCHMARK.json`` is missing.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Which end-to-end metric, on which workload, each per-layer metric should
# move (first matching prefix wins).
LAYER_TARGETS = [
    ("circuit.", "setup_s on all workloads"),
    ("layout.", "setup_s on table1-cold; work_s on eco-session (respace/upsize)"),
    ("flow.loads_s", "setup_s on all workloads"),
    ("edits.", "work_s on eco-session"),
    ("columnar.", "analyze.one_step_s on table1-cold; work_s on eco-session (every what-if recompiles)"),
    ("propagation.fixed.", "work_s on table1-cold (its fixed modes)"),
    ("propagation.one_step.", "analyze.one_step_s on all workloads; work_s on eco-session"),
    ("propagation.iterative.", "work_s on table1-cold (its iterative mode)"),
    ("propagation.", "analyze.one_step_s and work_s on table1-cold"),
    ("waveform.", "analyze.one_step_s and work_s on table1-cold; barely eco-session"),
    ("newton.", "analyze.one_step_s and work_s on table1-cold; barely eco-session"),
    ("iterative.", "work_s on table1-cold (its iterative mode)"),
    ("whatif.", "work_s on eco-session (what-if latency)"),
    ("slack.", "work_s on eco-session (commits, reads)"),
    ("explain_s", "work_s on eco-session (read latency)"),
    ("netreport.", "work_s on eco-session"),
    ("service.", "work_s on eco-session (read latency); failed/attempted"),
    ("repair.", "repair_s: eco-session's traced run only (no untraced repair workload)"),
    ("error_rate", "failed/attempted on every workload"),
    ("trace.", "none: traced minus untraced work, over untraced work"),
]


def layer_target(name: str) -> str:
    return next((text for prefix, text in LAYER_TARGETS if name.startswith(prefix)), "")


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=None,
                        help="design scale (default: the workload's own)")
    parser.add_argument("--golden", default=None,
                        help="golden digest file (default: perfbench/golden.json)")
    return parser.parse_args(argv)


def _line(name: str, value: float, unit: str, note: str) -> str:
    return f"  {name:<40} {value:>12.6g} {unit:<6} {note}"


def end_to_end(samples, spec) -> tuple[dict, list[str]]:
    from common import median, peak_rss_mb

    values = {
        "setup_s": samples.setup,
        "analyze.one_step_s": samples.one_step,
        "work_s": samples.work,
    }
    metrics, lines, missing = {}, [], []
    for entry in spec["end_to_end"]:
        name, unit = entry["name"], entry["unit"]
        if name == "peak_rss_mb":
            value, note = peak_rss_mb(), "n=1"
        else:
            data = values.get(name, [])
            if not data:
                missing.append(name)
            value, note = median(data), f"n={len(data)} median, reference seconds"
            if name == "work_s":
                note += f"; unit of work: {samples.work_unit}"
        metrics[name] = {"value": value, "unit": unit}
        lines.append(_line(name, value, unit, note))
    return metrics, lines, missing


def workload_figures(samples) -> list[str]:
    """The workload's own end-to-end figures (report only)."""
    from common import median, percentile

    lines = []
    for name, data in sorted(samples.extra.items()):
        if name.endswith(".latency_s"):
            kind = name[: -len(".latency_s")]
            lines.append(_line(f"{kind}.p50_s", median(data), "s", f"n={len(data)}"))
            if kind != "commit":
                lines.append(_line(f"{kind}.p90_s", percentile(data, 90), "s", f"n={len(data)}"))
        elif name.endswith("_s"):
            lines.append(_line(name, median(data), "s", f"n={len(data)} median"))
        else:
            lines.append(_line(name, median(data), "count", f"n={len(data)} median"))
    return lines


def main(argv=None) -> int:
    bench_json = ROOT / "BENCHMARK.json"
    if not (SRC / "repro" / "__init__.py").is_file() or not bench_json.is_file():
        print(f"perfbench: no program under {SRC} or no {bench_json.name}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads(bench_json.read_text())

    from common import Gate, load_golden, provenance
    from workloads import WORKLOADS

    args = parse_args(argv, WORKLOADS)
    measure, traced, default_scale = WORKLOADS[args.workload]
    scale = args.scale if args.scale is not None else default_scale
    print(f"perfbench {args.workload} seed={args.seed} scale={scale:g} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("# provenance " + json.dumps(provenance(), sort_keys=True))
    gate = Gate()
    golden = load_golden(args.golden)

    if args.trace == 0:
        samples = measure(args.seed, args.seconds, scale, gate, golden)
        metrics, lines, missing = end_to_end(samples, spec)
        print("# samples " + json.dumps({"setup": samples.setup, "one_step": samples.one_step, "work": samples.work, **samples.extra}))
        print("# laps " + json.dumps({"references": samples.clock.references,
                                      "laps": samples.clock.laps, "samples": samples.laps}))
        print("end-to-end:")
        print("\n".join(lines))
        print("workload figures:")
        print("\n".join(workload_figures(samples)))
    else:
        result = traced(args.seed, scale, gate, golden)
        layers = dict(result.layers)
        untraced, traced_s = result.untraced_work_s, result.traced_work_s
        layers["trace.overhead_frac"] = (traced_s - untraced) / untraced if untraced else 0.0
        metrics, missing = {}, []
        print("per-layer (traced pass totals) -> end-to-end metric it should move:")
        for entry in spec["per_layer"]:
            name, unit = entry["name"], entry["unit"]
            if name not in layers:
                missing.append(name)
            value = float(layers.get(name, 0.0))
            metrics[name] = {"value": value, "unit": unit}
            print(_line(name, value, unit, "-> " + layer_target(name)))
        print(f"tracing overhead: untraced work {untraced:.4f} s, traced work "
              f"{traced_s:.4f} s ({layers['trace.overhead_frac']:+.1%})")

    for name in missing:
        gate.fail(f"metric {name} has no sample")
    print(f"gate: attempted={gate.attempted} failed={gate.failed} "
          f"error_rate={gate.error_rate:.4g}")
    for message in gate.errors:
        print(f"  FAILED: {message}")
    print(json.dumps({
        "correct": gate.correct,
        "attempted": max(1, gate.attempted),
        "failed": gate.failed,
        "metrics": metrics,
    }))
    return 0 if gate.correct else 1


if __name__ == "__main__":
    sys.exit(main())
