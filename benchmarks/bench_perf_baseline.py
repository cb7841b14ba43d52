"""Per-mode runtime baseline of the propagation path, plus a scale sweep.

Runs every analysis mode on the s35932-like circuit and records
wall-clock, arcs/second and the per-pass work series (how the
delta-driven engine's work decays over the iterative passes), then the
four min-delay modes, each on a cold calculator.  A second
section times the scalar stage solver against the batch solver per key
at batch sizes 1-256, the evidence behind ``MIN_BATCH``.  A third
sweeps the circuit scale (0.05 / 0.2 / 1.0 -- the last is the paper's
full-size s35932) and times the one-step analysis, recording the
physical design's place / route / extract seconds, compile time and peak
RSS per run.  ``REPRO_SWEEP_MAX=<float>`` caps the sweep's largest scale
for quick local runs.

Besides the human-readable results blocks, the numbers are written
machine-readable to ``BENCH_sta_runtime.json`` at the repo root so CI and
future sessions can track regressions
(``benchmarks/check_perf_trajectory.py`` diffs against it).
"""

from __future__ import annotations

import contextlib
import json
import os
import platform
import random
import resource
import statistics
import time
from pathlib import Path

import pytest

from repro.circuit import s35932_like
from repro.core.analyzer import CrosstalkSTA
from repro.core.minpath import MinAnalysisMode, MinPropagator
from repro.core.modes import AnalysisMode, StaConfig
from repro.flow import design as flow_design
from repro.flow import prepare_design
from repro.waveform.gatedelay import MIN_BATCH, GateDelayCalculator

BENCH_JSON = Path(__file__).parent.parent / "BENCH_sta_runtime.json"

# The solver crossover's batch sizes, timing repeats (the median is
# recorded) and sampling seed.
CROSSOVER_SIZES = (1, 2, 3, 4, 6, 8, 16, 24, 32, 48, 64, 96, 128, 192, 256)
CROSSOVER_REPEATS = 5
CROSSOVER_SEED = 1000

# The scale sweep's points; 1.0 is the paper's full-size s35932, the
# smaller points keep the curve's shape visible.
SWEEP_SCALES = (0.05, 0.2, 1.0)
SWEEP_MODE = AnalysisMode.ONE_STEP

# The throughput floor at scale 1.0 is 5x the one-step arcs/s the
# object-graph core reached with the batch engine before the columnar
# core replaced it (BENCH_sta_runtime.json @ 49e0456).
OBJECT_BASELINE_APS = 1385.0
FULL_SCALE_TARGET_SPEEDUP = 5.0


def _peak_rss_mb() -> float:
    """Process-lifetime peak resident set in MiB (ru_maxrss is KiB on
    Linux).  Monotone over the process, so the sweep runs smallest scale
    first and each row's figure is the high-water mark up to that run."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@contextlib.contextmanager
def _timed_physical_design():
    """Yield a dict that gets the seconds of each place, route and
    extract call ``prepare_design`` makes, by name.  The functions are
    module attributes of ``repro.flow.design``, swapped for timed
    wrappers while the block runs."""
    seconds: dict[str, float] = {}
    saved = {name: getattr(flow_design, name) for name in ("place", "route", "extract")}

    def timed(name, fn):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            seconds[name] = time.perf_counter() - t0
            return result

        return wrapper

    for name, fn in saved.items():
        setattr(flow_design, name, timed(name, fn))
    try:
        yield seconds
    finally:
        for name, fn in saved.items():
            setattr(flow_design, name, fn)


@pytest.fixture(scope="module")
def mode_runs(scale, record_result):
    design = prepare_design(s35932_like(scale=scale))
    rows = []
    for mode in AnalysisMode:
        # A fresh analyzer per mode: no cache sharing between rows.
        sta = CrosstalkSTA(design, StaConfig(mode=mode))
        t0 = time.perf_counter()
        result = sta.run()
        seconds = time.perf_counter() - t0
        rows.append(
            {
                "mode": mode.value,
                "seconds": seconds,
                "longest_delay": result.longest_delay,
                "arcs_processed": result.arcs_processed,
                "waveform_evaluations": result.waveform_evaluations,
                "arcs_per_second": result.arcs_processed / seconds,
                "passes": result.passes,
                "batched_solves": result.cache_stats["batched_solves"],
                # Per-pass series: how the delta-driven engine's work
                # decays over the iterative passes (pass 1 pays in full,
                # later passes only re-solve dirty arcs).
                "pass_series": [
                    {
                        "index": record.index,
                        "seconds": record.seconds,
                        "waveform_evaluations": record.waveform_evaluations,
                        "cache_evaluations": record.cache_evaluations,
                        "dedup_hits": record.cache_dedup_hits,
                        "persisted_hits": record.cache_persisted_hits,
                        "dirty_arcs": record.dirty_arcs,
                        "reused_arcs": record.reused_arcs,
                    }
                    for record in result.history
                ],
                # Per-run metrics delta (counters/gauges/histograms) so CI
                # can track solver behaviour, not just wall-clock.
                "metrics": result.telemetry.metrics if result.telemetry else {},
            }
        )

    lines = [
        f"Per-mode runtime (s35932-like at scale {scale})",
        "",
        f"{'mode':<16} {'seconds':>8} {'arcs/s':>8} {'evals':>7} "
        f"{'batched':>8} {'passes':>7}",
        "-" * 59,
    ]
    for row in rows:
        lines.append(
            f"{row['mode']:<16} {row['seconds']:>8.2f} "
            f"{row['arcs_per_second']:>8.0f} {row['waveform_evaluations']:>7} "
            f"{row['batched_solves']:>8} {row['passes']:>7}"
        )
    record_result("perf_baseline", "\n".join(lines))

    # Replace only this fixture's keys: the other fixtures and
    # bench_obs_overhead.py graft their own sections onto the file.
    payload = json.loads(BENCH_JSON.read_text()) if BENCH_JSON.exists() else {}
    payload.update(
        {
            "benchmark": "sta_runtime",
            "circuit": "s35932_like",
            "scale": scale,
            "python": platform.python_version(),
            "modes": rows,
        }
    )
    BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n")
    return rows


@pytest.fixture(scope="module")
def min_delay_runs(scale, record_result, mode_runs):
    """The four min-delay modes, each on a fresh propagator (a cold arc
    cache).  Min-delay resolves every arc through ``compute_arc_relative``,
    so each of its solves is a scalar one.  Depends on ``mode_runs`` so
    the BENCH_JSON graft lands on its payload."""
    design = prepare_design(s35932_like(scale=scale))
    compiled = CrosstalkSTA(design).compiled_design()
    rows = []
    for mode in MinAnalysisMode:
        propagator = MinPropagator(design, compiled=compiled)
        t0 = time.perf_counter()
        result = propagator.run(mode)
        seconds = time.perf_counter() - t0
        stats = propagator.calculator.cache_stats()
        rows.append(
            {
                "mode": mode.value,
                "seconds": seconds,
                "shortest_delay": result.shortest_delay,
                "shortest_delay_hex": result.shortest_delay.hex(),
                "waveform_evaluations": result.waveform_evaluations,
                "solves": stats["evaluations"],
                "batched_solves": stats["batched_solves"],
                "passes": result.passes,
            }
        )

    lines = [
        f"Min-delay modes (s35932-like at scale {scale}, cold calculator each)",
        "",
        f"{'mode':<16} {'seconds':>8} {'evals':>7} {'solves':>7} {'passes':>7} "
        f"{'shortest ns':>12}",
        "-" * 62,
    ]
    for row in rows:
        lines.append(
            f"{row['mode']:<16} {row['seconds']:>8.2f} "
            f"{row['waveform_evaluations']:>7} {row['solves']:>7} "
            f"{row['passes']:>7} {row['shortest_delay'] * 1e9:>12.3f}"
        )
    record_result("perf_min_delay", "\n".join(lines))

    payload = json.loads(BENCH_JSON.read_text())
    payload["min_delay"] = rows
    BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n")
    return rows


def _primed_calculator(process, stages) -> GateDelayCalculator:
    """A fresh calculator (empty arc cache) whose stage tables and batch
    solver are already built, so a timed solve pays for solving only."""
    calc = GateDelayCalculator(process=process)
    for ctype, pin in stages:
        calc._solver_for_token(calc.signature(ctype, pin))
    calc._batch_solver_current()
    return calc


@pytest.fixture(scope="module")
def solver_crossover(scale, record_result, mode_runs):
    """Scalar vs batch stage solver, milliseconds per key by batch size.

    ``GateDelayCalculator._solve_misses`` sends a batch of fewer than
    ``MIN_BATCH`` distinct keys to the scalar solver, one key at a time,
    and larger batches to one vectorized integration.  Both produce the
    same results, so the threshold is a pure cost choice.  The keys are
    the distinct canonical situations of a one-step run on the bench
    design.  Per batch size, each repeat draws a seeded sample and times
    ``_solve_key`` over it against one ``_batch_solve`` of it, each on a
    fresh primed calculator; the median of the repeats is recorded.
    Depends on ``mode_runs`` so the BENCH_JSON graft lands on its
    payload."""
    design = prepare_design(s35932_like(scale=scale))
    sta = CrosstalkSTA(design, StaConfig(mode=AnalysisMode.ONE_STEP))
    sta.run()
    keys = list(sta.calculator._arc_cache)
    stages = list(sta.calculator._sig_rep.values())
    rng = random.Random(CROSSOVER_SEED)
    rows = []
    for size in CROSSOVER_SIZES:
        scalar_seconds, batch_seconds = [], []
        for _ in range(CROSSOVER_REPEATS):
            sample = rng.sample(keys, size)
            calc = _primed_calculator(design.process, stages)
            t0 = time.perf_counter()
            for key in sample:
                calc._solve_key(key)
            scalar_seconds.append(time.perf_counter() - t0)
            calc = _primed_calculator(design.process, stages)
            t0 = time.perf_counter()
            calc._batch_solve(sample)
            batch_seconds.append(time.perf_counter() - t0)
        rows.append(
            {
                "size": size,
                "scalar_ms_per_key": statistics.median(scalar_seconds) / size * 1e3,
                "batch_ms_per_key": statistics.median(batch_seconds) / size * 1e3,
            }
        )
    batch_from = next(
        (
            row["size"]
            for row in rows
            if row["batch_ms_per_key"] < row["scalar_ms_per_key"]
        ),
        None,
    )

    lines = [
        f"Scalar vs batch stage solver, ms per key (s35932-like at scale "
        f"{scale}: {len(keys)} distinct one-step keys, median of "
        f"{CROSSOVER_REPEATS} seeded samples)",
        "",
        f"{'size':>5} {'scalar ms/key':>14} {'batch ms/key':>13} {'cheaper':>8}",
        "-" * 43,
    ]
    for row in rows:
        cheaper = (
            "batch" if row["batch_ms_per_key"] < row["scalar_ms_per_key"] else "scalar"
        )
        lines.append(
            f"{row['size']:>5} {row['scalar_ms_per_key']:>14.2f} "
            f"{row['batch_ms_per_key']:>13.2f} {cheaper:>8}"
        )
    lines += [
        "",
        f"MIN_BATCH = {MIN_BATCH}; the batch solver is first cheaper per key "
        f"at size {batch_from}",
    ]
    record_result("perf_solver_crossover", "\n".join(lines))

    payload = json.loads(BENCH_JSON.read_text())
    payload["solver_crossover"] = {
        "mode": AnalysisMode.ONE_STEP.value,
        "keys": len(keys),
        "seed": CROSSOVER_SEED,
        "repeats": CROSSOVER_REPEATS,
        "min_batch": MIN_BATCH,
        "batch_cheaper_from": batch_from,
        "sizes": rows,
    }
    BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n")
    return rows


def test_iterative_pass_work_decays(mode_runs, benchmark):
    """Delta-driven reuse: from the second pass on, at most 30% of the
    first pass's waveform evaluations are issued."""
    row = next(r for r in mode_runs if r["mode"] == AnalysisMode.ITERATIVE.value)
    series = row["pass_series"]
    assert len(series) >= 2, "iterative converged in one pass"
    first = series[0]["waveform_evaluations"]
    for later in series[1:]:
        assert later["waveform_evaluations"] <= 0.30 * first, (
            f"pass {later['index']} issued "
            f"{later['waveform_evaluations']} of {first} evaluations"
        )
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_solver_crossover_ends(solver_crossover, benchmark):
    """Only the robust ends of the crossover are asserted: one key is
    cheaper on the scalar solver, the widest batch on the batch solver.
    Where between them the batch solver starts to win is recorded, not
    asserted."""
    by_size = {row["size"]: row for row in solver_crossover}
    single, wide = by_size[1], by_size[CROSSOVER_SIZES[-1]]
    assert single["scalar_ms_per_key"] < single["batch_ms_per_key"], single
    assert wide["batch_ms_per_key"] < wide["scalar_ms_per_key"], wide
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_min_delay_modes_ordered(min_delay_runs, benchmark):
    """Min-delay ordering: all-helping coupling gives the earliest bound,
    the window modes tighten it, no coupling is latest."""
    delay = {row["mode"]: row["shortest_delay"] for row in min_delay_runs}
    assert delay["min_worst"] <= delay["min_one_step"] + 1e-12
    assert delay["min_one_step"] <= delay["min_iterative"] + 1e-12
    assert delay["min_iterative"] <= delay["min_no_coupling"] + 1e-12
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_mode_ordering_holds(mode_runs, benchmark):
    """Mode ordering (best <= one-step <= worst, iterative <= one-step)
    holds for the reported delays."""
    delays = {row["mode"]: row["longest_delay"] for row in mode_runs}
    guard = StaConfig().guard
    assert delays["best_case"] <= delays["one_step"] + guard
    assert delays["one_step"] <= delays["worst_case"] + guard
    assert delays["iterative"] <= delays["one_step"] + guard
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


@pytest.fixture(scope="module")
def scale_sweep(record_result, mode_runs):
    """One-step analysis across circuit scales.

    Ordered smallest scale first so the peak-RSS column (a process-wide
    high-water mark) is dominated by each row's own run.  Depends on
    ``mode_runs`` so the BENCH_JSON graft lands on its payload."""
    sweep_max = float(os.environ.get("REPRO_SWEEP_MAX", "1.0"))
    rows = []
    for sweep_scale in SWEEP_SCALES:
        if sweep_scale > sweep_max:
            continue
        circuit = s35932_like(scale=sweep_scale)
        with _timed_physical_design() as physical:
            design = prepare_design(circuit)
        sta = CrosstalkSTA(design, StaConfig(mode=SWEEP_MODE))
        t0 = time.perf_counter()
        result = sta.run()
        seconds = time.perf_counter() - t0
        rows.append(
            {
                "scale": sweep_scale,
                "mode": SWEEP_MODE.value,
                "place_seconds": physical["place"],
                "route_seconds": physical["route"],
                "extract_seconds": physical["extract"],
                "seconds": seconds,
                "compile_seconds": result.compile_seconds,
                "arcs_processed": result.arcs_processed,
                "arcs_per_second": result.arcs_processed / seconds,
                "longest_delay": result.longest_delay,
                "peak_rss_mb": _peak_rss_mb(),
            }
        )

    lines = [
        "Scale sweep (s35932-like, one-step; place / route / extract are the",
        "physical design's seconds, seconds / arcs/s / compile s the analysis')",
        "",
        f"{'scale':>6} {'place s':>8} {'route s':>8} {'extract s':>10} "
        f"{'arcs':>7} {'seconds':>8} {'arcs/s':>8} {'compile s':>10} {'rss MB':>8}",
        "-" * 81,
    ]
    for row in rows:
        lines.append(
            f"{row['scale']:>6.2f} {row['place_seconds']:>8.2f} "
            f"{row['route_seconds']:>8.2f} {row['extract_seconds']:>10.2f} "
            f"{row['arcs_processed']:>7} "
            f"{row['seconds']:>8.2f} {row['arcs_per_second']:>8.0f} "
            f"{row['compile_seconds']:>10.3f} {row['peak_rss_mb']:>8.0f}"
        )
    record_result("perf_scale_sweep", "\n".join(lines))

    payload = json.loads(BENCH_JSON.read_text())
    payload["scale_sweep"] = {
        "mode": SWEEP_MODE.value,
        "object_baseline_arcs_per_second": OBJECT_BASELINE_APS,
        "scales": rows,
    }
    BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n")
    return rows


def test_full_scale_throughput_floor(scale_sweep, benchmark):
    """Full-size s35932 (scale 1.0) one-step completes at >= 5x the
    committed object-core baseline's arcs/s."""
    full = [row for row in scale_sweep if row["scale"] >= 1.0]
    if not full:
        pytest.skip("sweep capped below scale 1.0 (REPRO_SWEEP_MAX)")
    aps = full[0]["arcs_per_second"]
    floor = FULL_SCALE_TARGET_SPEEDUP * OBJECT_BASELINE_APS
    assert aps >= floor, (
        f"scale-1.0 throughput {aps:,.0f} arcs/s is below the "
        f"{FULL_SCALE_TARGET_SPEEDUP:.0f}x target over the committed "
        f"{OBJECT_BASELINE_APS:,.0f} arcs/s baseline"
    )
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_compile_amortizes_at_bench_scale(scale_sweep, benchmark):
    """The one-time design compile must stay a small fraction of even
    the smallest sweep point's solve time (<= 10% at scale 0.05)."""
    row = scale_sweep[0]
    assert row["compile_seconds"] <= 0.10 * row["seconds"], (
        f"compile {row['compile_seconds']:.3f}s exceeds 10% of the "
        f"{row['seconds']:.3f}s solve at scale {row['scale']}"
    )
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
