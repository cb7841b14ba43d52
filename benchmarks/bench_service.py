"""Timing-query service benchmark: warm what-if vs cold analyze, plus a
concurrency sweep against the socket server.

Two claims are measured and pinned:

* **Warm what-if is cheap.**  On a session that has already analyzed the
  paper's Table-1 circuit, a what-if (ECO edit + incremental re-analysis
  through the migrated arc memo and shared arc cache) costs a fraction
  of a cold analysis of the same edited design -- while returning
  bit-identical delays.  Each row splits the what-if into its pass
  phases and the layers around the pass: the edit, the compile, the
  endpoint check and the rest of the request.
* **Overload never drops silently.**  Under a 1/4/16-client burst the
  server may reject with ``busy`` (429), but every rejection carries
  ``retry_after`` and every request eventually completes.

A third claim rides on the fleet (PR 8): a 16-client swarm against a
4-shard fleet **with one induced shard death mid-stream** completes
every request -- 429 retries and transparent re-routes allowed, zero
dropped or errored -- and every failed-over session keeps answering
bit-identically.  Per-shard and fleet-aggregate rows land in
``BENCH_service.json``.

Numbers go to ``BENCH_service.json`` at the repo root.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import platform
import statistics
import tempfile
import threading
import time
from pathlib import Path

import pytest

from repro.core.analyzer import CrosstalkSTA
from repro.core.constraints import minimum_period
from repro.core.modes import AnalysisMode, StaConfig
from repro.core.netreport import rank_crosstalk_nets
from repro.flow.edits import apply_edit, edit_nets
from repro.flow.optimizer import validate_repair
from repro.service import session as session_module
from repro.service import (
    FleetOptions,
    FleetRuntime,
    ServiceCallError,
    ServiceClient,
    ServiceTransportError,
    SessionManager,
    TimingServer,
    TimingService,
    backoff_delay,
)

BENCH_JSON = Path(__file__).parent.parent / "BENCH_service.json"

MODE = AnalysisMode.ONE_STEP
N_EDITS = 5
# A loose clock (the eco-session stream's), so each what-if also checks
# its endpoints and the row shows the slack layer.
WHATIF_CLOCK_PERIOD = 5e-9
CLIENT_COUNTS = (1, 4, 16)
REQUESTS_PER_CLIENT = 12
FLEET_SHARDS = 4
FLEET_CLIENTS = 16
FLEET_REQUESTS_PER_CLIENT = 6


@contextlib.contextmanager
def _captured_whatifs():
    """Collect the analysis results and the edit-application seconds of
    the what-ifs inside the block (a what-if's response carries only its
    summary; the row shows its pass split and the layers around it)."""
    results: list = []
    edit_seconds: list[float] = []
    run, apply = CrosstalkSTA.run, session_module.apply_edit

    def captured_run(self, mode=None):
        result = run(self, mode)
        results.append(result)
        return result

    def timed_apply(design, edit):
        t0 = time.perf_counter()
        applied = apply(design, edit)
        edit_seconds.append(time.perf_counter() - t0)
        return applied

    CrosstalkSTA.run = captured_run
    session_module.apply_edit = timed_apply
    try:
        yield results, edit_seconds
    finally:
        CrosstalkSTA.run = run
        session_module.apply_edit = apply


PHASE_LABELS = (
    ("gather", "gath"),
    ("base_waveforms", "base"),
    ("coupling_decisions", "dec"),
    ("final_waveforms", "final"),
    ("merge", "merge"),
)

# A warm what-if's seconds outside its pass; "other" is the rest of the
# request (analyzer set-up, the propagator's warm start, the summaries).
LAYER_LABELS = (
    ("edit_seconds", "edit"),
    ("compile_seconds", "compile"),
    ("slack_seconds", "slack"),
    ("other_seconds", "other"),
)


@pytest.fixture(scope="module")
def whatif_comparison(scale, record_result):
    manager = SessionManager(config=StaConfig(mode=MODE))
    session = manager.open(
        "gen:s35932", scale=scale, config={"clock_period": WHATIF_CLOCK_PERIOD}
    )
    t0 = time.perf_counter()
    baseline = session.analyze(MODE.value)
    first_analyze_seconds = time.perf_counter() - t0
    # Ranked by coupling exposure alone (not weighted by the clock's
    # slack), so the edits stay those of the unclocked recordings.
    exposures = rank_crosstalk_nets(session.design, baseline.final_pass, top=None)

    edits = []
    for exposure in exposures:
        if len(edits) >= N_EDITS:
            break
        couplings = session.design.loads[exposure.net].couplings
        if not couplings:
            continue
        if len(edits) % 2 == 0:
            edits.append(
                {
                    "action": "drop_coupling",
                    "net": exposure.net,
                    "neighbour": max(couplings, key=couplings.get),
                }
            )
        else:
            edits.append(
                {"action": "respace", "nets": [exposure.net], "guard_tracks": 1}
            )
    assert len(edits) == N_EDITS
    # One upsize of the most exposed net with an upsizable driver.
    edits.append(
        next(
            {"action": "upsize", "nets": [exposure.net], "steps": 1}
            for exposure in exposures
            if (driver := session.design.circuit.nets[exposure.net].driver_cell())
            is not None
            and driver.ctype.drive != "X4"
        )
    )

    rows = []
    for edit in edits:
        with _captured_whatifs() as (runs, edit_seconds):
            t0 = time.perf_counter()
            payload = session.whatif(edit, mode=MODE.value)
            warm_seconds = time.perf_counter() - t0
        warm = runs[-1]
        layers = {
            "edit_seconds": edit_seconds[-1],
            "compile_seconds": warm.compile_seconds,
            "slack_seconds": warm.slack.runtime_seconds,
        }
        layers["other_seconds"] = (
            warm_seconds - warm.runtime_seconds - sum(layers.values())
        )

        edited, _ = apply_edit(session.design, edit)
        t0 = time.perf_counter()
        cold = CrosstalkSTA(edited, session.config).run(MODE)
        cold_seconds = time.perf_counter() - t0

        rows.append(
            {
                "edit": {"action": edit["action"]},
                "warm_seconds": warm_seconds,
                "cold_seconds": cold_seconds,
                "ratio": warm_seconds / cold_seconds,
                "dirty_arcs": payload["after"]["dirty_arcs"],
                "reused_arcs": payload["after"]["reused_arcs"],
                # The warm pass walks only the edit's cone; the rest of
                # its arcs are carried from the session's last pass.
                "walked_cells": warm.final_pass.walked_cells,
                "carried_arcs": warm.final_pass.carried_arcs,
                "analysis_seconds": warm.runtime_seconds,
                "phase_seconds": dict(warm.phase_seconds),
                **layers,
                "bit_identical": payload["after"]["longest_delay_hex"]
                == float(cold.longest_delay).hex(),
            }
        )

    median_ratio = statistics.median(r["ratio"] for r in rows)
    lines = [
        f"Warm what-if vs cold analyze (s35932-like at scale {scale}, {MODE.value}, "
        f"clock {WHATIF_CLOCK_PERIOD * 1e9:g} ns)",
        "",
        f"first analyze (cold session): {first_analyze_seconds:.2f} s",
        "",
        f"{'edit':<14} {'warm s':>8} {'cold s':>8} {'ratio':>7} "
        f"{'dirty':>6} {'reused':>7} {'walked':>7} {'carried':>8} {'bit-id':>7}",
        "-" * 82,
    ]
    for row in rows:
        lines.append(
            f"{row['edit']['action']:<14} {row['warm_seconds']:>8.3f} "
            f"{row['cold_seconds']:>8.3f} {row['ratio']:>7.2f} "
            f"{row['dirty_arcs']:>6d} {row['reused_arcs']:>7d} "
            f"{row['walked_cells']:>7d} {row['carried_arcs']:>8d} "
            f"{'yes' if row['bit_identical'] else 'NO':>7}"
        )
    lines.append("-" * 82)
    lines.append(f"median warm/cold ratio: {median_ratio:.2f}")
    lines += [
        "",
        "Warm what-if pass split (ms; walked cells of "
        f"{len(session.sta.compiled_design().cells)})",
        "",
        f"{'edit':<14} {'pass':>7} "
        + " ".join(f"{label:>7}" for _, label in PHASE_LABELS),
        "-" * 62,
    ]
    for row in rows:
        lines.append(
            f"{row['edit']['action']:<14} {row['analysis_seconds'] * 1e3:>7.1f} "
            + " ".join(
                f"{row['phase_seconds'][phase] * 1e3:>7.1f}"
                for phase, _ in PHASE_LABELS
            )
        )
    lines += [
        "",
        "Warm what-if layers outside the pass (ms)",
        "",
        f"{'edit':<14} {'warm':>7} {'pass':>7} "
        + " ".join(f"{label:>7}" for _, label in LAYER_LABELS),
        "-" * 54,
    ]
    for row in rows:
        lines.append(
            f"{row['edit']['action']:<14} {row['warm_seconds'] * 1e3:>7.1f} "
            f"{row['analysis_seconds'] * 1e3:>7.1f} "
            + " ".join(f"{row[key] * 1e3:>7.1f}" for key, _ in LAYER_LABELS)
        )
    record_result("service_whatif", "\n".join(lines))

    return {
        "first_analyze_seconds": first_analyze_seconds,
        "rows": rows,
        "median_ratio": median_ratio,
    }


REPAIR_MAX_EDITS = 4
REPAIR_BEAM = 3


@pytest.fixture(scope="module")
def repair_run(scale, record_result):
    """Autonomous repair economics on a warm session.

    A clock just below the design's minimum period leaves a small
    negative worst slack; the optimizer closes it (or exhausts its
    budget) through warm what-if evaluations, with exactly one cold
    analysis -- the final bit-identity verify."""
    manager = SessionManager(config=StaConfig(mode=MODE))
    probe = manager.open("gen:s35932", scale=scale)
    clock_period = 0.99 * minimum_period(probe.analyze(MODE.value))
    manager.close(probe.session_id)

    session = manager.open(
        "gen:s35932", scale=scale, config={"clock_period": clock_period}
    )
    session.analyze(MODE.value)
    t0 = time.perf_counter()
    transcript = session.repair(
        mode=MODE.value,
        max_edits=REPAIR_MAX_EDITS,
        beam=REPAIR_BEAM,
        cold_verify=True,
    )
    repair_seconds = time.perf_counter() - t0
    validate_repair(transcript)

    committed = [
        {
            "action": entry["committed"]["action"],
            "nets": edit_nets(entry["committed"]),
            "improvement_ps": (
                entry["worst_slack_after"] - entry["worst_slack_before"]
            )
            * 1e12,
        }
        for entry in transcript["rounds"]
        if entry["committed"] is not None
    ]
    section = {
        "clock_period": clock_period,
        "baseline_worst_slack": transcript["baseline"]["worst_slack"],
        "final_worst_slack": transcript["final"]["worst_slack"],
        "met": transcript["final"]["met"],
        "stop_reason": transcript["stop_reason"],
        "seconds": repair_seconds,
        "edits_committed": transcript["edits_committed"],
        "evaluations": transcript["evaluations"],
        "cold_analyses": transcript["cold_analyses"],
        "warm": transcript["warm"],
        "cold_verify_identical": transcript["cold_verify"]["identical"],
        "committed": committed,
    }

    lines = [
        f"Autonomous repair (s35932-like at scale {scale}, {MODE.value}, "
        f"clock {clock_period * 1e9:.3f} ns = 0.99 x minimum period)",
        "",
        f"worst slack {section['baseline_worst_slack'] * 1e12:+.1f} -> "
        f"{section['final_worst_slack'] * 1e12:+.1f} ps "
        f"({'met' if section['met'] else section['stop_reason']}) "
        f"in {repair_seconds:.1f} s",
        f"{section['edits_committed']} edits committed, "
        f"{section['evaluations']} warm evaluations, "
        f"{section['cold_analyses']} cold analyses "
        f"(warm reuse {section['warm']['reuse_ratio']:.1%}), "
        f"cold verify {'bit-identical' if section['cold_verify_identical'] else 'MISMATCH'}",
        "",
        f"{'action':<14} {'nets':<24} {'gain ps':>8}",
        "-" * 48,
    ]
    for row in committed:
        lines.append(
            f"{row['action']:<14} {','.join(row['nets']):<24} "
            f"{row['improvement_ps']:>8.2f}"
        )
    record_result("service_repair", "\n".join(lines))
    return section


def _start_server(service):
    server = TimingServer(service, host="127.0.0.1", port=0)
    ready = threading.Event()

    def run():
        async def main():
            await server.start()
            ready.set()
            await server.serve_until_shutdown()

        asyncio.run(main())

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert ready.wait(15)
    return server, thread


@pytest.fixture(scope="module")
def concurrency_sweep(record_result):
    service = TimingService(
        config=StaConfig(mode=MODE), workers=4, queue_limit=8
    )
    server, thread = _start_server(service)
    with ServiceClient(server.address) as setup:
        sid = setup.open_session("s27")["session"]
        setup.analyze(sid)  # warm the shared session
        report = setup.net_report(sid, top=3)
        nets = [entry["net"] for entry in report["nets"]]

    sweeps = []
    for n_clients in CLIENT_COUNTS:
        latencies: list[float] = []
        busy_retries = [0]
        dropped_without_retry_after = [0]
        failures: list[str] = []
        lock = threading.Lock()

        def worker(index: int) -> None:
            try:
                with ServiceClient(server.address) as client:
                    for i in range(REQUESTS_PER_CLIENT):
                        net = nets[(index + i) % len(nets)]
                        t0 = time.perf_counter()
                        while True:
                            try:
                                client.query_net(sid, net)
                                break
                            except ServiceCallError as exc:
                                if exc.code != 429:
                                    raise
                                if exc.retry_after is None:
                                    with lock:
                                        dropped_without_retry_after[0] += 1
                                    return
                                with lock:
                                    busy_retries[0] += 1
                                time.sleep(exc.retry_after)
                        with lock:
                            latencies.append(time.perf_counter() - t0)
            except Exception as exc:  # pragma: no cover - diagnostic only
                with lock:
                    failures.append(f"{type(exc).__name__}: {exc}")

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(n_clients)
        ]
        t0 = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join(120)
        elapsed = time.perf_counter() - t0

        completed = len(latencies)
        latencies.sort()
        sweeps.append(
            {
                "clients": n_clients,
                "requests": n_clients * REQUESTS_PER_CLIENT,
                "completed": completed,
                "seconds": elapsed,
                "requests_per_second": completed / elapsed if elapsed else 0.0,
                "p50_seconds": latencies[completed // 2] if completed else None,
                "p95_seconds": latencies[int(completed * 0.95)] if completed else None,
                "busy_retries": busy_retries[0],
                "dropped_without_retry_after": dropped_without_retry_after[0],
                "failures": failures,
            }
        )

    with ServiceClient(server.address) as closer:
        closer.call_with_retry("shutdown")
    thread.join(30)

    lines = [
        "Concurrency sweep (s27 session, query_net, 4 workers + queue 8)",
        "",
        f"{'clients':>8} {'reqs':>6} {'done':>6} {'req/s':>8} "
        f"{'p50 ms':>8} {'p95 ms':>8} {'429s':>6} {'dropped':>8}",
        "-" * 66,
    ]
    for sweep in sweeps:
        lines.append(
            f"{sweep['clients']:>8d} {sweep['requests']:>6d} {sweep['completed']:>6d} "
            f"{sweep['requests_per_second']:>8.1f} "
            f"{(sweep['p50_seconds'] or 0) * 1e3:>8.1f} "
            f"{(sweep['p95_seconds'] or 0) * 1e3:>8.1f} "
            f"{sweep['busy_retries']:>6d} {sweep['dropped_without_retry_after']:>8d}"
        )
    record_result("service_concurrency", "\n".join(lines))
    return sweeps


def _fleet_call(client, method, params, outcome, max_attempts=60):
    """One fleet request, waiting out 429s and transparently reconnecting
    across shard failover; outcome counters record how bumpy it was."""
    failure = None
    for attempt in range(max_attempts):
        try:
            return client.call(method, params)
        except ServiceCallError as exc:
            if exc.code != 429:
                raise
            failure = exc
            outcome["busy_retries"] += 1
            time.sleep(backoff_delay(attempt, floor=exc.retry_after or 0.0, cap=1.0))
        except ServiceTransportError as exc:
            if not client._reconnect():
                raise
            failure = exc
            outcome["reroutes"] += 1
            time.sleep(backoff_delay(attempt, cap=1.0))
    raise failure


@pytest.fixture(scope="module")
def fleet_swarm(record_result):
    """16-client swarm vs a 4-shard fleet with one induced shard death.

    Every client opens its own session (distinct scales spread them
    around the placement ring), pins a baseline ``longest_delay_hex``,
    then streams queries while the main thread SIGKILLs the busiest
    shard.  The supervised fleet must absorb it: zero dropped or errored
    requests (429 retries and reconnect re-routes allowed) and every
    post-failover answer bit-identical to the pre-kill baseline."""
    log_dir = Path(tempfile.mkdtemp(prefix="repro-fleet-bench-"))
    options = FleetOptions(
        shards=FLEET_SHARDS,
        workers=2,
        queue_limit=8,
        max_sessions=2 * FLEET_CLIENTS,
    )
    runtime = FleetRuntime(
        options,
        access_log=str(log_dir / "router.log"),
        supervise=True,
        probe_interval=0.25,
        probe_timeout=1.0,
    )
    runtime.start()
    # Workers pause at kill_gate halfway through their streams; the main
    # thread kills a shard there and releases them via killed -- so the
    # death deterministically lands mid-stream for every client.
    kill_gate = threading.Barrier(FLEET_CLIENTS + 1)
    killed = threading.Event()
    latencies: list[float] = []
    outcomes = [
        {"busy_retries": 0, "reroutes": 0, "mismatches": 0}
        for _ in range(FLEET_CLIENTS)
    ]
    completed = [0]
    failures: list[str] = []
    lock = threading.Lock()

    def worker(rank: int) -> None:
        outcome = outcomes[rank]
        try:
            with ServiceClient(runtime.address) as client:
                opened = _fleet_call(
                    client,
                    "open_session",
                    {
                        "netlist": "s27",
                        "scale": 0.05 + rank * 0.01,
                        "config": {"mode": MODE.value},
                    },
                    outcome,
                )
                sid = opened["session"]
                baseline = _fleet_call(
                    client, "analyze", {"session": sid}, outcome
                )["longest_delay_hex"]
                for i in range(FLEET_REQUESTS_PER_CLIENT):
                    if i == FLEET_REQUESTS_PER_CLIENT // 2:
                        kill_gate.wait(timeout=120)
                        killed.wait(timeout=120)
                    t0 = time.perf_counter()
                    summary = _fleet_call(
                        client, "analyze", {"session": sid}, outcome
                    )
                    elapsed = time.perf_counter() - t0
                    with lock:
                        latencies.append(elapsed)
                        completed[0] += 1
                    if summary["longest_delay_hex"] != baseline:
                        outcome["mismatches"] += 1
        except Exception as exc:
            with lock:
                failures.append(f"client {rank}: {type(exc).__name__}: {exc}")
            kill_gate.abort()

    threads = [
        threading.Thread(target=worker, args=(rank,))
        for rank in range(FLEET_CLIENTS)
    ]
    t0 = time.perf_counter()
    for t in threads:
        t.start()

    # Mid-stream chaos: SIGKILL the shard carrying the most sessions.
    victim = -1
    try:
        kill_gate.wait(timeout=120)
        with ServiceClient(runtime.address) as observer:
            rows = observer.stats()["shards"]
            victim = max(
                (row for row in rows if row["alive"]),
                key=lambda row: row.get("sessions") or 0,
            )["shard"]
        runtime.fleet.kill(victim)
    except threading.BrokenBarrierError:
        pass  # a worker already failed; its error is in `failures`
    finally:
        killed.set()

    for t in threads:
        t.join(180)
    elapsed = time.perf_counter() - t0

    with ServiceClient(runtime.address) as observer:
        stats = observer.stats()
    events: dict[str, int] = {}
    log_path = log_dir / "router.log"
    if log_path.exists():
        for line in log_path.read_text().splitlines():
            entry = json.loads(line)
            if "event" in entry:
                events[entry["event"]] = events.get(entry["event"], 0) + 1
    runtime.stop()

    per_shard = [
        {
            "shard": row["shard"],
            "alive": row["alive"],
            "restarts": row["restarts"],
            "sessions": row.get("sessions"),
            "in_flight": row.get("in_flight"),
            "queue_depth": row.get("queue_depth"),
        }
        for row in stats["shards"]
    ]
    latencies.sort()
    n = len(latencies)
    section = {
        "shards": FLEET_SHARDS,
        "clients": FLEET_CLIENTS,
        "requests": FLEET_CLIENTS * FLEET_REQUESTS_PER_CLIENT,
        "completed": completed[0],
        "seconds": elapsed,
        "p50_seconds": latencies[n // 2] if n else None,
        "p95_seconds": latencies[int(n * 0.95)] if n else None,
        "killed_shard": victim,
        "busy_retries": sum(o["busy_retries"] for o in outcomes),
        "reroutes": sum(o["reroutes"] for o in outcomes),
        "mismatches": sum(o["mismatches"] for o in outcomes),
        "failures": failures,
        "events": events,
        "per_shard": per_shard,
        "fleet": stats["fleet"],
    }

    lines = [
        f"Fleet swarm ({FLEET_CLIENTS} clients x {FLEET_REQUESTS_PER_CLIENT} "
        f"analyzes, {FLEET_SHARDS} shards, shard {victim} SIGKILLed mid-stream)",
        "",
        f"completed {section['completed']}/{section['requests']} in "
        f"{elapsed:.1f}s  (p50 {1e3 * (section['p50_seconds'] or 0):.1f} ms, "
        f"p95 {1e3 * (section['p95_seconds'] or 0):.1f} ms)",
        f"429 retries: {section['busy_retries']}  reroutes: "
        f"{section['reroutes']}  mismatches: {section['mismatches']}  "
        f"failures: {len(failures)}",
        f"fleet: deaths={section['fleet']['shard_deaths']} "
        f"failovers={section['fleet']['failovers']} "
        f"handoff_retries={section['fleet']['handoff_retries']}",
        "",
        f"{'shard':>6} {'alive':>6} {'restarts':>9} {'sessions':>9} "
        f"{'in_flight':>10}",
        "-" * 46,
    ]
    for row in per_shard:
        lines.append(
            f"{row['shard']:>6d} {'yes' if row['alive'] else 'NO':>6} "
            f"{row['restarts']:>9d} {row['sessions'] if row['sessions'] is not None else '-':>9} "
            f"{row['in_flight'] if row['in_flight'] is not None else '-':>10}"
        )
    record_result("service_fleet", "\n".join(lines))
    return section


@pytest.fixture(scope="module")
def persisted(
    whatif_comparison,
    repair_run,
    concurrency_sweep,
    fleet_swarm,
    scale,
):
    payload = {
        "benchmark": "service",
        "circuit": "s35932_like",
        "scale": scale,
        "mode": MODE.value,
        "python": platform.python_version(),
        "whatif": whatif_comparison,
        "repair": repair_run,
        "concurrency": concurrency_sweep,
        "fleet": fleet_swarm,
    }
    BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n")
    return payload


def test_warm_whatif_beats_cold_analyze(persisted, benchmark):
    """The headline claim: a warm what-if costs at most 35% of a cold
    analysis of the same edited design."""
    ratio = persisted["whatif"]["median_ratio"]
    assert ratio <= 0.35, f"median warm/cold ratio {ratio:.2f} exceeds 0.35"
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_warm_whatif_is_bit_identical(persisted, benchmark):
    for row in persisted["whatif"]["rows"]:
        assert row["bit_identical"], row
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_warm_whatif_carries_cells_outside_the_cone(persisted, benchmark):
    """A one-step what-if walks only the cells its edit can reach; a
    drop_coupling reaches a minority of them."""
    for row in persisted["whatif"]["rows"]:
        assert row["carried_arcs"] <= row["reused_arcs"], row
        if row["edit"]["action"] == "drop_coupling":
            assert row["carried_arcs"] > row["dirty_arcs"], row
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_repair_improves_monotonically(persisted, benchmark):
    """The optimizer never worsens worst slack, and every committed
    edit bought a strict improvement."""
    section = persisted["repair"]
    assert section["final_worst_slack"] >= section["baseline_worst_slack"]
    for row in section["committed"]:
        assert row["improvement_ps"] > 0.0, row
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_repair_warm_economics(persisted, benchmark):
    """Every candidate was evaluated warm: the only cold analysis in a
    whole repair run is the final bit-identity verify."""
    section = persisted["repair"]
    assert section["cold_analyses"] == 1
    assert section["evaluations"] > section["edits_committed"]
    assert section["warm"]["reuse_ratio"] > 0.5
    assert section["cold_verify_identical"]
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_overload_never_drops_silently(persisted, benchmark):
    for sweep in persisted["concurrency"]:
        assert sweep["failures"] == []
        assert sweep["dropped_without_retry_after"] == 0
        assert sweep["completed"] == sweep["requests"]
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_fleet_swarm_survives_shard_death(persisted, benchmark):
    """The PR 8 robustness claim: one shard SIGKILLed under a 16-client
    swarm costs zero dropped or errored requests, and every failed-over
    session keeps answering bit-identically."""
    fleet = persisted["fleet"]
    assert fleet["failures"] == [], fleet["failures"]
    assert fleet["completed"] == fleet["requests"]
    assert fleet["mismatches"] == 0
    # The kill was real and the fleet noticed it.
    assert fleet["fleet"]["shard_deaths"] >= 1 or fleet["events"].get(
        "shard_down", 0
    ) >= 1
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_fleet_rows_recorded(persisted, benchmark):
    """BENCH_service.json carries one row per shard plus the fleet
    aggregate, so regressions in failover accounting are pinned."""
    fleet = persisted["fleet"]
    assert len(fleet["per_shard"]) == FLEET_SHARDS
    assert {row["shard"] for row in fleet["per_shard"]} == set(range(FLEET_SHARDS))
    for key in ("shards", "alive", "sessions", "failovers", "shard_deaths"):
        assert key in fleet["fleet"], key
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
