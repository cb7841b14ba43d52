"""Command-line interface.

Usage examples::

    python -m repro info s27
    python -m repro analyze s27 --all-modes
    python -m repro analyze path/to/netlist.bench --mode iterative --report-nets
    python -m repro analyze gen:s35932 --scale 0.05 --simulate
    python -m repro generate s38417 --scale 0.1 -o s38417_like.bench
    python -m repro serve --port 9227
    python -m repro client --connect 127.0.0.1:9227 ping

``serve`` starts the long-running timing-query service (persistent
design sessions, incremental what-if analysis; see docs/SERVICE.md) and
``client`` sends it one request and prints the JSON response.

Netlist specifiers (shared with the service's ``open_session``):

* ``s27`` -- the embedded genuine ISCAS89 benchmark,
* ``gen:s35932`` / ``gen:s38417`` / ``gen:s38584`` -- the synthetic
  paper-circuit stand-ins (sized by ``--scale``),
* any other value -- a ``.bench`` file path.
"""

from __future__ import annotations

import argparse
import logging
import sys
import time

from repro import __version__
from repro.circuit import resolve_circuit, validate_circuit, write_bench
from repro.circuit.generators import (
    S35932_SPEC,
    S38417_SPEC,
    S38584_SPEC,
    generate_bench,
)
from repro.core.analyzer import CrosstalkSTA
from repro.core.explain import explain_result, format_explain, validate_explain
from repro.core.modes import AnalysisMode, StaConfig, WindowCheck
from repro.core.netreport import format_net_report, rank_crosstalk_nets
from repro.core.report import check_mode_ordering, format_table, format_timing_report
from repro.errors import (
    EXIT_DEGRADED_OVER_BUDGET,
    EXIT_INPUT_ERROR,
    EXIT_INTERNAL_FAULT,
    DegradationBudgetError,
    InputError,
    ReproError,
)
from repro.flow import prepare_design
from repro.obs import Observability, metrics_payload, write_metrics

logger = logging.getLogger("repro.cli")

_GEN_SPECS = {
    "s35932": S35932_SPEC,
    "s38417": S38417_SPEC,
    "s38584": S38584_SPEC,
}


# The specifier vocabulary is shared with the timing-query service.
_resolve_circuit = resolve_circuit


def _add_netlist_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("netlist", help="s27 | gen:<name> | path to a .bench file")
    parser.add_argument(
        "--scale", type=float, default=0.05, help="scale for gen: circuits (1.0 = paper size)"
    )


def _add_constraint_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--clock-period",
        type=float,
        default=None,
        metavar="SECONDS",
        help="clock period; enables the backward required-time (slack) "
        "pass and the setup check",
    )
    parser.add_argument(
        "--setup-time",
        type=float,
        default=100e-12,
        metavar="SECONDS",
        help="flip-flop setup requirement (default 100 ps)",
    )
    parser.add_argument(
        "--hold-time",
        type=float,
        default=50e-12,
        metavar="SECONDS",
        help="flip-flop hold requirement (default 50 ps)",
    )


def cmd_info(args: argparse.Namespace) -> int:
    circuit = _resolve_circuit(args.netlist, args.scale)
    print(circuit.stats())
    report = validate_circuit(circuit)
    print(f"validation: {'OK' if report.ok else 'FAILED'}")
    for error in report.errors[:10]:
        logger.error("%s", error)
    if args.verbose:
        for warning in report.warnings[:20]:
            logger.warning("%s", warning)
    return 0 if report.ok else 1


def cmd_analyze(args: argparse.Namespace) -> int:
    circuit = _resolve_circuit(args.netlist, args.scale)
    print(f"{circuit.stats()}")
    t0 = time.time()
    design = prepare_design(circuit)
    logger.info(
        "physical design: %d nets routed, %d coupling pairs (%.1f s)",
        len(design.routing.routes),
        len(design.extraction.coupling_pairs()),
        time.time() - t0,
    )

    config = StaConfig(
        mode=AnalysisMode(args.mode),
        window_check=WindowCheck(args.window_check),
        esperance=args.esperance,
        arc_cache=args.arc_cache,
        incremental=not args.no_incremental,
        strict=args.strict,
        max_degraded=args.max_degraded,
        checkpoint=args.checkpoint,
        provenance=not args.no_provenance,
        clock_period=args.clock_period,
        setup_time=args.setup_time,
        hold_time=args.hold_time,
    )
    obs = Observability.tracing() if args.trace else Observability.disabled()
    sta = CrosstalkSTA(design, config, obs=obs)

    exit_code = 0
    if args.all_modes:
        results = sta.run_all_modes()
        print()
        print(format_table(design.name, results, cell_count=circuit.cell_count()))
        violations = check_mode_ordering(results)
        if violations:
            logger.error("mode-ordering violations:")
            for violation in violations:
                logger.error("  %s", violation)
            exit_code = 1
        reference = results[AnalysisMode.ITERATIVE]
    else:
        results = None
        reference = sta.run()
        print(f"\n{reference}")

    if reference.slack is not None:
        # check_setup summary from the backward slack pass (the analyzer
        # ran it because --clock-period was given).
        print(f"\nsetup: {reference.slack.summary()}")
        if not reference.slack.met:
            exit_code = 1

    if args.check_hold:
        from repro.core.constraints import check_hold
        from repro.core.minpath import MinAnalysisMode, MinPropagator

        min_result = MinPropagator(design, config, calculator=sta.calculator).run(
            MinAnalysisMode.WORST
        )
        hold = check_hold(min_result, config.hold_time)
        worst_hold = hold.worst
        status = "MET" if hold.met else f"VIOLATED ({len(hold.failing())} endpoints)"
        print(
            f"hold: requirement {config.hold_time * 1e12:.0f} ps: {status}; "
            f"worst slack {worst_hold.slack * 1e12:+.1f} ps at "
            f"{worst_hold.endpoint} ({worst_hold.direction})"
        )
        if not hold.met:
            exit_code = 1

    if reference.degraded_arcs:
        logger.warning(
            "%d arc(s) were degraded to conservative substitute bounds; the "
            "reported delay is still a valid upper bound (rerun with --strict "
            "to fail fast instead)",
            len(reference.degraded_arcs),
        )

    if args.timing_report:
        print()
        print(format_timing_report(results if results is not None else reference))

    if args.trace:
        if str(args.trace).endswith(".jsonl"):
            obs.tracer.write_jsonl(args.trace)
        else:
            obs.tracer.write_chrome(args.trace)
        logger.info("wrote trace to %s (%d spans)", args.trace, len(obs.tracer.events))

    if args.metrics:
        telemetries = [res.telemetry for res in results.values()] if results is not None else [reference.telemetry]
        payload = metrics_payload(
            design.name,
            {t.mode: t for t in telemetries if t is not None},
            registry=sta.obs.metrics,
        )
        write_metrics(payload, args.metrics)
        logger.info("wrote metrics to %s", args.metrics)

    path = sta.critical_path(reference)
    print(f"\ncritical path ({len(path)} stages):")
    print("  " + " -> ".join(path.net_sequence()))

    if args.report_nets:
        print("\ncrosstalk-critical nets:")
        exposures = rank_crosstalk_nets(design, reference.final_pass, top=args.top)
        print(format_net_report(exposures))

    if args.net_report:
        from repro.core.export import save_json
        from repro.core.netreport import net_report_payload, validate_net_report

        payload = net_report_payload(design, reference.final_pass, top=args.top)
        problems = validate_net_report(payload)
        if problems:  # internal invariant: we emit what we validate
            raise ReproError(f"net report failed self-validation: {problems}")
        save_json(payload, args.net_report)
        logger.info("wrote net report to %s", args.net_report)

    if args.json:
        from repro.core.export import path_to_dict, results_to_dict, save_json, sta_result_to_dict

        if args.all_modes:
            payload = results_to_dict(results)
        else:
            payload = {"modes": {reference.mode.value: sta_result_to_dict(reference)}}
        payload["critical_path"] = path_to_dict(path)
        save_json(payload, args.json)
        logger.info("wrote %s", args.json)

    if args.simulate:
        from repro.validate import align_aggressors, build_path_circuit, quiet_simulation

        state = reference.final_pass.state
        sim_circuit = build_path_circuit(design, path, state)
        quiet = quiet_simulation(sim_circuit, steps=1600)
        windowed = align_aggressors(
            sim_circuit, steps=1600, windows=state.window_snapshot()
        )
        print(f"\nsimulation: quiet {quiet.path_delay*1e9:.3f} ns, "
              f"windowed worst {windowed.path_delay*1e9:.3f} ns, "
              f"STA bound {reference.longest_delay*1e9:.3f} ns")
        if windowed.path_delay > reference.longest_delay:
            logger.error("BOUND VIOLATION")
            return 1
    return exit_code


def cmd_explain(args: argparse.Namespace) -> int:
    """Run one mode and break the worst path(s) down stage by stage.

    The per-stage contributions sum bit-exactly (validated through
    ``float.hex`` round-trips before anything is printed) to the
    reported path delay; each stage carries the provenance the run
    recorded for its winning arc.
    """
    circuit = _resolve_circuit(args.netlist, args.scale)
    design = prepare_design(circuit)
    sta = CrosstalkSTA(design, StaConfig(mode=AnalysisMode(args.mode)))
    result = sta.run()
    payload = explain_result(design.circuit, result, k=args.paths, top=args.top)
    validate_explain(payload)  # we print only what survives the bit-exact check
    if args.json:
        from repro.core.export import save_json

        save_json(payload, args.json)
        logger.info("wrote explain payload to %s", args.json)
    print(format_explain(payload))
    return 0


def cmd_repair(args: argparse.Namespace) -> int:
    """Crosstalk repair: slack-driven optimizer or legacy spacing rounds.

    With ``--clock-period`` the autonomous optimizer runs over a warm
    in-process session: victims ranked by true slack x coupling
    exposure, candidates evaluated through the incremental what-if path,
    only strict worst-slack improvements committed.  Without it, the
    historical fixed-round respace loop runs.
    """
    circuit = _resolve_circuit(args.netlist, args.scale)
    design = prepare_design(circuit)

    if args.clock_period is not None:
        from repro.flow.optimizer import format_repair
        from repro.service.session import Session

        config = StaConfig(
            mode=AnalysisMode(args.mode),
            clock_period=args.clock_period,
            setup_time=args.setup_time,
            hold_time=args.hold_time,
        )
        session = Session(
            session_id="cli",
            spec=args.netlist,
            design=design,
            config=config,
            obs=Observability.disabled(),
            scale=args.scale,
        )
        transcript = session.repair(
            target_slack=args.target_slack,
            max_edits=args.max_edits,
            beam=args.beam,
            guard_tracks=args.guard_tracks,
            dont_touch=args.dont_touch,
            cold_verify=not args.no_verify,
        )
        if args.json:
            from repro.core.export import save_json

            save_json(transcript, args.json)
            logger.info("wrote repair transcript to %s", args.json)
        print(format_repair(transcript))
        return 0 if transcript["final"]["met"] else 1

    from repro.flow import repair_crosstalk

    current = design
    for round_index in range(1, args.rounds + 1):
        outcome = repair_crosstalk(
            current, top=args.top, guard_tracks=args.guard_tracks
        )
        print(f"round {round_index}: {outcome.summary()}")
        current = outcome.design
        if outcome.improvement <= 0:
            print("no further improvement; stopping")
            break
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.service import TimingService
    from repro.service.server import serve as serve_service

    config = StaConfig(
        mode=AnalysisMode(args.mode),
        window_check=WindowCheck(args.window_check),
        esperance=args.esperance,
        arc_cache=args.arc_cache,
        incremental=not args.no_incremental,
        strict=args.strict,
        max_degraded=args.max_degraded,
        provenance=not args.no_provenance,
        clock_period=args.clock_period,
        setup_time=args.setup_time,
        hold_time=args.hold_time,
    )
    obs = (
        Observability.tracing()
        if args.trace or args.trace_dir
        else Observability.disabled()
    )
    service = TimingService(
        config=config,
        max_sessions=args.max_sessions,
        checkpoint_dir=args.checkpoint_dir,
        workers=args.service_workers,
        queue_limit=args.queue_limit,
        default_deadline=args.deadline,
        obs=obs,
    )

    def ready(server) -> None:
        # Parseable readiness line for scripts / the CI smoke job.
        print(f"listening on {server.address}", flush=True)

    try:
        asyncio.run(
            serve_service(
                service, host=args.host, port=args.port, socket_path=args.socket,
                ready=ready, access_log=args.access_log, trace_dir=args.trace_dir,
            )
        )
    except KeyboardInterrupt:
        logger.info("interrupted; shutting down")
        service.close()
    if args.trace:
        if str(args.trace).endswith(".jsonl"):
            obs.tracer.write_jsonl(args.trace)
        else:
            obs.tracer.write_chrome(args.trace)
        logger.info("wrote trace to %s (%d spans)", args.trace, len(obs.tracer.events))
    print("server stopped", flush=True)
    return 0


def cmd_fleet(args: argparse.Namespace) -> int:
    import signal as signal_module
    import threading

    from repro.service import FleetOptions, FleetRuntime

    options = FleetOptions(
        shards=args.shards,
        workers=args.service_workers,
        queue_limit=args.queue_limit,
        max_sessions=args.max_sessions,
        checkpoint_dir=args.checkpoint_dir,
        default_deadline=args.deadline,
        host=args.shard_host,
        access_log_dir=args.shard_access_log_dir,
    )
    runtime = FleetRuntime(
        options,
        router_host=args.host,
        router_port=args.port,
        access_log=args.access_log,
        probe_interval=args.probe_interval,
    )
    stopped = threading.Event()
    for signum in (signal_module.SIGTERM, signal_module.SIGINT):
        try:
            signal_module.signal(signum, lambda *_: stopped.set())
        except ValueError:  # not the main thread
            pass
    runtime.start()
    # Parseable readiness line for scripts / the CI fleet-smoke job.
    print(f"fleet listening on {runtime.address} ({args.shards} shards)", flush=True)
    try:
        while not stopped.is_set():
            if runtime.router is not None and runtime.router.stopping:
                break
            stopped.wait(0.5)
    except KeyboardInterrupt:
        pass
    finally:
        runtime.stop()
    print("fleet stopped", flush=True)
    return 0


def cmd_client(args: argparse.Namespace) -> int:
    import json

    from repro.service import ServiceCallError, ServiceClient

    params = json.loads(args.params) if args.params else {}
    if not isinstance(params, dict):
        raise InputError("--params must be a JSON object")
    with ServiceClient(args.connect, timeout=args.timeout) as client:
        try:
            if args.no_retry:
                result = client.call(args.method, params)
            else:
                result = client.call_with_retry(args.method, params)
        except ServiceCallError as exc:
            logger.error("%s", exc)
            print(
                json.dumps(
                    {
                        "error": {
                            "code": exc.code,
                            "kind": exc.kind,
                            "message": str(exc),
                            "data": exc.data,
                        }
                    },
                    indent=2,
                    sort_keys=True,
                )
            )
            exit_code = exc.data.get("exit_code")
            return int(exit_code) if exit_code is not None else 1
    if isinstance(result, dict) and set(result) == {"exposition"}:
        # Prometheus text format: print raw, not JSON-wrapped.
        sys.stdout.write(result["exposition"])
    else:
        print(json.dumps(result, indent=2, sort_keys=True))
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    if args.name not in _GEN_SPECS:
        raise InputError(f"unknown generator {args.name!r}; have {sorted(_GEN_SPECS)}")
    netlist = generate_bench(_GEN_SPECS[args.name].scaled(args.scale))
    text = write_bench(netlist)
    if args.output == "-":
        sys.stdout.write(text)
    else:
        with open(args.output, "w") as handle:
            handle.write(text)
        print(f"wrote {len(netlist.gates)} gates to {args.output}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Crosstalk-aware static timing analysis (Ringe et al., DATE 2000)",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    parser.add_argument(
        "--log-level",
        choices=["debug", "info", "warning", "error"],
        default="info",
        help="diagnostic verbosity (log lines go to stderr; reports stay on stdout)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    info = sub.add_parser("info", help="netlist statistics and validation")
    _add_netlist_args(info)
    info.add_argument("-v", "--verbose", action="store_true")
    info.set_defaults(func=cmd_info)

    analyze = sub.add_parser("analyze", help="run the crosstalk-aware STA")
    _add_netlist_args(analyze)
    analyze.add_argument(
        "--mode",
        choices=[m.value for m in AnalysisMode],
        default=AnalysisMode.ITERATIVE.value,
    )
    analyze.add_argument("--all-modes", action="store_true", help="run all five modes")
    analyze.add_argument(
        "--window-check",
        choices=[w.value for w in WindowCheck],
        default=WindowCheck.QUIET.value,
    )
    analyze.add_argument("--esperance", action="store_true")
    analyze.add_argument(
        "--arc-cache",
        metavar="FILE",
        help="persistent arc-cache file reused across runs",
    )
    analyze.add_argument(
        "--no-incremental",
        action="store_true",
        help="disable delta-driven reuse between iterative passes "
        "(every pass re-solves every arc; results are identical)",
    )
    analyze.add_argument(
        "--strict",
        action="store_true",
        help="fail fast on internal faults instead of degrading to "
        "conservative substitute bounds",
    )
    analyze.add_argument(
        "--max-degraded",
        type=int,
        default=None,
        metavar="N",
        help="reject the run (exit code 3) when more than N arcs had to be "
        "degraded to substitute bounds",
    )
    analyze.add_argument(
        "--checkpoint",
        metavar="FILE",
        help="iterative mode: persist per-pass state to FILE and resume "
        "from it when present",
    )
    analyze.add_argument(
        "--timing-report",
        action="store_true",
        help="print per-phase wall-clock and arc-cache statistics",
    )
    analyze.add_argument("--report-nets", action="store_true", help="rank crosstalk-critical nets")
    analyze.add_argument(
        "--net-report",
        metavar="FILE",
        help="write the crosstalk ranking as schema-tagged JSON "
        "(same payload the service's net_report method returns)",
    )
    analyze.add_argument("--top", type=int, default=15)
    analyze.add_argument("--simulate", action="store_true", help="validate the longest path")
    analyze.add_argument("--json", metavar="FILE", help="write results as JSON")
    analyze.add_argument(
        "--trace",
        metavar="FILE",
        help="write a span trace (Chrome trace-viewer JSON; .jsonl for an event stream)",
    )
    analyze.add_argument(
        "--metrics",
        metavar="FILE",
        help="write the per-mode metrics snapshot as JSON",
    )
    analyze.add_argument(
        "--no-provenance",
        action="store_true",
        help="skip the per-arc provenance ledger (annotation only: delays "
        "are bit-identical either way; 'repro explain' needs it on)",
    )
    _add_constraint_args(analyze)
    analyze.add_argument(
        "--check-hold",
        action="store_true",
        help="also run the min-delay (helping-coupling) analysis and check "
        "every flip-flop input against --hold-time",
    )
    analyze.set_defaults(func=cmd_analyze)

    explain = sub.add_parser(
        "explain",
        help="break the worst path(s) down stage by stage with provenance",
    )
    _add_netlist_args(explain)
    explain.add_argument(
        "--mode",
        choices=[m.value for m in AnalysisMode],
        default=AnalysisMode.ITERATIVE.value,
    )
    explain.add_argument(
        "--paths", type=int, default=1, metavar="K", help="worst paths to break down"
    )
    explain.add_argument(
        "--top", type=int, default=10, metavar="N", help="blame-table size"
    )
    explain.add_argument(
        "--json", metavar="FILE", help="write the repro.explain/1 payload as JSON"
    )
    explain.set_defaults(func=cmd_explain)

    repair = sub.add_parser(
        "repair",
        help="repair crosstalk: slack-driven optimizer (--clock-period) or "
        "legacy respace rounds",
    )
    _add_netlist_args(repair)
    repair.add_argument("--top", type=int, default=10, help="legacy mode: victims per round")
    repair.add_argument("--rounds", type=int, default=1, help="legacy mode: respace rounds")
    repair.add_argument("--guard-tracks", type=int, default=1)
    _add_constraint_args(repair)
    repair.add_argument(
        "--mode",
        choices=[m.value for m in AnalysisMode],
        default=AnalysisMode.ITERATIVE.value,
    )
    repair.add_argument(
        "--target-slack",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="optimizer: stop once worst slack reaches this value",
    )
    repair.add_argument(
        "--max-edits",
        type=int,
        default=8,
        metavar="N",
        help="optimizer: committed-edit budget",
    )
    repair.add_argument(
        "--beam",
        type=int,
        default=3,
        metavar="N",
        help="optimizer: victims considered per round",
    )
    repair.add_argument(
        "--dont-touch",
        action="append",
        default=None,
        metavar="NET",
        help="optimizer: never propose edits touching this net (repeatable)",
    )
    repair.add_argument(
        "--no-verify",
        action="store_true",
        help="optimizer: skip the final cold re-analysis bit-identity check",
    )
    repair.add_argument(
        "--json",
        metavar="FILE",
        help="optimizer: write the repro.repair/1 transcript as JSON",
    )
    repair.set_defaults(func=cmd_repair)

    generate = sub.add_parser("generate", help="emit a synthetic .bench netlist")
    generate.add_argument("name", choices=sorted(_GEN_SPECS))
    generate.add_argument("--scale", type=float, default=0.05)
    generate.add_argument("-o", "--output", default="-")
    generate.set_defaults(func=cmd_generate)

    serve = sub.add_parser(
        "serve", help="run the timing-query service (see docs/SERVICE.md)"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0, help="TCP port (0 = ephemeral)")
    serve.add_argument(
        "--socket", metavar="PATH", help="serve on a Unix socket instead of TCP"
    )
    serve.add_argument(
        "--max-sessions", type=int, default=8, help="LRU bound on open sessions"
    )
    serve.add_argument(
        "--service-workers", type=int, default=4, help="request worker threads"
    )
    serve.add_argument(
        "--queue-limit",
        type=int,
        default=8,
        help="admitted-but-waiting requests beyond the workers; past that, "
        "requests are rejected with busy (429) + retry_after",
    )
    serve.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="default per-request deadline (clients may override per request)",
    )
    serve.add_argument(
        "--checkpoint-dir",
        metavar="DIR",
        help="persist iterative-mode session checkpoints here",
    )
    serve.add_argument(
        "--mode",
        choices=[m.value for m in AnalysisMode],
        default=AnalysisMode.ITERATIVE.value,
        help="default analysis mode for new sessions",
    )
    serve.add_argument(
        "--window-check",
        choices=[w.value for w in WindowCheck],
        default=WindowCheck.QUIET.value,
    )
    serve.add_argument("--esperance", action="store_true")
    serve.add_argument("--arc-cache", metavar="FILE")
    serve.add_argument("--no-incremental", action="store_true")
    serve.add_argument("--strict", action="store_true")
    serve.add_argument("--max-degraded", type=int, default=None, metavar="N")
    serve.add_argument(
        "--trace",
        metavar="FILE",
        help="write a span trace on shutdown (Chrome trace-viewer JSON; "
        ".jsonl for an event stream)",
    )
    serve.add_argument(
        "--access-log",
        metavar="FILE",
        help="append one JSONL record per request (request id, method, "
        "session, queue wait, solve time, outcome)",
    )
    serve.add_argument(
        "--trace-dir",
        metavar="DIR",
        help="write each request's span subtree to DIR/<request_id>.jsonl",
    )
    serve.add_argument(
        "--no-provenance",
        action="store_true",
        help="default new sessions to no provenance ledger (the 'explain' "
        "RPC then needs a per-session override to turn it back on)",
    )
    _add_constraint_args(serve)
    serve.set_defaults(func=cmd_serve)

    fleet = sub.add_parser(
        "fleet",
        help="run a supervised shard fleet behind a consistent-hash router",
    )
    fleet.add_argument("--shards", type=int, default=2, metavar="N")
    fleet.add_argument(
        "--host", default="127.0.0.1", help="router listen address"
    )
    fleet.add_argument(
        "--port", type=int, default=0, help="router port (0 = ephemeral)"
    )
    fleet.add_argument(
        "--shard-host",
        default="127.0.0.1",
        help="address shard servers bind (and the router dials)",
    )
    fleet.add_argument(
        "--service-workers",
        type=int,
        default=2,
        metavar="N",
        help="analysis threads per shard",
    )
    fleet.add_argument(
        "--queue-limit",
        type=int,
        default=8,
        metavar="N",
        help="per-shard queued requests beyond the workers before 429",
    )
    fleet.add_argument(
        "--max-sessions", type=int, default=8, metavar="N",
        help="per-shard session LRU bound",
    )
    fleet.add_argument(
        "--checkpoint-dir",
        metavar="DIR",
        help="shared iterative-checkpoint directory (lets a replacement "
        "shard resume a dead shard's per-pass state)",
    )
    fleet.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="default per-request deadline on every shard",
    )
    fleet.add_argument(
        "--access-log",
        metavar="FILE",
        help="router JSONL access log (per-request shard + failover events)",
    )
    fleet.add_argument(
        "--shard-access-log-dir",
        metavar="DIR",
        help="per-shard access logs (DIR/shard-<i>.log)",
    )
    fleet.add_argument(
        "--probe-interval", type=float, default=0.5, metavar="SECONDS",
        help="supervisor health-check sweep interval",
    )
    fleet.set_defaults(func=cmd_fleet)

    client = sub.add_parser(
        "client", help="send one request to a running timing-query service"
    )
    client.add_argument(
        "--connect",
        required=True,
        metavar="ADDRESS",
        help="host:port or unix:/path/to.sock",
    )
    client.add_argument("method", help="service method, e.g. ping or open_session")
    client.add_argument(
        "--params", metavar="JSON", help='request parameters, e.g. \'{"netlist": "s27"}\''
    )
    client.add_argument("--timeout", type=float, default=120.0)
    client.add_argument(
        "--no-retry",
        action="store_true",
        help="fail immediately on busy (429) instead of honouring retry_after",
    )
    client.set_defaults(func=cmd_client)
    return parser


def _configure_logging(level_name: str) -> None:
    # Diagnostics go to stderr so report tables on stdout stay parseable.
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    root = logging.getLogger("repro")
    root.setLevel(getattr(logging, level_name.upper()))
    # Replace rather than stack handlers: main() may run repeatedly in-process.
    root.handlers[:] = [handler]


def main(argv: list[str] | None = None) -> int:
    """Entry point with the exit-code taxonomy.

    0: success.  1: analysis finished but found violations.  2: bad
    input (netlist, tables, arguments).  3: degraded-arc budget
    exceeded.  4: internal fault surfaced in strict mode.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    _configure_logging(args.log_level)
    try:
        return args.func(args)
    except DegradationBudgetError as exc:
        logger.error("%s", exc)
        return EXIT_DEGRADED_OVER_BUDGET
    except InputError as exc:
        logger.error("%s", exc)
        return EXIT_INPUT_ERROR
    except ReproError as exc:
        logger.error("internal fault: %s", exc)
        return EXIT_INTERNAL_FAULT


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
