"""The two workloads.

Each workload has an untraced ``measure`` run, which yields the end-to-end
samples, and a ``traced`` run, which repeats the same seeded inputs twice
-- once untraced, once with spans -- and yields the per-layer numbers and
the tracing overhead.

A run draws several designs from its seed (``design_seed``), so its
samples cover a family of designs rather than one draw of the generator.

* ``table1-cold``: gen:s35932 through ``prepare_design``, then each of the
  five modes cold in its own ``CrosstalkSTA``, as ``repro analyze --mode X``
  runs them; the repetitions cycle over ``TABLE1_DESIGNS`` designs.  Unit
  of work: the five modes.
* ``eco-session``: one closed-loop client on one socket connection to an
  in-process ``TimingServer``: what-ifs over top-exposure nets, reads
  between them, every fifth what-if committed; between blocks of 20
  what-ifs other sessions on designs of the same seed are opened and
  analyzed cold.  Unit of work: one block.  Its traced run also repairs
  two fresh sessions with the ``repair`` RPC (clock at 0.99x the design's
  minimum period, ``cold_verify`` on) for the optimizer's layer numbers.

Every timed sample is a lap of a ``common.Stopwatch``, in reference
seconds.
"""

from __future__ import annotations

import asyncio
import random
import threading
import time
from dataclasses import dataclass, field

from common import (
    Gate,
    Stopwatch,
    check_golden,
    circuit_spec,
    median,
    sta_config,
    units,
    write_bench_file,
)
from spans import SpanRecorder, instrument, maybe_span

MODES = ("best_case", "static_doubled", "worst_case", "one_step", "iterative")
FIXED_MODES = MODES[:3]
MODE_GROUP = {
    "best_case": "fixed",
    "static_doubled": "fixed",
    "worst_case": "fixed",
    "one_step": "one_step",
    "iterative": "iterative",
}
PHASES = ("gather", "base_waveforms", "coupling_decisions", "final_waveforms", "merge")

# eco-session stream: per block of 20 what-ifs, fixed proportions of the
# four edit actions (shuffled per block from the seed); every fifth
# what-if is committed.
ECO_ACTIONS = ["drop_coupling"] * 7 + ["set_coupling"] * 7 + ["respace"] * 4 + ["upsize"] * 2
ECO_COMMIT_EVERY = 5
ECO_TARGETS = 16
# Met by every design at these scales; it gives the reads required-time slack.
ECO_CLOCK_PERIOD = 5e-9
# Cold sessions opened between two blocks, cycling over this many designs
# of the run's seed (the first is the ECO session's own design).
ECO_PROBES_PER_BLOCK = 2
ECO_PROBE_DESIGNS = 16
# table1-cold repetitions cycle over this many designs of the run's seed.
TABLE1_DESIGNS = 8
REPAIR_CLOCK_FACTOR = 0.99
# Cost of one unit of work on a 2-core x86-64 container; with --seconds
# they fix how many units a run makes (see common.units).
TABLE1_REP_SECONDS = 4.2
ECO_BLOCK_SECONDS = 5.0
# Scale of the untimed warm-up repetition (imports, first-call costs).
WARMUP_SCALE = 0.01
# Clock of the session that finds a design's minimum period (met by far).
LOOSE_CLOCK = 1e-6


@dataclass
class Samples:
    """Samples of one run in reference seconds (``common.Stopwatch``);
    metrics are medians over them."""

    work_unit: str
    setup: list[float] = field(default_factory=list)
    one_step: list[float] = field(default_factory=list)
    work: list[float] = field(default_factory=list)
    # Workload-specific end-to-end figures, printed in the report.
    extra: dict[str, list[float]] = field(default_factory=dict)
    # The laps behind the samples: kind -> the lap indices of each sample.
    clock: Stopwatch = field(default_factory=Stopwatch)
    laps: dict[str, list[list[int]]] = field(default_factory=dict)

    def add(self, name: str, value: float) -> None:
        self.extra.setdefault(name, []).append(value)

    def put(self, kind: str, *laps: int) -> None:
        """One sample of ``setup``, ``one_step`` or ``work``: the sum of
        ``laps`` of ``self.clock``."""
        self.laps.setdefault(kind, []).append(list(laps))

    def finish(self) -> "Samples":
        """Convert the laps, once the kernel has run after the last one;
        their wall times go to the report."""
        for kind, groups in self.laps.items():
            for laps in groups:
                getattr(self, kind).append(sum(self.clock.seconds(lap) for lap in laps))
                self.add(f"wall.{kind}_s", sum(self.clock.wall(lap) for lap in laps))
        return self


@dataclass
class Traced:
    """Per-layer numbers of a traced run."""

    layers: dict[str, float]
    untraced_work_s: float
    traced_work_s: float


def design_seed(seed: int, index: int) -> int:
    """Generator seed of the ``index``-th design a run draws from ``seed``."""
    return seed * 1000 + index


# -- table1-cold --------------------------------------------------------------


def _table1_rep(seed, scale, gate, golden, recorder=None, clock=None) -> dict:
    """Set up design ``seed`` and run the five modes cold.  ``setup`` and
    ``laps`` are laps of ``clock``, ``times`` the modes' wall times."""
    import repro.flow.design as flow_design
    from repro.circuit.generators import generate_circuit
    from repro.core.analyzer import CrosstalkSTA
    from repro.errors import ReproError

    clock = clock or Stopwatch(normalize=False)
    start = time.perf_counter()
    with maybe_span(recorder, "setup"):
        with maybe_span(recorder, "circuit.generate"):
            circuit = generate_circuit(circuit_spec(seed, scale))
        design = flow_design.prepare_design(circuit)
    setup = clock.lap(start)

    laps: dict[str, int] = {}
    results = {}
    for mode in MODES:
        gate.op()
        start = time.perf_counter()
        try:
            with maybe_span(recorder, f"analyze.{mode}"):
                results[mode] = CrosstalkSTA(design, sta_config(mode)).run()
        except ReproError as exc:
            gate.fail(f"table1-cold {mode}: {exc}")
            clock.lap(start)
            continue
        laps[mode] = clock.lap(start)
    times = {mode: clock.wall(lap) for mode, lap in laps.items()}

    digests = {mode: float(r.longest_delay).hex() for mode, r in results.items()}
    if len(results) == len(MODES):
        d = {mode: r.longest_delay for mode, r in results.items()}
        gate.check(
            d["best_case"] <= d["iterative"] <= d["one_step"] <= d["worst_case"],
            f"mode ordering violated: {digests}",
        )
    check_golden(gate, golden, "table1-cold", scale, seed, digests)
    return {"setup": setup, "laps": laps, "times": times, "results": results, "digests": digests}


def measure_table1(seed, seconds, scale, gate, golden) -> Samples:
    _table1_rep(design_seed(seed, 0), WARMUP_SCALE, gate, golden)
    samples = Samples(work_unit="five cold modes")
    first: dict[int, dict] = {}
    for index in units(seconds, TABLE1_REP_SECONDS, minimum=3):
        design = design_seed(seed, index % TABLE1_DESIGNS)
        rep = _table1_rep(design, scale, gate, golden, clock=samples.clock)
        if design in first:
            gate.check(rep["digests"] == first[design], "digests differ between repetitions")
        else:
            first[design] = rep["digests"]
        laps, times = rep["laps"], rep["times"]
        samples.put("setup", rep["setup"])
        if len(laps) == len(MODES):
            samples.put("one_step", laps["one_step"])
            samples.put("work", *laps.values())
            samples.add("analyze.fixed_modes_s", sum(times[m] for m in FIXED_MODES))
            samples.add("analyze.iterative_s", times["iterative"])
            for mode in MODES:
                samples.add(f"mode.{mode}_s", times[mode])
    return samples.finish()


def traced_table1(seed, scale, gate, golden) -> Traced:
    plain = _table1_rep(design_seed(seed, 0), scale, gate, golden)
    recorder = SpanRecorder()
    with instrument(recorder):
        rep = _table1_rep(design_seed(seed, 0), scale, gate, golden, recorder)
    gate.check(rep["digests"] == plain["digests"], "tracing changed a delay")

    counters: dict[str, dict[str, float]] = {}
    for mode, result in rep["results"].items():
        group = counters.setdefault(MODE_GROUP[mode], {})
        telemetry = getattr(result, "telemetry", None)
        snapshot = getattr(telemetry, "metrics", None) or {}
        for key, value in snapshot.get("counters", {}).items():
            group[key] = group.get(key, 0.0) + value
    layers = common_layers(recorder, counters, gate)
    iterative = rep["results"].get("iterative")
    if iterative is not None:
        later = iterative.history[1:]
        reused = sum(r.reused_arcs for r in later)
        total = reused + sum(r.dirty_arcs for r in later)
        layers["iterative.passes"] = float(iterative.passes)
        layers["iterative.reused_frac"] = reused / total if total else 0.0
    return Traced(
        layers=layers,
        untraced_work_s=sum(plain["times"].values()),
        traced_work_s=sum(rep["times"].values()),
    )


# -- the in-process server and its one client ---------------------------------


class Server:
    """A ``TimingServer`` on 127.0.0.1 in a background thread, one worker,
    and one client connection driven from the calling thread."""

    def __init__(self, gate: Gate, recorder: SpanRecorder | None = None):
        from repro.service import ServiceClient, TimingServer, TimingService

        self.gate = gate
        self.recorder = recorder
        self.latencies: dict[str, list[float]] = {}
        self.rejected = 0
        service = TimingService(config=sta_config("one_step"), workers=1, queue_limit=8)
        self._server = TimingServer(service, host="127.0.0.1", port=0)
        ready = threading.Event()

        async def main() -> None:
            await self._server.start()
            ready.set()
            await self._server.serve_until_shutdown()

        self._thread = threading.Thread(target=lambda: asyncio.run(main()), daemon=True)
        self._thread.start()
        if not ready.wait(30):
            raise RuntimeError("timing server did not start")
        self.client = ServiceClient(self._server.address, timeout=170.0)

    def call(self, kind: str, method: str, params: dict | None = None):
        """One timed RPC; a failed or refused call counts as failed and
        returns None."""
        from repro.errors import ReproError

        self.gate.op()
        start = time.perf_counter()
        try:
            with maybe_span(self.recorder, f"rpc.{method}", ambient=True):
                result = self.client.call(method, params)
        except ReproError as exc:
            if getattr(exc, "code", None) == 429:
                self.rejected += 1
            self.gate.fail(f"{method}: {exc}")
            return None
        self.latencies.setdefault(kind, []).append(time.perf_counter() - start)
        return result

    def close(self) -> None:
        try:
            self.client.call("shutdown")
        finally:
            self.client.close()
            self._thread.join(60)
        if self._thread.is_alive():
            raise RuntimeError("timing server did not stop")


def _open(server: Server, seed: int, scale: float, config: dict):
    """Set-up of a socket workload: generate and write the seeded
    ``.bench``, then ``open_session`` on it.  Returns (session id, secs)."""
    start = time.perf_counter()
    with maybe_span(server.recorder, "circuit.generate"):
        path = write_bench_file(seed, scale)
    info = server.call("setup", "open_session", {"netlist": path, "config": config})
    return (info or {}).get("session"), time.perf_counter() - start


def _analyze(server: Server, session: str) -> tuple[dict | None, float]:
    start = time.perf_counter()
    summary = server.call("analyze", "analyze", {"session": session})
    return summary, time.perf_counter() - start


def _exposed(server: Server, session: str, top: int) -> list[dict]:
    report = server.call("query", "net_report", {"session": session, "top": top})
    return [n for n in (report or {}).get("nets", []) if n.get("aggressor_count")]


# -- eco-session ----------------------------------------------------------------


class EcoStream:
    """The seeded what-if / read / commit stream of one session."""

    def __init__(self, server: Server, session: str, seed: int, baseline_hex: str):
        self.server = server
        self.session = session
        self.seed = seed
        self.hex = baseline_hex
        self.targets = [n["net"] for n in _exposed(server, session, ECO_TARGETS)]
        self.whatif_records: list[tuple[float, float, int]] = []

    def _edit(self, action: str, rng: random.Random) -> dict:
        gate = self.server.gate
        for _ in range(len(self.targets)):
            net = rng.choice(self.targets)
            view = self.server.call(
                "query", "query_net", {"session": self.session, "net": net}
            )
            couplings = (view or {}).get("couplings") or {}
            if action in ("respace", "upsize"):
                return {"action": action, "nets": [net]}
            if couplings:
                neighbour = max(sorted(couplings), key=lambda n: couplings[n])
                edit = {"action": action, "net": net, "neighbour": neighbour}
                if action == "set_coupling":
                    edit["cap"] = couplings[neighbour] * rng.uniform(0.5, 2.0)
                return edit
        gate.fail(f"no coupled target left for {action}")
        return {"action": "respace", "nets": [self.targets[0]]}

    def _step(self, i: int, action: str, rng: random.Random) -> None:
        """One what-if with the reads around it."""
        from repro.core.explain import validate_explain

        server, gate, sid = self.server, self.server.gate, self.session
        server.call("ping", "ping")
        edit = self._edit(action, rng)
        commit = i % ECO_COMMIT_EVERY == ECO_COMMIT_EVERY - 1
        start = time.perf_counter()
        response = server.call(
            "commit" if commit else "whatif",
            "whatif",
            {"session": sid, "edit": edit, "commit": commit},
        )
        latency = time.perf_counter() - start
        if response is None:
            return
        if commit:
            # whatif.* percentiles cover every what-if, committed or not.
            server.latencies.setdefault("whatif", []).append(latency)
        after = response["after"]
        gate.check(
            response["before"]["longest_delay_hex"] == self.hex,
            "an uncommitted what-if changed the session's delay",
        )
        self.whatif_records.append(
            (latency, after.get("runtime_seconds", 0.0), after.get("dirty_arcs", 0))
        )
        if commit:
            self.hex = after["longest_delay_hex"]
            self.targets = [n["net"] for n in _exposed(server, sid, ECO_TARGETS)]
        if i % 2 == 1:
            path = server.call("query", "query_path", {"session": sid})
            if path is not None:
                # The path ends at the endpoint net's driver; the longest
                # delay adds the wire to the endpoint pin.
                delay = float.fromhex(path["delay_hex"])
                gate.check(
                    0.0 < delay <= float.fromhex(self.hex),
                    "query_path delay exceeds the longest delay",
                )
        if i % 4 == 3:
            payload = server.call("query", "explain", {"session": sid})
            if payload is not None:
                try:
                    validate_explain(payload)
                    ok = payload["longest_delay_hex"] == self.hex
                except (KeyError, ValueError):
                    ok = False
                gate.check(ok, "explain did not validate")

    def block(self, index: int) -> None:
        """20 steps with the seeded action mix, then an ``analyze`` check."""
        server, gate = self.server, self.server.gate
        rng = random.Random(f"eco:{self.seed}:{index}")
        actions = list(ECO_ACTIONS)
        rng.shuffle(actions)
        for i, action in enumerate(actions):
            self._step(i, action, rng)
        summary, _ = _analyze(server, self.session)
        if summary is not None:
            gate.check(
                summary["longest_delay_hex"] == self.hex,
                "analyze disagrees with the last committed what-if",
            )


def _eco_session(server, design: int, scale, golden, clock=None):
    """Open a session on design ``design`` (a generator seed) with the
    clock period set and analyze it cold.  Returns (session id, summary,
    set-up lap, analyze lap), the laps of ``clock``."""
    clock = clock or Stopwatch(normalize=False)
    config = {"mode": "one_step", "clock_period": ECO_CLOCK_PERIOD}
    start = time.perf_counter()
    sid, _ = _open(server, design, scale, config)
    setup = clock.lap(start)
    start = time.perf_counter()
    summary, _ = _analyze(server, sid) if sid else (None, 0.0)
    analyze = clock.lap(start)
    if summary is not None:
        check_golden(server.gate, golden, "eco-session", scale, design,
                     {"one_step": summary["longest_delay_hex"]})
    return sid, summary, setup, analyze


def measure_eco(seed, seconds, scale, gate, golden) -> Samples:
    samples = Samples(work_unit="one block: 20 what-ifs with their reads")
    server = Server(gate)
    try:
        # The ECO session's own open and analysis also warm the process
        # up; they are not samples.
        main = design_seed(seed, 0)
        sid, summary, _, _ = _eco_session(server, main, scale, golden)
        if sid is None or summary is None:
            return samples
        cold_hex = {main: summary["longest_delay_hex"]}
        stream = EcoStream(server, sid, seed, summary["longest_delay_hex"])
        clock = samples.clock
        probes = 0
        for index in units(seconds, ECO_BLOCK_SECONDS, minimum=5):
            start = time.perf_counter()
            stream.block(index)
            samples.put("work", clock.lap(start))
            # Other users open designs of the same seed between blocks:
            # the set-up and cold-analysis samples, spread over the run.
            for _ in range(ECO_PROBES_PER_BLOCK):
                design = design_seed(seed, probes % ECO_PROBE_DESIGNS)
                probes += 1
                probe, cold, setup, analyze = _eco_session(server, design, scale, golden, clock)
                if probe is None or cold is None:
                    continue
                samples.put("setup", setup)
                samples.put("one_step", analyze)
                gate.check(
                    cold_hex.setdefault(design, cold["longest_delay_hex"])
                    == cold["longest_delay_hex"],
                    "cold analysis of the same design is not repeatable",
                )
                server.call("setup", "close_session", {"session": probe})
        for kind in ("whatif", "commit", "query"):
            samples.extra[f"{kind}.latency_s"] = server.latencies.get(kind, [])
    finally:
        server.close()
    samples.finish()
    return samples


def _eco_pass(seed, scale, gate, golden, blocks, recorder=None):
    server = Server(gate, recorder)
    try:
        sid, summary, _, _ = _eco_session(server, design_seed(seed, 0), scale, golden)
        if sid is None or summary is None:
            return server, None, 0.0, {}
        stream = EcoStream(server, sid, seed, summary["longest_delay_hex"])
        start = time.perf_counter()
        with maybe_span(recorder, "work"):
            for index in range(blocks):
                stream.block(index)
        work = time.perf_counter() - start
        metrics = server.call("stats", "metrics") or {}
    finally:
        server.close()
    return server, stream, work, metrics.get("snapshot", {})


def traced_eco(seed, scale, gate, golden, blocks=3) -> Traced:
    _, _, plain_work, _ = _eco_pass(seed, scale, gate, golden, blocks)
    recorder = SpanRecorder()
    with instrument(recorder):
        server, stream, work, snapshot = _eco_pass(seed, scale, gate, golden, blocks, recorder)
    layers = common_layers(recorder, {"one_step": snapshot.get("counters", {})}, gate)
    layers.update(service_layers(server, snapshot))
    if stream is not None and stream.whatif_records:
        n = len(stream.whatif_records)
        latency = sum(r[0] for r in stream.whatif_records)
        analysis = sum(r[1] for r in stream.whatif_records)
        selfs = recorder.self_times()
        edits = sum(v for k, v in selfs.items() if k.startswith("edits.apply."))
        layers["whatif.analysis_s"] = analysis / n
        layers["whatif.dirty_arcs"] = sum(r[2] for r in stream.whatif_records) / n
        layers["whatif.overhead_s"] = (latency - analysis - edits) / n
    layers.update(repair_layers(seed, scale, gate, golden))
    return Traced(layers=layers, untraced_work_s=plain_work, traced_work_s=work)


# -- repair (traced eco-session run only) ---------------------------------------


def _repair_unit(server: Server, design: int, scale: float, golden) -> dict:
    """Minimum period of design ``design`` from a cold one_step session
    with a loose clock, then a fresh session with the clock at 0.99x that
    period, repaired around its worst victim."""
    from repro.flow.optimizer import validate_repair

    gate = server.gate
    sid, setup = _open(server, design, scale, {"mode": "one_step", "clock_period": LOOSE_CLOCK})
    if sid is None:
        return {"setup": setup}
    summary, analyze = _analyze(server, sid)
    server.call("setup", "close_session", {"session": sid})
    if summary is None:
        return {"setup": setup}
    check_golden(gate, golden, "eco-session", scale, design,
                 {"one_step": summary["longest_delay_hex"]})
    period = REPAIR_CLOCK_FACTOR * (LOOSE_CLOCK - summary["worst_slack"])
    sid, _ = _open(server, design, scale, {"mode": "one_step", "clock_period": period})
    if sid is None:
        return {"setup": setup, "analyze": analyze}
    server.call("analyze", "analyze", {"session": sid})
    # The repair region: the worst coupled victim and its largest
    # aggressor; every other coupled net is dont-touch, which keeps the
    # candidate count per repair small and similar from design to design.
    nets = _exposed(server, sid, 100000)
    victim = next((n["net"] for n in nets if n["slack"] < 0), None)
    if victim is None and nets:
        victim = nets[0]["net"]
    result = {"setup": setup, "analyze": analyze}
    if gate.check(victim is not None, "design has no coupled net"):
        view = server.call("query", "query_net", {"session": sid, "net": victim}) or {}
        couplings = view.get("couplings") or {}
        region = {victim}
        if couplings:
            region.add(max(sorted(couplings), key=lambda n: couplings[n]))
        start = time.perf_counter()
        transcript = server.call(
            "repair",
            "repair",
            {
                "session": sid,
                "max_edits": 1,
                "beam": 1,
                "cold_verify": True,
                "dont_touch": [n["net"] for n in nets if n["net"] not in region],
            },
        )
        result["repair"] = time.perf_counter() - start
        if transcript is not None:
            try:
                validate_repair(transcript)
                ok = bool((transcript.get("cold_verify") or {}).get("identical"))
            except ValueError:
                ok = False
            gate.check(ok and transcript["evaluations"] >= 1, "repair transcript invalid")
            result["transcript"] = transcript
    server.call("setup", "close_session", {"session": sid})
    return result


def repair_layers(seed, scale, gate, golden, designs=2) -> dict:
    """The optimizer's layer numbers: ``designs`` repairs of the seed's
    first designs, traced on a server of their own."""
    recorder = SpanRecorder()
    server = Server(gate, recorder)
    with instrument(recorder):
        try:
            results = [
                _repair_unit(server, design_seed(seed, index), scale, golden)
                for index in range(designs)
            ]
        finally:
            server.close()
    transcripts = [r["transcript"] for r in results if r.get("transcript")]
    evaluations = sum(t["evaluations"] for t in transcripts)
    seconds = sum(r["repair"] for r in results if r.get("transcript"))
    n = max(1, len(transcripts))
    return {
        "repair.evaluations": evaluations / n,
        "repair.edits_committed": sum(t["edits_committed"] for t in transcripts) / n,
        "repair.reuse_frac": sum(t["warm"]["reuse_ratio"] for t in transcripts) / n,
        "repair.per_eval_s": seconds / evaluations if evaluations else 0.0,
    }


# -- per-layer numbers shared by the workloads ----------------------------------


def common_layers(recorder: SpanRecorder, counters: dict, gate: Gate) -> dict:
    """Layer numbers every workload reports: span self times, routing and
    solver counters, and the propagation counters per mode group."""
    selfs = recorder.self_times()
    c = recorder.counters
    layers = {
        "circuit.generate_s": selfs.get("circuit.generate", 0.0),
        "layout.place_s": selfs.get("layout.place", 0.0),
        "layout.route_s": selfs.get("layout.route", 0.0),
        "layout.extract_s": selfs.get("layout.extract", 0.0),
        "layout.route_overflows": c.get("layout.route_overflows", 0.0),
        "layout.segments": c.get("layout.segments", 0.0),
        "flow.loads_s": selfs.get("flow.design", 0.0),
        "columnar.compile_s": selfs.get("columnar.compile", 0.0),
        "slack.compute_s": selfs.get("slack.compute", 0.0),
        "explain_s": selfs.get("explain", 0.0),
        "netreport.rank_s": selfs.get("netreport.rank", 0.0),
    }
    for action in ("drop_coupling", "set_coupling", "respace", "upsize"):
        layers[f"edits.apply_s.{action}"] = selfs.get(f"edits.apply.{action}", 0.0)
    for group in ("fixed", "one_step", "iterative"):
        values = counters.get(group, {})
        for phase in PHASES:
            key = f"propagation.phase_seconds{{phase={phase}}}"
            layers[f"propagation.{group}.{phase}_s"] = values.get(key, 0.0)
    totals: dict[str, float] = {}
    for values in counters.values():
        for key, value in values.items():
            totals[key] = totals.get(key, 0.0) + value
    layers["propagation.arcs"] = totals.get("propagation.arcs_processed", 0.0)
    layers["propagation.waveform_evaluations"] = totals.get(
        "propagation.waveform_evaluations", 0.0
    )
    layers["propagation.coupling_waves"] = totals.get("propagation.coupling_waves", 0.0)

    solves = c.get("waveform.solves", 0.0)
    evaluations = c.get("waveform.evaluations", 0.0)
    calls = c.get("waveform.batch_calls", 0.0)
    layers["waveform.solve_s"] = c.get("waveform.solve_s", 0.0)
    layers["waveform.solves"] = solves
    layers["waveform.batch_calls"] = calls
    layers["waveform.batch_size_mean"] = c.get("waveform.batch_entries", 0.0) / calls if calls else 0.0
    layers["waveform.reuse_frac"] = max(0.0, 1.0 - solves / evaluations) if evaluations else 0.0
    costs = [getattr(calc, "_sig_cost", {}) for calc in recorder.calculators]
    n_solves = sum(v[0] for cost in costs for v in cost.values())
    n_iters = sum(v[1] for cost in costs for v in cost.values())
    layers["newton.iterations_per_solve"] = n_iters / n_solves if n_solves else 0.0
    layers["iterative.passes"] = 0.0
    layers["iterative.reused_frac"] = 0.0
    layers["whatif.analysis_s"] = 0.0
    layers["whatif.dirty_arcs"] = 0.0
    layers["whatif.overhead_s"] = 0.0
    layers["service.ping_p50_s"] = 0.0
    layers["service.queue_wait_s"] = 0.0
    layers["service.rejected"] = 0.0
    for key in ("evaluations", "edits_committed", "reuse_frac", "per_eval_s"):
        layers[f"repair.{key}"] = 0.0
    layers["error_rate"] = gate.error_rate
    return layers


def service_layers(server: Server, snapshot: dict) -> dict:
    waits = [
        h for key, h in snapshot.get("histograms", {}).items()
        if key.startswith("service.queue_wait_seconds")
    ]
    count = sum(h.get("count", 0) for h in waits)
    rejected = snapshot.get("counters", {}).get("service.requests_rejected", 0.0)
    return {
        "service.ping_p50_s": median(server.latencies.get("ping", [])),
        "service.queue_wait_s": sum(h.get("sum", 0.0) for h in waits) / count if count else 0.0,
        "service.rejected": float(max(server.rejected, rejected)),
    }


WORKLOADS = {
    "table1-cold": (measure_table1, traced_table1, 0.03),
    "eco-session": (measure_eco, traced_eco, 0.02),
}
