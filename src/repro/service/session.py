"""Persistent design sessions: warm analyzer state between queries.

A :class:`Session` owns everything a one-shot CLI run throws away: the
prepared :class:`~repro.flow.design.Design`, an analyzer whose
:class:`~repro.waveform.gatedelay.GateDelayCalculator` (stage tables,
canonicalized arc cache) stays hot, per-mode retained propagators with
their delta-driven arc memos, and the last :class:`StaResult` per mode.
A repeated ``analyze`` re-anchors instead of re-solving; a ``whatif``
builds an edited design, seeds its propagator from the warm one and pays
only for the dirty cone -- with results bit-identical to a cold analysis
of the edited design (the incremental engine's PR-4 guarantee).

:class:`SessionManager` bounds memory with LRU eviction and keys an
optional iterative-mode checkpoint file per session
(:mod:`repro.core.checkpoint`), so re-opening an evicted or killed
session's exact design resumes from the last completed pass instead of
starting over.  The checkpoint filename includes a digest of the
design's netlist *and* parasitics, so a changed ``.bench`` file or an
edited (committed) design can never resume from stale state.
"""

from __future__ import annotations

import hashlib
import os
import threading
import time
import uuid
from collections import OrderedDict
from dataclasses import replace

from repro.circuit import resolve_circuit
from repro.core.analyzer import CrosstalkSTA, StaResult
from repro.core.explain import explain_result, validate_explain
from repro.core.export import path_to_dict
from repro.core.modes import AnalysisMode, StaConfig, WindowCheck
from repro.core.netreport import exposure_to_dict, rank_crosstalk_nets
from repro.errors import InputError
from repro.flow import prepare_design
from repro.flow.design import Design
from repro.flow.edits import apply_edit
from repro.obs import Observability
from repro.service.handoff import encode_handoff
from repro.service.protocol import ERR_UNKNOWN_SESSION, ServiceError
from repro.waveform.pwl import FALLING, RISING

# StaConfig fields a client may override per session.
_CONFIG_OVERRIDES = {
    "mode": lambda v: AnalysisMode(v),
    "window_check": lambda v: WindowCheck(v),
    "esperance": bool,
    "strict": bool,
    "max_degraded": lambda v: None if v is None else int(v),
    "max_iterations": int,
    "clock_period": lambda v: None if v is None else float(v),
    "setup_time": float,
    "hold_time": float,
}


def session_config(base: StaConfig, overrides: dict | None) -> StaConfig:
    """Apply whitelisted client overrides to the server's base config."""
    if not overrides:
        return base
    kwargs = {}
    for key, value in overrides.items():
        convert = _CONFIG_OVERRIDES.get(key)
        if convert is None:
            raise InputError(
                f"unknown config override {key!r}; have {sorted(_CONFIG_OVERRIDES)}"
            )
        try:
            kwargs[key] = convert(value)
        except (TypeError, ValueError) as exc:
            raise InputError(f"bad value for config override {key!r}: {exc}")
    return replace(base, **kwargs)


def design_digest(design: Design) -> str:
    """Digest of everything that determines the design's timing: the
    mapped netlist plus the per-net electrical views (fixed loads,
    coupling neighbours, sink Elmore delays)."""
    h = hashlib.sha256()
    for name in sorted(design.circuit.cells):
        cell = design.circuit.cells[name]
        pins = ",".join(
            f"{pin.name}:{pin.net.name if pin.net is not None else ''}"
            for pin in sorted(cell.pins.values(), key=lambda p: p.name)
        )
        h.update(f"C|{name}|{cell.ctype.name}|{pins}\n".encode())
    for name in sorted(design.loads):
        load = design.loads[name]
        couplings = ",".join(
            f"{other}:{cap.hex()}" for other, cap in sorted(load.couplings.items())
        )
        elmore = ",".join(
            f"{term}:{delay.hex()}" for term, delay in sorted(load.sink_elmore.items())
        )
        h.update(f"L|{name}|{load.c_fixed.hex()}|{couplings}|{elmore}\n".encode())
    return h.hexdigest()


def _finite(value: float) -> float | None:
    """JSON-safe float: infinities (empty/unknown windows) become null."""
    if value != value or value in (float("inf"), float("-inf")):
        return None
    return value


def result_summary(result: StaResult) -> dict:
    """The wire form of one analysis result (hex pins bit-exactness)."""
    summary = {
        "mode": result.mode.value,
        "design": result.design_name,
        "longest_delay": result.longest_delay,
        "longest_delay_hex": float(result.longest_delay).hex(),
        "longest_delay_ns": result.longest_delay_ns,
        "critical_endpoint": result.critical_endpoint,
        "critical_direction": result.critical_direction,
        "passes": result.passes,
        "waveform_evaluations": result.waveform_evaluations,
        "arcs_processed": result.arcs_processed,
        "coupled_arcs": result.coupled_arcs,
        "dirty_arcs": sum(r.dirty_arcs for r in result.history),
        "reused_arcs": sum(r.reused_arcs for r in result.history),
        "degraded_arcs": len(result.degraded_arcs),
        "runtime_seconds": result.runtime_seconds,
    }
    if result.slack is not None:
        slack = result.slack
        summary["worst_slack"] = slack.worst_slack
        summary["worst_slack_hex"] = float(slack.worst_slack).hex()
        summary["worst_slack_ps"] = slack.worst_slack_ps
        summary["worst_slack_endpoint"] = slack.worst_endpoint
        summary["slack_violations"] = slack.violations
        summary["total_negative_slack"] = slack.total_negative_slack
        summary["slack_met"] = slack.met
    return summary


class Session:
    """One open design with warm analysis state (see module docstring).

    Not internally synchronized: callers serialize access through
    ``lock`` (the service dispatcher does).
    """

    def __init__(
        self,
        session_id: str,
        spec: str,
        design: Design,
        config: StaConfig,
        obs: Observability,
        checkpoint_path: str | None = None,
        scale: float = 0.05,
        overrides: dict | None = None,
        committed_edits: list[dict] | None = None,
    ):
        self.session_id = session_id
        self.spec = spec
        self.design = design
        self.obs = obs
        self.checkpoint_path = checkpoint_path
        if checkpoint_path is not None:
            config = replace(config, checkpoint=checkpoint_path)
        self.config = config
        # Replication descriptor: everything a replacement shard needs to
        # rebuild this session bit-identically (see repro.service.handoff).
        self.scale = float(scale)
        self.overrides = dict(overrides) if overrides else None
        self.committed_edits: list[dict] = list(committed_edits or [])
        self.sta = CrosstalkSTA(design, config, obs=obs, keep_propagators=True)
        self.lock = threading.Lock()
        self.results: dict[AnalysisMode, StaResult] = {}
        self._exposures: dict[AnalysisMode, list] = {}
        self.queries = 0
        self.whatifs = 0
        self.opened_at = time.monotonic()
        self.last_used = self.opened_at
        metrics = obs.metrics
        self._c_whatif_dirty = metrics.counter("service.whatif.dirty_arcs")
        self._c_whatif_reused = metrics.counter("service.whatif.reused_arcs")

    def _mode(self, mode: str | None) -> AnalysisMode:
        if mode is None:
            return self.config.mode
        try:
            return AnalysisMode(mode)
        except ValueError:
            raise InputError(
                f"unknown mode {mode!r}; have {[m.value for m in AnalysisMode]}"
            )

    # -- queries -------------------------------------------------------------
    #
    # Each public query counts once in ``queries``; the private helpers
    # they share do not count.

    def analyze(self, mode: str | None = None, force: bool = False) -> StaResult:
        """Run (or return the cached) analysis for one mode.

        The first call per mode pays the full price; repeats are served
        from the cached result, and a ``force`` re-run starts from the
        retained propagator's warm memo, so it re-anchors rather than
        re-solves.
        """
        resolved = self._mode(mode)
        self.queries += 1
        return self._analyze(resolved, force)

    def _analyze(self, resolved: AnalysisMode, force: bool = False) -> StaResult:
        cached = self.results.get(resolved)
        if cached is not None and not force:
            return cached
        result = self.sta.run(resolved)
        self.results[resolved] = result
        self._exposures.pop(resolved, None)
        return result

    def exposures(self, mode: str | None = None) -> list:
        resolved = self._mode(mode)
        self.queries += 1
        return self._ranked(resolved)

    def _ranked(self, resolved: AnalysisMode) -> list:
        result = self._analyze(resolved)
        cached = self._exposures.get(resolved)
        if cached is None:
            cached = rank_crosstalk_nets(
                self.design, result.final_pass, top=None, slack=result.slack
            )
            self._exposures[resolved] = cached
        return cached

    def query_net(self, net: str, mode: str | None = None) -> dict:
        """Per-net timing view: events, quiescent times, coupling, rank."""
        resolved = self._mode(mode)
        load = self.design.loads.get(net)
        if load is None:
            raise InputError(f"unknown net {net!r}")
        self.queries += 1
        result = self._analyze(resolved)
        state = result.final_pass.state
        events = {}
        quiescent = {}
        for direction in (RISING, FALLING):
            event = state.event(net, direction)
            events[direction] = (
                None
                if event is None
                else {
                    "t_cross": event.t_cross,
                    "t_cross_hex": float(event.t_cross).hex(),
                    "transition": event.transition,
                    "t_early": event.t_early,
                    "t_late": event.t_late,
                }
            )
            quiescent[direction] = _finite(state.quiet_time(net, direction))
        ranked = self._ranked(resolved)
        exposure = next((e for e in ranked if e.net == net), None)
        rank = None
        if exposure is not None:
            rank = ranked.index(exposure) + 1
        return {
            "session": self.session_id,
            "mode": resolved.value,
            "net": net,
            "events": events,
            "quiescent": quiescent,
            "c_fixed": load.c_fixed,
            "couplings": dict(load.couplings),
            "coupling_cap_total": load.c_coupling_total,
            "exposure": exposure_to_dict(exposure) if exposure is not None else None,
            "rank": rank,
        }

    def query_path(self, mode: str | None = None) -> dict:
        """The worst path of one mode's analysis, as the export dict."""
        resolved = self._mode(mode)
        self.queries += 1
        result = self._analyze(resolved)
        payload = path_to_dict(self.sta.critical_path(result))
        payload["session"] = self.session_id
        payload["mode"] = resolved.value
        payload["delay_hex"] = float(payload["delay"]).hex()
        return payload

    def explain(self, mode: str | None = None, paths: int = 1, top: int = 10) -> dict:
        """Worst-path breakdown with provenance (``repro.explain/1``).

        Validated before it leaves the session: stage contributions must
        telescope bit-exactly onto the reported path delay.
        """
        resolved = self._mode(mode)
        self.queries += 1
        result = self._analyze(resolved)
        payload = explain_result(
            self.design.circuit, result, k=paths, top=top
        )
        validate_explain(payload)
        payload["session"] = self.session_id
        return payload

    def whatif(self, edit: dict, mode: str | None = None, commit: bool = False) -> dict:
        """Apply an ECO edit, re-analyze incrementally, report the delta.

        Transactional: the session's design, analyzer and cached results
        are replaced only when the analysis of the edited design
        succeeded *and* the client asked to ``commit``; any failure (bad
        edit, solver fault, degradation budget) leaves the session
        exactly as it was.
        """
        resolved = self._mode(mode)
        self.queries += 1
        baseline = self._analyze(resolved)
        edited_design, normalized = apply_edit(self.design, edit)
        # A commit changes the design, not the session's mode: the
        # failover handoff replays the open-time config and the edits.
        config = replace(self.config, checkpoint=None)
        after_sta = CrosstalkSTA(
            edited_design,
            config,
            calculator=self.sta.calculator,
            obs=self.obs,
            keep_propagators=True,
        )
        after_sta.warm_start_from(self.sta)
        after = after_sta.run(resolved)
        self.whatifs += 1
        dirty = sum(r.dirty_arcs for r in after.history)
        reused = sum(r.reused_arcs for r in after.history)
        self._c_whatif_dirty.inc(dirty)
        self._c_whatif_reused.inc(reused)
        if commit:
            self.design = edited_design
            self.sta = after_sta
            self.config = config
            self.results = {resolved: after}
            self._exposures = {}
            self.committed_edits.append(dict(normalized))
            self._drop_checkpoint()
        delta = after.longest_delay - baseline.longest_delay
        return {
            "session": self.session_id,
            "mode": resolved.value,
            "edit": normalized,
            "committed": bool(commit),
            "before": result_summary(baseline),
            "after": result_summary(after),
            "delta": {
                "longest_delay": delta,
                "longest_delay_ns": delta * 1e9,
                "improvement_ps": -delta * 1e12,
            },
        }

    def repair(
        self,
        mode: str | None = None,
        target_slack: float = 0.0,
        max_edits: int = 8,
        beam: int = 3,
        guard_tracks: int = 1,
        dont_touch: list[str] | None = None,
        cold_verify: bool = False,
    ) -> dict:
        """Autonomous crosstalk repair over this session's warm state.

        Delegates to :func:`repro.flow.optimizer.repair_session`: every
        candidate is evaluated through :meth:`whatif` (warm, dirty-cone
        only) and only strict worst-slack improvements are committed, so
        the session ends on the best design the loop found and
        ``committed_edits`` carries the full replayable edit list.
        """
        from repro.flow.optimizer import repair_session, validate_repair

        transcript = repair_session(
            self,
            mode=mode,
            target_slack=target_slack,
            max_edits=max_edits,
            beam=beam,
            guard_tracks=guard_tracks,
            dont_touch=dont_touch,
            cold_verify=cold_verify,
        )
        validate_repair(transcript)
        return transcript

    def _drop_checkpoint(self) -> None:
        """A committed edit changed the design; the stored baseline
        checkpoint no longer describes this session and must not be
        resumable (its filename is keyed by the *original* design)."""
        if self.checkpoint_path is not None:
            try:
                os.unlink(self.checkpoint_path)
            except FileNotFoundError:
                pass
            self.checkpoint_path = None

    def handoff(self) -> dict:
        """The checksummed replication payload for this session (what the
        fleet router replays onto a replacement shard on failover)."""
        return encode_handoff(
            self.session_id,
            self.spec,
            self.scale,
            self.overrides,
            self.committed_edits,
        )

    def info(self) -> dict:
        circuit = self.design.circuit
        coupling_pairs = (
            sum(len(load.couplings) for load in self.design.loads.values()) // 2
        )
        return {
            "session": self.session_id,
            "spec": self.spec,
            "design": self.design.name,
            "cells": circuit.cell_count(),
            "nets": len(circuit.nets),
            "coupling_pairs": coupling_pairs,
            "mode": self.config.mode.value,
            "window_check": self.config.window_check.value,
            "checkpoint": self.checkpoint_path,
            "analyzed_modes": sorted(m.value for m in self.results),
            "queries": self.queries,
            "whatifs": self.whatifs,
            "committed_edits": len(self.committed_edits),
        }

    def stats(self) -> dict:
        return {
            "session": self.session_id,
            "design": self.design.name,
            "queries": self.queries,
            "whatifs": self.whatifs,
            "analyzed_modes": sorted(m.value for m in self.results),
            "uptime_seconds": time.monotonic() - self.opened_at,
        }


class SessionManager:
    """Bounded registry of open sessions with LRU eviction."""

    def __init__(
        self,
        config: StaConfig | None = None,
        max_sessions: int = 8,
        checkpoint_dir: str | None = None,
        obs: Observability | None = None,
    ):
        if max_sessions < 1:
            raise InputError("max_sessions must be positive")
        self.config = config if config is not None else StaConfig()
        self.max_sessions = max_sessions
        self.checkpoint_dir = checkpoint_dir
        self.obs = obs if obs is not None else Observability.disabled()
        self._sessions: "OrderedDict[str, Session]" = OrderedDict()
        self._lock = threading.Lock()
        metrics = self.obs.metrics
        self._g_sessions = metrics.gauge("service.sessions")
        self._g_sessions.set(0)
        self._c_opened = metrics.counter("service.sessions_opened")
        self._c_evicted = metrics.counter("service.sessions_evicted")

    def _checkpoint_path(self, spec: str, scale: float, design: Design, config: StaConfig) -> str | None:
        if self.checkpoint_dir is None or config.mode is not AnalysisMode.ITERATIVE:
            return None
        os.makedirs(self.checkpoint_dir, exist_ok=True)
        digest = hashlib.sha256(
            f"{spec}|{float(scale).hex()}|{config!r}|{design_digest(design)}".encode()
        ).hexdigest()[:24]
        return os.path.join(self.checkpoint_dir, f"{digest}.ckpt")

    def open(
        self, netlist: str, scale: float = 0.05, config: dict | None = None
    ) -> Session:
        """Load and prepare a design, register a session for it."""
        session_config_ = session_config(self.config, config)
        circuit = resolve_circuit(netlist, scale)
        design = prepare_design(circuit)
        session = Session(
            session_id=uuid.uuid4().hex[:12],
            spec=netlist,
            design=design,
            config=session_config_,
            obs=self.obs,
            checkpoint_path=self._checkpoint_path(
                netlist, scale, design, session_config_
            ),
            scale=scale,
            overrides=config,
        )
        self._register(session)
        return session

    def restore(self, body: dict) -> Session:
        """Rebuild a session from a decoded handoff body (failover replay).

        Everything -- circuit, physical design, committed-edit replay,
        the session object itself -- is built *aside* before anything is
        registered, so a failure at any point (bad spec, inapplicable
        edit) leaves the manager, including any live session under the
        same id, exactly as it was: a handoff can reject, never
        half-restore.  The restored session keeps the handoff's session
        id, and an unedited iterative session re-attaches to the shared
        checkpoint file the dead owner wrote (same spec/config/digest
        key), so its first analyze resumes from the last completed pass.
        """
        session_config_ = session_config(self.config, body["config"])
        circuit = resolve_circuit(body["spec"], body["scale"])
        design = prepare_design(circuit)
        for edit in body["edits"]:
            design, _ = apply_edit(design, edit)
        # A committed edit invalidated the original checkpoint (the
        # session dropped it on commit); only pristine sessions resume.
        checkpoint_path = (
            self._checkpoint_path(body["spec"], body["scale"], design, session_config_)
            if not body["edits"]
            else None
        )
        session = Session(
            session_id=body["session"],
            spec=body["spec"],
            design=design,
            config=session_config_,
            obs=self.obs,
            checkpoint_path=checkpoint_path,
            scale=body["scale"],
            overrides=body["config"],
            committed_edits=body["edits"],
        )
        self._register(session)
        return session

    def _register(self, session: Session) -> None:
        """Insert (or atomically replace, on same-id restore) a fully
        built session, applying the LRU bound."""
        evicted: list[Session] = []
        with self._lock:
            self._sessions.pop(session.session_id, None)
            self._sessions[session.session_id] = session
            while len(self._sessions) > self.max_sessions:
                _, lru = self._sessions.popitem(last=False)
                evicted.append(lru)
            self._g_sessions.set(len(self._sessions))
        self._c_opened.inc()
        if evicted:
            self._c_evicted.inc(len(evicted))

    def get(self, session_id: str) -> Session:
        with self._lock:
            session = self._sessions.get(session_id)
            if session is None:
                raise ServiceError(
                    ERR_UNKNOWN_SESSION, f"unknown session {session_id!r}"
                )
            self._sessions.move_to_end(session_id)
        session.last_used = time.monotonic()
        return session

    def close(self, session_id: str) -> dict:
        with self._lock:
            session = self._sessions.pop(session_id, None)
            if session is None:
                raise ServiceError(
                    ERR_UNKNOWN_SESSION, f"unknown session {session_id!r}"
                )
            self._g_sessions.set(len(self._sessions))
        return session.stats()

    def close_all(self) -> int:
        with self._lock:
            count = len(self._sessions)
            self._sessions.clear()
            self._g_sessions.set(0)
        return count

    def __len__(self) -> int:
        with self._lock:
            return len(self._sessions)

    def ids(self) -> list[str]:
        with self._lock:
            return list(self._sessions)

    def values(self) -> list[Session]:
        """Open sessions without touching LRU order (for ``stats``)."""
        with self._lock:
            return list(self._sessions.values())
