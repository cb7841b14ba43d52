"""Autonomous crosstalk repair over warm what-if sessions.

The repair loop closes the paper's analyze -> rank -> fix cycle without a
designer in it: rank victims by true required-time slack weighted by
coupling exposure (:func:`repro.core.netreport.rank_crosstalk_nets` over
the backward pass of :mod:`repro.core.slack`), propose candidate fixes
from the ECO vocabulary (:mod:`repro.flow.edits`), evaluate every
candidate *warm* through the session's transactional what-if path (which
re-solves only the dirty cone, bit-identical to a cold analysis), commit
only the candidate that strictly improves worst slack, and iterate until
the target slack is met or the edit budget is exhausted.

Because candidates are evaluated warm and committed transactionally, the
loop never performs a cold re-analysis itself; the optional
``cold_verify`` step at the end runs exactly one cold analysis of the
committed design and records whether it lands bit-identically on the
warm result -- the acceptance check the CI ``repair-smoke`` job asserts.

The returned transcript (schema ``repro.repair/1``) is machine-readable
and self-validating: :func:`validate_repair` re-checks the monotone
slack trajectory from the hex-pinned floats, and ``committed_edits``
carries the normalized edit list the fleet router replays onto a
replacement shard on failover.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING

from repro.errors import InputError, ReproError
from repro.flow.edits import edit_nets
from repro.flow.repair import _DRIVE_ORDER

if TYPE_CHECKING:
    from repro.core.netreport import NetExposure
    from repro.flow.design import Design
    from repro.service.session import Session

REPAIR_SCHEMA = "repro.repair/1"


def propose_edits(
    design: "Design",
    exposure: "NetExposure",
    dont_touch: frozenset[str],
    guard_tracks: int = 1,
) -> list[dict]:
    """Candidate ECO edits for one victim net, cheapest model first.

    Per victim: drop the largest aggressor coupling (models a planned
    shield, costs nothing to apply), re-route the victim with guard
    spacing (the classic physical fix), and upsize the victim's driver
    when it has drive headroom.  Edits touching a dont-touch net are
    never proposed.
    """
    victim = exposure.net
    if victim in dont_touch:
        return []
    edits: list[dict] = []
    load = design.loads.get(victim)
    if load is not None and load.couplings:
        aggressors = sorted(load.couplings.items(), key=lambda kv: (-kv[1], kv[0]))
        for neighbour, _cap in aggressors:
            if neighbour not in dont_touch:
                edits.append(
                    {"action": "drop_coupling", "net": victim, "neighbour": neighbour}
                )
                break
    edits.append(
        {"action": "respace", "nets": [victim], "guard_tracks": guard_tracks}
    )
    net = design.circuit.nets.get(victim)
    driver = net.driver_cell() if net is not None else None
    if driver is not None:
        _base, _, drive = driver.ctype.name.rpartition("_")
        if drive in _DRIVE_ORDER and drive != _DRIVE_ORDER[-1]:
            edits.append({"action": "upsize", "nets": [victim], "steps": 1})
    return [e for e in edits if not (set(edit_nets(e)) & dont_touch)]


def _edit_key(edit: dict) -> tuple:
    """Canonical identity of an edit (for the no-retry rejected set)."""
    return tuple(sorted((k, repr(v)) for k, v in edit.items()))


def _slack_point(worst_slack: float) -> dict:
    return {
        "worst_slack": worst_slack,
        "worst_slack_hex": float(worst_slack).hex(),
        "worst_slack_ps": worst_slack * 1e12,
    }


def repair_session(
    session: "Session",
    mode: str | None = None,
    target_slack: float = 0.0,
    max_edits: int = 8,
    beam: int = 3,
    guard_tracks: int = 1,
    dont_touch: list[str] | tuple[str, ...] | None = None,
    cold_verify: bool = False,
) -> dict:
    """Run the autonomous repair loop on one warm session.

    The session must carry a ``clock_period`` (so every analysis comes
    with a backward slack pass).  Returns the ``repro.repair/1``
    transcript; the session's design, analyzer state and
    ``committed_edits`` reflect every committed fix on return.
    """
    if session.config.clock_period is None:
        raise InputError(
            "repair needs a clock period; open the session with a "
            "'clock_period' config override (or pass --clock-period)"
        )
    if max_edits < 1:
        raise InputError("max_edits must be positive")
    if beam < 1:
        raise InputError("beam must be positive")
    if guard_tracks < 1:
        raise InputError("guard_tracks must be positive")
    dont = frozenset(dont_touch or ())
    unknown = sorted(n for n in dont if n not in session.design.circuit.nets)
    if unknown:
        raise InputError(f"dont_touch names unknown nets: {unknown}")

    resolved = session._mode(mode)
    baseline = session.analyze(resolved.value)
    assert baseline.slack is not None
    current = baseline.slack.worst_slack

    trajectory = [_slack_point(current)]
    rounds: list[dict] = []
    committed: list[dict] = []
    rejected: set[tuple] = set()
    evaluations = 0
    dirty_arcs = 0
    reused_arcs = 0
    stop_reason = "target_reached"

    while current < target_slack:
        if len(committed) >= max_edits:
            stop_reason = "budget_exhausted"
            break
        exposures = session.exposures(resolved.value)
        victims = [e for e in exposures if e.slack < target_slack] or exposures[:beam]
        candidates: list[dict] = []
        for exposure in victims:
            proposed = [
                e
                for e in propose_edits(
                    session.design, exposure, dont, guard_tracks=guard_tracks
                )
                if _edit_key(e) not in rejected
            ]
            if proposed:
                candidates.extend(proposed)
            if len({tuple(edit_nets(c)) for c in candidates}) >= beam:
                break
        if not candidates:
            stop_reason = "no_candidates"
            break

        round_entry: dict = {
            "round": len(rounds) + 1,
            "worst_slack_before": current,
            "worst_slack_before_hex": float(current).hex(),
            "candidates": [],
            "committed": None,
        }
        best_edit = None
        best_slack = current
        for edit in candidates:
            record: dict = {"edit": dict(edit)}
            try:
                response = session.whatif(edit, mode=resolved.value, commit=False)
            except ReproError as exc:
                record["error"] = str(exc)
                rejected.add(_edit_key(edit))
                round_entry["candidates"].append(record)
                continue
            evaluations += 1
            after = response["after"]
            dirty_arcs += after.get("dirty_arcs", 0)
            reused_arcs += after.get("reused_arcs", 0)
            worst = after["worst_slack"]
            record.update(_slack_point(worst))
            record["improvement_ps"] = (worst - current) * 1e12
            round_entry["candidates"].append(record)
            if worst > best_slack:
                best_slack = worst
                best_edit = response["edit"]
        if best_edit is None:
            # Nothing improved: retire this round's candidates and try the
            # next victims; a later round with no fresh candidates ends the
            # loop.  Worst slack never moves, so the trajectory stays
            # monotone by construction.
            for edit in candidates:
                rejected.add(_edit_key(edit))
            rounds.append(round_entry)
            continue
        response = session.whatif(best_edit, mode=resolved.value, commit=True)
        evaluations += 1
        after = response["after"]
        dirty_arcs += after.get("dirty_arcs", 0)
        reused_arcs += after.get("reused_arcs", 0)
        committed.append(dict(response["edit"]))
        current = after["worst_slack"]
        round_entry["committed"] = dict(response["edit"])
        round_entry.update(
            {
                "worst_slack_after": current,
                "worst_slack_after_hex": float(current).hex(),
            }
        )
        rounds.append(round_entry)
        trajectory.append(_slack_point(current))

    final_result = session.analyze(resolved.value)
    assert final_result.slack is not None
    final = final_result.slack

    cold = None
    cold_analyses = 0
    if cold_verify:
        from repro.core.analyzer import CrosstalkSTA

        cold_config = replace(session.config, mode=resolved, checkpoint=None)
        cold_result = CrosstalkSTA(
            session.design, cold_config, obs=session.obs
        ).run()
        cold_analyses = 1
        assert cold_result.slack is not None
        cold = {
            "longest_delay_hex": float(cold_result.longest_delay).hex(),
            "warm_longest_delay_hex": float(final_result.longest_delay).hex(),
            "worst_slack_hex": float(cold_result.slack.worst_slack).hex(),
            "warm_worst_slack_hex": float(final.worst_slack).hex(),
        }
        cold["identical"] = (
            cold["longest_delay_hex"] == cold["warm_longest_delay_hex"]
            and cold["worst_slack_hex"] == cold["warm_worst_slack_hex"]
        )

    warm_total = dirty_arcs + reused_arcs
    return {
        "schema": REPAIR_SCHEMA,
        "session": session.session_id,
        "design": session.design.name,
        "mode": resolved.value,
        "clock_period": session.config.clock_period,
        "target_slack": target_slack,
        "max_edits": max_edits,
        "beam": beam,
        "guard_tracks": guard_tracks,
        "dont_touch": sorted(dont),
        "baseline": _slack_point(baseline.slack.worst_slack)
        | {
            "violations": baseline.slack.violations,
            "total_negative_slack": baseline.slack.total_negative_slack,
        },
        "final": _slack_point(final.worst_slack)
        | {
            "violations": final.violations,
            "total_negative_slack": final.total_negative_slack,
            "met": final.worst_slack >= target_slack,
        },
        "stop_reason": stop_reason,
        "rounds": rounds,
        "trajectory": trajectory,
        "committed_edits": committed,
        "edits_committed": len(committed),
        "evaluations": evaluations,
        "cold_analyses": cold_analyses,
        "warm": {
            "dirty_arcs": dirty_arcs,
            "reused_arcs": reused_arcs,
            "reuse_ratio": (reused_arcs / warm_total) if warm_total else 0.0,
        },
        "cold_verify": cold,
    }


def validate_repair(payload: dict) -> None:
    """Re-check a repair transcript from its hex-pinned floats.

    Raises :class:`ValueError` when the trajectory is not monotone
    non-worsening, the committed-edit count disagrees with the rounds,
    or a requested cold verification did not land bit-identically.
    """
    if payload.get("schema") != REPAIR_SCHEMA:
        raise ValueError(
            f"repair schema {payload.get('schema')!r} != {REPAIR_SCHEMA!r}"
        )
    trajectory = payload.get("trajectory")
    if not isinstance(trajectory, list) or not trajectory:
        raise ValueError("repair transcript has no trajectory")
    values = [float.fromhex(point["worst_slack_hex"]) for point in trajectory]
    for before, after in zip(values, values[1:]):
        if after < before:
            raise ValueError(
                f"slack trajectory worsened: {before!r} -> {after!r}"
            )
    committed = payload.get("committed_edits", [])
    if len(committed) != payload.get("edits_committed"):
        raise ValueError("edits_committed disagrees with committed_edits")
    committed_rounds = [
        r for r in payload.get("rounds", []) if r.get("committed") is not None
    ]
    if len(committed_rounds) != len(committed):
        raise ValueError("rounds with commits disagree with committed_edits")
    if len(values) != len(committed) + 1:
        raise ValueError("trajectory length disagrees with committed_edits")
    final_hex = payload.get("final", {}).get("worst_slack_hex")
    if final_hex != trajectory[-1]["worst_slack_hex"]:
        raise ValueError("final worst slack disagrees with trajectory tail")
    cold = payload.get("cold_verify")
    if cold is not None and not cold.get("identical"):
        raise ValueError(
            "cold re-analysis of the committed design is not bit-identical "
            f"to the warm result: {cold}"
        )


def format_repair(payload: dict) -> str:
    """Human-readable rendering of a repair transcript."""
    baseline = payload["baseline"]
    final = payload["final"]
    lines = [
        f"repair [{payload['design']}] mode={payload['mode']} "
        f"clock={payload['clock_period'] * 1e9:.3f} ns "
        f"target={payload['target_slack'] * 1e12:+.1f} ps",
        f"  worst slack {baseline['worst_slack_ps']:+.1f} -> "
        f"{final['worst_slack_ps']:+.1f} ps, "
        f"violations {baseline['violations']} -> {final['violations']} "
        f"({'met' if final['met'] else payload['stop_reason']})",
        f"  {payload['edits_committed']} edits committed, "
        f"{payload['evaluations']} warm evaluations, "
        f"{payload['cold_analyses']} cold analyses "
        f"(warm reuse {payload['warm']['reuse_ratio']:.1%})",
    ]
    for entry in payload["rounds"]:
        chosen = entry.get("committed")
        if chosen is None:
            lines.append(
                f"  round {entry['round']}: {len(entry['candidates'])} "
                "candidates, none improved"
            )
            continue
        after_ps = entry["worst_slack_after"] * 1e12
        lines.append(
            f"  round {entry['round']}: {chosen['action']} "
            f"{','.join(edit_nets(chosen))} -> {after_ps:+.1f} ps "
            f"({len(entry['candidates'])} candidates)"
        )
    cold = payload.get("cold_verify")
    if cold is not None:
        lines.append(
            "  cold verify: "
            + ("bit-identical" if cold["identical"] else "MISMATCH")
        )
    return "\n".join(lines)
