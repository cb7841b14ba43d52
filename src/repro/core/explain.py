"""Critical-path explain engine.

Answers *why* a run reported its longest delay: the worst path(s) are
walked stage by stage, each stage annotated with the provenance row the
ledger recorded for its winning arc (solver, reuse origin, decided
coupling, aggressor counts, pass index, signature token) and its
coupling delta (the coupled minus quiescent crossing time).  The
per-stage **contributions telescope bit-exactly**: summing them left to
right in float arithmetic reproduces every stage's arrival and the
reported path delay *to the bit* (checked through ``float.hex``
round-trips by :func:`validate_explain`), so the breakdown is an audit
of the reported number, not an approximation of it.

An aggregated "blame" table ranks nets by the coupling-induced delay
shift of their winning arcs -- the per-net exposure figure the ECO
repair loop consumes.
"""

from __future__ import annotations

import math
from typing import Any

from repro.circuit.netlist import Circuit
from repro.core.paths import CriticalPath, endpoint_net_name, k_worst_paths
from repro.core.propagation import PassResult
from repro.errors import EngineError, InputError

EXPLAIN_SCHEMA = "repro.explain/1"


def _exact_increment(base: float, target: float) -> float:
    """The float ``c`` with ``base + c == target`` **bitwise**.

    ``target - base`` is the natural candidate but can round such that
    ``base + c`` lands one ulp off ``target``; float addition is
    monotone in ``c``, so nudging the candidate by ulps walks ``base +
    c`` directly onto ``target``.  A couple of nudges always suffice;
    the bound is pure paranoia.
    """
    c = target - base
    for _ in range(64):
        s = base + c
        if s == target:
            return c
        c = math.nextafter(c, math.inf if s < target else -math.inf)
    raise EngineError(
        f"no float increment lands {base!r} on {target!r}"
    )  # pragma: no cover - unreachable for finite inputs


def _wire_provenance(pass_index: int) -> dict[str, Any]:
    """Synthetic provenance of the final wire-to-endpoint stage: the
    Elmore shift is closed-form arithmetic, not an arc solve."""
    return {
        "tier": "elmore",
        "origin": "wire",
        "signature": "",
        "coupling": "none",
        "aggressors_total": 0,
        "aggressors_active": 0,
        "pass_index": pass_index,
        "coupling_delta": 0.0,
    }


def _stage_rows(
    result: Any,
    final: PassResult,
    path: CriticalPath,
    arrival: float,
) -> list[dict[str, Any]]:
    """Per-stage breakdown of one path, contributions telescoping
    bit-exactly from 0.0 to ``arrival``."""
    ledger = result.ledger
    state = final.state
    stages: list[dict[str, Any]] = []
    running = 0.0
    last_pass = 0
    for step in path.steps:
        row_id = state.arc_prov.get((step.out_net, step.out_direction))
        if ledger is not None and row_id is not None:
            prov = ledger.row(row_id)
        else:
            # Defensive: a net whose winning row predates the ledger
            # (it cannot happen in a fresh provenance-on run).
            prov = {
                "tier": "unknown",
                "origin": "unknown",
                "signature": "",
                "coupling": "none",
                "aggressors_total": 0,
                "aggressors_active": 0,
                "pass_index": 0,
                "coupling_delta": None,
            }
        last_pass = prov["pass_index"]
        contribution = _exact_increment(running, step.event.t_cross)
        running = running + contribution
        stages.append(
            {
                "kind": "gate",
                "cell": step.cell,
                "ctype": step.ctype,
                "in_pin": step.in_pin,
                "in_net": step.in_net,
                "in_direction": step.in_direction,
                "net": step.out_net,
                "direction": step.out_direction,
                "t_cross": step.event.t_cross,
                "t_cross_hex": step.event.t_cross.hex(),
                "transition": step.event.transition,
                "coupled": step.coupled,
                "contribution": contribution,
                "contribution_hex": contribution.hex(),
                "provenance": prov,
            }
        )
    # The reported delay is the *arrival at the endpoint terminal*: the
    # last driver event shifted by the endpoint sink's Elmore wire delay
    # (plus slew degradation).  That shift is a stage too -- without it
    # the contributions cannot sum to the reported number.
    contribution = _exact_increment(running, arrival)
    stages.append(
        {
            "kind": "wire",
            "cell": "",
            "ctype": "",
            "in_pin": "",
            "in_net": path.steps[-1].out_net if path.steps else "",
            "in_direction": path.direction,
            "net": path.endpoint,
            "direction": path.direction,
            "t_cross": arrival,
            "t_cross_hex": arrival.hex(),
            "transition": 0.0,
            "coupled": False,
            "contribution": contribution,
            "contribution_hex": contribution.hex(),
            "provenance": _wire_provenance(last_pass),
        }
    )
    return stages


def _blame_table(
    circuit: Circuit, result: Any, final: PassResult, top: int
) -> list[dict[str, Any]]:
    """Nets ranked by the coupling-induced delay shift of their winning
    arcs (the larger of the two transition directions)."""
    ledger = result.ledger
    if ledger is None:
        return []
    best: dict[str, dict[str, Any]] = {}
    for (net, direction), row_id in final.state.arc_prov.items():
        row = ledger.row(row_id)
        delta = row["coupling_delta"]
        if delta is None or delta <= 0.0:
            continue
        entry = best.get(net)
        if entry is None or delta > entry["coupling_delta"]:
            best[net] = {
                "net": net,
                "direction": direction,
                "coupling_delta": delta,
                "coupling_delta_hex": delta.hex(),
                "aggressors_active": row["aggressors_active"],
                "aggressors_total": row["aggressors_total"],
                "tier": row["tier"],
                "origin": row["origin"],
                "pass_index": row["pass_index"],
            }
    ranked = sorted(
        best.values(), key=lambda e: (-e["coupling_delta"], e["net"])
    )
    return ranked[: max(top, 0)]


def explain_result(
    circuit: Circuit,
    result: Any,
    k: int = 1,
    top: int = 10,
) -> dict[str, Any]:
    """The ``repro.explain/1`` payload for a finished run.

    ``k`` worst endpoint paths are broken down (worst first -- the first
    path's delay *is* ``longest_delay``); ``top`` bounds the blame
    table.  Requires the run to have recorded the provenance ledger
    (``StaConfig.provenance``, the default).
    """
    final = result.final_pass
    if final is None:
        raise InputError("result carries no final pass to explain")
    if result.ledger is None:
        raise InputError(
            "result has no provenance ledger; re-run with provenance "
            "enabled (drop --no-provenance) to explain it"
        )
    arrivals = {(a.endpoint, a.direction): a.event.t_cross for a in final.arrivals}
    paths = []
    for path in k_worst_paths(circuit, final, k=max(k, 1)):
        if not path.steps:
            continue
        arrival = arrivals[(path.endpoint, path.direction)]
        stages = _stage_rows(result, final, path, arrival)
        paths.append(
            {
                "endpoint": path.endpoint,
                "endpoint_net": endpoint_net_name(circuit, path.endpoint),
                "direction": path.direction,
                "arrival": arrival,
                "arrival_hex": arrival.hex(),
                "arrival_ns": arrival * 1e9,
                "stages": stages,
            }
        )
    return {
        "schema": EXPLAIN_SCHEMA,
        "design": result.design_name,
        "mode": result.mode.value,
        "longest_delay": result.longest_delay,
        "longest_delay_hex": result.longest_delay.hex(),
        "longest_delay_ns": result.longest_delay_ns,
        "critical_endpoint": result.critical_endpoint,
        "critical_direction": result.critical_direction,
        "passes": result.passes,
        "provenance_rows": len(result.ledger),
        "ledger_counts": result.ledger.counts(),
        "paths": paths,
        "blame": _blame_table(circuit, result, final, top),
    }


def validate_explain(payload: dict[str, Any]) -> None:
    """Schema and bit-exactness check of an explain payload.

    Every path's stage contributions, summed left to right through
    ``float.fromhex`` round-trips, must land exactly on the path's
    ``arrival_hex``; the first (worst) path's arrival must equal
    ``longest_delay_hex``; every stage must carry a populated provenance
    record.  Raises ``ValueError`` on any violation.
    """
    if payload.get("schema") != EXPLAIN_SCHEMA:
        raise ValueError(f"not an explain payload: {payload.get('schema')!r}")
    for key in ("longest_delay_hex", "paths", "blame", "ledger_counts"):
        if key not in payload:
            raise ValueError(f"explain payload missing {key!r}")
    if not payload["paths"]:
        raise ValueError("explain payload has no paths")
    for index, path in enumerate(payload["paths"]):
        running = 0.0
        for stage in path["stages"]:
            running = running + float.fromhex(stage["contribution_hex"])
            if running != float.fromhex(stage["t_cross_hex"]):
                raise ValueError(
                    f"path {index}: contributions do not telescope onto "
                    f"stage {stage['net']!r} ({running.hex()} != "
                    f"{stage['t_cross_hex']})"
                )
            prov = stage.get("provenance")
            if not prov or not prov.get("tier") or not prov.get("origin"):
                raise ValueError(
                    f"path {index}: stage {stage['net']!r} has no "
                    "populated provenance"
                )
        if running != float.fromhex(path["arrival_hex"]):
            raise ValueError(
                f"path {index}: contributions sum to {running.hex()}, "
                f"arrival is {path['arrival_hex']}"
            )
    worst = payload["paths"][0]
    if float.fromhex(worst["arrival_hex"]) != float.fromhex(
        payload["longest_delay_hex"]
    ):
        raise ValueError(
            "worst path arrival does not equal the reported longest delay"
        )


def format_explain(payload: dict[str, Any]) -> str:
    """Human-readable rendering of an explain payload."""
    lines: list[str] = [
        f"{payload['design']} [{payload['mode']}]: longest delay "
        f"{payload['longest_delay_ns']:.3f} ns via "
        f"{payload['critical_endpoint']} ({payload['critical_direction']}), "
        f"{payload['passes']} pass(es), "
        f"{payload['provenance_rows']} provenance rows",
    ]
    for path in payload["paths"]:
        lines.append("")
        lines.append(
            f"Path to {path['endpoint']} ({path['direction']}), arrival "
            f"{path['arrival_ns'] * 1e3:.1f} ps"
        )
        lines.append(
            f"{'stage':<20} {'net':<14} {'dir':<5} {'arrive [ps]':>12} "
            f"{'incr [ps]':>10} {'tier':>10} {'origin':>12} {'coupling':>10} "
            f"{'agg':>5} {'dCoup [ps]':>11}"
        )
        lines.append("-" * 116)
        for stage in path["stages"]:
            prov = stage["provenance"]
            delta = prov.get("coupling_delta")
            label = stage["cell"] if stage["kind"] == "gate" else "(wire)"
            aggressors = (
                f"{prov['aggressors_active']}/{prov['aggressors_total']}"
                if prov["aggressors_total"]
                else "-"
            )
            delta_col = f"{delta * 1e12:>11.1f}" if delta is not None else f"{'-':>11}"
            lines.append(
                f"{label:<20} {stage['net']:<14} {stage['direction']:<5} "
                f"{stage['t_cross'] * 1e12:>12.1f} "
                f"{stage['contribution'] * 1e12:>10.1f} "
                f"{prov['tier']:>10} {prov['origin']:>12} "
                f"{prov['coupling']:>10} {aggressors:>5} {delta_col}"
            )
    if payload["blame"]:
        lines.append("")
        lines.append("Top coupling-induced delay shifts (blame):")
        lines.append(
            f"{'net':<16} {'dir':<5} {'dCoup [ps]':>11} {'aggressors':>11} "
            f"{'tier':>10} {'origin':>12}"
        )
        lines.append("-" * 72)
        for entry in payload["blame"]:
            aggressors = f"{entry['aggressors_active']}/{entry['aggressors_total']}"
            lines.append(
                f"{entry['net']:<16} {entry['direction']:<5} "
                f"{entry['coupling_delta'] * 1e12:>11.1f} {aggressors:>11} "
                f"{entry['tier']:>10} {entry['origin']:>12}"
            )
    return "\n".join(lines)
