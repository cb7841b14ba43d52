"""ECO (engineering change order) edits: the one edit-application path.

An edit is a small JSON-friendly description of a physical fix the
designer is considering::

    {"action": "respace",      "nets": ["N89"], "guard_tracks": 1}
    {"action": "upsize",       "nets": ["N74"], "steps": 1}
    {"action": "drop_coupling", "net": "N89", "neighbour": "N74"}
    {"action": "set_coupling",  "net": "N89", "neighbour": "N74", "cap": 1e-15}

``apply_edit`` validates the description and produces the edited
:class:`~repro.flow.design.Design` *without touching the source design*
-- the session's what-if handler analyzes the copy and only swaps it in
when the client asked to commit, so a failed edit or analysis rolls back
by simply dropping the copy.

Every consumer -- the service's transactional ``whatif``, the repair
optimizer's candidate proposals and the fleet's failover replay -- goes
through :func:`apply_edit`, so the edit vocabulary and its validation
cannot drift between the flow helpers and the service layer.
"""

from __future__ import annotations

from repro.errors import InputError
from repro.flow.design import Design
from repro.flow.repair import adjust_coupling, respace_nets, upsize_drivers

EDIT_ACTIONS = ("respace", "upsize", "drop_coupling", "set_coupling")


def _require_nets(design: Design, edit: dict) -> list[str]:
    nets = edit.get("nets")
    if not isinstance(nets, list) or not nets or not all(
        isinstance(n, str) for n in nets
    ):
        raise InputError("edit needs 'nets': a non-empty list of net names")
    for net in nets:
        if net not in design.circuit.nets:
            raise InputError(f"unknown net {net!r}")
    return nets


def _require_pair(edit: dict) -> tuple[str, str]:
    net, neighbour = edit.get("net"), edit.get("neighbour")
    if not isinstance(net, str) or not isinstance(neighbour, str):
        raise InputError("edit needs string 'net' and 'neighbour'")
    return net, neighbour


def _require_count(edit: dict, key: str) -> int:
    """A positive integer field (default 1).  JSON ``true`` decodes to a
    bool, which Python counts as an int, so bools are rejected too."""
    value = edit.get(key, 1)
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise InputError(f"{key!r} must be a positive integer")
    return value


def edit_nets(edit: dict) -> list[str]:
    """The nets a normalized edit touches (victim side first)."""
    if "nets" in edit:
        return list(edit["nets"])
    nets = []
    for key in ("net", "neighbour"):
        value = edit.get(key)
        if isinstance(value, str):
            nets.append(value)
    return nets


def apply_edit(design: Design, edit: dict) -> tuple[Design, dict]:
    """Apply one ECO edit; returns ``(edited_design, normalized_edit)``.

    Raises :class:`InputError` on any malformed or inapplicable edit --
    before any expensive work, so a rejected what-if costs nothing.
    """
    if not isinstance(edit, dict):
        raise InputError("edit must be an object")
    action = edit.get("action")
    if action == "respace":
        nets = _require_nets(design, edit)
        guard_tracks = _require_count(edit, "guard_tracks")
        edited = respace_nets(design, nets, guard_tracks=guard_tracks)
        return edited, {"action": action, "nets": nets, "guard_tracks": guard_tracks}
    if action == "upsize":
        nets = _require_nets(design, edit)
        steps = _require_count(edit, "steps")
        edited = upsize_drivers(design, nets, steps=steps)
        return edited, {"action": action, "nets": nets, "steps": steps}
    if action == "drop_coupling":
        net, neighbour = _require_pair(edit)
        edited = adjust_coupling(design, net, neighbour, cap=0.0)
        return edited, {"action": action, "net": net, "neighbour": neighbour}
    if action == "set_coupling":
        net, neighbour = _require_pair(edit)
        cap = edit.get("cap")
        if not isinstance(cap, (int, float)) or isinstance(cap, bool) or cap <= 0:
            raise InputError("'cap' must be a positive number (farads)")
        edited = adjust_coupling(design, net, neighbour, cap=float(cap))
        return edited, {
            "action": action,
            "net": net,
            "neighbour": neighbour,
            "cap": float(cap),
        }
    raise InputError(f"unknown edit action {action!r}; have {EDIT_ACTIONS}")
