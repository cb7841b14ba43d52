"""Per-arc provenance ledger.

Every arc that wins a (net, direction) slot during propagation gets one
row recording *how* its number was produced: the solver that answered
(always ``newton``, the transistor-table solve; explain's wire rows say
``elmore``), where the result came from (``fresh`` solve, in-run
``dedup``, ``persisted`` cache file, pass-to-pass ``memo``, or a
``degraded`` conservative substitute), the decided coupling treatment
with aggressor counts, the pass index, the interned stage-signature
token, and the coupling delta (coupled minus quiescent half-V_DD
crossing; ``None`` where no quiescent solve exists).

Storage is columnar — parallel lists keyed by row id — matching the
ROADMAP's structure-of-arrays direction and keeping the per-arc cost to
a handful of list appends.  The ledger is pure annotation: delays are
bit-identical with it on or off.
"""

from __future__ import annotations

import sys
from typing import Any, Iterator

# Reuse origins, in the order a result can be served.
ORIGIN_FRESH = "fresh"
ORIGIN_DEDUP = "dedup"
ORIGIN_PERSISTED = "persisted"
ORIGIN_MEMO = "memo"
ORIGIN_DEGRADED = "degraded"

ORIGINS = (
    ORIGIN_FRESH,
    ORIGIN_DEDUP,
    ORIGIN_PERSISTED,
    ORIGIN_MEMO,
    ORIGIN_DEGRADED,
)

_COLUMNS = (
    "tier",
    "origin",
    "signature",
    "coupling",
    "aggressors_total",
    "aggressors_active",
    "pass_index",
    "coupling_delta",
)


def _hex(value: float | None) -> str | None:
    return None if value is None else float(value).hex()


def _unhex(text: str | None) -> float | None:
    return None if text is None else float.fromhex(text)


class ProvenanceLedger:
    """Columnar per-arc provenance store (parallel arrays keyed by row id)."""

    __slots__ = tuple(f"_{c}" for c in _COLUMNS)

    def __init__(self) -> None:
        self._tier: list[str] = []
        self._origin: list[str] = []
        self._signature: list[str] = []
        self._coupling: list[str] = []
        self._aggressors_total: list[int] = []
        self._aggressors_active: list[int] = []
        self._pass_index: list[int] = []
        self._coupling_delta: list[float | None] = []

    def __len__(self) -> int:
        return len(self._tier)

    def append(
        self,
        *,
        tier: str,
        origin: str,
        signature: str,
        coupling: str,
        aggressors_total: int,
        aggressors_active: int,
        pass_index: int,
        coupling_delta: float | None,
    ) -> int:
        """Record one arc; returns its row id."""
        row = len(self._tier)
        self._tier.append(sys.intern(tier))
        self._origin.append(sys.intern(origin))
        self._signature.append(sys.intern(signature))
        self._coupling.append(sys.intern(coupling))
        self._aggressors_total.append(aggressors_total)
        self._aggressors_active.append(aggressors_active)
        self._pass_index.append(pass_index)
        self._coupling_delta.append(coupling_delta)
        return row

    def row(self, index: int) -> dict[str, Any]:
        """Materialize one row as a dict (for reports / the explain engine)."""
        return {
            "tier": self._tier[index],
            "origin": self._origin[index],
            "signature": self._signature[index],
            "coupling": self._coupling[index],
            "aggressors_total": self._aggressors_total[index],
            "aggressors_active": self._aggressors_active[index],
            "pass_index": self._pass_index[index],
            "coupling_delta": self._coupling_delta[index],
        }

    def rows(self) -> Iterator[dict[str, Any]]:
        for i in range(len(self._tier)):
            yield self.row(i)

    def counts(self) -> dict[str, dict[str, int]]:
        """Histogram of the categorical columns (tier / origin / coupling)."""
        out: dict[str, dict[str, int]] = {}
        for column in ("tier", "origin", "coupling"):
            tally: dict[str, int] = {}
            for value in getattr(self, f"_{column}"):
                tally[value] = tally.get(value, 0) + 1
            out[column] = dict(sorted(tally.items()))
        return out

    def to_payload(self) -> dict[str, Any]:
        """JSON-safe columnar payload (floats as hex for exactness)."""
        return {
            "tier": list(self._tier),
            "origin": list(self._origin),
            "signature": list(self._signature),
            "coupling": list(self._coupling),
            "aggressors_total": list(self._aggressors_total),
            "aggressors_active": list(self._aggressors_active),
            "pass_index": list(self._pass_index),
            "coupling_delta": [_hex(v) for v in self._coupling_delta],
        }

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "ProvenanceLedger":
        ledger = cls()
        n = len(payload["tier"])
        for column in _COLUMNS:
            values = payload[column]
            if len(values) != n:
                raise ValueError(
                    f"provenance column {column!r} has {len(values)} rows, "
                    f"expected {n}"
                )
        for i in range(n):
            ledger.append(
                tier=payload["tier"][i],
                origin=payload["origin"][i],
                signature=payload["signature"][i],
                coupling=payload["coupling"][i],
                aggressors_total=payload["aggressors_total"][i],
                aggressors_active=payload["aggressors_active"][i],
                pass_index=payload["pass_index"][i],
                coupling_delta=_unhex(payload["coupling_delta"][i]),
            )
        return ledger
