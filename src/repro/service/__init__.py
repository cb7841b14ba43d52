"""Timing-query service: persistent design sessions over a concurrent
async server, with incremental what-if (ECO) analysis.

See ``docs/SERVICE.md`` for the protocol and an end-to-end tour.
"""

from repro.service.client import InProcessClient, ServiceClient, backoff_delay
from repro.service.executor import RequestExecutor
from repro.service.fleet import Fleet, FleetOptions, FleetRuntime, HashRing
from repro.service.handoff import decode_handoff, encode_handoff, loads_handoff
from repro.service.protocol import (
    ERR_BAD_REQUEST,
    ERR_BUSY,
    ERR_DEADLINE,
    ERR_DEGRADED,
    ERR_INPUT,
    ERR_INTERNAL,
    ERR_UNKNOWN_METHOD,
    ERR_UNKNOWN_SESSION,
    FLEET_PROTOCOL_VERSION,
    PROTOCOL_VERSION,
    ServiceCallError,
    ServiceError,
    ServiceTransportError,
    error_payload,
)
from repro.service.router import FleetRouter, ShardLinkDown
from repro.service.server import TimingServer, TimingService, serve
from repro.service.session import Session, SessionManager, design_digest, result_summary
from repro.service.supervisor import ShardSupervisor

__all__ = [
    "ERR_BAD_REQUEST",
    "ERR_BUSY",
    "ERR_DEADLINE",
    "ERR_DEGRADED",
    "ERR_INPUT",
    "ERR_INTERNAL",
    "ERR_UNKNOWN_METHOD",
    "ERR_UNKNOWN_SESSION",
    "FLEET_PROTOCOL_VERSION",
    "Fleet",
    "FleetOptions",
    "FleetRouter",
    "FleetRuntime",
    "HashRing",
    "InProcessClient",
    "PROTOCOL_VERSION",
    "RequestExecutor",
    "ServiceCallError",
    "ServiceClient",
    "ServiceError",
    "ServiceTransportError",
    "Session",
    "SessionManager",
    "ShardLinkDown",
    "ShardSupervisor",
    "TimingServer",
    "TimingService",
    "backoff_delay",
    "decode_handoff",
    "design_digest",
    "encode_handoff",
    "error_payload",
    "loads_handoff",
    "result_summary",
    "serve",
]
