"""Anomaly flight recorder: bounded-overhead post-mortems.

The fleet engine (PR 7) can *count* eviction false negatives and
blacklist false positives, but counting doesn't explain — and re-running
a million-flow fleet under ``diagnose`` to explain one flow is not an
option.  The flight recorder closes that gap the way an aircraft FDR
does: while everything is normal it keeps nothing (the EventBus ring is
the in-flight buffer), and when an anomaly fires it *dumps* — the last
``ring`` relevant events, packet summaries, and TCB snapshots — as one
plain-dict record.  Overhead is O(ring) per anomaly, zero per normal
flow.

Recognized anomalies (the callers own the detection logic):

- ``eviction_false_negative`` — a sensitive fleet flow succeeded with
  zero detections after its shared-table TCB was evicted live;
- ``blacklist_false_positive`` — a benign fleet flow reset by shared
  blacklist collateral;
- ``oracle_drift`` — a conformance cell whose verdict left the
  paper-derived oracle;
- ``broken`` — a conformance cell that produced error outcomes.

Dumps are picklable and cross the ``map_trials`` process boundary
piggybacked on the telemetry delta (:meth:`FlightRecorder.drain` in the
worker, :meth:`FlightRecorder.adopt` in the parent), exactly like
registry diffs and span trees.  ``REPRO_FLIGHT=1`` enables recording
(and force-enables the EventBus so the ring has content);
``REPRO_FLIGHT_RING`` sizes the per-dump event window (default 128).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional

from repro.telemetry.metrics import get_registry

__all__ = [
    "FlightRecorder",
    "enable_flight",
    "event_payload",
    "get_flight",
    "packet_summary",
    "reset_flight",
    "tcb_summary",
]


def _plain(value: Any) -> Any:
    """JSON/pickle-safe projection of an arbitrary field value."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    return repr(value)


def event_payload(event: Any) -> Dict[str, Any]:
    """A :class:`~repro.telemetry.events.TelemetryEvent` as a dict."""
    return {
        "seq": event.seq,
        "time": event.time,
        "component": event.component,
        "kind": event.kind,
        "fields": {str(k): _plain(v) for k, v in event.fields.items()},
    }


def packet_summary(packet: Any) -> Dict[str, Any]:
    """A compact, dump-safe view of one simulated packet."""
    summary: Dict[str, Any] = {
        "src": _plain(getattr(packet, "src", None)),
        "dst": _plain(getattr(packet, "dst", None)),
        "meta": _plain(dict(getattr(packet, "meta", {}) or {})),
    }
    if getattr(packet, "is_tcp", False):
        tcp = packet.tcp
        summary.update(
            flags=_plain(getattr(tcp, "flags", None)),
            seq=getattr(tcp, "seq", None),
            ack=getattr(tcp, "ack", None),
            payload_len=len(getattr(tcp, "payload", b"") or b""),
        )
    return summary


def tcb_summary(flow: Any) -> Dict[str, Any]:
    """A compact view of one GFW flow-table entry (TCB)."""
    return {
        "state": _plain(getattr(flow, "state", None)),
        "believed_client": _plain(getattr(flow, "believed_client", None)),
        "believed_server": _plain(getattr(flow, "believed_server", None)),
        "client_next_seq": getattr(flow, "client_next_seq", None),
        "fin_seen": getattr(flow, "fin_seen", None),
        "punished": getattr(flow, "punished", None),
        "created_at": getattr(flow, "created_at", None),
    }


#: Resolved at import, not by the first recorder: a pool worker builds its
#: recorder for every slice, and a serial parent may never build one, yet
#: both registries must list the same instruments.
_DUMPS = get_registry().counter("flight.dumps")


class FlightRecorder:
    """Process-local dump collector (one per process, like the bus)."""

    def __init__(
        self, enabled: Optional[bool] = None, ring: Optional[int] = None
    ):
        if enabled is None or ring is None:
            # Lazy for the same bootstrap reason as SpanTracer/EventBus:
            # repro.core.env import would re-enter the engine imports.
            from repro.core.env import env_flag, env_int

            if enabled is None:
                enabled = env_flag("REPRO_FLIGHT", False)
            if ring is None:
                ring = env_int("REPRO_FLIGHT_RING", 128, minimum=1)
        self.enabled = bool(enabled)
        self.ring = int(ring)
        self.dumps: List[Dict[str, Any]] = []

    def record(
        self,
        anomaly: str,
        *,
        time: float = 0.0,
        context: Optional[Dict[str, Any]] = None,
        events: Iterable[Any] = (),
        snapshots: Optional[Dict[str, Any]] = None,
    ) -> Optional[Dict[str, Any]]:
        """Dump one anomaly; returns the dump dict (None when off)."""
        if not self.enabled:
            return None
        window = list(events)[-self.ring:]
        dump = {
            "anomaly": anomaly,
            "time": time,
            "context": _plain(dict(context or {})),
            "events": [event_payload(e) for e in window],
            "snapshots": _plain(dict(snapshots or {})),
        }
        self.dumps.append(dump)
        _DUMPS.inc()
        return dump

    # -- worker-merge protocol ------------------------------------------
    def drain(self) -> List[Dict[str, Any]]:
        dumps, self.dumps = self.dumps, []
        return dumps

    def adopt(self, dumps: Optional[Iterable[Dict[str, Any]]]) -> None:
        """Fold worker-drained dumps in (regardless of ``enabled``)."""
        if dumps:
            self.dumps.extend(dumps)

    def clear(self) -> None:
        self.dumps = []


# -- process-local singleton --------------------------------------------

_FLIGHT: Optional[FlightRecorder] = None


def get_flight() -> FlightRecorder:
    global _FLIGHT
    if _FLIGHT is None:
        _FLIGHT = FlightRecorder()
        if _FLIGHT.enabled:
            # The ring is only useful if events are flowing.
            from repro.telemetry.events import enable_bus

            enable_bus(True)
    return _FLIGHT


def reset_flight() -> FlightRecorder:
    """Fresh recorder honouring the current environment."""
    global _FLIGHT
    _FLIGHT = None
    return get_flight()


def enable_flight(enabled: bool = True) -> FlightRecorder:
    recorder = get_flight()
    recorder.enabled = bool(enabled)
    if enabled:
        from repro.telemetry.events import enable_bus

        enable_bus(True)
    return recorder
