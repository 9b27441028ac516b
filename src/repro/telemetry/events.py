"""The structured event bus: one sequence of timestamped records.

Every component with something attributable to say publishes here — the
trace recorder (packet observations), the GFW device (TCB create /
teardown / resync transitions, DPI matches, reset emission), strategy
callbacks (``on_outgoing`` verdicts, insertion-packet injections), and
INTANG (strategy selection, result feedback).  Because all publishers
share one monotonic sequence counter, a diagnosis can interleave packet
events and censor state transitions into a single timeline without any
cross-source tie-breaking (sim-times collide constantly: a GFW device
observes, matches, and injects at the same instant).

The bus is a bounded ring (oldest events fall off; ``dropped`` counts
them) and is **off by default** — per-packet event construction is
measurable on paper-scale sweeps.  It turns on three ways:

- ``REPRO_TELEMETRY=1`` in the environment (read when the bus is built);
- :func:`enable_bus` / the :func:`capturing` context manager (what
  :func:`repro.telemetry.diagnose.diagnose_trial` uses);
- setting ``get_bus().enabled`` directly.

Events published inside pool workers stay in the worker's ring;
diagnosis is a serial, single-process affair by design.
"""

from __future__ import annotations

from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, Iterator, List, Optional

from repro.telemetry.metrics import get_registry

__all__ = [
    "TelemetryEvent",
    "EventBus",
    "get_bus",
    "enable_bus",
    "capturing",
    "reset_bus",
]

#: Default ring capacity; one HTTP trial with full tracing publishes a
#: few hundred events, so this holds several trials of history.
DEFAULT_CAPACITY = 8192


@dataclass
class TelemetryEvent:
    """One structured observation.

    ``seq`` is bus-wide monotonic (the total order of publication);
    ``time`` is sim-time.  ``fields`` carries component-specific
    key/values (packet summaries, state names, causes).
    """

    seq: int
    time: float
    component: str  # "netsim" | "gfw" | "strategy" | "intang" | ...
    kind: str       # "deliver", "resync_enter", "insertion", ...
    fields: Dict[str, Any] = field(default_factory=dict)

    def format(self) -> str:
        detail = " ".join(
            f"{key}={value}" for key, value in self.fields.items()
            if value not in (None, "")
        )
        return (
            f"{self.time * 1000.0:9.3f}ms  {self.component:<9} "
            f"{self.kind:<15} {detail}"
        )


#: Resolved at import, like ``flight.dumps``: whichever process builds a
#: bus first, every registry lists the instrument.
_DROPPED = get_registry().counter("telemetry.events_dropped")


class EventBus:
    """A bounded, sequenced event ring shared by all publishers."""

    def __init__(
        self, capacity: int = DEFAULT_CAPACITY, enabled: Optional[bool] = None
    ) -> None:
        self.capacity = capacity
        if enabled is None:
            # Imported here, not at module top: repro.core.__init__ pulls
            # in publishers that import this module, so a module-level
            # import of repro.core.env would be circular.
            from repro.core.env import env_flag

            enabled = env_flag("REPRO_TELEMETRY", False)
        self.enabled = enabled
        self._ring: Deque[TelemetryEvent] = deque(maxlen=capacity)
        self._next_seq = 0
        #: Events pushed out of the ring by newer ones.  Mirrored into
        #: the registry (``telemetry.events_dropped``), so snapshots and
        #: worker-merged deltas expose the silent loss.
        self.dropped = 0

    def publish(
        self, component: str, kind: str, time: float = 0.0, **fields: Any
    ) -> Optional[TelemetryEvent]:
        """Append an event; returns it, or None when the bus is off."""
        if not self.enabled:
            return None
        if len(self._ring) == self.capacity:
            self.dropped += 1
            _DROPPED.inc()
        event = TelemetryEvent(
            seq=self._next_seq, time=time, component=component, kind=kind,
            fields=fields,
        )
        self._next_seq += 1
        self._ring.append(event)
        return event

    # -- reads -----------------------------------------------------------
    def events(
        self,
        component: Optional[str] = None,
        kind: Optional[str] = None,
        since_seq: int = -1,
    ) -> List[TelemetryEvent]:
        """Events still in the ring, filtered and in publication order."""
        return [
            event
            for event in self._ring
            if event.seq > since_seq
            and (component is None or event.component == component)
            and (kind is None or event.kind == kind)
        ]

    @property
    def next_seq(self) -> int:
        """The watermark: events published after now have ``seq >= this``."""
        return self._next_seq

    def __len__(self) -> int:
        return len(self._ring)

    def clear(self) -> None:
        self._ring.clear()
        self.dropped = 0


# ---------------------------------------------------------------------------
_bus: Optional[EventBus] = None


def get_bus() -> EventBus:
    """The process-local bus (built on first use; reads ``REPRO_TELEMETRY``)."""
    global _bus
    if _bus is None:
        _bus = EventBus()
    return _bus


def reset_bus() -> None:
    """Discard the process bus; the next :func:`get_bus` rebuilds it
    (and re-reads the environment knob).  Test isolation hook."""
    global _bus
    _bus = None


def enable_bus(enabled: bool = True) -> EventBus:
    """Force the bus on (or off) regardless of the environment knob."""
    bus = get_bus()
    bus.enabled = enabled
    return bus


@contextmanager
def capturing(clear: bool = False) -> Iterator[EventBus]:
    """Temporarily enable the bus; restores the prior state on exit.

    ``clear=True`` empties the ring first so the captured window holds
    only events from the ``with`` body.
    """
    bus = get_bus()
    prior = bus.enabled
    if clear:
        bus.clear()
    bus.enabled = True
    try:
        yield bus
    finally:
        bus.enabled = prior
