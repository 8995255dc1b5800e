"""Per-message lifecycle breakdowns as exact reservoirs (Dapper-style).

The paper argues about the send → sequenced → delivered → stable lifecycle
of a multicast.  The trace stream deliberately records no extra event kinds
for observation (adding kinds would change the event stream and break the
seed-identity contract), so :class:`SpanBreakdownSink` maps the lifecycle
onto the events that already exist:

* ``transit``       -- send → *first* receive anywhere (network + transport
  batching; in an asymmetric group this includes the sequencer hop, i.e.
  the paper's "sequenced" stage rides inside it).
* ``ordering_wait`` -- receive → deliver at the *same* process (the
  logical-clock / sequencer-number gating delay: time a message sat
  deliverable-pending in the queue).
* ``latency``       -- send → each deliver (end-to-end, per delivery).
* ``spread``        -- first deliver → last deliver of a message (the
  stability proxy: once every member delivered, the message is stable in
  the §4 sense).

Each stage is an exact-until-capacity mergeable
:class:`~repro.stats.LatencyReservoir`.  Memory is bounded: at most
``max_tracked`` distinct message ids are followed (later sends count into
``dropped_messages``), and per-(message, process) receive entries are
popped on delivery.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.net.trace import DELIVER, RECEIVE, SEND, TraceEvent, TraceSink
from repro.stats import LatencyReservoir

__all__ = ["SpanBreakdownSink", "STAGES"]

STAGES = ("transit", "ordering_wait", "latency", "spread")

#: Percentiles carried per stage in snapshots (matches the bench schema).
_PERCENTILES = (50, 95, 99)


class SpanBreakdownSink(TraceSink):
    """Streams trace events into per-stage latency reservoirs."""

    KINDS = frozenset({SEND, RECEIVE, DELIVER})

    def __init__(self, max_tracked: int = 100_000) -> None:
        self.max_tracked = max_tracked
        self.dropped_messages = 0
        self.stages: Dict[str, LatencyReservoir] = {
            name: LatencyReservoir() for name in STAGES
        }
        self._send_time: Dict[str, float] = {}
        self._first_receive_seen: set = set()
        self._receive_time: Dict[Tuple[str, str], float] = {}
        self._deliver_window: Dict[str, Tuple[float, float]] = {}
        self._closed = False

    # ------------------------------------------------------------------
    # TraceSink interface
    # ------------------------------------------------------------------
    def on_event(self, event: TraceEvent) -> None:
        kind = event.kind
        message_id = event.message_id
        if message_id is None:
            return
        if kind == SEND:
            if message_id in self._send_time:
                return  # re-send under the original id keeps the first clock
            if len(self._send_time) >= self.max_tracked:
                self.dropped_messages += 1
                return
            self._send_time[message_id] = event.time
        elif kind == RECEIVE:
            send_time = self._send_time.get(message_id)
            if send_time is None:
                return
            if message_id not in self._first_receive_seen:
                self._first_receive_seen.add(message_id)
                self.stages["transit"].add(event.time - send_time)
            self._receive_time.setdefault((message_id, event.process), event.time)
        elif kind == DELIVER:
            receive_time = self._receive_time.pop((message_id, event.process), None)
            if receive_time is not None:
                self.stages["ordering_wait"].add(event.time - receive_time)
            send_time = self._send_time.get(message_id)
            if send_time is None:
                return
            self.stages["latency"].add(event.time - send_time)
            window = self._deliver_window.get(message_id)
            if window is None:
                self._deliver_window[message_id] = (event.time, event.time)
            else:
                self._deliver_window[message_id] = (window[0], max(window[1], event.time))

    def close(self) -> None:
        """Finalize ``spread``: it needs each message's *last* delivery."""
        if self._closed:
            return
        self._closed = True
        spread = self.stages["spread"]
        for first, last in self._deliver_window.values():
            spread.add(last - first)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    @property
    def tracked_messages(self) -> int:
        return len(self._send_time)

    def snapshot(self) -> Dict[str, object]:
        self.close()
        stages: Dict[str, Optional[Dict[str, object]]] = {}
        for name in STAGES:
            reservoir = self.stages[name]
            if reservoir.count == 0:
                stages[name] = None
                continue
            stages[name] = reservoir.summary(percentiles=_PERCENTILES)
        return {
            "tracked_messages": self.tracked_messages,
            "dropped_messages": self.dropped_messages,
            "stages": stages,
        }
