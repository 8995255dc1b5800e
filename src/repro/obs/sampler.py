"""Simulated-time periodic sampling of the metrics registry.

The sampler turns the registry's instantaneous instruments into a compact
*columnar* time series: one tick every ``interval`` simulated time units
snapshots every counter and gauge.  Counters are stored cumulatively --
interval deltas (null vs app traffic per interval, the messages-per-delivery
curve for ROADMAP item 1) are derived at snapshot/report time, never on the
hot path.

Determinism: the sampler schedules ordinary simulator events, which shifts
the kernel's internal sequence numbers but draws nothing from the RNG and
records nothing to the trace, so the *trace event stream* of an observed run
is byte-identical to an unobserved one (pinned by
``tests/test_hot_path_equivalence.py``).  To keep ``sim.run()`` (no bound)
able to drain, a tick that finds no other live event *parks* instead of
rescheduling; :meth:`SimTimeSampler.ensure_running` (called by
``Session.run``/``run_until``) resumes it.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.obs.metrics import MetricsRegistry

__all__ = ["SimTimeSampler"]


class SimTimeSampler:
    """Samples every registry instrument at a fixed simulated-time period."""

    def __init__(self, registry: MetricsRegistry, interval: float = 5.0) -> None:
        if interval <= 0:
            raise ValueError("sampler interval must be positive")
        self.registry = registry
        self.interval = interval
        self.times: List[float] = []
        self.counter_columns: Dict[str, List[int]] = {}
        self.gauge_columns: Dict[str, List[float]] = {}
        self._sim = None
        self._pending = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def attach(self, sim) -> None:
        """Bind to a simulator; the first tick fires one interval in."""
        self._sim = sim
        self.ensure_running()

    def ensure_running(self) -> None:
        """(Re)schedule the next tick if the sampler is parked.

        Called at every ``Session.run``/``run_until`` entry: a parked
        sampler (it found the queue otherwise empty) wakes up again as soon
        as the caller is about to push more simulated time through.
        """
        if self._sim is None or self._pending:
            return
        self._pending = True
        self._sim.schedule(self.interval, self._tick, label="obs:sample")

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def sample_now(self) -> None:
        """Record one sample at the current instant (also used at close)."""
        sim = self._sim
        if sim is None:
            return
        self.times.append(sim.now)
        width = len(self.times)
        for name, value in self.registry.read_counters().items():
            column = self.counter_columns.get(name)
            if column is None:
                # Backfill instruments that appeared after sampling started.
                column = self.counter_columns[name] = [0] * (width - 1)
            column.append(value)
        for name, value in self.registry.read_gauges().items():
            gauge_column = self.gauge_columns.get(name)
            if gauge_column is None:
                gauge_column = self.gauge_columns[name] = [0.0] * (width - 1)
            gauge_column.append(value)

    def _tick(self) -> None:
        self._pending = False
        self.sample_now()
        sim = self._sim
        # Park when nothing else is pending: a sampler that kept
        # rescheduling itself would make ``sim.run()`` spin forever.
        if sim is not None and sim.live_pending_events > 0:
            self.ensure_running()

    # ------------------------------------------------------------------
    # Derived series
    # ------------------------------------------------------------------
    def _deltas(self, name: str) -> List[int]:
        column = self.counter_columns.get(name)
        if not column:
            return []
        return [column[0]] + [b - a for a, b in zip(column, column[1:])]

    def messages_per_delivery_series(self) -> List[Optional[float]]:
        """Transport messages sent per application delivery, per interval.

        The ROADMAP item-1 baseline: how many messages (nulls included) the
        system pushed for each useful delivery in each interval.  ``None``
        marks intervals with no deliveries (idle tail / formation).
        """
        sent_names = [
            name for name in self.counter_columns if name.startswith("transport.sent.")
        ]
        if sent_names:
            sent_per_interval = [
                sum(parts) for parts in zip(*(self._deltas(name) for name in sent_names))
            ]
        else:
            sends = self._deltas("trace.send")
            nulls = self._deltas("trace.null_send")
            if not sends and not nulls:
                return []
            if not sends:
                sends = [0] * len(nulls)
            if not nulls:
                nulls = [0] * len(sends)
            sent_per_interval = [a + b for a, b in zip(sends, nulls)]
        deliveries = self._deltas("trace.deliver")
        series: List[Optional[float]] = []
        for index, sent in enumerate(sent_per_interval):
            delivered = deliveries[index] if index < len(deliveries) else 0
            series.append(round(sent / delivered, 3) if delivered else None)
        return series

    def snapshot(self) -> Dict[str, object]:
        """The columnar series plus derived curves, JSON-shaped."""
        return {
            "interval": self.interval,
            "times": list(self.times),
            "counters": {name: list(col) for name, col in sorted(self.counter_columns.items())},
            "gauges": {name: list(col) for name, col in sorted(self.gauge_columns.items())},
            "messages_per_delivery": self.messages_per_delivery_series(),
        }
