"""Latency, throughput and message-cost metrics derived from traces.

The paper reports no absolute performance numbers, so the benchmark harness
reports *relative* and *structural* quantities: delivery latency in
simulated time units, protocol messages per delivered application
multicast, null-message ratios, blocking time, view-agreement latency.
This module turns raw traces and network statistics into those summaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from repro.net.network import NetworkStats
from repro.net.trace import (
    BLOCKED_SEND,
    DELIVER,
    EventTrace,
    NULL_SEND,
    SEND,
    SUSPECT,
    UNBLOCKED_SEND,
    VIEW_INSTALL,
)


@dataclass
class LatencySummary:
    """Summary statistics of a latency sample."""

    count: int
    mean: float
    median: float
    p95: float
    maximum: float
    minimum: float

    @staticmethod
    def empty() -> "LatencySummary":
        """Summary of an empty sample (all statistics zero)."""
        return LatencySummary(count=0, mean=0.0, median=0.0, p95=0.0, maximum=0.0, minimum=0.0)


def _percentile(ordered: Sequence[float], fraction: float) -> float:
    if not ordered:
        return 0.0
    index = min(len(ordered) - 1, max(0, int(math.ceil(fraction * len(ordered))) - 1))
    return ordered[index]


def summarize_latencies(samples: Iterable[float]) -> LatencySummary:
    """Compute count/mean/median/p95/min/max of a latency sample."""
    ordered = sorted(samples)
    if not ordered:
        return LatencySummary.empty()
    return LatencySummary(
        count=len(ordered),
        mean=sum(ordered) / len(ordered),
        median=_percentile(ordered, 0.5),
        p95=_percentile(ordered, 0.95),
        maximum=ordered[-1],
        minimum=ordered[0],
    )


@dataclass
class MetricsReport:
    """A bundle of protocol metrics for one simulation run."""

    #: Delivery latency (send -> each delivery) summary.
    delivery_latency: LatencySummary
    #: Application multicasts sent.
    application_sends: int
    #: Application deliveries (across all processes).
    application_deliveries: int
    #: Numbered null messages sent by the time-silence mechanism (in the
    #: report's group, when it names one).
    null_messages: int
    #: Deferred (blocked) sends and how long they waited.
    blocked_sends: int
    #: Network-level counters.
    network: Dict[str, int] = field(default_factory=dict)
    #: Simulated duration covered by the report.
    duration: float = 0.0
    #: Idle heartbeat wakes that sent beacons.  A fact about processes, not
    #: about a group -- one wake beacons for every idle symmetric group of
    #: its process (``null_send`` events without a group) -- so a group
    #: filter does not narrow it.
    heartbeat_wakes: int = 0

    @property
    def null_ratio(self) -> float:
        """Null messages per application send (time-silence overhead)."""
        if self.application_sends == 0:
            return float(self.null_messages)
        return self.null_messages / self.application_sends

    @property
    def throughput(self) -> float:
        """Application deliveries per simulated time unit."""
        if self.duration <= 0:
            return 0.0
        return self.application_deliveries / self.duration

    def as_dict(self) -> Dict[str, float]:
        """Flatten the report for benchmark tables."""
        return {
            "delivery_latency_mean": self.delivery_latency.mean,
            "delivery_latency_p95": self.delivery_latency.p95,
            "delivery_latency_max": self.delivery_latency.maximum,
            "application_sends": float(self.application_sends),
            "application_deliveries": float(self.application_deliveries),
            "null_messages": float(self.null_messages),
            "null_ratio": self.null_ratio,
            "heartbeat_wakes": float(self.heartbeat_wakes),
            "blocked_sends": float(self.blocked_sends),
            "throughput": self.throughput,
            "network_messages_sent": float(self.network.get("messages_sent", 0)),
            "network_bytes_sent": float(self.network.get("bytes_sent", 0)),
        }


def build_report(
    trace: EventTrace,
    network_stats: Optional[NetworkStats] = None,
    duration: float = 0.0,
    group: Optional[str] = None,
) -> MetricsReport:
    """Derive a :class:`MetricsReport` from a trace and network counters."""
    sends = trace.events(kind=SEND, group=group)
    deliveries = trace.events(kind=DELIVER, group=group)
    # A null belongs to its group, a heartbeat wake (no group) to a process.
    null_sends = trace.events(kind=NULL_SEND)
    wakes = [event for event in null_sends if event.group is None]
    nulls = [
        event for event in null_sends
        if event.group is not None and group in (None, event.group)
    ]
    blocked = trace.events(kind=BLOCKED_SEND, group=group)
    return MetricsReport(
        delivery_latency=summarize_latencies(trace.delivery_latencies(group)),
        application_sends=len(sends),
        application_deliveries=len(deliveries),
        null_messages=len(nulls),
        blocked_sends=len(blocked),
        network=network_stats.snapshot() if network_stats is not None else {},
        duration=duration,
        heartbeat_wakes=len(wakes),
    )


def messages_per_delivered_multicast(
    trace: EventTrace, network_stats: NetworkStats, group: Optional[str] = None
) -> float:
    """Network messages transmitted per application multicast sent.

    This is the classic "message cost" figure: for a symmetric group of
    ``n`` it tends towards ``n - 1`` plus the amortised time-silence cost;
    for an asymmetric group towards ``n`` (one unicast to the sequencer plus
    ``n - 1`` multicast legs).
    """
    sends = trace.events(kind=SEND, group=group)
    if not sends:
        return 0.0
    return network_stats.messages_sent / len(sends)


def blocking_times(trace: EventTrace, group: Optional[str] = None) -> List[float]:
    """Durations between a blocked send and its eventual transmission.

    Pairs BLOCKED_SEND and UNBLOCKED_SEND events per (process, group) in
    FIFO order, which matches how the deferred-send queue drains.
    """
    blocked: Dict[tuple, List[float]] = {}
    durations: List[float] = []
    for event in trace:
        key = (event.process, event.group)
        if group is not None and event.group != group:
            continue
        if event.kind == BLOCKED_SEND:
            blocked.setdefault(key, []).append(event.time)
        elif event.kind == UNBLOCKED_SEND:
            queue = blocked.get(key)
            if queue:
                durations.append(event.time - queue.pop(0))
    return durations


def view_agreement_latency(
    trace: EventTrace, group: str, crashed_process: str
) -> Dict[str, float]:
    """Per-process latency from the first suspicion of ``crashed_process``
    to the installation of a view excluding it."""
    result: Dict[str, float] = {}
    for process in trace.processes():
        suspect_time: Optional[float] = None
        for event in trace.events(kind=SUSPECT, process=process, group=group):
            if event.detail("target") == crashed_process:
                suspect_time = event.time
                break
        if suspect_time is None:
            continue
        for event in trace.events(kind=VIEW_INSTALL, process=process, group=group):
            members = event.detail("members", ())
            if crashed_process not in members and event.time >= suspect_time:
                result[process] = event.time - suspect_time
                break
    return result
