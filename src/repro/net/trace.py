"""Event trace recording and the pluggable trace-sink architecture.

Every protocol implementation in this repository (Newtop and the baselines)
reports its externally observable events -- sends, receives, deliveries,
view installations, suspicions -- to a :class:`TraceRecorder`.  The trace is
the single source of truth used by:

* the check suite in :mod:`repro.analysis.online`, which asserts the
  paper's guarantees (MD1-MD5', VC1-VC3) over executions as their events
  are recorded, and
* the benchmark harness, which derives latency, message-count and overhead
  series from it.

Keeping verification outside the protocol code means the checks cannot be
accidentally weakened by the implementation they are checking.

Sink API
--------
The recorder is an observer hub: every recorded event is pushed, in record
order, to the :class:`TraceSink` objects subscribed to its kind.  A sink
implements two methods, may name the kinds it consumes and may take runs::

    class TraceSink:
        KINDS = None                                        # None: every kind
        def on_event(self, event: TraceEvent) -> None: ...  # one event
        def on_deliveries(self, time, process, run, first_seq): ...  # optional
        def close(self) -> None: ...                        # end of run

Delivery runs: a Newtop process hands what it delivers at one instant to
:meth:`TraceRecorder.record_deliveries` as one run of :data:`DeliveryEntry`
tuples, numbered ``first_seq`` on.  A ``deliver`` sink with
``on_deliveries`` gets the run in one call; for one without it (this base
class has none), and for the stored trace, the recorder builds each event
as :meth:`TraceRecorder.record` would, so no trace or dump tells the paths
apart.  A run sink's ``on_event`` hands a ``deliver`` event (a replayed
trace's, a baseline's) to ``on_deliveries`` as a run of one.

Count-only kinds: a streaming recorder (``keep_events=False``) keeps the
exact per-kind tally itself (:meth:`TraceRecorder.kind_counts`), and
:meth:`TraceRecorder.record` of a kind *no* registered sink subscribes to
advances ``seq`` and that tally, builds no :class:`TraceEvent` and returns
``None``.  So a sink should declare the kinds whose fields it reads and
take counts from the recorder; the sequence numbers the sinks do see are
the ones a stored trace of the same run carries.  Subscriptions follow the
sink list: a kind materializes from the event after an all-kinds sink is
added, and is counted only again once that sink is removed or detached.  A
recorder that stores its trace materializes every event, as ever.

Provided sinks:

* :class:`MemorySink` -- keeps the full event list and materializes an
  :class:`EventTrace` on demand (the recorder installs one by default so
  :meth:`TraceRecorder.trace` keeps working);
* :class:`JsonlSink` -- writes one JSON object per event to a file
  (truncating any existing content), for offline tooling and cross-run
  diffing;
* :class:`MetricsSink` -- the run's one latency sink, attached by every
  session: per-group delivery counts and streaming latency stats from
  ``SEND`` and ``DELIVER`` (plus ``RECEIVE`` for the span stages an
  observation asks for), each sample also credited to the traffic client
  that issued its message; it never stores events;
* :class:`NullSink` -- discards everything (useful to measure recording
  overhead in isolation);
* :class:`repro.analysis.online.OnlineCheckSuite` -- streaming property
  checkers with amortized O(1)-O(log n) work per event.

Passing ``keep_events=False`` to :class:`TraceRecorder` drops the default
memory sink: events are only streamed to the registered sinks and the full
trace is never materialized, which is what lets the scenario engine verify
1000-process runs online (``analysis="online"``).

Lifecycle kinds
---------------
The recorder is also the one seam for the steps of a message's life that
are *not* in the event stream (:data:`LIFECYCLE_KINDS`).  They are never
numbered, tallied, stored or written; :attr:`TraceRecorder.lifecycle`
hands one to :meth:`TraceSink.on_lifecycle` of the sinks whose ``KINDS``
*names* its kind (an all-kinds sink hears none), with the protocol object
it happened to -- message, request or transport envelope -- so nothing
below :mod:`repro.obs` digs an id out of a payload.  The attribute is
``None`` while no registered sink names a lifecycle kind, and a layer
reads it once, when it is built: an unobserved run pays one ``is None``
check per report site, and a sink that wants lifecycle steps is passed to
the recorder's constructor.
"""

from __future__ import annotations

import json
from typing import (
    Any, Callable, Dict, FrozenSet, IO, Iterable, Iterator, List, NamedTuple,
    Optional, Sequence, Set, Tuple, Union,
)

from repro.stats import LatencyReservoir

#: Event kinds recorded by protocol implementations.
SEND = "send"
RECEIVE = "receive"
DELIVER = "deliver"
NULL_SEND = "null_send"
NULL_DELIVER = "null_deliver"
VIEW_INSTALL = "view_install"
SUSPECT = "suspect"
REFUTE = "refute"
CONFIRM = "confirm"
CRASH = "crash"
DEPART = "depart"
GROUP_FORMED = "group_formed"
BLOCKED_SEND = "blocked_send"
UNBLOCKED_SEND = "unblocked_send"
#: Application-level events recorded by :mod:`repro.apps.kv`: one command
#: applied by a shard replica, and one read served from a replica's local
#: state.  Protocol checkers ignore them; the KV consistency oracle
#: (:class:`repro.apps.kv.oracle.KVOracle`) consumes them online.
KV_APPLY = "kv_apply"
KV_READ = "kv_read"

EVENT_KINDS = frozenset(
    {
        SEND,
        RECEIVE,
        DELIVER,
        NULL_SEND,
        NULL_DELIVER,
        VIEW_INSTALL,
        SUSPECT,
        REFUTE,
        CONFIRM,
        CRASH,
        DEPART,
        GROUP_FORMED,
        BLOCKED_SEND,
        UNBLOCKED_SEND,
        KV_APPLY,
        KV_READ,
    }
)

#: Lifecycle kinds (see the module docstring): reported through
#: :attr:`TraceRecorder.lifecycle`, never through ``record``.
TRANSMITTED = "transmitted"      # handed to the transport; detail: the cause
WIRE_RECEIVED = "wire_received"  # a transport envelope reached its process
HELD = "held"                    # parked while its sender stands suspected
RELEASED = "released"            # ... and fed back in after the refutation
DISCARDED = "discarded"          # an excluded sender's; detail: the reason
WIRE_DROPPED = "wire_dropped"    # lost by the network; detail: the reason
LIFECYCLE_KINDS = frozenset(
    {TRANSMITTED, WIRE_RECEIVED, HELD, RELEASED, DISCARDED, WIRE_DROPPED}
)


class TraceEvent(NamedTuple):
    """One recorded event (immutable; a tuple, because one is built for
    every send, receipt and delivery of a run).

    Attributes
    ----------
    time:
        Simulated time of the event.
    kind:
        One of the module-level event-kind constants.
    process:
        Identifier of the process at which the event occurred.
    group:
        Group identifier the event refers to (may be ``None`` for
        process-level events such as crashes).
    message_id:
        Globally unique message identifier for message events.
    sender:
        Original sender for message events.
    clock:
        The message number ``m.c`` for message events.
    details:
        Free-form extra data (view composition, suspicion target, ...).
    seq:
        Per-trace monotonically increasing sequence number; breaks ties
        between events at the same simulated time and records the physical
        order in which the recorder saw them.
    """

    time: float
    kind: str
    process: str
    group: Optional[str] = None
    message_id: Optional[str] = None
    sender: Optional[str] = None
    clock: Optional[int] = None
    details: Tuple[Tuple[str, Any], ...] = ()
    seq: int = 0

    def detail(self, key: str, default: Any = None) -> Any:
        """Look up a value recorded in :attr:`details`."""
        for item_key, value in self.details:
            if item_key == key:
                return value
        return default


#: One delivery of a run: ``(group, message_id, sender, clock, view_index)``.
DeliveryEntry = Tuple[Optional[str], Optional[str], Optional[str], Optional[int], Any]
DeliveryRun = Sequence[DeliveryEntry]


def delivery_entry(event: TraceEvent) -> DeliveryEntry:
    """A ``deliver`` event's run entry (``view_index`` ``None`` if it has none)."""
    return (event.group, event.message_id, event.sender, event.clock, event.detail("view_index"))


class TraceSink:
    """Observer interface for streaming trace consumption.

    Subclasses override :meth:`on_event`; :meth:`close` is called when the
    producer is done (end of a scenario run, recorder shutdown).  Sinks must
    not mutate the events they receive.
    """

    #: Event kinds the sink consumes (class or instance attribute, read
    #: when the sink is registered); ``None`` subscribes it to every kind.
    KINDS: Optional[FrozenSet[str]] = None

    def on_event(self, event: TraceEvent) -> None:
        raise NotImplementedError

    def on_lifecycle(
        self, kind: str, time: float, process: Optional[str], subject: object,
        detail: Optional[str] = None, peer: Optional[str] = None,
    ) -> None:
        """One lifecycle step of ``subject`` -- the message, request or
        envelope itself -- at ``process`` (``peer``: a unicast's destination);
        called only on a sink whose ``KINDS`` names a lifecycle kind."""
        raise NotImplementedError

    def close(self) -> None:
        """Flush/teardown hook; the default is a no-op."""


class NullSink(TraceSink):
    """Discards every event (measures bare recording overhead)."""

    def on_event(self, event: TraceEvent) -> None:
        pass


class MemorySink(TraceSink):
    """Keeps every event in memory; the traditional full-trace mode."""

    def __init__(self) -> None:
        self.events: List[TraceEvent] = []

    def on_event(self, event: TraceEvent) -> None:
        self.events.append(event)

    def trace(self) -> "EventTrace":
        """Materialize an immutable queryable view over the stored events."""
        return EventTrace(list(self.events))

    def __len__(self) -> int:
        return len(self.events)


def _json_default(value: Any) -> Any:
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    return str(value)


class JsonlSink(TraceSink):
    """Writes one JSON object per event to a file (JSON Lines).

    Accepts either a path (opened for writing -- truncating any existing
    file -- and closed by the sink) or an open text file-like object (left
    open on :meth:`close`, only flushed).
    """

    def __init__(self, target: Union[str, IO[str]]) -> None:
        if isinstance(target, str):
            self._file: IO[str] = open(target, "w", encoding="utf-8")
            self._owns_file = True
        else:
            self._file = target
            self._owns_file = False
        self.events_written = 0

    def on_event(self, event: TraceEvent) -> None:
        payload = {
            "time": event.time,
            "kind": event.kind,
            "process": event.process,
            "seq": event.seq,
        }
        if event.group is not None:
            payload["group"] = event.group
        if event.message_id is not None:
            payload["message_id"] = event.message_id
        if event.sender is not None:
            payload["sender"] = event.sender
        if event.clock is not None:
            payload["clock"] = event.clock
        if event.details:
            payload["details"] = dict(event.details)
        self._file.write(
            json.dumps(payload, separators=(",", ":"), default=_json_default) + "\n"
        )
        self.events_written += 1

    def close(self) -> None:
        self._file.flush()
        if self._owns_file:
            self._file.close()


class MetricsSink(TraceSink):
    """The run's one latency sink: never stores events, only summaries.

    Tracks per-group application delivery counts and streaming
    delivery-latency statistics: exact count/mean/min/max (with a
    Welford variance term) plus a bounded deterministic
    :class:`~repro.stats.LatencyReservoir` for percentiles.  The reservoir
    is what a sharded batch merges -- carrying it (rather than the moment
    summary) keeps cross-shard percentiles exact whenever the shard pools
    are exact.  Latency samples pair each delivery with the *first* send of
    its message id -- re-sends under the original id (asymmetric failover)
    must not reset the clock -- and a delivery recorded *before* its send
    (an asymmetric group's sequencer delivers its own multicast inside the
    call that sends it) waits for that send, so every delivery of a sent
    message is one sample, as :meth:`EventTrace.delivery_latencies` counts
    it.  Memory is O(kinds + groups + distinct message ids + reservoir
    capacity): the send-time table is what pairs deliveries with sends and
    cannot be evicted (a multicast delivers many times), but it never grows
    with deliveries, nulls or run length.

    It is also where a traffic client's deliveries are paired with their
    sends: a client wraps each multicast in :meth:`hold` and :meth:`claim`,
    and from then on every sample of the message id the call returned goes
    to the client's ``on_delivery``, in record order.  A run with no client
    pays one ``is None`` test per sample for this.

    It subscribes to the two kinds whose fields it reads, so on a streaming
    recorder every other kind stays count-only, and takes deliveries as
    runs.  It counts no kinds of its own: a run's totals over every kind are
    the recorder's, and :meth:`snapshot` takes them as ``kind_counts``.

    :class:`SpanMetricsSink` is this sink with the span stages added, built
    when the run's observation asks for them.
    """

    KINDS = frozenset({SEND, DELIVER})

    def __init__(self) -> None:
        self.deliveries_by_group: Dict[str, int] = {}
        self._first_send_time: Dict[str, float] = {}
        #: message id -> times of its deliveries recorded before its send.
        self._unsent_deliveries: Dict[str, List[float]] = {}
        self.latency = LatencyReservoir()
        self._latency_m2 = 0.0
        #: message id -> the traffic client that issued it; ``None`` until
        #: a client first multicasts.
        self._owners: Optional[Dict[str, Any]] = None
        #: ``(message id, sample)`` recorded inside a client's multicast
        #: call, while it runs (:meth:`hold`).
        self._held: Optional[List[Tuple[str, float]]] = None

    def on_event(self, event: TraceEvent) -> None:
        if event.kind == SEND and event.message_id is not None:
            self._first_send_time.setdefault(event.message_id, event.time)
            if self._unsent_deliveries:
                self._pair_unsent(event.message_id)
        elif event.kind == DELIVER:
            self.on_deliveries(event.time, event.process, (delivery_entry(event),), event.seq)

    def on_deliveries(self, time: float, process: str, run: DeliveryRun, first_seq: int) -> None:
        by_group, latency = self.deliveries_by_group, self.latency
        send_times = self._first_send_time
        for group, message_id, _sender, _clock, _view_index in run:
            if group is not None:
                by_group[group] = by_group.get(group, 0) + 1
            send_time = send_times.get(message_id)
            if send_time is not None:
                sample = time - send_time
                delta = sample - latency.mean
                latency.add(sample)
                self._latency_m2 += delta * (sample - latency.mean)
                if self._owners is not None:
                    self._credit(message_id, sample)
            elif message_id is not None:
                self._unsent_deliveries.setdefault(message_id, []).append(time)

    def _pair_unsent(self, message_id: str) -> None:
        """Sample the deliveries of ``message_id`` that came before its send."""
        times = self._unsent_deliveries.pop(message_id, ())
        send_time = self._first_send_time[message_id]
        for time in times:
            sample = time - send_time
            delta = sample - self.latency.mean
            self.latency.add(sample)
            self._latency_m2 += delta * (sample - self.latency.mean)
            if self._owners is not None:
                self._credit(message_id, sample)

    def hold(self) -> None:
        """A traffic client is about to multicast: hold every sample
        recorded until :meth:`claim` closes the call."""
        if self._owners is None:
            self._owners = {}
        self._held = []

    def claim(self, message_id: Optional[str], client: Any) -> None:
        """Close the call :meth:`hold` opened, which returned ``message_id``
        (``None``: the stack refused or deferred the send).  ``client`` owns
        that message's samples from now on, and the ones held over the call
        (an asymmetric sequencer's own copy, a baseline's synchronous
        self-delivery).  The other held samples go to their owners in record
        order; one of an id nobody claimed -- a deferred send flushed inside
        this call -- goes to no client.  A client raising here raises out
        of its arrival, and so out of the run; one raising from
        :meth:`on_event` is this sink raising, which the recorder detaches."""
        held, self._held = self._held, None
        owners = self._owners
        if message_id is not None:
            owners[message_id] = client
        for held_id, sample in held:
            owner = owners.get(held_id)
            if owner is not None:
                owner.on_delivery(held_id, sample)

    def _credit(self, message_id: str, sample: float) -> None:
        """Hand one sample to its message's client, or hold it while a
        client's call runs."""
        if self._held is not None:
            self._held.append((message_id, sample))
            return
        owner = self._owners.get(message_id)
        if owner is not None:
            owner.on_delivery(message_id, sample)

    @property
    def latency_variance(self) -> float:
        """Population variance of the latency samples seen so far."""
        if self.latency.count < 2:
            return 0.0
        return self._latency_m2 / self.latency.count

    def snapshot(self, kind_counts: Dict[str, int]) -> Dict[str, Any]:
        """A JSON-shaped summary of everything aggregated so far.

        ``kind_counts`` is the recorder's tally over every kind
        (:meth:`TraceRecorder.kind_counts`), reported as ``by_kind`` and
        summed as ``events_total``.

        The ``latency`` block carries the reservoir's p50/p95/p99 alongside
        the exact moments, so consumers (benchmark tables, BENCH JSONs)
        read percentiles straight from here instead of recomputing them
        from raw samples.
        """
        has_latency = self.latency.count > 0
        percentiles = (
            self.latency.summary(percentiles=(50, 95, 99)) if has_latency else {}
        )
        by_kind = dict(kind_counts)
        return {
            "events_total": sum(by_kind.values()),
            "by_kind": by_kind,
            "deliveries_by_group": dict(self.deliveries_by_group),
            "latency": {
                "count": self.latency.count,
                "mean": self.latency.mean if has_latency else None,
                "min": self.latency.min if has_latency else None,
                "max": self.latency.max if has_latency else None,
                "variance": self.latency_variance,
                "p50": percentiles.get("p50"),
                "p95": percentiles.get("p95"),
                "p99": percentiles.get("p99"),
            },
        }


class SpanMetricsSink(MetricsSink):
    """:class:`MetricsSink` plus the span stages, for a run whose
    observation asks for spans (``Observation(spans=True)``, on in
    ``observe="full"``); a subclass, so the unobserved sink's per-event
    path stays as it is; its own :meth:`on_deliveries` keeps the stages.

    It adds ``receive`` to the kinds and maps a multicast's send ->
    sequenced -> delivered -> stable lifecycle onto the events that already
    exist, as the stages of :meth:`span_snapshot`, all timed from the one
    send-time table:

    * ``transit`` -- send -> *first* receive anywhere (network + transport
      batching; in an asymmetric group the sequencer hop rides inside it);
    * ``ordering_wait`` -- receive -> deliver at the *same* process (the
      logical-clock / sequencer-number gating delay); a receive entry is
      popped by its delivery;
    * ``latency`` -- send -> each deliver: :attr:`latency` itself;
    * ``spread`` -- first deliver -> last deliver of a message (the
      stability proxy), folded when read.
    """

    KINDS = frozenset({SEND, RECEIVE, DELIVER})

    def __init__(self) -> None:
        super().__init__()
        self.transit = LatencyReservoir()
        self.ordering_wait = LatencyReservoir()
        self._received: Set[str] = set()
        self._receive_time: Dict[Tuple[str, str], float] = {}
        #: message id -> [first, last] delivery time.
        self._deliver_window: Dict[str, List[float]] = {}

    def on_event(self, event: TraceEvent) -> None:
        message_id = event.message_id
        if event.kind == RECEIVE:
            send_time = self._first_send_time.get(message_id)
            if send_time is not None:
                if message_id not in self._received:
                    self._received.add(message_id)
                    self.transit.add(event.time - send_time)
                self._receive_time.setdefault((message_id, event.process), event.time)
            return
        super().on_event(event)

    def on_deliveries(self, time: float, process: str, run: DeliveryRun, first_seq: int) -> None:
        super().on_deliveries(time, process, run, first_seq)
        for _group, message_id, _sender, _clock, _view_index in run:
            received = self._receive_time.pop((message_id, process), None)
            if received is not None:
                self.ordering_wait.add(time - received)
            if message_id is not None:
                window = self._deliver_window.setdefault(message_id, [time, time])
                window[1] = max(window[1], time)

    def span_snapshot(self) -> Dict[str, Any]:
        """The ``obs["spans"]`` block: the messages timed, and each stage
        as a p50/p95/p99 summary (``None`` while empty)."""
        spread = LatencyReservoir()
        for first, last in self._deliver_window.values():
            spread.add(last - first)
        stages = {
            "transit": self.transit,
            "ordering_wait": self.ordering_wait,
            "latency": self.latency,
            "spread": spread,
        }
        return {
            "tracked_messages": len(self._first_send_time),
            "stages": {
                name: reservoir.summary(percentiles=(50, 95, 99)) if reservoir.count else None
                for name, reservoir in stages.items()
            },
        }


class TraceRecorder:
    """Collects :class:`TraceEvent` objects and streams them to sinks.

    By default a :class:`MemorySink` is installed so :meth:`trace` returns
    the full execution trace (the historical behaviour).  With
    ``keep_events=False`` no event is retained: everything is pushed to the
    registered sinks only, and :meth:`trace` raises -- this is the
    streaming/online mode used for runs too large to materialize; the
    protocols' per-process delivery logs follow it (:meth:`delivery_log`).
    A streaming recorder also keeps the exact per-kind tally
    (:meth:`kind_counts`), and an event of a kind no sink subscribes to is
    counted and numbered but never built.  :attr:`lifecycle` is the second
    input, for the steps that are not events (see the module docstring).

    Fan-out is *isolated* by default (``on_sink_error="detach"``): a sink
    raising from :meth:`TraceSink.on_event` or ``on_deliveries`` is detached
    from the recorder and the failure recorded in :attr:`sink_errors` -- one
    broken observer must not kill a multi-minute simulation, but it also
    must not silently keep "verifying".  ``on_sink_error="raise"`` restores
    the strict behaviour (the exception propagates to the simulator loop),
    for tests and debugging where a sink bug should be loud.
    """

    def __init__(
        self,
        sinks: Optional[Iterable[TraceSink]] = None,
        keep_events: bool = True,
        on_sink_error: str = "detach",
    ) -> None:
        if on_sink_error not in ("detach", "raise"):
            raise ValueError(
                f"on_sink_error must be 'detach' or 'raise', got {on_sink_error!r}"
            )
        self._memory: Optional[MemorySink] = MemorySink() if keep_events else None
        self._sinks: List[TraceSink] = list(sinks or ())
        self._reroute()
        self._seq = 0
        #: kind -> events recorded, in first-seen order.  Kept per event by
        #: a streaming recorder; a storing one counts its stored events
        #: when asked (:meth:`kind_counts`), up to ``_tallied``.
        self._tally: Dict[str, int] = {}
        self._tallied = 0
        self._on_sink_error = on_sink_error
        #: One entry per detached sink: sink type, error string, event seq.
        self.sink_errors: List[Dict[str, Any]] = []
        #: The sink objects removed after raising (inspection/tests).
        self.detached_sinks: List[TraceSink] = []

    def _reroute(self) -> None:
        """Rebuild the per-kind fan-out from the registered sinks: kind ->
        the sinks subscribed to it, in registration order.  A lifecycle
        kind goes only to the sinks that name it."""
        self._routes: Dict[str, Tuple[TraceSink, ...]] = {
            kind: tuple(
                sink
                for sink in self._sinks
                if getattr(sink, "KINDS", None) is None or kind in sink.KINDS
            )
            for kind in EVENT_KINDS
        }
        self._lifecycle_routes: Dict[str, Tuple[TraceSink, ...]] = {
            kind: tuple(
                sink for sink in self._sinks if kind in (getattr(sink, "KINDS", None) or ())
            )
            for kind in LIFECYCLE_KINDS
        }
        #: The lifecycle dispatch, or ``None`` while nobody subscribes.
        self.lifecycle = self._lifecycle if any(self._lifecycle_routes.values()) else None
        #: ``deliver``'s sinks, each with its ``on_deliveries`` or ``None``.
        self._run_route: Tuple[Tuple[TraceSink, Optional[Callable[..., None]]], ...] = tuple(
            (sink, getattr(sink, "on_deliveries", None)) for sink in self._routes[DELIVER]
        )
        self._run_builds = self._memory is not None or any(
            on_deliveries is None for _, on_deliveries in self._run_route
        )

    def _lifecycle(self, kind, time, process, subject, detail=None, peer=None) -> None:
        """Hand one lifecycle step (:meth:`TraceSink.on_lifecycle`'s
        arguments) to the sinks that name its kind."""
        for sink in self._lifecycle_routes[kind]:
            try:
                sink.on_lifecycle(kind, time, process, subject, detail, peer)
            except Exception as exc:
                self._sink_failed(sink, exc, TraceEvent(time, kind, process, seq=self._seq))

    def add_sink(self, sink: TraceSink) -> TraceSink:
        """Register a sink; returns it for chaining."""
        self._sinks.append(sink)
        self._reroute()
        return sink

    def remove_sink(self, sink: TraceSink) -> None:
        """Unregister a previously added sink."""
        self._sinks.remove(sink)
        self._reroute()

    def record(
        self,
        time: float,
        kind: str,
        process: str,
        group: Optional[str] = None,
        message_id: Optional[str] = None,
        sender: Optional[str] = None,
        clock: Optional[int] = None,
        **details: Any,
    ) -> Optional[TraceEvent]:
        """Record one event, fan it out to the sinks subscribed to its
        kind, and return it -- or, on a streaming recorder with no sink
        subscribed to the kind, count it and return ``None``."""
        sinks = self._routes.get(kind)
        if sinks is None:
            raise ValueError(f"unknown trace event kind {kind!r}")
        memory = self._memory
        if memory is None:
            tally = self._tally
            tally[kind] = tally.get(kind, 0) + 1
            if not sinks:
                self._seq += 1
                return None
        event = TraceEvent(
            time, kind, process, group, message_id, sender, clock,
            tuple(sorted(details.items())) if details else (),
            self._seq,
        )
        self._seq += 1
        if memory is not None:
            memory.on_event(event)
        for sink in sinks:
            try:
                sink.on_event(event)
            except Exception as exc:
                self._sink_failed(sink, exc, event)
        return event

    def record_deliveries(self, time: float, process: str, run: DeliveryRun) -> List[TraceEvent]:
        """Record what ``process`` delivered at ``time`` as one run, numbered,
        tallied and stored as :meth:`record` would; returns the events built.
        A run sink that raises is reported at the run's first ``seq``."""
        first_seq, self._seq = self._seq, self._seq + len(run)
        memory = self._memory
        if memory is None:
            self._tally[DELIVER] = self._tally.get(DELIVER, 0) + len(run)
        events: List[TraceEvent] = []
        if self._run_builds:
            events = [
                TraceEvent(time, DELIVER, process, group, message_id, sender, clock,
                           (("view_index", view_index),), seq)
                for seq, (group, message_id, sender, clock, view_index) in enumerate(run, first_seq)
            ]
            if memory is not None:
                memory.events.extend(events)
        for sink, on_deliveries in self._run_route:
            try:
                if on_deliveries is not None:
                    on_deliveries(time, process, run, first_seq)
                else:
                    for event in events:
                        sink.on_event(event)
            except Exception as exc:
                if on_deliveries is not None:
                    event = TraceEvent(time, DELIVER, process, seq=first_seq)
                self._sink_failed(sink, exc, event)
        return events

    def _sink_failed(self, sink: TraceSink, exc: Exception, event: TraceEvent) -> None:
        """Apply the ``on_sink_error`` policy to a sink that raised on
        ``event``: re-raise, or log it in :attr:`sink_errors` and
        :attr:`detached_sinks` and detach it; the calling fan-out goes on
        over the routes it started with, so the later sinks see it all."""
        if self._on_sink_error == "raise":
            raise exc
        self.sink_errors.append(
            {
                "sink": type(sink).__name__,
                "error": f"{type(exc).__name__}: {exc}",
                "at_seq": event.seq,
                "at_time": event.time,
            }
        )
        self.detached_sinks.append(sink)
        self._sinks.remove(sink)
        self._reroute()

    def kind_counts(self) -> Dict[str, int]:
        """Events recorded so far per kind, count-only ones included."""
        if self._memory is not None:
            # Catch up on what was stored since the last call: a storing
            # recorder pays nothing per event for a tally few runs read.
            tally = self._tally
            events = self._memory.events
            for event in events[self._tallied:]:
                tally[event.kind] = tally.get(event.kind, 0) + 1
            self._tallied = len(events)
        return dict(self._tally)

    @property
    def events_recorded(self) -> int:
        """Total number of events seen (stored or streamed)."""
        return self._seq

    @property
    def stored_events(self) -> int:
        """Events currently held in memory (0 in streaming mode)."""
        return len(self._memory) if self._memory is not None else 0

    def trace(self) -> "EventTrace":
        """Return an immutable queryable view over the recorded events.

        Raises :class:`RuntimeError` in streaming mode (``keep_events=False``):
        there is no materialized trace by design -- query the sinks instead.
        """
        if self._memory is None:
            raise RuntimeError(
                "this recorder streams to sinks only (keep_events=False); "
                "no materialized trace is available -- run offline "
                "(analysis='offline') to query one"
            )
        return self._memory.trace()

    def delivery_log(self) -> "DeliveryLog":
        """A new per-process delivery log that keeps what this recorder
        keeps: every record beside a stored trace, a count beside a
        streaming one."""
        return DeliveryLog(stored=self._memory is not None)

    def close(self) -> None:
        """Close every registered sink."""
        for sink in self._sinks:
            sink.close()

    def release(self) -> None:
        """End the run: drop every sink (a caller's sink may point back at
        the session that records here).  Tallies and the stored trace stay
        readable."""
        self._sinks = []
        self._reroute()

    def __len__(self) -> int:
        return self._seq


class DeliveryLog:
    """One protocol instance's application deliveries, in delivery order.

    The trace's ``deliver`` events carry the same facts, so the log keeps
    what its recorder keeps (:meth:`TraceRecorder.delivery_log`): beside a
    stored trace, or with no recorder at all, every record; beside a
    streaming recorder a count only, so a streaming run keeps no delivery
    records.  ``len()`` is the count in both modes.  Reading
    the records of a counting log raises, as :meth:`TraceRecorder.trace`
    does.
    """

    __slots__ = ("count", "_records")

    def __init__(self, stored: bool = True) -> None:
        self.count = 0
        self._records: Optional[List[Any]] = [] if stored else None

    def add(self, count: int, records: Callable[[], Iterable[Any]]) -> None:
        """Count a run of ``count`` deliveries; a stored log also keeps
        what ``records()`` yields (a counting log never calls it)."""
        self.count += count
        if self._records is not None:
            self._records.extend(records())

    def _read(self) -> List[Any]:
        if self._records is None:
            raise RuntimeError(
                "this run streams its trace (analysis='online', keep_events=False), "
                "so it keeps a count of deliveries, not their records; run it in "
                "offline mode (analysis='offline') to read them, or use "
                "deliveries() / delivery_queue.was_delivered(msg_id)"
            )
        return self._records

    @property
    def held(self) -> int:
        """Records held in memory (0 for a counting log)."""
        return len(self._records) if self._records is not None else 0

    def __len__(self) -> int:
        return self.count

    def __iter__(self) -> Iterator[Any]:
        return iter(self._read())

    def __getitem__(self, index: Any) -> Any:
        return self._read()[index]


class EventTrace:
    """Queryable, immutable view over a list of trace events.

    Filter results by kind (and kind+process) are indexed lazily, so
    repeated queries cost one scan instead of one scan each.
    """

    def __init__(self, events: List[TraceEvent]) -> None:
        self._events = sorted(events, key=lambda event: (event.time, event.seq))
        self._kind_index: Optional[Dict[str, List[TraceEvent]]] = None
        self._kind_process_index: Dict[str, Dict[str, List[TraceEvent]]] = {}

    # ------------------------------------------------------------------
    # Basic access
    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def _by_kind(self, kind: str) -> List[TraceEvent]:
        if self._kind_index is None:
            index: Dict[str, List[TraceEvent]] = {}
            for event in self._events:
                index.setdefault(event.kind, []).append(event)
            self._kind_index = index
        return self._kind_index.get(kind, [])

    def _by_kind_and_process(self, kind: str, process: str) -> List[TraceEvent]:
        per_process = self._kind_process_index.get(kind)
        if per_process is None:
            per_process = {}
            for event in self._by_kind(kind):
                per_process.setdefault(event.process, []).append(event)
            self._kind_process_index[kind] = per_process
        return per_process.get(process, [])

    def events(
        self,
        kind: Optional[str] = None,
        process: Optional[str] = None,
        group: Optional[str] = None,
    ) -> List[TraceEvent]:
        """Events filtered by any combination of kind, process and group."""
        if kind is not None:
            base = (
                self._by_kind_and_process(kind, process)
                if process is not None
                else self._by_kind(kind)
            )
            if group is None:
                return list(base)
            return [event for event in base if event.group == group]
        result = []
        for event in self._events:
            if process is not None and event.process != process:
                continue
            if group is not None and event.group != group:
                continue
            result.append(event)
        return result

    # ------------------------------------------------------------------
    # Derived views used by benchmarks and tests
    # ------------------------------------------------------------------
    def processes(self) -> List[str]:
        """All process identifiers appearing in the trace."""
        return sorted({event.process for event in self._events})

    def delivered_sequence(self, process: str, group: Optional[str] = None) -> List[TraceEvent]:
        """Delivery events at ``process`` in delivery order.

        With ``group`` given, restricted to that group's messages; the order
        is still the process-local delivery order (which, for multi-group
        processes, interleaves groups).
        """
        base = self._by_kind_and_process(DELIVER, process)
        if group is None:
            return list(base)
        return [event for event in base if event.group == group]

    def delivered_ids(self, process: str, group: Optional[str] = None) -> List[str]:
        """Message ids delivered at ``process`` in delivery order."""
        return [
            event.message_id
            for event in self.delivered_sequence(process, group)
            if event.message_id is not None
        ]

    def sends(self, process: Optional[str] = None, group: Optional[str] = None) -> List[TraceEvent]:
        """Application (non-null) send events."""
        return self.events(kind=SEND, process=process, group=group)

    def views_installed(self, process: str, group: str) -> List[TraceEvent]:
        """View-installation events at ``process`` for ``group``, in order."""
        return self.events(kind=VIEW_INSTALL, process=process, group=group)

    def view_sequence(self, process: str, group: str) -> List[frozenset]:
        """The sequence of views (as frozensets of member ids) installed."""
        return [
            frozenset(event.detail("members", ()))
            for event in self.views_installed(process, group)
        ]

    def delivery_latencies(self, group: Optional[str] = None) -> List[float]:
        """Per-delivery latency: delivery time minus original send time.

        Only application messages are considered; every delivery of a
        message contributes one sample (so a multicast to `n` members
        contributes up to `n` samples).  A message re-sent under its
        original id (asymmetric failover) keeps its *first* send time --
        the latency is measured from the application's initial send, not
        from the retry.
        """
        send_times: Dict[str, float] = {}
        for event in self.events(kind=SEND, group=group):
            if event.message_id is not None:
                send_times.setdefault(event.message_id, event.time)
        latencies = []
        for event in self.events(kind=DELIVER, group=group):
            if event.message_id in send_times:
                latencies.append(event.time - send_times[event.message_id])
        return latencies

    def blocking_times(self, group: Optional[str] = None) -> List[float]:
        """Durations between a blocked send and its eventual transmission.

        Pairs BLOCKED_SEND and UNBLOCKED_SEND events per (process, group) in
        FIFO order, which matches how the deferred-send queue drains.
        """
        blocked: Dict[Tuple[str, Optional[str]], List[float]] = {}
        durations: List[float] = []
        for event in self._events:
            if group is not None and event.group != group:
                continue
            key = (event.process, event.group)
            if event.kind == BLOCKED_SEND:
                blocked.setdefault(key, []).append(event.time)
            elif event.kind == UNBLOCKED_SEND:
                queue = blocked.get(key)
                if queue:
                    durations.append(event.time - queue.pop(0))
        return durations

    def view_agreement_latency(self, group: str, crashed_process: str) -> Dict[str, float]:
        """Per-process latency from the first suspicion of
        ``crashed_process`` to the installation of a view excluding it."""
        result: Dict[str, float] = {}
        for process in self.processes():
            suspicions = [
                event.time
                for event in self.events(kind=SUSPECT, process=process, group=group)
                if event.detail("target") == crashed_process
            ]
            if not suspicions:
                continue
            suspect_time = suspicions[0]
            for event in self.views_installed(process, group):
                members = event.detail("members", ())
                if crashed_process not in members and event.time >= suspect_time:
                    result[process] = event.time - suspect_time
                    break
        return result

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EventTrace(events={len(self._events)})"
