"""Unit and integration tests for :mod:`repro.obs` (PR 7).

Covers the metrics registry, the simulated-time sampler (including its
park/resume contract with unbounded ``sim.run()``), the hot-path profiler's
label categorization, the latency sink's span stages, the ``observe=`` coercion
and session wiring, and the report renderer / CLI.  The determinism half of
the contract -- observation never changes a run -- is pinned separately in
``tests/test_hot_path_equivalence.py``.
"""

import json

import pytest

from repro.api import Session
from repro.core.config import OrderingMode
from repro.core.messages import DataMessage, reset_message_counter
from repro.net.latency import ConstantLatency
from repro.net.simulator import Simulator
from repro.net.trace import (
    DELIVER, RECEIVE, SEND, MetricsSink, SpanMetricsSink, TraceEvent, TraceRecorder,
)
from repro.obs import (
    HotPathProfiler,
    MetricsRegistry,
    Observation,
    SimTimeSampler,
    render_document,
    render_obs,
)
from repro.obs.report import find_obs_blocks
from repro.scenarios import SCENARIO_PROTOCOL_DEFAULTS


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------
def test_registry_instruments_are_idempotent_by_name():
    registry = MetricsRegistry()
    counts = {"count": 3}
    registry.counter_source("a.", lambda: counts)
    # Reading takes nothing away: the owner's count is read as it stands.
    assert registry.read_counters() == {"a.count": 3}
    assert registry.read_counters() == {"a.count": 3}
    counts["count"] += 1
    assert registry.snapshot()["counters"] == {"a.count": 4}
    gauge = registry.gauge("a.depth", lambda: 7)
    assert registry.gauge("a.depth", lambda: 99) is gauge
    assert registry.read_gauges()["a.depth"] == 7


def test_counter_sources_under_one_prefix_sum_per_key():
    registry = MetricsRegistry()
    first, second = {"wakes": 2, "nulls_idle": 5}, {"nulls_idle": 4}
    registry.counter_source("t.", lambda: first)
    registry.counter_source("t.", lambda: second)
    registry.counter_source("u.", lambda: {"wakes": 1})
    assert registry.read_counters() == {"t.wakes": 2, "t.nulls_idle": 9, "u.wakes": 1}
    assert registry.family("t.") == {"nulls_idle": 9, "wakes": 2}


def test_histogram_buckets_mean_and_overflow():
    registry = MetricsRegistry()
    # The owner's counts, {value: occurrences}, of 1, 1, 2, 3, 4, 9.
    sizes = {1: 2, 2: 1, 3: 1, 4: 1, 9: 1}
    registry.histogram_source("batch", lambda: sizes, bounds=[1, 2, 4])
    snap = registry.snapshot()["histograms"]["batch"]
    assert snap["count"] == 6
    assert snap["max"] == 9
    assert snap["mean"] == pytest.approx(20 / 6, abs=1e-3)
    assert snap["buckets"] == {"le_1": 2, "le_2": 1, "le_4": 2, "overflow": 1}
    # Read, never pushed: the owner's next count shows at the next read.
    sizes[2] += 1
    assert registry.snapshot()["histograms"]["batch"]["buckets"]["le_2"] == 2
    registry.histogram_source("empty", dict)
    assert registry.snapshot()["histograms"]["empty"] == {
        "count": 0, "mean": 0.0, "max": 0.0,
        "buckets": {**{f"le_{2 ** k}": 0 for k in range(8)}, "overflow": 0},
    }


def test_sum_gauge_aggregates_contributors():
    registry = MetricsRegistry()
    roster = registry.sum_gauge("queues.depth")
    queues = [[1, 2], [3], []]
    for queue in queues:
        roster.add(lambda q=queue: len(q))
    assert registry.read_gauges()["queues.depth"] == 3
    queues[2].append("x")
    assert registry.read_gauges()["queues.depth"] == 4
    # Same name returns the same roster (no double registration).
    assert registry.sum_gauge("queues.depth") is roster


# ----------------------------------------------------------------------
# Simulated-time sampler
# ----------------------------------------------------------------------
def test_sampler_samples_on_interval_and_parks_when_idle():
    registry = MetricsRegistry()
    counts = {"done": 0}
    registry.counter_source("work.", lambda: counts)
    sampler = SimTimeSampler(registry, interval=2.0)
    sim = Simulator(seed=0)
    sampler.attach(sim)
    for at in (1.0, 3.0, 5.0):
        sim.schedule_at(at, lambda: counts.__setitem__("done", counts["done"] + 10))
    sim.run()  # must terminate: the sampler parks once the queue drains
    assert sampler.times == [2.0, 4.0, 6.0]
    assert sampler.counter_columns["work.done"] == [10, 20, 30]
    assert sampler._deltas("work.done") == [10, 10, 10]
    # Parked: pushing more time through resumes sampling from "now".
    sim.schedule(1.5, lambda: None)
    sampler.ensure_running()
    sim.run()
    assert sampler.times == [2.0, 4.0, 6.0, 8.0]


def test_sampler_backfills_late_instruments():
    registry = MetricsRegistry()
    sampler = SimTimeSampler(registry, interval=1.0)
    sim = Simulator(seed=0)
    sampler.attach(sim)
    sim.schedule_at(1.5, lambda: registry.counter_source("", lambda: {"late": 5}))
    sim.schedule_at(2.5, lambda: None)
    sim.run()
    # The late counter's column is padded with zeros for missed samples.
    assert sampler.counter_columns["late"] == [0, 5, 5][: len(sampler.times)]


def test_sampler_rejects_nonpositive_interval():
    with pytest.raises(ValueError):
        SimTimeSampler(MetricsRegistry(), interval=0.0)


def test_trace_counter_sink_and_messages_per_delivery():
    """``trace.<kind>`` is the recorder's own tally, polled: no sink is
    registered, so every kind here is count-only and no event is built."""
    registry = MetricsRegistry()
    recorder = TraceRecorder(keep_events=False)
    registry.counter_source("trace.", recorder.kind_counts)
    sampler = SimTimeSampler(registry, interval=10.0)
    sim = Simulator(seed=0)
    sampler.attach(sim)

    def emit(kind, mid):
        built = recorder.record(
            sim.now, kind, "p1", group="g", message_id=mid, sender="p1", clock=1
        )
        assert built is None

    # Interval 1: 6 sends (2 app + 4 null) and 2 deliveries -> 3.0.
    sim.schedule_at(1.0, lambda: [emit(SEND, "m1"), emit(SEND, "m2")])
    sim.schedule_at(2.0, lambda: [emit("null_send", f"n{i}") for i in range(4)])
    sim.schedule_at(3.0, lambda: [emit(DELIVER, "m1"), emit(DELIVER, "m2")])
    # Interval 2: 2 null sends, no deliveries -> None.
    sim.schedule_at(12.0, lambda: [emit("null_send", "n9"), emit("null_send", "n10")])
    sim.schedule_at(13.0, lambda: None)
    sim.run()
    assert registry.read_counters()["trace.send"] == 2
    assert registry.read_counters()["trace.null_send"] == 6
    assert registry.snapshot()["counters"]["trace.deliver"] == 2
    assert registry.family("trace.") == {"deliver": 2, "null_send": 6, "send": 2}
    assert sampler.messages_per_delivery_series() == [3.0, None]


# ----------------------------------------------------------------------
# Hot-path profiler
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "label, category",
    [
        ("deliver ->P17", "delivery_batch"),
        ("suspector", "timer_fire:suspector"),
        ("time-silence", "timer_fire:time_silence"),
        ("scenario crash P3", "scenario_event"),
        ("obs:sample", "obs_sampler"),
        ("workload arrivals", "workload"),
        ("", "uncategorized"),
        ("retransmit: m17", "timer_fire:retransmit"),
    ],
)
def test_profiler_categorizes_labels(label, category):
    assert HotPathProfiler._categorize(label) == category


def test_profiler_totals_sum_every_category():
    profiler = HotPathProfiler()
    profiler.record_event("deliver ->P1", 0.5)
    profiler.record_event("deliver ->P2", 0.3)
    profiler.record_event("suspector", 0.2)
    profiler.record_event("time-silence", 0.1)
    # The kernel's per-callback hook is the one way in: the categories
    # partition the attributed time, and the shares sum to one.
    assert not hasattr(profiler, "record")
    assert profiler.total_seconds == pytest.approx(1.1)
    snap = profiler.snapshot(top_n=2)
    assert snap["total_seconds"] == pytest.approx(1.1)
    assert [entry["section"] for entry in snap["top"]] == [
        "delivery_batch", "timer_fire:suspector",
    ]
    assert snap["sections"]["delivery_batch"]["calls"] == 2
    assert snap["sections"]["delivery_batch"]["share"] == pytest.approx(0.8 / 1.1, abs=1e-4)
    assert sum(section["share"] for section in snap["sections"].values()) == pytest.approx(
        1.0, abs=1e-3
    )
    assert all(set(section) == {"calls", "seconds", "mean_us", "max_us", "share"}
               for section in snap["sections"].values())


# ----------------------------------------------------------------------
# Span stages of the latency sink
# ----------------------------------------------------------------------
def _span_event(time, kind, process, mid):
    return TraceEvent(time=time, kind=kind, process=process, group="g",
                      message_id=mid, sender="p1", clock=1, details=(), seq=0)


def test_span_sink_computes_lifecycle_stages():
    sink = SpanMetricsSink()
    assert sink.KINDS == {SEND, RECEIVE, DELIVER}
    assert MetricsSink().KINDS == {SEND, DELIVER}
    sink.on_event(_span_event(0.0, SEND, "p1", "m1"))
    sink.on_event(_span_event(1.0, RECEIVE, "p2", "m1"))
    sink.on_event(_span_event(2.0, RECEIVE, "p3", "m1"))
    sink.on_event(_span_event(3.0, DELIVER, "p2", "m1"))
    sink.on_event(_span_event(5.0, DELIVER, "p3", "m1"))
    snap = sink.span_snapshot()
    assert set(snap) == {"tracked_messages", "stages"}
    assert snap["tracked_messages"] == 1
    assert snap["stages"]["transit"]["count"] == 1
    assert snap["stages"]["transit"]["mean"] == pytest.approx(1.0)
    # ordering_wait: p2 waited 2.0, p3 waited 3.0.
    assert snap["stages"]["ordering_wait"]["count"] == 2
    assert snap["stages"]["ordering_wait"]["mean"] == pytest.approx(2.5)
    # latency: 3.0 and 5.0 after the send -- the sink's one reservoir.
    assert snap["stages"]["latency"]["mean"] == pytest.approx(4.0)
    assert snap["stages"]["latency"] == sink.latency.summary(percentiles=(50, 95, 99))
    # spread: last minus first delivery.
    assert snap["stages"]["spread"]["count"] == 1
    assert snap["stages"]["spread"]["mean"] == pytest.approx(2.0)
    assert snap["stages"]["spread"]["p50"] == pytest.approx(2.0)


def test_span_snapshot_is_repeatable_mid_run():
    sink = SpanMetricsSink()
    sink.on_event(_span_event(0.0, SEND, "p1", "m1"))
    sink.on_event(_span_event(1.0, DELIVER, "p2", "m1"))
    first = sink.span_snapshot()
    assert first == sink.span_snapshot()
    assert first["stages"]["spread"]["count"] == 1
    assert first["stages"]["transit"] is None  # no receive yet
    # ``spread`` is folded when read, so a later delivery still widens it.
    sink.on_event(_span_event(4.0, DELIVER, "p3", "m1"))
    assert sink.span_snapshot()["stages"]["spread"]["max"] == pytest.approx(3.0)


# ----------------------------------------------------------------------
# Observation coercion and session wiring
# ----------------------------------------------------------------------
def test_observation_coercion_modes():
    assert Observation.coerce(None) is None
    assert Observation.coerce(False) is None
    basic = Observation.coerce(True)
    assert basic.sampler is not None and basic.profiler is None and not basic.spans
    assert basic.journeys is None
    full = Observation.coerce("full")
    assert full.profiler is not None and full.spans
    assert full.journeys is not None
    journeys = Observation.coerce("journeys")
    assert journeys.journeys is not None
    assert journeys.profiler is None and not journeys.spans
    custom = Observation.coerce({"sampler": False, "profiler": True})
    assert custom.sampler is None and custom.profiler is not None
    with pytest.raises(ValueError, match="a dict"):
        Observation.coerce(Observation(spans=True))
    assert Observation.coerce("metrics").sampler is not None
    for unknown in ("loud", "true", "on"):
        with pytest.raises(ValueError):
            Observation.coerce(unknown)
    with pytest.raises(ValueError):
        Observation.coerce(3.14)


def _observed_session(observe):
    session = Session("newtop", seed=5, analysis="online", observe=observe)
    session.spawn(["P1", "P2", "P3"])
    session.group("g")
    for index in range(4):
        session.multicast("P1", "g", f"m-{index}")
        session.run(1.0)
    session.run(25.0)
    return session.result()


def test_session_observe_metrics_block():
    result = _observed_session(True)
    assert result.passed
    obs = result.obs
    assert set(obs) == {"metrics", "samples"}
    counters = obs["metrics"]["counters"]
    assert counters["trace.deliver"] == result.deliveries
    assert counters["sim.events_fired"] > 0
    assert counters["transport.sent.data"] > 0
    # Time-silence splits its nulls by the deadline that sent them: omega
    # while something was owed (the burst), Omega/2 heartbeats after.
    owed, idle = counters["time_silence.nulls_owed"], counters["time_silence.nulls_idle"]
    assert owed > 0 and idle > 0
    assert owed + idle == counters["trace.null_send"]
    assert "sim.heap_live" in obs["metrics"]["gauges"]
    samples = obs["samples"]
    assert samples["times"], "sampler took no samples"
    assert len(samples["counters"]["trace.deliver"]) == len(samples["times"])
    assert any(v is not None for v in samples["messages_per_delivery"])


def test_blocked_senders_gauge_follows_the_deferred_sends():
    """A window of one defers five of six sends in the endpoint's own list;
    the gauge reads that list, so it is 1 while they wait and 0 once they
    have drained (it read 0 throughout while it watched a second queue
    nothing filled)."""
    session = Session("newtop", config={"flow_control_window": 1}, seed=3, observe=True)
    session.spawn(["P1", "P2", "P3"])
    session.group("g")
    for index in range(6):
        session.multicast("P1", "g", f"m{index}")
    assert len(session["P1"].endpoint("g").deferred_sends) == 5
    session.run(120.0)
    result = session.result()
    assert result.passed and result.deliveries == 18
    column = result.obs["samples"]["gauges"]["flow.blocked_senders"]
    assert max(column) == 1 and column[-1] == 0
    assert result.obs["metrics"]["gauges"]["flow.blocked_senders"] == 0


def test_retained_gauge_shows_the_collector_drain_an_asymmetric_group():
    """``stability.retained`` sums the retention buffers of the endpoints
    still in their group at sampler ticks.  After a burst into an idle
    asymmetric group it rises, then falls back to the idle nulls not yet
    known stable, and the report prints it as now / peak.  Before the
    sequencer stopped stamping ``ldn`` 0 it only grew: a collector that
    stopped reads "now" equal to "peak"."""
    names = ["P1", "P2", "P3", "P4"]
    session = Session(
        "newtop", seed=1, observe=True, latency_model=ConstantLatency(0.7),
        config={"omega": 2.0, "suspicion_timeout": 10.0},
    )
    session.spawn(names)
    session.group("g", mode=OrderingMode.ASYMMETRIC)
    session.run(20.3)
    for index in range(4):
        session.multicast("P2", "g", f"m{index}")
    session.run(60.0)
    result = session.result()
    assert result.passed
    now = result.obs["metrics"]["gauges"]["stability.retained"]
    assert now == sum(
        session[name].endpoint("g").stability.buffer.size() for name in names
    )
    peak = max(result.obs["samples"]["gauges"]["stability.retained"])
    assert (now, peak) == (16, 32)  # four buffers of four idle nulls
    assert f"retained messages: now {now}, peak {peak}" in render_obs(result.obs)


def test_session_observe_full_block():
    result = _observed_session("full")
    obs = result.obs
    assert set(obs) == {"metrics", "samples", "profile", "spans", "journeys"}
    profile = obs["profile"]
    assert profile["total_seconds"] > 0
    top_sections = [entry["section"] for entry in profile["top"]]
    assert "delivery_batch" in top_sections
    # One handle: every section is a simulator-callback category, and the
    # sections add up to the total.
    assert set(profile["sections"]) <= {
        "delivery_batch", "timer_fire:suspector", "timer_fire:time_silence",
        "timer_fire:heartbeat", "obs_sampler",
    }
    assert sum(section["seconds"] for section in profile["sections"].values()) == (
        pytest.approx(profile["total_seconds"], abs=1e-5)
    )
    spans = obs["spans"]
    assert spans["tracked_messages"] == 4
    assert spans["stages"]["latency"]["count"] == result.deliveries
    # Transport batch sizes were histogrammed.
    assert obs["metrics"]["histograms"]["transport.delivery_batch_size"]["count"] > 0
    # Cause counters exactly partition the transport send total.
    counters = obs["metrics"]["counters"]
    by_cause = obs["journeys"]["sends_by_cause"]
    assert sum(by_cause.values()) == counters["transport.sends"]


def _pinned_transport_run(observe):
    reset_message_counter()
    names = ["P1", "P2", "P3", "P4"]
    session = Session(
        "newtop", config=SCENARIO_PROTOCOL_DEFAULTS, seed=4, analysis="online",
        observe=observe, batch_window=0.25,
    )
    session.spawn(names)
    session.group("g")
    session.group("a", names[:3], mode=OrderingMode.ASYMMETRIC)
    session.run(1.0)
    for index in range(4):
        for sender in names[:3]:
            session.multicast(sender, "a", f"a{index}/{sender}")
            session.multicast(sender, "g", f"g{index}/{sender}")
        session.run(0.5)
    session.crash("P4")
    session.run(30.0)
    assert session.result().passed
    return session


def test_transport_histogram_and_tallies_of_a_seeded_run_are_pinned():
    """The transport keeps its batch sizes and its per-kind and per-cause
    send tallies always, and an observed run's registry reads them.  The
    literals were taken when the registry was still pushed into, and the
    reading must give them back exactly."""
    session = _pinned_transport_run(observe=True)
    result = session.result()
    metrics = result.obs["metrics"]
    assert metrics["histograms"] == {
        "transport.delivery_batch_size": {
            "count": 161,
            "mean": 1.5217,
            "max": 6,
            "buckets": {
                "le_1": 106, "le_2": 38, "le_4": 13, "le_8": 4, "le_16": 0,
                "le_32": 0, "le_64": 0, "le_128": 0, "overflow": 0,
            },
        }
    }
    transport = {
        name: value
        for name, value in metrics["counters"].items()
        if name.startswith("transport.")
    }
    assert transport == {
        "transport.sends": 278,
        "transport.sends_by_cause.app_multicast": 60,
        "transport.sends_by_cause.confirm_refute": 9,
        "transport.sends_by_cause.null_time_silence": 200,
        "transport.sends_by_cause.suspicion_gossip": 9,
        "transport.sent.Beacon": 36,
        "transport.sent.ConfirmMessage": 9,
        "transport.sent.SuspectMessage": 9,
        "transport.sent.data": 60,
        "transport.sent.null": 164,
    }
    # An unobserved run keeps the same counts; nobody reads them.
    unobserved = _pinned_transport_run(observe=None).transport
    assert unobserved.batch_sizes == session.transport.batch_sizes
    assert unobserved._counts() == {
        name[len("transport."):]: value for name, value in transport.items()
    }


def test_unobserved_session_has_no_obs_and_no_instruments():
    session = Session("newtop", seed=5)
    assert session.observation is None
    assert session.sim.metrics is None and session.sim.profiler is None
    # No journey tracker either: the recorder has no lifecycle subscriber
    # (and no sink beyond its trace store, the stack's check suite and the
    # latency sink, which times no span stage), so it hands out no dispatch.
    assert session.recorder.lifecycle is None
    assert session.recorder._sinks == [session.suite, session.metrics_sink]
    assert type(session.metrics_sink) is MetricsSink
    session.spawn(["P1", "P2"])
    session.group("g")
    session.run(5.0)
    assert session.result().obs is None


# ----------------------------------------------------------------------
# Report rendering and CLI
# ----------------------------------------------------------------------
def test_render_obs_mentions_every_section():
    result = _observed_session("full")
    text = render_obs(result.obs, title="obs")
    assert "metrics" in text
    assert "messages per delivery over time" in text
    assert "top hotspots" in text
    assert "delivery_batch" in text
    assert "ordering_wait" in text
    assert "time_silence.nulls_owed" in text and "time_silence.nulls_idle" in text


def test_a_lost_acknowledgment_shows_as_a_resent_null():
    """P3's null that acknowledged P1's message never reaches P1, so P1
    stays unstable with its own ``ldn`` already sent: its next firing is a
    re-send, counted apart from owed and idle nulls and printed beside
    them."""
    session = Session(
        "newtop", seed=1, observe=True, latency_model=ConstantLatency(0.7),
        config={"omega": 2.0, "suspicion_timeout": 10.0},
    )
    session.spawn(["P1", "P2", "P3", "P4"])
    session.group("g")
    session.run(20.3)
    lost = []

    def lose_covering_null(src, dst, message):
        payload = message.payload
        if (
            (src, dst) == ("P3", "P1") and not lost
            and isinstance(payload, DataMessage) and payload.kind == "null"
            and payload.ldn >= sent.clock
        ):
            lost.append(payload)
            return False
        return True

    session.network.add_filter(lose_covering_null)
    session.multicast("P1", "g", "m")
    (sent,) = [event for event in session.trace() if event.kind == SEND]
    session.run(20.0)
    result = session.result()
    assert result.passed and len(lost) == 1
    counters = result.obs["metrics"]["counters"]
    assert counters["time_silence.nulls_resent"] == 1
    assert (
        counters["time_silence.nulls_owed"] + counters["time_silence.nulls_idle"]
        + counters["time_silence.nulls_resent"] == counters["trace.null_send"]
    )
    assert all(
        process.endpoint("g").stability.buffer.non_null_count() == 0
        for process in (session[name] for name in ("P1", "P2", "P3", "P4"))
    )
    text = render_obs(result.obs)
    assert (
        f"time-silence firings: {counters['time_silence.nulls_owed']} owed, "
        f"{counters['time_silence.nulls_idle']} idle, 1 re-sent"
    ) in text


def test_nulls_that_rode_the_agreement_are_counted_apart_from_the_firings():
    """P2 crashes in an idle four-member group: each survivor's suspect and
    confirm message carries its null.  No timer fired them, so they are not
    ``null_send`` events; ``time_silence.nulls_carried`` counts them and
    the report prints them beside the firings."""
    session = Session(
        "newtop", seed=1, observe=True, latency_model=ConstantLatency(0.7),
        config={"omega": 2.0, "suspicion_timeout": 10.0},
    )
    session.spawn(["P1", "P2", "P3", "P4"])
    session.group("g")
    session.run(20.3)
    session.crash("P2")
    session.run(30.0)
    result = session.result()
    assert result.passed
    counters = result.obs["metrics"]["counters"]
    assert counters["time_silence.nulls_carried"] == 6  # 3 suspicions, 3 confirmations
    assert (
        counters["time_silence.nulls_owed"] + counters["time_silence.nulls_idle"]
        + counters["time_silence.nulls_resent"] == counters["trace.null_send"]
    )
    assert "re-sent; 6 rode a suspicion or confirmation" in render_obs(result.obs)


def test_render_document_walks_nested_obs_blocks():
    result = _observed_session(True)
    document = {
        "benchmark": "unit",
        "scale": "tiny",
        "schema_version": 2,
        "cells": [{"stack": "newtop", "obs": result.obs}],
    }
    assert [path for path, _ in find_obs_blocks(document)] == ["cells[0].obs"]
    text = render_document(document)
    assert "== unit ==" in text
    assert "obs @ cells[0].obs" in text
    bare = render_document({"benchmark": "empty"})
    assert "no obs blocks" in bare


def test_ring_watch_counters_and_beacons_per_heartbeat():
    session = Session("newtop", seed=5, analysis="online", observe=True)
    names = [f"P{index:02d}" for index in range(1, 13)]
    session.spawn(names)
    session.group("g")
    session.run(40.3)
    session.crash("P07")
    session.run(40.0)
    result = session.result()
    assert result.passed
    counters = result.obs["metrics"]["counters"]
    # A beacon is a transport payload of its own, filed under the cause it
    # took over from the idle null, and a traced NULL_SEND like one.
    assert counters["transport.sent.Beacon"] > 0
    by_cause = {
        name: value for name, value in counters.items()
        if name.startswith("transport.sends_by_cause.")
    }
    assert sum(by_cause.values()) == counters["transport.sends"]
    assert (
        counters["transport.sent.Beacon"] + counters["transport.sent.null"]
        == by_cause["transport.sends_by_cause.null_time_silence"]
    )
    idle = counters["time_silence.nulls_idle"]
    assert counters["time_silence.nulls_owed"] + idle == counters["trace.null_send"]
    assert counters["transport.sent.Beacon"] == 3 * idle
    # P07's three monitors timed it out; the other eight were asked.
    assert counters["suspector.suspicions"] == 11
    assert counters["suspector.concurrences"] == 8
    # Every survivor watched everybody once, while the agreement ran.
    assert counters["suspector.watch_all_entries"] == 11
    # The eight that were asked had been asleep until a deadline: their
    # tick was pulled in by a poke.  Wakes are real ticks -- polling would
    # have made 12 x 40.3 + 11 x 40 = 923 of them.
    assert counters["suspector.pokes"] == 8
    assert counters["suspector.probes"] < 200
    # One heartbeat wake per process per Omega / 2 does the beaconing and
    # the idle suspectors' deadline tests.
    gauges = result.obs["metrics"]["gauges"]
    assert gauges["heartbeat.process_periods"] == pytest.approx(
        (12 * 40.3 + 11 * 40.0) / 5.0
    )
    assert counters["heartbeat.wakes"] <= gauges["heartbeat.process_periods"]
    assert sorted(name for name in gauges if name.startswith("sim.")) == [
        "sim.heap_live", "sim.heap_pending",
    ]
    text = render_document({"benchmark": "unit", "obs": result.obs})
    assert "idle beacons per process heartbeat: 3 " in text
    assert "liveness wakes per process per heartbeat period (Ω/2): 1." in text


def test_report_cli_renders_file(tmp_path, capsys):
    from repro.obs.__main__ import main

    result = _observed_session(True)
    path = tmp_path / "BENCH_unit.json"
    path.write_text(json.dumps({"benchmark": "unit", "obs": result.obs}))
    assert main(["report", str(path)]) == 0
    out = capsys.readouterr().out
    assert "== unit ==" in out and "obs @ obs" in out


# ----------------------------------------------------------------------
# Benchmark harness integration (latency percentiles + JSON stamps)
# ----------------------------------------------------------------------
def test_metrics_sink_snapshot_carries_percentiles():
    result = _observed_session(True)
    latency = result.metrics["latency"]
    assert latency["count"] == result.deliveries
    assert latency["min"] <= latency["p50"] <= latency["p95"] <= latency["p99"]
    assert latency["p99"] <= latency["max"]


def test_latency_block_prefers_metrics_snapshot():
    from common import latency_block

    result = _observed_session(True)
    assert latency_block(result) is result.metrics["latency"]

    class _Bare:
        metrics = None

    assert latency_block(_Bare()) is None


def test_write_bench_json_stamps_provenance(tmp_path):
    from common import BENCH_SCHEMA_VERSION, write_bench_json

    path = tmp_path / "BENCH_stamp.json"
    document = write_bench_json(
        str(path), "unit", "tiny", {"rows": []}, seed=7, wall_seconds=0.25
    )
    on_disk = json.loads(path.read_text())
    assert on_disk == document
    assert document["schema_version"] == BENCH_SCHEMA_VERSION == 2
    assert document["python_version"].count(".") == 2
    assert isinstance(document["git_sha"], str) and document["git_sha"]
    with pytest.raises(ValueError):
        write_bench_json(str(path), "unit", "tiny", {"git_sha": "collision"})
