"""Tests for the streaming verification & observability subsystem.

Covers the trace-sink architecture (memory, JSONL, metrics, null sinks;
streaming recorders that never materialize a trace), agreement between the
check suite and the post-hoc oracle (``oracle_checkers``) on seeded
scenario traces and on fuzz specs, mutation sensitivity (both must catch
seeded violations), the scenario engine's ``analysis="online"`` mode, and
first-send latency samples, happened-before memoization and per-kind event
indexes.
"""

import io
import json

import pytest

from oracle_checkers import check_all, happened_before_pairs
from repro.analysis import check_events
from repro.analysis.online import (
    OnlineCheckSuite,
    OnlineViewAgreement,
    OnlineVirtualSynchrony,
)
from repro.net.trace import (
    DELIVER,
    JsonlSink,
    MemorySink,
    MetricsSink,
    NullSink,
    SEND,
    TraceEvent,
    TraceRecorder,
    VIEW_INSTALL,
)
from repro.scenarios import (
    ScenarioEngine,
    cascading_partitions_scenario,
    churn_scenario,
    from_config,
    merge_storm_scenario,
    migration_under_load_scenario,
    mixed_modes_scenario,
    run_scenario,
)
from repro.scenarios.fuzz import GeneratorTuning, classify_violations, generate_spec

# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def run_offline(config):
    """Run a scenario offline; return (engine, result, event list)."""
    engine = ScenarioEngine(from_config(config))
    result = engine.run()
    return engine, result, list(engine.session.trace())


def replay_online(events, agreement_sets=None):
    """Feed a (possibly mutated) event list through a fresh online suite."""
    return check_events(events, view_agreement_sets=agreement_sets)


SMALL_CHURN = dict(
    n_processes=10, n_groups=3, group_size=5, crashes=1, leaves=1, seed=5
)

#: A one-directional lossy window: the engine conservatively drops the
#: affected endpoints from the agreement sets, so online checkers must
#: scope view agreement AND virtual synchrony the same way check_all does.
DROP_WINDOW = {
    "name": "drop window",
    "processes": 6,
    "groups": [
        {"id": "g0", "members": ["P001", "P002", "P003", "P004"]},
        {"id": "g1", "members": ["P003", "P004", "P005", "P006"]},
    ],
    "workload": {"messages_per_sender": 3, "senders_per_group": 2, "gap": 3.0},
    "events": [
        {"time": 5.0, "kind": "drop", "src": ["P004"], "dst": ["P001"], "duration": 4.0}
    ],
    "drain": 40.0,
}


# ---------------------------------------------------------------------------
# Sinks
# ---------------------------------------------------------------------------


def test_memory_sink_matches_recorder_trace():
    extra = MemorySink()
    recorder = TraceRecorder(sinks=[extra])
    recorder.record(1.0, SEND, "P1", group="g", message_id="m1", sender="P1")
    recorder.record(2.0, DELIVER, "P2", group="g", message_id="m1", sender="P1")
    assert [event.seq for event in extra.trace()] == [
        event.seq for event in recorder.trace()
    ]
    assert recorder.events_recorded == 2
    assert recorder.stored_events == 2


def test_streaming_recorder_never_materializes():
    sink = NullSink()
    recorder = TraceRecorder(sinks=[sink], keep_events=False)
    for index in range(100):
        recorder.record(float(index), SEND, "P1", message_id=f"m{index}")
    assert recorder.events_recorded == 100
    assert recorder.stored_events == 0
    with pytest.raises(RuntimeError):
        recorder.trace()


def test_jsonl_sink_writes_parseable_lines():
    buffer = io.StringIO()
    recorder = TraceRecorder(sinks=[JsonlSink(buffer)], keep_events=False)
    recorder.record(1.0, SEND, "P1", group="g", message_id="m1", sender="P1")
    recorder.record(
        2.5, VIEW_INSTALL, "P2", group="g", members=("P1", "P2"), index=0
    )
    recorder.close()
    lines = [json.loads(line) for line in buffer.getvalue().splitlines()]
    assert len(lines) == 2
    assert lines[0]["kind"] == "send" and lines[0]["message_id"] == "m1"
    assert lines[1]["details"]["members"] == ["P1", "P2"]
    assert lines[1]["seq"] == 1


def test_metrics_sink_uses_first_send_time():
    metrics = MetricsSink()
    recorder = TraceRecorder(sinks=[metrics], keep_events=False)
    recorder.record(1.0, SEND, "P1", group="g", message_id="m1", sender="P1")
    # Re-send under the original id (asymmetric failover) must not reset
    # the latency clock.
    recorder.record(5.0, SEND, "P1", group="g", message_id="m1", sender="P1")
    recorder.record(6.0, DELIVER, "P2", group="g", message_id="m1", sender="P1")
    assert metrics.latency.count == 1
    assert metrics.latency.mean == pytest.approx(5.0)
    assert metrics.snapshot(recorder.kind_counts())["by_kind"] == {"send": 2, "deliver": 1}
    assert metrics.deliveries_by_group == {"g": 1}


def test_event_trace_delivery_latencies_keep_first_send_time():
    recorder = TraceRecorder()
    recorder.record(1.0, SEND, "P1", group="g", message_id="m1", sender="P1")
    recorder.record(5.0, SEND, "P1", group="g", message_id="m1", sender="P1")
    recorder.record(6.0, DELIVER, "P2", group="g", message_id="m1", sender="P1")
    assert recorder.trace().delivery_latencies() == [pytest.approx(5.0)]


def test_event_trace_kind_indexes_match_full_scan():
    _, _, events = run_offline(churn_scenario(**SMALL_CHURN))
    from repro.net.trace import EventTrace

    trace = EventTrace(events)
    for kind in (SEND, DELIVER, VIEW_INSTALL):
        indexed = trace.events(kind=kind)
        scanned = [event for event in trace if event.kind == kind]
        assert indexed == scanned
        process = scanned[0].process
        assert trace.events(kind=kind, process=process) == [
            event for event in scanned if event.process == process
        ]


def test_happened_before_pairs_memoized():
    _, _, events = run_offline(churn_scenario(**SMALL_CHURN))
    from repro.net.trace import EventTrace

    trace = EventTrace(events)
    first = happened_before_pairs(trace)
    assert happened_before_pairs(trace) is first  # cached, not recomputed


# ---------------------------------------------------------------------------
# Online/offline equivalence on seeded scenario traces
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "config",
    [
        churn_scenario(**SMALL_CHURN),
        churn_scenario(
            n_processes=12, n_groups=3, group_size=6,
            crashes=1, leaves=1, formations=2, seed=5,
        ),
        merge_storm_scenario(n_processes=6, n_groups=2, group_size=4, cycles=2),
        cascading_partitions_scenario(n_processes=9, n_groups=2, group_size=5, slices=1),
        migration_under_load_scenario(n_processes=5),
        mixed_modes_scenario(n_processes=6),
        DROP_WINDOW,
    ],
    ids=[
        "churn", "churn+formations", "merge-storm", "cascade", "migration",
        "mixed", "drop-window",
    ],
)
def test_online_and_offline_checkers_agree(config):
    engine, result, events = run_offline(config)
    agreement = engine.expected_agreement_sets()
    offline = check_all(engine.session.trace(), view_agreement_sets=agreement)
    online = replay_online(events, agreement)
    assert offline.passed and online.passed, (
        offline.violations[:3],
        online.violations[:3],
    )
    assert result.passed


# ---------------------------------------------------------------------------
# Mutation sensitivity: seeded violations must be caught by BOTH suites
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def churn_run():
    engine, result, events = run_offline(churn_scenario(**SMALL_CHURN))
    assert result.passed
    return engine, events


def _swap_events(events, first, second):
    swapped = {
        first.seq: first._replace(time=second.time, seq=second.seq),
        second.seq: second._replace(time=first.time, seq=first.seq),
    }
    return [swapped.get(event.seq, event) for event in events]


def test_swapped_deliveries_caught_by_both(churn_run):
    engine, events = churn_run
    agreement = engine.expected_agreement_sets()
    # Two app deliveries at one process whose messages were both delivered
    # by some other process: swapping them inverts the pairwise order.
    by_process = {}
    for event in events:
        if event.kind == DELIVER and event.message_id is not None:
            by_process.setdefault(event.process, []).append(event)
    candidate = None
    for process, deliveries in by_process.items():
        for i, first in enumerate(deliveries):
            for second in deliveries[i + 1 :]:
                for other, other_deliveries in by_process.items():
                    if other == process:
                        continue
                    ids = [e.message_id for e in other_deliveries]
                    if first.message_id in ids and second.message_id in ids:
                        candidate = (first, second)
                        break
                if candidate:
                    break
            if candidate:
                break
        if candidate:
            break
    assert candidate is not None, "scenario produced no shared delivery pair"
    mutated = _swap_events(events, *candidate)

    from repro.net.trace import EventTrace

    offline = check_all(EventTrace(mutated), view_agreement_sets=agreement)
    online = replay_online(mutated, agreement)
    assert not offline.passed
    assert not online.passed
    assert not online and not offline  # __bool__ mirrors .passed


def test_dropped_view_install_caught_by_both(churn_run):
    engine, events = churn_run
    agreement = engine.expected_agreement_sets()
    # Drop the final view install of a process that shares its group's
    # agreement set with at least one peer.
    target = None
    for group, members in agreement.items():
        if len(members) < 2:
            continue
        installs = [
            event
            for event in events
            if event.kind == VIEW_INSTALL
            and event.group == group
            and event.process == members[0]
        ]
        if len(installs) >= 2:
            target = installs[-1]
            break
    assert target is not None, "scenario produced no multi-install agreement group"
    mutated = [event for event in events if event.seq != target.seq]

    from repro.net.trace import EventTrace

    offline = check_all(EventTrace(mutated), view_agreement_sets=agreement)
    online = replay_online(mutated, agreement)
    assert not offline.passed
    assert not online.passed


def test_delivery_from_excluded_sender_caught_by_both(churn_run):
    engine, events = churn_run
    agreement = engine.expected_agreement_sets()
    crashed = next(
        event.targets[0] for event in engine.spec.events if event.kind == "crash"
    )
    # A survivor that shares a group with the crashed process and installed
    # a view excluding it.
    target = None
    for event in reversed(events):
        if (
            event.kind == VIEW_INSTALL
            and crashed not in event.detail("members", ())
            and event.process != crashed
            and any(
                crashed in e.detail("members", ())
                for e in events
                if e.kind == VIEW_INSTALL
                and e.process == event.process
                and e.group == event.group
            )
        ):
            target = event
            break
    assert target is not None
    last = events[-1]
    forged = last._replace(
        time=last.time + 1.0,
        seq=last.seq + 1,
        kind=DELIVER,
        process=target.process,
        group=target.group,
        message_id="forged-message",
        sender=crashed,
        clock=None,
        details=(),
    )
    mutated = events + [forged]

    from repro.net.trace import EventTrace

    offline = check_all(EventTrace(mutated), view_agreement_sets=agreement)
    online = replay_online(mutated, agreement)
    assert not offline.passed
    assert not online.passed
    assert any("outside its view" in violation for violation in online.violations)


# ---------------------------------------------------------------------------
# Engine online mode
# ---------------------------------------------------------------------------


def test_engine_online_mode_passes_without_materializing():
    config = churn_scenario(**SMALL_CHURN)
    engine = ScenarioEngine(from_config(config), analysis="online")
    result = engine.run()
    assert result.passed, result.checks.violations[:3]
    assert result.analysis == "online"
    assert result.trace_events > 0
    assert result.trace_events_stored == 0
    assert engine.session.recorder.stored_events == 0
    with pytest.raises(RuntimeError):
        engine.session.trace()
    # The rolling metrics sink saw every delivery the processes report.
    assert result.metrics["by_kind"]["deliver"] == result.deliveries
    assert result.metrics["latency"]["count"] > 0


def test_engine_online_and_offline_verdicts_match_end_to_end():
    config = merge_storm_scenario(n_processes=6, n_groups=2, group_size=4, cycles=2)
    offline = run_scenario(config)
    online = run_scenario(config, analysis="online")
    assert offline.passed == online.passed == True  # noqa: E712
    assert offline.deliveries == online.deliveries


def test_engine_rejects_unknown_analysis_mode():
    with pytest.raises(ValueError):
        ScenarioEngine(from_config(churn_scenario(**SMALL_CHURN)), analysis="psychic")


def test_engine_extra_jsonl_sink_in_online_mode(tmp_path):
    path = str(tmp_path / "trace.jsonl")
    config = mixed_modes_scenario(n_processes=6)
    result = run_scenario(config, analysis="online", sinks=[JsonlSink(path)])
    assert result.passed
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    assert len(lines) == result.trace_events
    kinds = {json.loads(line)["kind"] for line in lines}
    assert "deliver" in kinds and "view_install" in kinds


# ---------------------------------------------------------------------------
# Suite ergonomics
# ---------------------------------------------------------------------------


def test_suite_dispatches_only_relevant_kinds(churn_run):
    _, events = churn_run
    suite = OnlineCheckSuite()
    for event in events:
        suite.on_event(event)
    assert suite.events_seen == len(events)
    # Null sends dominate the trace but no checker consumes them.
    null_sends = sum(1 for event in events if event.kind == "null_send")
    assert null_sends > 0
    assert suite.total_order.events_seen == sum(
        1 for event in events if event.kind == DELIVER
    )
    # The arbiter assigned every delivered message one reference position.
    delivered_ids = {
        event.message_id for event in events if event.kind == DELIVER
    }
    positions = suite.total_order.arbiter_position
    assert set(positions) == delivered_ids
    assert sorted(positions.values()) == list(range(len(delivered_ids)))


def test_checkers_hold_each_view_composition_once():
    """The two checkers that store installed views intern them in the
    suite's view timeline: every composition they hold is the timeline's
    object.  A checker built on its own keeps a table of its own."""
    engine = ScenarioEngine(from_config(churn_scenario(**SMALL_CHURN)), analysis="online")
    assert engine.run().passed
    suite = engine.session.suite
    table = suite.total_order._timeline._shared
    by_type = {type(checker): checker for checker in suite.checkers}
    held = [
        view
        for views in list(by_type[OnlineVirtualSynchrony]._installs.values())
        + list(by_type[OnlineViewAgreement]._sequences.values())
        for view in views
    ]
    assert len(held) > len(table) > 1
    assert all(table[view] is view for view in held)

    alone = OnlineViewAgreement()
    for process in ("P1", "P2"):
        alone.on_event(
            TraceEvent(1.0, VIEW_INSTALL, process, "g", details=(("members", ("P1", "P2")),))
        )
    first, second = (views[0] for views in alone._sequences.values())
    assert first is second and first not in table


def test_view_agreement_falls_back_when_group_unlisted(churn_run):
    """A group missing from view_agreement_sets is still checked (against
    every installer), mirroring check_all's fallback -- not skipped."""
    engine, events = churn_run
    agreement = engine.expected_agreement_sets()
    group, members = next(
        (group, members)
        for group, members in agreement.items()
        if len(members) >= 2
    )
    installs = [
        event
        for event in events
        if event.kind == VIEW_INSTALL
        and event.group == group
        and event.process == members[0]
    ]
    assert len(installs) >= 2
    mutated = [event for event in events if event.seq != installs[-1].seq]
    # Empty mapping: every group takes the all-installers fallback.
    online = replay_online(mutated, {})
    assert not online.passed
    assert any("view sequences differ" in v for v in online.violations)


# ---------------------------------------------------------------------------
# Delta-stamped causal checking: differential against a full-vector scan
# ---------------------------------------------------------------------------

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.analysis.online import OnlineCausalOrder, OnlineTotalOrder  # noqa: E402
from repro.api import Session  # noqa: E402
from repro.core.config import OrderingMode  # noqa: E402
from repro.net.trace import DEPART, EventTrace, TraceEvent  # noqa: E402

FAST = dict(omega=1.5, suspicion_timeout=6.0, suspector_check_interval=0.5)


def full_vector_causal_violations(events):
    """The reference the delta rule must match: every send copies its
    sender's whole context, every delivery scans the whole vector."""
    sends, vector, sent_at, context, done, frontier = {}, {}, {}, {}, {}, {}
    views, departed, found = {}, set(), set()
    for e in sorted(events, key=lambda e: (e.time, e.seq)):
        if e.kind == VIEW_INSTALL:
            views[e.process, e.group] = frozenset(e.detail("members", ()))
        elif e.kind == DEPART:
            departed.add((e.process, e.group))
        elif e.kind == SEND and e.message_id is not None:
            sends[e.process] = index = sends.get(e.process, 0) + 1
            context.setdefault(e.process, {})[e.process] = index
            if e.message_id not in vector:  # a re-send keeps its first vector
                vector[e.message_id] = dict(context[e.process])
                sent_at[e.process, index] = (e.message_id, e.group)
        elif e.kind == DELIVER and e.message_id is not None:
            done.setdefault(e.process, set()).add(e.message_id)
            for sender, count in vector.get(e.message_id, {}).items():
                mine = context.setdefault(e.process, {})
                mine[sender] = max(mine.get(sender, 0), count)
                for index in range(frontier.get((e.process, sender), 0) + 1, count + 1):
                    earlier, group = sent_at.get((sender, index), (None, None))
                    view = views.get((e.process, group))
                    if (
                        earlier is None or earlier in done[e.process]
                        or (group is not None and (
                            (e.process, group) in departed or view is None
                            or sender not in view))
                    ):
                        continue
                    found.add(
                        f"{e.process} delivered {e.message_id} without causally "
                        f"preceding {earlier} whose sender {sender} is "
                        f"still in its view of {group}"
                    )
                frontier[e.process, sender] = max(
                    frontier.get((e.process, sender), 0), count
                )
    return found


def delta_causal_violations(events):
    return _replay_checker(OnlineCausalOrder(), events).violations


def _replay_checker(checker, events):
    """Feed one checker, built on its own, the kinds it consumes."""
    for event in sorted(events, key=lambda e: (e.time, e.seq)):
        if event.kind in checker.KINDS:
            checker.on_event(event)
    return checker


class NeverClosingTotalOrder(OnlineTotalOrder):
    """The reference the closing rule must match: every deliverer map
    stays open for the whole run."""

    def _close(self, message, entry):
        pass


def assert_closing_matches_never_closing(events):
    """The closing checker reports exactly what the never-closing
    reference does; returns the closing checker."""
    closing = _replay_checker(OnlineTotalOrder(), events)
    reference = _replay_checker(NeverClosingTotalOrder(), events)
    assert closing.violations == reference.violations
    assert reference.closed_held() == 0
    return closing


def _symmetric_execution():
    """Overlapping groups, a §5.3 formation over members of both, a crash."""
    session = Session("newtop", config=FAST, seed=11)
    session.spawn([f"P{index}" for index in range(1, 7)])
    session.group("g1", ["P1", "P2", "P3", "P4"])
    session.group("g2", ["P3", "P4", "P5", "P6"])
    for round_ in range(3):
        session.multicast("P1", "g1", f"a{round_}")
        session.multicast("P5", "g2", f"b{round_}")
        session.run(0.7)
        session.multicast("P3", "g1", f"c{round_}")
        session.multicast("P4", "g2", f"d{round_}")
        session.run(0.7)
    session.form_group("g3", ["P1", "P2", "P5"])
    session.run(12)
    session.multicast("P5", "g3", "f0")
    session.multicast("P2", "g1", "e0")
    session.run(1.0)
    session.crash("P6")
    session.multicast("P1", "g3", "f1")
    session.multicast("P3", "g2", "g0")
    session.run(1.0)
    session.multicast("P2", "g3", "f2")
    session.run(60)
    assert session.result().passed
    return list(session.trace())


def _asymmetric_execution():
    """An asymmetric group whose sequencer crashes with a request
    outstanding (failover re-send under the original id), overlapping a
    symmetric group; a hand-made second SEND of the re-sent id is added,
    the way older traces recorded the retry."""
    session = Session("newtop", config=FAST, seed=4, observe={"sampler": False})
    session.spawn(["A", "B", "C", "D"])
    session.group("asym", ["A", "B", "C"], mode=OrderingMode.ASYMMETRIC)
    session.group("sym", ["B", "C", "D"])
    for round_ in range(2):
        session.multicast("B", "asym", f"b{round_}")
        session.multicast("D", "sym", f"d{round_}")
        session.run(0.8)
        session.multicast("C", "asym", f"c{round_}")
        session.multicast("C", "sym", f"e{round_}")
        session.run(0.8)
    pending_id = session.multicast("C", "asym", "pending")
    session.crash("A")
    session.multicast("B", "sym", "x0")
    session.run(30)
    session.multicast("B", "asym", "after")
    session.multicast("D", "sym", "y0")
    session.run(60)
    result = session.result()
    assert result.passed
    causes = result.obs["metrics"]["counters"]
    assert causes["transport.sends_by_cause.failover_resend"] >= 1
    events = list(session.trace())
    pending = next(e for e in events if e.kind == SEND and e.message_id == pending_id)
    install = next(
        e for e in events
        if e.kind == VIEW_INSTALL and e.process == "C" and e.time > pending.time
    )
    resend = pending._replace(time=install.time, seq=install.seq)
    return [
        e._replace(seq=e.seq + 1) if (e.time, e.seq) > (resend.time, resend.seq)
        else e
        for e in events
    ] + [resend._replace(seq=resend.seq + 1)]


@pytest.fixture(scope="module")
def seeded_executions():
    return [_symmetric_execution(), _asymmetric_execution()]


def test_delta_checker_matches_full_vector_scan_on_clean_runs(seeded_executions):
    for events in seeded_executions:
        assert check_all(EventTrace(events)).passed
        assert replay_online(events).passed
        assert full_vector_causal_violations(events) == set()


def test_total_order_maps_close_on_the_seeded_executions(seeded_executions, churn_run):
    """Most maps close (every one on the seeded executions; on the churn
    fixture a member that crashed or left keeps two open), and the
    verdicts are the never-closing reference's -- also on the churn
    fixture with two deliveries swapped."""
    _, churn_events = churn_run
    for events in [*seeded_executions, churn_events]:
        checker = assert_closing_matches_never_closing(events)
        assert checker.violations == []
        messages = len(checker.arbiter_position)
        assert checker.closed_held() > messages // 2
        assert checker.maps_held() + checker.closed_held() == messages
    deliveries = [e for e in churn_events if e.kind == DELIVER]
    first = deliveries[len(deliveries) // 3]
    second = next(
        e for e in deliveries
        if e.process == first.process and e.seq > first.seq
        and e.message_id != first.message_id
    )
    swapped = _swap_events(churn_events, first, second)
    assert assert_closing_matches_never_closing(swapped).violations


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_delta_checker_differential_under_delivery_mutations(seeded_executions, data):
    """Random deletions and swaps of DELIVER events: the online suite and
    offline ``check_all`` agree on the verdict, and the delta-stamped
    causal checker reports the violation set of a full-vector scan."""
    events = list(data.draw(st.sampled_from(seeded_executions)))
    for _ in range(data.draw(st.integers(1, 3))):
        deliveries = [i for i, e in enumerate(events) if e.kind == DELIVER]
        if data.draw(st.booleans()):
            del events[data.draw(st.sampled_from(deliveries))]
        else:
            i = data.draw(st.sampled_from(deliveries))
            j = data.draw(st.sampled_from(deliveries))
            a, b = events[i], events[j]
            events[i] = a._replace(time=b.time, seq=b.seq)
            events[j] = b._replace(time=a.time, seq=a.seq)
    offline = check_all(EventTrace(events))
    online = replay_online(events)
    assert offline.passed == online.passed, (offline.violations[:2], online.violations[:2])
    found = delta_causal_violations(events)
    assert len(found) == len(set(found))
    assert set(found) == full_vector_causal_violations(events)
    # Deletions and swaps repeat no delivery: closing maps changes nothing.
    assert_closing_matches_never_closing(events)


# Hand-built streams for the cases a naive delta (scan the delivered
# message's own delta and nothing else) would get wrong.


def _stream(*steps):
    """``("install", process, group, members)``, ``("send", process, group,
    id)`` and ``("deliver", process, group, id, sender)`` steps, one time
    unit apart."""
    events = []
    for seq, (kind, process, group, *rest) in enumerate(steps):
        if kind == "install":
            events.append(TraceEvent(
                float(seq), VIEW_INSTALL, process, group,
                details=(("members", tuple(rest[0])),), seq=seq,
            ))
        elif kind == "send":
            events.append(TraceEvent(
                float(seq), SEND, process, group, rest[0], process, seq=seq
            ))
        else:
            events.append(TraceEvent(
                float(seq), DELIVER, process, group, rest[0], rest[1], seq=seq
            ))
    return events


def _installs(group, members):
    return [("install", member, group, members) for member in members]


def test_missing_predecessor_in_an_entry_that_did_not_move():
    """S's vector entry for X moved before s1 and not between s1 and s2;
    P delivers s2 having seen neither s1 nor X's x1.  s2's own delta is
    empty -- the missing x1 sits in s1's."""
    events = _stream(
        *_installs("g", ["P", "S", "X"]),
        ("send", "X", "g", "x1"),
        ("deliver", "S", "g", "x1", "X"),
        ("send", "S", "g", "s1"),
        ("send", "S", "g", "s2"),
        ("deliver", "P", "g", "s2", "S"),
    )
    found = delta_causal_violations(events)
    assert set(found) == full_vector_causal_violations(events)
    assert sorted(v.split("preceding ")[1].split()[0] for v in found) == ["s1", "x1"]
    assert not replay_online(events).passed
    assert not check_all(EventTrace(events)).passed


def test_delta_of_a_message_to_a_foreign_group_is_still_folded():
    """S's previous message s1 went to h, which P is not in: P never
    delivers it and is exempt from it, but what S had learned by then
    (X's x1, in g) is in the past of s2 all the same."""
    events = _stream(
        *_installs("g", ["P", "S", "X"]),
        *_installs("h", ["Q", "S", "X"]),
        ("send", "X", "g", "x1"),
        ("deliver", "S", "g", "x1", "X"),
        ("send", "S", "h", "s1"),
        ("send", "S", "g", "s2"),
        ("deliver", "P", "g", "s2", "S"),
    )
    found = delta_causal_violations(events)
    assert set(found) == full_vector_causal_violations(events)
    assert len(found) == 1 and "preceding x1 " in found[0]
    assert not replay_online(events).passed
    assert not check_all(EventTrace(events)).passed


def test_first_delivery_after_joining_by_formation_checks_the_whole_vector():
    """P joins S and X in a formed group f long after g = {S, X, Y} got
    busy.  Its first delivery from S folds S's whole chain: everything S
    ever learned in g (exempt, P has no view of g) and X's u1 in f (not
    exempt, and missing)."""
    steps = [*_installs("g", ["S", "X", "Y"])]
    for round_ in range(4):
        for sender in ("X", "Y", "S"):
            message = f"{sender.lower()}{round_}"
            steps.append(("send", sender, "g", message))
            steps.extend(
                ("deliver", member, "g", message, sender) for member in ("S", "X", "Y")
            )
    steps += [
        *_installs("f", ["P", "S", "X"]),
        ("send", "X", "f", "u1"),
        ("deliver", "S", "f", "u1", "X"),
        ("deliver", "X", "f", "u1", "X"),
        ("send", "S", "f", "t1"),
        ("deliver", "P", "f", "t1", "S"),
    ]
    events = _stream(*steps)
    checker = OnlineCausalOrder()
    for event in events:
        checker.on_event(event)
    assert set(checker.violations) == full_vector_causal_violations(events)
    assert len(checker.violations) == 1 and "preceding u1 " in checker.violations[0]
    # P's verified prefixes are t1's full vector: all of g's history too.
    assert checker._rows["P"].frontier == {"S": 5, "X": 5, "Y": 4}
    # A second message from S folds only what moved at S since t1: nothing
    # (S's own entry is implied by the send's position).
    folded = checker.delta_entries_folded()
    assert folded >= 3
    for event in _stream(("send", "S", "f", "t2"), ("deliver", "P", "f", "t2", "S")):
        checker.on_event(event._replace(time=event.time + 100, seq=event.seq + 100))
    assert checker._rows["P"].frontier["S"] == 6
    assert checker.delta_entries_folded() == folded


# ---------------------------------------------------------------------------
# What a streaming run keeps
# ---------------------------------------------------------------------------

from repro.scenarios import ring_overlap_groups  # noqa: E402
from repro.workloads import OpenLoopClient, get_profile  # noqa: E402


def test_streaming_run_keeps_no_delivery_history():
    """E27's stream (``benchmarks/bench_observation_path.py`` at smoke
    scale: 48 processes in 8 overlapping groups of 12, every member
    multicasting open loop), verified online: no process holds a delivery
    record, the causal checker holds no delivered id and the total-order
    checker no deliverer map at the end."""
    session = Session("newtop", seed=5, analysis="online")
    names = [f"P{index:03d}" for index in range(48)]
    session.spawn(names)
    for index, group in enumerate(ring_overlap_groups(names, 8, 12)):
        session.group(group["id"], group["members"])
        session.attach_client(
            OpenLoopClient(
                get_profile("poisson", rate=25.0),
                group["members"],
                [group["id"]],
                seed=5 * 9973 + index,
                start=1.0,
                duration=5.0,
            )
        ).start()
    session.run(13.0)
    result = session.result()
    assert result.passed, result.checks.violations[:3]
    assert result.deliveries == result.metrics["by_kind"]["deliver"] > 10_000
    logs = [session[name].delivered for name in names]
    assert sum(len(log) for log in logs) == result.deliveries
    assert [log.held for log in logs] == [0] * len(names)
    assert session.suite.causal_order.delivered_ids_held() == 0
    total_order = session.suite.total_order
    assert total_order.maps_held() == 0
    assert total_order.closed_held() == len(total_order.arbiter_position)


def test_causal_checker_drops_a_delivered_id_at_its_check():
    """P delivers y1 before its send is recorded, so y1 waits in P's row
    until y2's delivery checks it; a re-delivery past the frontier is not
    kept at all.  The verdicts are the full-vector scan's."""
    events = _stream(
        *_installs("g", ["P", "Y"]),
        ("deliver", "P", "g", "y1", "Y"),
        ("send", "Y", "g", "y1"),
        ("send", "Y", "g", "y2"),
        ("deliver", "P", "g", "y2", "Y"),
        ("deliver", "P", "g", "y2", "Y"),
        ("send", "Y", "g", "y3"),
        ("deliver", "P", "g", "y3", "Y"),
    )
    checker = OnlineCausalOrder()
    held = []
    for event in events:
        checker.on_event(event)
        held.append(checker.delivered_ids_held())
    assert held == [0, 0, 1, 1, 1, 0, 0, 0, 0]
    assert checker.violations == []
    assert full_vector_causal_violations(events) == set()
    # The same stream without y1's delivery: y2's check reports it missing.
    missing = [e for e in events if not (e.kind == DELIVER and e.message_id == "y1")]
    found = delta_causal_violations(missing)
    assert set(found) == full_vector_causal_violations(missing)
    assert len(found) == 1 and "preceding y1 " in found[0]


def test_a_late_duplicate_delivery_still_fails_the_suite():
    """Five processes deliver m1 then m2; then m1's first deliverer
    delivers it again.  Every member of the view has delivered m1 by
    then, so m1's deliverer map is closed: its tombstone still names P0."""
    members = ["P0", "P1", "P2", "P3", "P4"]
    steps = [*_installs("g", members)]
    for message, sender in (("m1", "P0"), ("m2", "P1")):
        steps.append(("send", sender, "g", message))
        steps.extend(("deliver", member, "g", message, sender) for member in members)
    steps.append(("deliver", "P0", "g", "m1", "P0"))
    events = _stream(*steps)
    online = replay_online(events)
    assert not online.passed
    assert any(
        "duplicate delivery: P0 delivered m1 again" in v for v in online.violations
    )
    assert not check_all(EventTrace(events)).passed
    checker = _replay_checker(OnlineTotalOrder(), events[:-1])
    assert (checker.maps_held(), checker.closed_held()) == (0, 2)


def test_a_back_to_back_duplicate_delivery_fails_the_suite():
    """P delivers m1 twice while Q has not delivered it yet: the map is
    open, and P is already in it.  The fuzzer classes the report as a
    total-order violation."""
    events = _stream(
        *_installs("g", ["P", "Q"]),
        ("send", "P", "g", "m1"),
        ("deliver", "P", "g", "m1", "P"),
        ("deliver", "P", "g", "m1", "P"),
        ("deliver", "Q", "g", "m1", "P"),
    )
    online = replay_online(events)
    assert not online.passed
    assert online.violations == [
        "duplicate delivery: P delivered m1 again (arbiter position 0)"
    ]
    assert classify_violations(online.violations) == "total-order"


def _partitioned(late_orders):
    """g = {A, B, C, D} split in two: A and B, holding view {A, B},
    deliver m1 then m2 (closing both maps); then C and D, holding view
    {C, D}, deliver in the orders given."""
    steps = [
        *_installs("g", ["A", "B"]),
        *_installs("g", ["C", "D"]),
    ]
    for member in ("A", "B"):
        steps += [("deliver", member, "g", "m1", "A"), ("deliver", member, "g", "m2", "A")]
    for member, order in late_orders.items():
        steps += [("deliver", member, "g", message, "A") for message in order]
    return _stream(*steps)


def test_a_process_outside_every_view_delivers_after_the_close():
    """C delivers m2 before m1, the opposite of A and B; A and B had
    excluded C, so nothing binds the pairs and nothing is reported.  C
    opens a fresh map for each message."""
    events = _partitioned({"C": ["m2", "m1"]})
    checker = assert_closing_matches_never_closing(events)
    assert checker.violations == []
    assert (checker.maps_held(), checker.closed_held()) == (2, 2)
    assert checker.arbiter_position == {"m1": 0, "m2": 1}


def test_late_processes_holding_each_other_in_view_are_still_checked():
    """C and D, each in the other's view, deliver m1 and m2 in opposite
    orders after A's and B's maps closed: a violation between C and D."""
    events = _partitioned({"C": ["m2", "m1"], "D": ["m1", "m2"]})
    checker = assert_closing_matches_never_closing(events)
    assert len(checker.violations) == 1
    assert "total order violated between D and C" in checker.violations[0]
    assert (checker.maps_held(), checker.closed_held()) == (0, 2)


def test_a_duplicate_after_the_map_reopened_is_still_caught():
    """C's delivery of m1 reopens m1's map after A and B closed it; A's
    re-delivery is then checked against the tombstone the fresh map
    carries."""
    events = _partitioned({"C": ["m1"], "A": ["m1"]})
    checker = _replay_checker(OnlineTotalOrder(), events)
    assert checker.violations == [
        "duplicate delivery: A delivered m1 again (arbiter position 0)"
    ]


def test_views_recorded_across_a_view_change_are_unioned():
    """A has excluded C when it delivers m1; B, still holding C in view,
    delivers m1 too.  Every member of A's view has m1 then, but not every
    member of B's: the map stays open, and C, delivering m2 before m1
    where B did the opposite, is checked against B."""
    events = _stream(
        ("install", "A", "g", ["A", "B"]),
        ("install", "B", "g", ["A", "B", "C"]),
        ("install", "C", "g", ["A", "B", "C"]),
        ("deliver", "A", "g", "m1", "A"),
        ("deliver", "B", "g", "m1", "A"),
        ("deliver", "B", "g", "m2", "B"),
        ("deliver", "C", "g", "m2", "B"),
        ("deliver", "C", "g", "m1", "A"),
    )
    checker = assert_closing_matches_never_closing(events)
    assert len(checker.violations) == 1
    assert "total order violated between C and B" in checker.violations[0]
    assert (checker.maps_held(), checker.closed_held()) == (1, 1)


# ---------------------------------------------------------------------------
# Runs and events: every delivery consumer has one body
# ---------------------------------------------------------------------------

from repro.net.trace import SpanMetricsSink, delivery_entry  # noqa: E402


def _recorded_as_runs(events):
    """The stream as a session records it: each stretch of consecutive
    ``deliver`` events of one (time, process) is one run
    ``(time, process, entries, first seq)``; every other event stays."""
    items, run_at = [], None
    for event in sorted(events, key=lambda e: (e.time, e.seq)):
        if event.kind != DELIVER:
            items.append(event)
            run_at = None
        elif (event.time, event.process) == run_at:
            items[-1][2].append(delivery_entry(event))
        else:
            items.append((event.time, event.process, [delivery_entry(event)], event.seq))
            run_at = (event.time, event.process)
    return items


def _fed(sink, events, as_runs):
    """``sink`` fed the kinds it subscribes to, in (time, seq) order, with
    the deliveries one event at a time or as runs."""
    if as_runs:
        items = _recorded_as_runs(events)
    else:
        items = sorted(events, key=lambda e: (e.time, e.seq))
    for item in items:
        if not isinstance(item, TraceEvent):
            sink.on_deliveries(*item)
        elif item.kind in sink.KINDS:
            sink.on_event(item)
    return sink


class _Credits(list):
    """A traffic client's side of ``MetricsSink``: the samples it is handed."""

    def on_delivery(self, message_id, sample):
        self.append((message_id, sample))


def _observed(events, agreement, as_runs):
    suite = _fed(OnlineCheckSuite(agreement), events, as_runs)
    result = suite.result()
    # One client owns every message, as if it had issued them all.
    credits, metrics = _Credits(), MetricsSink()
    for event in events:
        if event.kind == SEND:
            metrics.hold()
            metrics.claim(event.message_id, credits)
    return {
        "passed": result.passed,
        "violations": result.violations,
        "delta_entries_folded": suite.causal_order.delta_entries_folded(),
        "delivered_ids_held": suite.causal_order.delivered_ids_held(),
        "maps_held": suite.total_order.maps_held(),
        "closed_held": suite.total_order.closed_held(),
        "metrics": _fed(metrics, events, as_runs).snapshot({}),
        "credits": credits,
        "spans": _fed(SpanMetricsSink(), events, as_runs).span_snapshot(),
    }


def assert_runs_check_as_events(events, agreement=None):
    """Fed as runs, the suite and both latency sinks end exactly where
    they end fed one event at a time (``check_events``' order): the same
    verdict, the same violation strings in the same order, the same
    counters and snapshots.  Returns what the events gave."""
    runs = [item for item in _recorded_as_runs(events) if not isinstance(item, TraceEvent)]
    assert max(len(run[2]) for run in runs) > 1, "no run holds two deliveries"
    by_event = _observed(events, agreement, as_runs=False)
    assert _observed(events, agreement, as_runs=True) == by_event
    replayed = check_events(events, view_agreement_sets=agreement)
    assert (replayed.passed, replayed.violations) == (by_event["passed"], by_event["violations"])
    return by_event


def _stream_busy_trace():
    """A small ``stream_busy``: 16 processes in 4 overlapping groups of 6,
    every member multicasting open loop; the trace is stored."""
    session = Session("newtop", seed=5)
    names = [f"P{index:02d}" for index in range(16)]
    session.spawn(names)
    for index, group in enumerate(ring_overlap_groups(names, 4, 6)):
        session.group(group["id"], group["members"])
        session.attach_client(
            OpenLoopClient(
                get_profile("poisson", rate=10.0), group["members"], [group["id"]],
                seed=index, start=1.0, duration=2.0,
            )
        ).start()
    session.run(8.0)
    assert session.result().passed
    return list(session.trace())


def _mutated(events):
    """Two deliveries of one process swapped, the last view install
    dropped, and a delivery from a sender outside the receiver's view."""
    deliveries = [e for e in events if e.kind == DELIVER]
    first = deliveries[len(deliveries) // 3]
    second = next(
        e for e in deliveries
        if e.process == first.process and e.seq > first.seq
        and e.message_id != first.message_id
    )
    install = [e for e in events if e.kind == VIEW_INSTALL][-1]
    last = max(events, key=lambda e: (e.time, e.seq))
    outsider = install._replace(
        kind=DELIVER, time=last.time + 1.0, seq=last.seq + 1, message_id="forged",
        sender="outsider", clock=1, details=(("view_index", 0),),
    )
    return {
        "swapped": _swap_events(events, first, second),
        "dropped_install": [e for e in events if e.seq != install.seq],
        "outsider": events + [outsider],
    }


def test_runs_and_events_check_clean_streams_alike(seeded_executions, churn_run):
    engine, churn_events = churn_run
    formation, asymmetric_failover = seeded_executions
    for events, agreement in (
        (_stream_busy_trace(), None),
        (churn_events, engine.expected_agreement_sets()),
        (formation, None),
        (asymmetric_failover, None),
    ):
        observed = assert_runs_check_as_events(events, agreement)
        assert observed["passed"]
        assert len(observed["credits"]) == observed["metrics"]["latency"]["count"] > 0
        # Every span stage is fed: a run keeps receive -> deliver and spread.
        assert None not in observed["spans"]["stages"].values()


def test_runs_and_events_check_mutated_streams_alike(seeded_executions, churn_run):
    engine, churn_events = churn_run
    for events, agreement in (
        (churn_events, engine.expected_agreement_sets()),
        (seeded_executions[1], None),
    ):
        for name, mutated in _mutated(events).items():
            observed = assert_runs_check_as_events(mutated, agreement)
            if name != "dropped_install":
                assert not observed["passed"], name


def test_a_duplicate_and_an_inversion_inside_one_run():
    """Q delivers m1 then m2; P then delivers m2, R's m3, m1 and m1 again
    at one instant: one run holding a total-order inversion, a delivery
    from outside P's view and a duplicate, none of them at its start."""
    def deliver(time, process, message, sender, seq):
        return TraceEvent(time, DELIVER, process, "g", message, sender, 1,
                          (("view_index", 0),), seq)

    events = [
        TraceEvent(0.0, VIEW_INSTALL, "P", "g", details=(("members", ("P", "Q")),), seq=0),
        TraceEvent(0.0, VIEW_INSTALL, "Q", "g", details=(("members", ("P", "Q")),), seq=1),
        TraceEvent(1.0, SEND, "P", "g", "m1", "P", 1, seq=2),
        TraceEvent(1.0, SEND, "Q", "g", "m2", "Q", 1, seq=3),
        deliver(2.0, "Q", "m1", "P", 4),
        deliver(2.0, "Q", "m2", "Q", 5),
        deliver(3.0, "P", "m2", "Q", 6),
        deliver(3.0, "P", "m3", "R", 7),
        deliver(3.0, "P", "m1", "P", 8),
        deliver(3.0, "P", "m1", "P", 9),
    ]
    runs = [item[2] for item in _recorded_as_runs(events) if not isinstance(item, TraceEvent)]
    assert [len(run) for run in runs] == [2, 4]
    observed = assert_runs_check_as_events(events)
    assert observed["violations"] == [
        "total order violated between P and Q: P delivered m2 before m1, "
        "Q delivered m1 before m2 (arbiter order: m1=0, m2=1)",
        "duplicate delivery: P delivered m1 again (arbiter position 0)",
        "P delivered m3 from R outside its view ['P', 'Q'] of g",
    ]


# ---------------------------------------------------------------------------
# The oracle guards the suite on fuzz specs
# ---------------------------------------------------------------------------

#: Every fuzzer-found violation under the default tuning, ``(corpus, index)``
#: -> its kind: ten causality and six view-agreement failures.
KNOWN_FAILING_SPECS = {
    (1, 102): "causality", (1, 266): "view-agreement", (2, 3): "causality",
    (3, 217): "causality", (4, 11): "causality", (5, 125): "view-agreement",
    (5, 227): "causality", (6, 21): "causality", (6, 72): "causality",
    (6, 176): "view-agreement", (8, 33): "causality", (9, 97): "view-agreement",
    (9, 128): "view-agreement", (9, 214): "causality", (10, 63): "view-agreement",
    (10, 298): "causality",
}

#: The failing specs, then the first ten of corpora 1-3 (2:3 is in both).
FUZZ_SLICE = tuple(dict.fromkeys([
    *KNOWN_FAILING_SPECS,
    *((corpus, index) for corpus in (1, 2, 3) for index in range(10)),
]))


@pytest.mark.parametrize(
    "corpus,index", FUZZ_SLICE, ids=[f"{c}:{i}" for c, i in FUZZ_SLICE]
)
def test_oracle_and_suite_agree_on_fuzz_specs(corpus, index):
    """The run's verdict (the session's suite) and the oracle's, over the
    same stored trace: the same pass/fail and the same violation kind --
    the known one for a failing spec."""
    engine = ScenarioEngine(generate_spec(corpus, index, GeneratorTuning()))
    suite = engine.run().checks
    oracle = check_all(
        engine.session.trace(), view_agreement_sets=engine.expected_agreement_sets()
    )
    engine.session.release()
    assert suite.passed == oracle.passed, (suite.violations[:2], oracle.violations[:2])
    kind = classify_violations(suite.violations)
    assert kind == classify_violations(oracle.violations)
    assert kind == KNOWN_FAILING_SPECS.get((corpus, index))
