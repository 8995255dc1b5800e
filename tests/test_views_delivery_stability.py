"""Unit tests for views, the delivery queue, stability tracking, flow
control, time-silence and the failure suspector."""

import dataclasses

import pytest

from repro.core.config import NewtopConfig
from repro.core.delivery import DeliveryQueue, delivery_sort_key
from repro.core.errors import (
    ConfigurationError,
    DeliveryOrderViolation,
    InvalidViewError,
)
from repro.core.flow_control import FlowController
from repro.core.messages import KIND_DATA, DataMessage, Suspicion
from repro.core.stability import RetentionBuffer, StabilityTracker
from repro.core.suspector import FailureSuspector
from repro.core.time_silence import TimeSilence
from repro.core.views import MembershipView, SignatureView
from repro.net.simulator import Simulator


# ----------------------------------------------------------------------
# Views
# ----------------------------------------------------------------------
def test_initial_view_and_exclusion():
    view = MembershipView.initial("g", ["P2", "P1", "P3"])
    assert view.index == 0
    assert view.sorted_members() == ("P1", "P2", "P3")
    next_view = view.exclude(["P2"])
    assert next_view.index == 1
    assert next_view.sorted_members() == ("P1", "P3")


def test_view_exclusion_must_remove_somebody():
    view = MembershipView.initial("g", ["P1", "P2"])
    with pytest.raises(InvalidViewError):
        view.exclude(["P9"])


def test_view_cannot_become_empty():
    view = MembershipView.initial("g", ["P1"])
    with pytest.raises(InvalidViewError):
        view.exclude(["P1"])


def test_view_sequencer_is_deterministic():
    first = MembershipView.initial("g", ["P3", "P1", "P2"])
    second = MembershipView.initial("g", ["P2", "P3", "P1"])
    assert first.sequencer() == second.sequencer() == "P1"
    assert first.exclude(["P1"]).sequencer() == "P2"


def test_empty_view_rejected():
    with pytest.raises(InvalidViewError):
        MembershipView(group="g", index=0, members=frozenset())


def test_signature_views_of_diverging_subgroups_never_intersect():
    # The paper's Example 3 numbers: after partitioning, {Pi,Pj} exclude
    # three processes while {Pk,Pl} exclude one, so the signature views are
    # disjoint even though the plain views intersect.
    initial = SignatureView.initial("g", ["Pi", "Pj", "Pk", "Pl", "Pm"])
    side_one = initial.exclude(["Pm", "Pk", "Pl"])
    side_two = initial.exclude(["Pm"])
    assert side_one.exclusions == 3
    assert side_two.exclusions == 1
    assert not side_one.intersects(side_two)
    # Plain views do intersect ({Pi,Pj} is a subset of {Pi,Pj,Pk,Pl}).
    assert side_one.view.members <= side_two.view.members
    # After the second side also excludes Pi and Pj, still disjoint.
    stabilised = side_two.exclude(["Pi", "Pj"])
    assert not side_one.intersects(stabilised)


def test_signature_view_describe_mentions_exclusions():
    view = SignatureView.initial("g", ["A", "B"]).exclude(["B"])
    assert "1" in view.describe()


# ----------------------------------------------------------------------
# Delivery queue (safe1'/safe2)
# ----------------------------------------------------------------------
def _message(sender, group, clock, payload=None):
    return DataMessage.application(sender, group, clock, 0, payload or f"{sender}:{clock}")


def test_delivery_queue_orders_by_clock_then_sender():
    queue = DeliveryQueue()
    late = _message("P2", "g", 5)
    early = _message("P1", "g", 3)
    tie = _message("P1", "g", 5)
    for message in (late, early, tie):
        queue.enqueue(message)
    delivered = queue.pop_deliverable(bound=10)
    assert [m.clock for m in delivered] == [3, 5, 5]
    assert delivered[1].sender == "P1"  # tie broken by sender id
    assert queue.delivered_count == 3


def test_delivery_queue_respects_bound():
    queue = DeliveryQueue()
    queue.enqueue(_message("P1", "g", 3))
    queue.enqueue(_message("P1", "g", 8))
    first = queue.pop_deliverable(bound=5)
    assert [d.clock for d in first] == [3]
    assert queue.pending_count() == 1
    assert queue.has_pending_at_or_below(8)
    assert not queue.has_pending_at_or_below(5)


def test_delivery_queue_rejects_duplicates():
    queue = DeliveryQueue()
    message = _message("P1", "g", 1)
    assert queue.enqueue(message)
    assert not queue.enqueue(message)
    queue.pop_deliverable(bound=5)
    assert not queue.enqueue(message)
    assert queue.duplicate_count == 2
    assert queue.was_delivered(message.msg_id)


def test_delivery_queue_detects_order_violation():
    queue = DeliveryQueue()
    queue.enqueue(_message("P1", "g", 10))
    queue.pop_deliverable(bound=10)
    queue.enqueue(_message("P1", "g", 4))
    with pytest.raises(DeliveryOrderViolation):
        queue.pop_deliverable(bound=10)


def test_delivery_queue_discard_from_sender():
    queue = DeliveryQueue()
    queue.enqueue(_message("P1", "g", 3))
    queue.enqueue(_message("P1", "g", 9))
    queue.enqueue(_message("P2", "g", 9))
    removed = queue.discard_from_sender("g", "P1", above_clock=5)
    assert [m.clock for m in removed] == [9]
    assert queue.pending_count() == 2

    # Sequencer-relayed messages (sender != sequenced_by) among other
    # origins', other groups' and below-the-cut messages, enqueued out of
    # safe2 order: each discard returns exactly its matches, in arrival order.
    def relayed(origin, clock):
        return DataMessage.sequenced(
            origin, "g", clock, 0, f"{origin}:{clock}", KIND_DATA, "S", None
        )

    queue = DeliveryQueue()
    via_s_12 = relayed("P1", 12)
    p2_own_7 = _message("P2", "g", 7)
    p1_own_8 = _message("P1", "g", 8)
    p3_via_s_6 = relayed("P3", 6)
    p1_other_group = _message("P1", "h", 10)
    p1_via_s_4 = relayed("P1", 4)
    p2_via_s_11 = relayed("P2", 11)
    for message in (via_s_12, p2_own_7, p1_own_8, p3_via_s_6,
                    p1_other_group, p1_via_s_4, p2_via_s_11):
        assert queue.enqueue(message)
    by_sender = queue.discard_from_sender("g", "P1", above_clock=5)
    assert by_sender == [via_s_12, p1_own_8]
    by_sequencer = queue.discard_from_sender("g", "S", above_clock=5)
    assert by_sequencer == [p3_via_s_6, p2_via_s_11]
    assert queue.discard_from_sender("g", "S", above_clock=5) == []
    assert queue.pending_count() == 3

    # A discarded id enqueued again -- unchanged, or re-numbered as a
    # failover re-sequences it -- is delivered once; the heap entries its
    # first arrival left behind are skipped.
    resequenced = dataclasses.replace(p1_own_8, clock=13)
    assert queue.enqueue(via_s_12)
    assert queue.enqueue(resequenced)
    delivered = queue.pop_deliverable(bound=20)
    assert delivered == [p1_via_s_4, p2_own_7, p1_other_group, via_s_12, resequenced]
    assert queue.delivered_count == 5
    assert queue.pending_count() == 0
    assert not queue.has_pending_at_or_below(20)
    assert queue.pop_deliverable(bound=20) == []


def test_delivery_sort_key_is_total():
    a = _message("P1", "g1", 2)
    b = _message("P1", "g2", 2)
    assert delivery_sort_key(a) != delivery_sort_key(b)


# ----------------------------------------------------------------------
# Stability / retention
# ----------------------------------------------------------------------
def test_retention_buffer_discards_stable_messages():
    buffer = RetentionBuffer("g")
    for clock in range(1, 6):
        buffer.retain(_message("P1", "g", clock))
    assert buffer.size() == 5
    discarded = buffer.discard_stable(3)
    assert discarded == 3
    assert buffer.size() == 2
    assert buffer.messages_from("P1", above=0)[0].clock == 4


def test_retention_buffer_queries():
    buffer = RetentionBuffer("g")
    buffer.retain(_message("P1", "g", 2))
    buffer.retain(_message("P1", "g", 4))
    assert buffer.has("P1", 2)
    assert buffer.latest_clock_from("P1") == 4
    assert [m.clock for m in buffer.messages_from("P1", above=2)] == [4]
    assert buffer.messages_from("P9") == []


def test_retention_buffer_discard_sender_above():
    buffer = RetentionBuffer("g")
    for clock in (1, 5, 9):
        buffer.retain(_message("P1", "g", clock))
    assert buffer.discard_sender_above("P1", 5) == 1
    assert buffer.latest_clock_from("P1") == 5


def _null(sender, group, clock):
    return DataMessage.null(sender=sender, group=group, clock=clock, ldn=0)


def test_retention_buffer_non_null_counter_stays_exact():
    """The O(1) "anything but nulls retained?" counter the demand-driven
    time-silence timer reads must survive every way a message leaves."""
    buffer = RetentionBuffer("g")

    def recount():
        return sum(
            1
            for sender in ("P1", "P2", "P3")
            for message in buffer.messages_from(sender)
            if not message.is_null
        )

    assert buffer.non_null_count() == 0
    buffer.retain(_null("P1", "g", 1))
    assert buffer.non_null_count() == 0
    for clock in (2, 4, 6):
        buffer.retain(_message("P1", "g", clock))
        buffer.retain(_message("P2", "g", clock + 1))
    buffer.retain(_message("P3", "g", 8))
    buffer.retain(_null("P3", "g", 9))
    assert buffer.non_null_count() == recount() == 7
    # retain() overwrite: same slot, every kind transition.
    buffer.retain(_message("P1", "g", 2))  # data over data
    assert buffer.non_null_count() == recount() == 7
    buffer.retain(_null("P1", "g", 2))  # null over data
    assert buffer.non_null_count() == recount() == 6
    buffer.retain(_message("P1", "g", 1))  # data over null
    assert buffer.non_null_count() == recount() == 7
    buffer.retain(_null("P3", "g", 9))  # null over null
    assert buffer.non_null_count() == recount() == 7
    # discard_stable drops P1#1 (data), P1#2 (null), P2#3 (data).
    assert buffer.discard_stable(3) == 3
    assert buffer.non_null_count() == recount() == 5
    # discard_sender_above drops P2#7 only.
    assert buffer.discard_sender_above("P2", 5) == 1
    assert buffer.non_null_count() == recount() == 4
    # discard_sender drops P3#8 (data) and P3#9 (null).
    assert buffer.discard_sender("P3") == 2
    assert buffer.non_null_count() == recount() == 3
    assert buffer.discard_sender("P9") == 0
    buffer.discard_stable(100)
    assert buffer.size() == 0 and buffer.non_null_count() == 0


def test_stability_tracker_gc_follows_ldn():
    tracker = StabilityTracker("g", ["P1", "P2"])
    tracker.on_message(DataMessage.application("P1", "g", 1, 0, "a"))
    tracker.on_message(DataMessage.application("P2", "g", 2, 0, "b"))
    assert tracker.stability_bound() == 0
    # Both members report ldn >= 2 -> messages numbered <= 2 are stable.
    tracker.on_message(DataMessage.application("P1", "g", 3, 2, "c"))
    tracker.on_message(DataMessage.application("P2", "g", 4, 2, "d"))
    assert tracker.stability_bound() == 2
    assert tracker.is_stable(2)
    assert not tracker.is_stable(3)
    assert tracker.buffer.size() == 2  # clocks 3 and 4 remain


def test_stability_tracker_member_removed():
    tracker = StabilityTracker("g", ["P1", "P2"])
    tracker.on_message(DataMessage.application("P2", "g", 5, 0, "x"))
    tracker.handle_member_removed("P2", discard_above=3)
    assert tracker.buffer.messages_from("P2") == []
    assert tracker.stability_bound() == 0 or True  # P1 entry still constrains


def test_stability_tracker_global_ldn():
    tracker = StabilityTracker("g", ["P1", "P2", "P3"])
    tracker.on_message(DataMessage.application("P1", "g", 1, 0, "a"))
    tracker.record_global_ldn(1)
    assert tracker.stability_bound() == 1
    assert tracker.buffer.size() == 0


def test_retention_buffer_collects_past_removals_and_re_retains():
    """The collector pops only what the bound passed; a message a removal
    already dropped is skipped when its turn comes, and one retained again
    after its removal is collected once."""
    buffer = RetentionBuffer("g")
    for clock in (1, 2, 3, 4):
        buffer.retain(_message("P1", "g", clock))
    buffer.retain(_message("P2", "g", 2))
    assert buffer.discard_stable(0) == 0
    assert buffer.discard_sender_above("P1", 2) == 2  # P1#3, P1#4
    assert buffer.discard_sender("P2") == 1
    buffer.retain(_message("P1", "g", 4))  # recovered again
    assert buffer.discard_stable(3) == 2  # P1#1, P1#2
    assert buffer.size() == 1 and buffer.messages_from("P1")[0].clock == 4
    assert buffer.discard_stable(10) == 1
    assert buffer.size() == 0 and buffer.discarded_stable_count == 3


def test_stability_tracker_global_ldn_only_moves_forward():
    tracker = StabilityTracker("g", ["P1", "P2", "P3"])
    for clock in (1, 2, 3):
        tracker.on_message(DataMessage.application("P1", "g", clock, 0, "a"))
    assert tracker.record_global_ldn(2) == 2
    assert tracker.record_global_ldn(2) == 0
    assert tracker.record_global_ldn(1) == 0
    assert tracker.stability_bound() == 2 and tracker.buffer.size() == 1
    assert tracker.record_global_ldn(3) == 1


# ----------------------------------------------------------------------
# Flow control
# ----------------------------------------------------------------------
def test_flow_control_disabled_always_allows():
    flow = FlowController(None)
    assert not flow.enabled
    assert flow.can_send()
    flow.note_sent(1)
    assert flow.outstanding_count == 0


def test_flow_control_window_blocks_and_releases():
    flow = FlowController(2)
    flow.note_sent(1)
    flow.note_sent(2)
    assert not flow.can_send()
    flow.note_stability(1)
    assert flow.outstanding_count == 1
    assert flow.can_send()


def test_flow_control_invalid_window():
    with pytest.raises(ValueError):
        FlowController(0)


# ----------------------------------------------------------------------
# Time-silence
# ----------------------------------------------------------------------
def _fixed_omega_timer(sim, omega, send_null):
    """A timer that is always owed: the fixed-ω mechanism of §4.1."""
    return TimeSilence(sim, omega, send_null, owed=lambda: True, idle_period=omega)


def test_time_silence_sends_null_after_omega_of_silence():
    sim = Simulator()
    nulls = []
    silence = _fixed_omega_timer(sim, 2.0, lambda: nulls.append(sim.now))
    silence.start()
    sim.run(until=7.0)
    assert len(nulls) >= 3
    assert nulls[0] == pytest.approx(2.0)


def test_time_silence_suppressed_by_activity():
    sim = Simulator()
    nulls = []
    silence = _fixed_omega_timer(sim, 2.0, lambda: nulls.append(sim.now))
    silence.start()
    # Simulate application sends every time unit: the timer never fires.
    for t in range(1, 10):
        sim.schedule_at(float(t), silence.notify_sent)
    sim.run(until=9.0)
    assert nulls == []


def test_time_silence_stop_cancels_timer():
    sim = Simulator()
    nulls = []
    silence = _fixed_omega_timer(sim, 1.0, lambda: nulls.append(sim.now))
    silence.start()
    silence.stop()
    sim.run(until=10.0)
    assert nulls == []
    assert not silence.active


def _demand_driven_timer(sim, owed, omega=2.0, idle_period=5.0):
    """A timer wired like an endpoint's: the null resets the silence."""
    nulls = []

    def send_null():
        nulls.append(sim.now)
        silence.notify_sent()

    silence = TimeSilence(
        sim, omega, send_null, owed=lambda: owed[0], idle_period=idle_period
    )
    silence.start()
    return silence, nulls


def test_time_silence_first_null_at_omega_then_idle_heartbeat():
    sim = Simulator()
    _, nulls = _demand_driven_timer(sim, owed=[False])
    sim.run(until=18.0)
    # Never owed: the first null is still unconditional at omega, after
    # that the deadline is last_send + idle_period.
    assert nulls == pytest.approx([2.0, 7.0, 12.0, 17.0])


def test_time_silence_owed_keeps_the_omega_cadence():
    sim = Simulator()
    _, nulls = _demand_driven_timer(sim, owed=[True])
    sim.run(until=9.0)
    assert nulls == pytest.approx([2.0, 4.0, 6.0, 8.0])


def test_time_silence_demand_pulls_an_idle_deadline_in():
    sim = Simulator()
    owed = [False]
    silence, nulls = _demand_driven_timer(sim, owed)

    def become_owed():
        owed[0] = True
        silence.demand()

    # Heartbeat at 7.0 arms the next for 12.0.  Owed at 8.0, less than
    # omega after the last send: due at last_send + omega = 9.0.
    sim.schedule_at(8.0, become_owed)
    sim.run(until=10.0)
    assert nulls == pytest.approx([2.0, 7.0, 9.0])
    # Idle again; the next heartbeat would be 9.0 + 5.0 = 14.0.  Owed at
    # 13.5, more than omega after the last send: due now.
    owed[0] = False
    sim.run(until=13.0)
    sim.schedule_at(13.5, become_owed)
    sim.run(until=13.9)
    assert nulls == pytest.approx([2.0, 7.0, 9.0, 13.5])
    # While owed the cadence is omega and demand() has nothing to pull in.
    silence.demand()
    sim.run(until=16.0)
    assert nulls == pytest.approx([2.0, 7.0, 9.0, 13.5, 15.5])


def test_time_silence_demand_ignored_while_not_owed():
    sim = Simulator()
    silence, nulls = _demand_driven_timer(sim, owed=[False])
    sim.schedule_at(8.0, silence.demand)
    sim.run(until=12.5)
    assert nulls == pytest.approx([2.0, 7.0, 12.0])


def test_time_silence_unowed_firing_rearms_for_the_remainder():
    sim = Simulator()
    owed = [True]
    _, nulls = _demand_driven_timer(sim, owed)
    # Owed through the null at 4.0, which arms the timer for 6.0; by then
    # the debt is settled, so the firing at 6.0 sends nothing and re-arms
    # for the rest of the idle period: 4.0 + 5.0.
    sim.schedule_at(4.5, lambda: owed.__setitem__(0, False))
    sim.run(until=13.0)
    assert nulls == pytest.approx([2.0, 4.0, 9.0])


def test_time_silence_activity_pushes_the_idle_deadline_out():
    sim = Simulator()
    silence, nulls = _demand_driven_timer(sim, owed=[False])
    sim.schedule_at(10.0, silence.notify_sent)
    sim.run(until=16.0)
    # 12.0 was due from the heartbeat at 7.0; the send at 10.0 moves it.
    assert nulls == pytest.approx([2.0, 7.0, 15.0])


def test_time_silence_always_owed_is_the_fixed_omega_timer():
    sim = Simulator()
    nulls = []

    def send_null():
        nulls.append(sim.now)
        silence.notify_sent()

    silence = _fixed_omega_timer(sim, 2.0, send_null)
    silence.start()
    sim.schedule_at(5.0, silence.demand)
    sim.run(until=9.0)
    assert silence.idle_period == 2.0
    assert nulls == pytest.approx([2.0, 4.0, 6.0, 8.0])


def test_time_silence_idle_period_never_below_omega():
    silence = TimeSilence(
        Simulator(), omega=2.0, send_null=lambda: None, owed=lambda: False,
        idle_period=0.5,
    )
    assert silence.idle_period == 2.0


def test_time_silence_requires_positive_omega():
    with pytest.raises(ValueError):
        _fixed_omega_timer(Simulator(), 0.0, lambda: None)


# ----------------------------------------------------------------------
# Failure suspector
# ----------------------------------------------------------------------
def test_suspector_raises_suspicion_after_timeout():
    sim = Simulator()
    notifications = []
    suspector = FailureSuspector(
        sim, "P1", ["P1", "P2", "P3"], suspicion_timeout=5.0, check_interval=1.0,
        notify=notifications.append, on_tick=lambda: None,
        needs_everybody=lambda: True, ring_watched=False,
    )
    suspector.start()
    sim.schedule_at(2.0, suspector.heard_from, "P2", 7)
    sim.run(until=20.0)
    targets = {suspicion.target for suspicion in notifications}
    assert targets == {"P2", "P3"}
    by_target = {suspicion.target: suspicion for suspicion in notifications}
    assert by_target["P2"].last_number == 7
    assert by_target["P3"].last_number == 0


def test_suspector_not_triggered_by_live_member():
    sim = Simulator()
    notifications = []
    suspector = FailureSuspector(
        sim, "P1", ["P1", "P2"], suspicion_timeout=5.0, check_interval=1.0,
        notify=notifications.append, on_tick=lambda: None,
        needs_everybody=lambda: True, ring_watched=False,
    )
    suspector.start()
    for t in range(1, 30, 2):
        sim.schedule_at(float(t), suspector.heard_from, "P2", t)
    sim.run(until=30.0)
    assert notifications == []


def test_suspector_clear_allows_resuspect():
    sim = Simulator()
    notifications = []
    suspector = FailureSuspector(
        sim, "P1", ["P1", "P2"], suspicion_timeout=3.0, check_interval=1.0,
        notify=notifications.append, on_tick=lambda: None,
        needs_everybody=lambda: True, ring_watched=False,
    )
    suspector.start()
    sim.run(until=5.0)
    assert len(notifications) == 1
    suspector.clear_suspicion("P2")
    sim.run(until=15.0)
    assert len(notifications) == 2


def test_suspector_force_and_remove():
    sim = Simulator()
    notifications = []
    suspector = FailureSuspector(
        sim, "P1", ["P1", "P2", "P3"], suspicion_timeout=50.0, check_interval=1.0,
        notify=notifications.append, on_tick=lambda: None,
        needs_everybody=lambda: True, ring_watched=False,
    )
    suspector.start()
    suspector.force_suspect("P2")
    assert [s.target for s in notifications] == ["P2"]
    suspector.remove_member("P3")
    assert suspector.monitored_members() == {"P2"}
    # Forcing an unknown or own member is a no-op.
    suspector.force_suspect("P1")
    suspector.force_suspect("P9")
    assert len(notifications) == 1


# ----------------------------------------------------------------------
# Configuration validation
# ----------------------------------------------------------------------
def test_config_validation():
    with pytest.raises(ConfigurationError):
        NewtopConfig(omega=-1).validate()
    with pytest.raises(ConfigurationError):
        NewtopConfig(omega=5.0, suspicion_timeout=4.0).validate()
    with pytest.raises(ConfigurationError):
        NewtopConfig(flow_control_window=0).validate()
    config = NewtopConfig().validate()
    derived = config.replace(omega=1.0, suspicion_timeout=4.0)
    assert derived.omega == 1.0
    assert config.omega != 1.0
