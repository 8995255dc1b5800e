"""Unit tests for the Lamport clock, message types and member vectors."""

import math

import pytest

from repro.api import Session
from repro.core.clock import LamportClock
from repro.core.messages import (
    ConfirmMessage,
    DataMessage,
    FormGroupInvite,
    FormGroupVote,
    RefuteMessage,
    SequencerRequest,
    SuspectMessage,
    Suspicion,
    estimate_payload_bytes,
)
from repro.core.vectors import INFINITY, ReceiveVector, StabilityVector


# ----------------------------------------------------------------------
# Lamport clock (CA1 / CA2)
# ----------------------------------------------------------------------
def test_ca1_tick_increments():
    clock = LamportClock()
    assert clock.tick() == 1
    assert clock.tick() == 2
    assert clock.value == 2
    assert clock.ticks == 2


def test_ca2_observe_takes_maximum():
    clock = LamportClock()
    clock.tick()  # 1
    assert clock.observe(10) == 10
    assert clock.observe(5) == 10
    assert clock.value == 10
    assert clock.observations == 2


def test_pr1_send_order_implies_increasing_numbers():
    clock = LamportClock()
    numbers = [clock.tick() for _ in range(5)]
    assert numbers == sorted(numbers)
    assert len(set(numbers)) == 5


def test_pr2_delivery_before_send_implies_larger_number():
    sender = LamportClock()
    receiver = LamportClock()
    m_number = sender.tick()
    receiver.observe(m_number)
    m2_number = receiver.tick()
    assert m2_number > m_number


def test_advance_to_floor():
    clock = LamportClock()
    clock.advance_to(7)
    assert clock.value == 7
    clock.advance_to(3)
    assert clock.value == 7


def test_clock_rejects_negative_values():
    with pytest.raises(ValueError):
        LamportClock(-1)
    clock = LamportClock()
    with pytest.raises(ValueError):
        clock.observe(-2)


def test_clock_comparisons():
    a = LamportClock(3)
    b = LamportClock(5)
    assert a < b
    assert a == 3
    assert a < 5


# ----------------------------------------------------------------------
# Messages
# ----------------------------------------------------------------------
def test_application_message_fields():
    message = DataMessage.application("P1", "g1", clock=4, ldn=2, payload={"x": 1})
    assert message.is_application and not message.is_null
    assert message.sender == "P1" and message.group == "g1"
    assert message.clock == 4 and message.ldn == 2
    assert message.wire_size_bytes() > message.protocol_overhead_bytes()


def test_null_message_is_not_application():
    message = DataMessage.null("P1", "g1", clock=1, ldn=0)
    assert message.is_null and not message.is_application
    assert message.payload is None


def test_start_group_message_carries_its_clock_as_start_number():
    message = DataMessage.start_group("P1", "gn", clock=9, ldn=0)
    assert message.is_start_group
    assert message.start_number == 9


def test_sequenced_message_reuses_request_id():
    request = SequencerRequest.make("P2", "g1", origin_clock=3, payload="x")
    message = DataMessage.sequenced(
        origin="P2",
        group="g1",
        clock=7,
        ldn=1,
        payload="x",
        kind="data",
        sequencer="P1",
        origin_request=request.request_id,
    )
    assert message.msg_id == request.request_id
    assert message.sequenced_by == "P1"
    assert message.sender == "P2"


def test_message_ids_unique():
    ids = {DataMessage.application("P", "g", i, 0, None).msg_id for i in range(100)}
    assert len(ids) == 100


def test_newtop_overhead_is_constant_in_payload_and_small():
    small = DataMessage.application("P1", "g1", 1, 0, "a")
    large = DataMessage.application("P1", "g1", 1, 0, "a" * 1000)
    assert small.protocol_overhead_bytes() == large.protocol_overhead_bytes()
    assert small.protocol_overhead_bytes() < 64


def test_membership_message_sizes():
    suspicion = Suspicion(target="P3", last_number=12)
    suspect = SuspectMessage(origin="P1", group="g1", suspicion=suspicion)
    refute = RefuteMessage(
        origin="P2",
        group="g1",
        suspicion=suspicion,
        recovered=(DataMessage.application("P3", "g1", 13, 0, "late"),),
    )
    confirm = ConfirmMessage(origin="P1", group="g1", detection=frozenset({suspicion}))
    assert suspect.wire_size_bytes() > 0
    assert refute.wire_size_bytes() > suspect.wire_size_bytes()
    assert confirm.wire_size_bytes() >= suspect.wire_size_bytes()


def test_formation_message_sizes_scale_with_membership():
    small = FormGroupInvite("P1", "g", ("P1", "P2"), "symmetric")
    large = FormGroupInvite("P1", "g", tuple(f"P{i}" for i in range(20)), "symmetric")
    assert large.wire_size_bytes() > small.wire_size_bytes()
    vote = FormGroupVote("P2", "g", True, ("P1", "P2"))
    assert vote.wire_size_bytes() > 0


def test_estimate_payload_bytes_various_types():
    assert estimate_payload_bytes(None) == 0
    assert estimate_payload_bytes(b"abcd") == 4
    assert estimate_payload_bytes("abc") == 3
    assert estimate_payload_bytes(7) == 8
    assert estimate_payload_bytes([1, 2, 3]) == 24
    assert estimate_payload_bytes({"k": "vv"}) == 3
    assert estimate_payload_bytes(object()) > 0


# ----------------------------------------------------------------------
# Receive / stability vectors
# ----------------------------------------------------------------------
def test_receive_vector_minimum_is_deliverable_bound():
    vector = ReceiveVector(["P1", "P2", "P3"])
    assert vector.deliverable_bound == 0
    vector.record_receipt("P1", 5)
    vector.record_receipt("P2", 3)
    assert vector.deliverable_bound == 0  # P3 still at 0
    vector.record_receipt("P3", 4)
    assert vector.deliverable_bound == 3


def test_receive_vector_updates_are_monotone():
    vector = ReceiveVector(["P1", "P2"])
    assert vector.record_receipt("P1", 5)
    assert not vector.record_receipt("P1", 2)
    assert vector["P1"] == 5


def test_vector_unknown_member_rejected():
    vector = ReceiveVector(["P1"])
    with pytest.raises(KeyError):
        vector.update("P9", 1)


def test_vector_mark_infinite_unblocks_minimum():
    vector = ReceiveVector(["P1", "P2"])
    vector.record_receipt("P1", 10)
    assert vector.deliverable_bound == 0
    vector.mark_infinite("P2")
    assert vector.deliverable_bound == 10


def test_vector_remove_member():
    vector = ReceiveVector(["P1", "P2"])
    vector.remove("P2")
    assert "P2" not in vector
    assert vector.members() == ["P1"]


def test_empty_vector_rejected():
    with pytest.raises(ValueError):
        ReceiveVector([])


def test_stability_vector_bound():
    vector = StabilityVector(["P1", "P2", "P3"])
    vector.record_ldn("P1", 4)
    vector.record_ldn("P2", 6)
    assert vector.stability_bound == 0
    vector.record_ldn("P3", 5)
    assert vector.stability_bound == 4


def test_all_infinite_vector_is_unconstrained():
    vector = ReceiveVector(["P1", "P2"])
    vector.mark_infinite("P1")
    vector.mark_infinite("P2")
    assert vector.deliverable_bound == INFINITY


def test_stability_bound_clamps_when_all_entries_infinite():
    """Mass failure (§5.2 step viii with every other member removed) must
    not let an infinite bound leak into ldn serialisation: the stability
    bound clamps to the last finite value instead."""
    vector = StabilityVector(["P1", "P2", "P3"])
    vector.record_ldn("P1", 4)
    vector.record_ldn("P2", 6)
    vector.record_ldn("P3", 5)
    assert vector.stability_bound == 4
    vector.mark_infinite("P1")
    assert vector.stability_bound == 5  # finite entries still constrain
    vector.mark_infinite("P2")
    vector.mark_infinite("P3")
    assert vector.stability_bound == 5  # clamped to the last finite bound
    assert vector.stability_bound != INFINITY
    # The receive vector's deliverable bound keeps the infinite semantics
    # (D must be free to pass lnmn) -- only the stability side clamps.
    assert vector.minimum() == INFINITY


def test_all_failed_group_never_serialises_infinite_ldn():
    """End-to-end §5.2 edge case: every other member of a group crashes at
    once; the survivor's subsequent messages must carry finite integer
    ldn values and its retention buffer must not grow unboundedly."""
    import math

    from repro.core import NewtopConfig

    session = Session(
        "newtop",
        config=NewtopConfig(omega=1.5, suspicion_timeout=6.0, suspector_check_interval=0.5),
        seed=3,
    )
    session.spawn(["P1", "P2", "P3"])
    session.group("g", ["P1", "P2", "P3"])
    session["P1"].multicast("g", "hello")
    session.run(5)
    session.crash("P2")
    session.crash("P3")
    # Run long enough for suspicion, agreement and the view collapse to a
    # singleton, followed by plenty of time-silence nulls.
    session.run(80)
    survivor = session["P1"]
    endpoint = survivor.endpoint("g")
    assert endpoint.view.sorted_members() == ("P1",)
    bound = endpoint.stability.stability_bound()
    assert not math.isinf(bound)
    ldn = endpoint.engine.ldn()
    assert isinstance(ldn, int)
    assert not math.isinf(ldn)
    # Nulls kept flowing after the collapse and carried finite ldn values
    # the whole time (they were retained/discarded through integer
    # comparisons without error).
    assert endpoint.time_silence.nulls_sent > 0
