"""Tests for the analysis layer: checkers, metrics and overhead models."""

import pytest

from oracle_checkers import (
    check_causal_prefix,
    check_same_view_delivery_sets,
    check_sender_in_view,
    check_total_order,
    check_view_sequences,
)
from repro.analysis.overhead import (
    isis_overhead_bytes,
    newtop_overhead_bytes,
    piggyback_overhead_bytes,
    psync_overhead_bytes,
)
from repro.api import Session
from repro.core import NewtopConfig
from repro.net.trace import DELIVER, SEND, SUSPECT, TraceRecorder, VIEW_INSTALL
from repro.stats import LatencyReservoir, percentile


# ----------------------------------------------------------------------
# Checkers on synthetic traces (both accepting and violating ones)
# ----------------------------------------------------------------------
def _delivery_trace(orders):
    """Build a trace where each process delivers the given message ids."""
    recorder = TraceRecorder()
    for msg_id in sorted({m for order in orders.values() for m in order}):
        recorder.record(0.0, SEND, msg_id.split("@")[0] if "@" in msg_id else "p0",
                        group="g", message_id=msg_id, sender="p0", clock=1)
    for process, order in orders.items():
        for index, msg_id in enumerate(order):
            recorder.record(
                1.0 + index, DELIVER, process, group="g", message_id=msg_id,
                sender="p0", clock=index + 1, view_index=0,
            )
    return recorder.trace()


def test_total_order_checker_accepts_agreeing_orders():
    trace = _delivery_trace({"p1": ["m1", "m2", "m3"], "p2": ["m1", "m2", "m3"]})
    assert check_total_order(trace, "g").passed


def test_total_order_checker_accepts_prefixes_and_gaps():
    trace = _delivery_trace({"p1": ["m1", "m2", "m3"], "p2": ["m1", "m3"]})
    assert check_total_order(trace, "g").passed


def test_total_order_checker_rejects_inversion():
    trace = _delivery_trace({"p1": ["m1", "m2"], "p2": ["m2", "m1"]})
    result = check_total_order(trace, "g")
    assert not result.passed
    assert result.violations


def test_causal_order_violation_detected():
    recorder = TraceRecorder()
    recorder.record(0.0, VIEW_INSTALL, "p2", group="g", members=("p1", "p2"), index=0)
    recorder.record(1.0, SEND, "p1", group="g", message_id="m1", sender="p1", clock=1)
    recorder.record(2.0, DELIVER, "p1", group="g", message_id="m1", sender="p1", clock=1, view_index=0)
    recorder.record(3.0, SEND, "p1", group="g", message_id="m2", sender="p1", clock=2)
    # p2 delivers m2 without ever delivering m1 although p1 stays in view.
    recorder.record(4.0, DELIVER, "p2", group="g", message_id="m2", sender="p1", clock=2, view_index=0)
    trace = recorder.trace()
    assert not check_causal_prefix(trace).passed


def test_sender_in_view_checker():
    recorder = TraceRecorder()
    recorder.record(0.0, VIEW_INSTALL, "p1", group="g", members=("p1", "p2"), index=0)
    recorder.record(1.0, VIEW_INSTALL, "p1", group="g", members=("p1",), index=1)
    recorder.record(2.0, DELIVER, "p1", group="g", message_id="m", sender="p2", clock=1, view_index=1)
    assert not check_sender_in_view(recorder.trace()).passed


def test_view_sequence_checker_detects_divergence():
    recorder = TraceRecorder()
    recorder.record(0.0, VIEW_INSTALL, "p1", group="g", members=("p1", "p2", "p3"), index=0)
    recorder.record(0.0, VIEW_INSTALL, "p2", group="g", members=("p1", "p2", "p3"), index=0)
    recorder.record(1.0, VIEW_INSTALL, "p1", group="g", members=("p1", "p2"), index=1)
    recorder.record(1.0, VIEW_INSTALL, "p2", group="g", members=("p2", "p3"), index=1)
    assert not check_view_sequences(recorder.trace(), "g", ["p1", "p2"]).passed


def test_virtual_synchrony_checker_detects_mismatch():
    recorder = TraceRecorder()
    for process in ("p1", "p2"):
        recorder.record(0.0, VIEW_INSTALL, process, group="g", members=("p1", "p2", "p3"), index=0)
        recorder.record(5.0, VIEW_INSTALL, process, group="g", members=("p1", "p2"), index=1)
    recorder.record(1.0, DELIVER, "p1", group="g", message_id="m1", sender="p3", clock=1, view_index=0)
    # p2 never delivers m1 in view 0 although both install the same views.
    result = check_same_view_delivery_sets(recorder.trace(), "g", ["p1", "p2"])
    assert not result.passed


def test_check_result_merge():
    trace = _delivery_trace({"p1": ["m1"], "p2": ["m1"]})
    merged = check_total_order(trace, "g").merge(check_sender_in_view(trace))
    assert merged.passed
    assert bool(merged)


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
@pytest.mark.parametrize("q", [50, 90, 95, 99])
def test_percentile_is_nearest_rank(q):
    """``sorted[ceil(q * n / 100) - 1]`` for every n: p50 of 1..5 is 3 and
    p90 of 1..6 is 6, and a latency reservoir's summary reads the same
    function."""
    for n in range(1, 51):
        ordered = [float(value) for value in range(1, n + 1)]
        rank = -(-q * n // 100)  # exact integer ceiling
        assert percentile(ordered, q) == ordered[rank - 1], n
        reservoir = LatencyReservoir()
        for sample in reversed(ordered):
            reservoir.add(sample)
        assert reservoir.summary(percentiles=(q,))[f"p{q}"] == percentile(ordered, q)


def test_offline_session_metrics_from_a_real_run():
    config = NewtopConfig(omega=2.0, suspicion_timeout=8.0)
    session = Session("newtop", config=config, seed=3)
    session.spawn(["P1", "P2", "P3"])
    session.group("g")
    for i in range(5):
        session["P1"].multicast("g", i)
    session.run(60)
    # An offline run is measured by the same sink as an online one.
    metrics = session.result().metrics
    assert metrics["by_kind"][SEND] == 5
    assert metrics["deliveries_by_group"] == {"g": 15}
    assert metrics["by_kind"]["null_send"] > 0
    latencies = session.trace().delivery_latencies("g")
    assert metrics["latency"]["count"] == len(latencies) == 15
    assert metrics["latency"]["mean"] == pytest.approx(sum(latencies) / 15, abs=1e-12)
    assert session.network.stats.messages_sent > 5


def test_view_agreement_latency_metric():
    recorder = TraceRecorder()
    recorder.record(10.0, SUSPECT, "p1", group="g", target="p3", last_number=4)
    recorder.record(14.0, VIEW_INSTALL, "p1", group="g", members=("p1", "p2"), index=1)
    latency = recorder.trace().view_agreement_latency("g", "p3")
    assert latency == {"p1": pytest.approx(4.0)}


# ----------------------------------------------------------------------
# Overhead models
# ----------------------------------------------------------------------
def test_newtop_overhead_independent_of_group_size():
    assert newtop_overhead_bytes(3) == newtop_overhead_bytes(100)
    assert newtop_overhead_bytes(10, groups_per_process=8) == newtop_overhead_bytes(10)
    assert newtop_overhead_bytes(10, asymmetric=True) > newtop_overhead_bytes(10)


def test_isis_overhead_grows_with_group_size_and_groups():
    assert isis_overhead_bytes(50) > isis_overhead_bytes(5)
    assert isis_overhead_bytes(10, groups_per_process=4) > isis_overhead_bytes(10)
    assert isis_overhead_bytes(5) > newtop_overhead_bytes(5)


def test_psync_and_piggyback_overheads():
    assert psync_overhead_bytes(20) > psync_overhead_bytes(4)
    assert psync_overhead_bytes(4, average_predecessors=1.0) < psync_overhead_bytes(4)
    assert piggyback_overhead_bytes(5, unstable_messages=10) > piggyback_overhead_bytes(5, 1)
