"""E14 -- §5.1: message stability and retention-buffer occupancy.

Paper claim: the ``m.ldn`` piggyback lets every process learn when a
message has reached the whole view, so retransmission buffers stay bounded
and can be garbage-collected without extra acknowledgement traffic.
Measured: retained-message peak and final counts, and how they respond to
the send rate, with flow control off and on, in both orderings -- §4.1's
symmetric groups and §4.2's asymmetric ones, where the sequencer stamps
the aggregated ``ldn`` into every sequenced message.

The asymmetric rows are gated on exact counts at constant link delay (no
latency draw, so the counts are the same on any commit): every message is
delivered, nothing but nulls is retained at the end, and what is retained
is the last few idle nulls, not the run's history.  Before the sequencer
stopped stamping ``ldn`` 0, the three asymmetric rows ended with 121, 93
and 86 retained and nothing collected, and the windowed sender delivered
2 of its 10.
"""

from common import RESULTS, assert_session_correct, run_session

from repro.core import OrderingMode
from repro.net.latency import ConstantLatency

MODES = (OrderingMode.SYMMETRIC, OrderingMode.ASYMMETRIC)
CASES = {
    "slow sender": dict(messages=10, gap=3.0, window=None, seed=61),
    "fast sender": dict(messages=10, gap=0.2, window=None, seed=62),
    "fast sender + window 2": dict(messages=10, gap=0.2, window=2, seed=63),
}
#: Final retained (all nulls) at P2 in each asymmetric case.
ASYMMETRIC_FINAL = {"slow sender": 2, "fast sender": 3, "fast sender + window 2": 3}


def run_case(messages: int, gap: float, window, seed: int, mode: OrderingMode):
    overrides = {"flow_control_window": window} if window else None
    session = run_session(
        ["P1", "P2", "P3"],
        groups=[("g", None, mode)],
        seed=seed,
        mode_overrides=overrides,
        analysis="online",
        latency_model=ConstantLatency(0.7),
    )
    for index in range(messages):
        session.multicast("P1", "g", f"m{index}")
        session.run(gap)
    session.run(80)
    assert_session_correct(session)
    buffer = session["P2"].endpoint("g").stability.buffer
    return {
        "peak": buffer.peak_size,
        "final": buffer.size(),
        "final_non_null": buffer.non_null_count(),
        "gc": buffer.discarded_stable_count,
        # One group: the process's delivery count is the group's.
        "delivered": len(session["P2"].delivered),
    }


def run_all():
    return {
        (name, mode.value): run_case(mode=mode, **case)
        for name, case in CASES.items()
        for mode in MODES
    }


def test_stability_and_gc(benchmark):
    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    table = [
        "scenario                | ordering   | peak retained | final retained "
        "| GC'd | delivered"
    ]
    for (name, mode), row in results.items():
        table.append(
            f"{name:23s} | {mode:10s} | {row['peak']:13d} | {row['final']:14d} "
            f"| {row['gc']:4d} | {row['delivered']:9d}"
        )
    table.append(
        "paper: stability information piggybacked on normal traffic lets buffers "
        "be trimmed without extra messages; bounding the number of unstable own "
        "messages (flow control) bounds every receiver's buffer -> reproduced "
        "in both orderings"
    )
    RESULTS.add_table("E14 stability-driven garbage collection", table)

    assert all(row["delivered"] == 10 for row in results.values())
    assert all(row["gc"] > 0 for row in results.values())
    assert all(row["final_non_null"] == 0 for row in results.values())
    asymmetric = OrderingMode.ASYMMETRIC.value
    assert {
        name: results[(name, asymmetric)]["final"] for name in CASES
    } == ASYMMETRIC_FINAL
    for mode in MODES:
        rows = {name: results[(name, mode.value)] for name in CASES}
        # A faster sender holds more unstable messages at once; the
        # flow-control window caps that growth.
        assert rows["fast sender"]["peak"] >= rows["slow sender"]["peak"]
        assert rows["fast sender + window 2"]["peak"] <= rows["fast sender"]["peak"]
