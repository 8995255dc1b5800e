"""E15 -- §7 / [11]: flow control keeps receiver buffers bounded.

Paper claim: "a flow control mechanism ... ensures that a sender process
does not cause buffers to overflow at any of the functioning destination
processes".  Measured: peak retention-buffer occupancy at a receiver,
the sender's deferrals and the deliveries, with and without the
stability-keyed sender window, for a bursty sender, in both orderings
(§4.1 symmetric, §4.2 asymmetric).

The window is keyed on stability, so it reopens only if stability
advances.  The asymmetric rows are gated on exact counts at constant link
delay: all 20 messages are delivered at every member, the windowed sender
deferred exactly ``ASYMMETRIC_DEFERRALS`` of them, and the receiver's peak
stays at ``ASYMMETRIC_PEAK``.  Before the sequencer stopped stamping
``ldn`` 0 the asymmetric window never reopened: 3 of 20 were delivered and
the other 17 stayed deferred for good, and the receiver's peak was 225
without the window and 208 with it (every null of the 200 s run).
"""

from common import RESULTS, EventProbe, assert_session_correct, run_session

from repro.core import OrderingMode
from repro.net.latency import ConstantLatency
from repro.net.trace import BLOCKED_SEND

MODES = (OrderingMode.SYMMETRIC, OrderingMode.ASYMMETRIC)
CONFIGURATIONS = {"no flow control": (None, 71), "window = 3": (3, 72)}
#: Sender deferrals and receiver peak in each asymmetric configuration.
ASYMMETRIC_DEFERRALS = {"no flow control": 0, "window = 3": 17}
ASYMMETRIC_PEAK = {"no flow control": 23, "window = 3": 9}


def run_case(window, seed: int, mode: OrderingMode):
    overrides = {"flow_control_window": window} if window else None
    probe = EventProbe(BLOCKED_SEND)
    names = ["P1", "P2", "P3"]
    session = run_session(
        names,
        groups=[("g", None, mode)],
        seed=seed,
        mode_overrides=overrides,
        analysis="online",
        sinks=[probe],
        latency_model=ConstantLatency(0.7),
    )
    # A burst of back-to-back sends with no gaps: the worst case for
    # receiver-side buffering.
    for index in range(20):
        session.multicast("P1", "g", f"burst-{index}")
    session.run(200)
    assert_session_correct(session)
    endpoint = session["P2"].endpoint("g")
    blocked = len(probe.trace().events(kind=BLOCKED_SEND, process="P1", group="g"))
    return {
        "peak_retained": endpoint.stability.buffer.peak_size,
        # One group: a process's delivery count is the group's.
        "delivered": min(len(session[name].delivered) for name in names),
        "deferred_sends": blocked,
    }


def run_all():
    return {
        (name, mode.value): run_case(window, seed, mode)
        for name, (window, seed) in CONFIGURATIONS.items()
        for mode in MODES
    }


def test_flow_control_bounds_buffers(benchmark):
    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    table = [
        "configuration    | ordering   | peak retained at receiver "
        "| sender deferrals | delivered"
    ]
    for (name, mode), row in results.items():
        table.append(
            f"{name:16s} | {mode:10s} | {row['peak_retained']:25d} "
            f"| {row['deferred_sends']:16d} | {row['delivered']:9d}"
        )
    table.append(
        "paper: the sender window keyed on stability prevents receiver buffer "
        "overflow while still delivering the full workload -> reproduced in "
        "both orderings"
    )
    RESULTS.add_table("E15 flow control vs receiver buffering", table)

    assert all(row["delivered"] == 20 for row in results.values())
    asymmetric = OrderingMode.ASYMMETRIC.value
    rows = {name: results[(name, asymmetric)] for name in CONFIGURATIONS}
    assert {name: row["deferred_sends"] for name, row in rows.items()} == ASYMMETRIC_DEFERRALS
    assert {name: row["peak_retained"] for name, row in rows.items()} == ASYMMETRIC_PEAK
    for mode in MODES:
        windowed = results[("window = 3", mode.value)]
        free = results[("no flow control", mode.value)]
        assert windowed["deferred_sends"] > 0
        assert windowed["peak_retained"] <= free["peak_retained"]
