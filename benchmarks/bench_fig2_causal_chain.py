"""E2 -- Fig. 2: a causal chain across four overlapping groups with a
partition, exercising MD5'.

Paper claim: when m1 -> m2 -> m3 -> m4 spans overlapping groups and m1 is
irretrievably lost to a partition, Newtop still delivers m4 -- but only
after excluding m1's sender from the receiver's view of m1's group, so the
causal prefix guarantee (MD5') is preserved without piggybacking causal
histories.  Measured: whether m4 is delivered, whether the exclusion
happens first, and how long the exclusion takes.
"""

from common import RESULTS, EventProbe, assert_session_correct, fmt, run_session

from repro.net.trace import DELIVER, VIEW_INSTALL


def run_causal_chain():
    probe = EventProbe(VIEW_INSTALL, DELIVER)
    session = run_session(
        ["Pi", "Pj", "Pk", "Pl", "Pq", "Ps"],
        groups=[
            ("g1", ["Pi", "Pj", "Pk"]),
            ("g2", ["Pk", "Pl"]),
            ("g3", ["Pl", "Pq"]),
            ("g4", ["Pq", "Ps", "Pi", "Pj"]),
        ],
        seed=12,
        analysis="online",
        sinks=[probe],
        view_agreement_sets={
            "g1": ["Pi", "Pj"],
            "g2": ["Pl"],
            "g3": ["Pl", "Pq"],
            "g4": ["Pi", "Pj", "Pq", "Ps"],
        },
    )
    session.run(5)

    # Partition Pk away from Pi/Pj exactly while it multicasts m1.
    session.network.add_filter(
        lambda src, dst, payload: not (src == "Pk" and dst in ("Pi", "Pj"))
    )
    chain = {"m2": False, "m3": False, "m4": False}

    def relay(process, trigger, group, marker):
        def callback(g, sender, payload, msg_id):
            if payload == trigger and not chain[marker]:
                chain[marker] = True
                session[process].multicast(group, marker)

        return callback

    session["Pk"].add_delivery_callback(relay("Pk", "m1", "g2", "m2"))
    session["Pl"].add_delivery_callback(relay("Pl", "m2", "g3", "m3"))
    session["Pq"].add_delivery_callback(relay("Pq", "m3", "g4", "m4"))
    send_time = session.sim.now
    session["Pk"].multicast("g1", "m1")
    session.run(300)
    return session, probe, send_time


def test_fig2_causal_chain_md5_prime(benchmark):
    session, probe, send_time = benchmark.pedantic(
        run_causal_chain, rounds=1, iterations=1
    )
    trace = probe.trace()
    # m1 is g1's only message and m4 g4's: read them off the probe, since
    # a streaming run keeps no delivery records.
    m4_delivered = bool(trace.events(kind=DELIVER, process="Pi", group="g4"))
    m1_delivered = bool(trace.events(kind=DELIVER, process="Pi", group="g1"))
    pk_excluded = "Pk" not in session["Pi"].view("g1").members
    exclusion_time = None
    for event in trace.events(kind=VIEW_INSTALL, process="Pi", group="g1"):
        if "Pk" not in event.detail("members", ()):
            exclusion_time = event.time
            break
    m4_time = min(
        (e.time for e in trace.events(kind=DELIVER, process="Pi", group="g4")),
        default=None,
    )
    assert_session_correct(session)
    RESULTS.add_table(
        "E2 (Fig. 2) causal chain across overlapping groups under partition",
        [
            f"m1 delivered at Pi: {m1_delivered} (lost to the partition, as in the paper)",
            f"m4 delivered at Pi: {m4_delivered}",
            f"Pk excluded from Pi's g1 view before m4 delivery: "
            f"{pk_excluded and exclusion_time is not None and m4_time is not None and exclusion_time <= m4_time}",
            f"time from m1 multicast to Pk's exclusion: "
            f"{fmt((exclusion_time - send_time) if exclusion_time else float('nan'))} time units",
            "paper: option (b) of MD5' -- exclude the unreachable sender instead of "
            "piggybacking causal history -> reproduced",
        ],
    )
    assert m4_delivered and not m1_delivered
    assert pk_excluded
    assert exclusion_time is not None and m4_time is not None
    assert exclusion_time <= m4_time
