"""E4 -- Example 1: crash during multicast plus a dependent crash.

Paper claim: if Pr crashes while multicasting m so that only Ps receives
it, and Ps (having delivered m and multicast m' -> m) crashes before it can
refute the suspicion of Pr, then the survivors detect Pr and Ps *together*
and never deliver the orphan m' without m (the discard-above-lnmn safety
measure preserving MD5).  Measured: survivor delivery sets, joint
detection, and the time to re-establish a stable view.

This benchmark runs through ``repro.api.Session`` with ``analysis="online"``:
the guarantees are verified by the streaming checkers and the two
quantities the assertions need (joint detections, the stable-view install
time) are observed by a small custom :class:`~repro.net.trace.TraceSink`
-- no full trace is ever materialized.
"""

from common import RESULTS, assert_session_correct, fmt, run_session

from repro.net.trace import CONFIRM, TraceSink, VIEW_INSTALL

SURVIVORS = ("Pi", "Pj")


class SurvivorViewWatcher(TraceSink):
    """Streams the joint-detection and stable-view observations E4 needs."""

    def __init__(self, process: str, group: str) -> None:
        self.process = process
        self.group = group
        self.confirm_target_sets = []
        self.stable_view_time = None

    def on_event(self, event) -> None:
        if event.process != self.process or event.group != self.group:
            return
        if event.kind == CONFIRM:
            self.confirm_target_sets.append(frozenset(event.detail("targets", ())))
        elif event.kind == VIEW_INSTALL and self.stable_view_time is None:
            if set(event.detail("members", ())) == set(SURVIVORS):
                self.stable_view_time = event.time


def run_example1():
    watcher = SurvivorViewWatcher("Pi", "g")
    session = run_session(
        ["Pi", "Pj", "Pr", "Ps"],
        groups=[("g", None)],
        seed=7,
        analysis="online",
        sinks=[watcher],
        view_agreement_sets={"g": list(SURVIVORS)},
    )
    # The survivors' payloads, kept by the application: a streaming run
    # keeps no delivery records of its own.
    payloads = {name: set() for name in SURVIVORS}
    for name in SURVIVORS:
        session[name].add_delivery_callback(
            lambda group, sender, payload, msg_id, seen=payloads[name]: seen.add(payload)
        )
    session.run(3)
    session.network.add_filter(
        lambda src, dst, payload: not (src == "Pr" and dst in SURVIVORS)
    )
    crash_time = session.sim.now
    session.multicast("Pr", "g", "m")
    session.run(0.1)
    session.crash("Pr")

    def react(group, sender, payload, msg_id):
        if payload == "m":
            session.multicast("Ps", group, "m-prime")

    session["Ps"].add_delivery_callback(react)
    session.sim.schedule(12.0, session.crash, "Ps")
    session.run(250)
    return session, watcher, crash_time, payloads


def test_example1_orphan_suppression(benchmark):
    session, watcher, crash_time, payloads = benchmark.pedantic(
        run_example1, rounds=1, iterations=1
    )
    orphan_delivered = any(
        "m-prime" in payloads[name] and "m" not in payloads[name] for name in SURVIVORS
    )
    views_ok = all(
        session[name].view("g").sorted_members() == SURVIVORS for name in SURVIVORS
    )
    joint_detections = [
        targets for targets in watcher.confirm_target_sets if targets == {"Pr", "Ps"}
    ]
    stable_view_time = watcher.stable_view_time
    result = assert_session_correct(session)
    RESULTS.add_table(
        "E4 (Example 1) crash during multicast + dependent crash",
        [
            f"orphan m' delivered without m at any survivor: {orphan_delivered}",
            f"Pr and Ps detected in a single joint detection: {bool(joint_detections)}",
            f"survivor views stabilised to {{Pi, Pj}}: {views_ok}",
            f"time from the crash to the stable survivor view: "
            f"{fmt((stable_view_time - crash_time) if stable_view_time else float('nan'))} time units",
            f"verified online: {result.trace_events} trace events streamed, "
            f"{result.trace_events_stored} stored",
            "paper: messages of failed processes above lnmn are discarded so the "
            "orphan is erased -> reproduced",
        ],
    )
    assert not orphan_delivered
    assert views_ok
    assert stable_view_time is not None
    # The whole run was verified without materializing a trace.
    assert result.analysis == "online"
    assert result.trace_events_stored == 0
