"""E11 -- §5.2: membership agreement latency and message cost vs group size.

Paper claim: a crash is detected by the suspectors, agreed via
suspect/confirm messages among the unsuspected members, and a new view is
installed coordinated with delivery.  Measured: time from the first
suspicion to the view installation, the number of membership messages
exchanged, and the null multicasts sent in that interval, as the group
size grows.

The agreement needs one number from each survivor past the suspicion's
``ln``; in a symmetric group it rides the survivor's suspect message
(:mod:`repro.core.membership`), so the interval holds no null multicast of
its own.  Gated exactly: 0 at every size (a separate agreement null cost
0 / 2 / 5 / 9 at sizes 3 / 5 / 8 / 12).
"""

from common import (
    RESULTS,
    EventProbe,
    assert_session_correct,
    fmt,
    run_session,
    run_session_traffic,
)

from repro.analysis.metrics import view_agreement_latency
from repro.net.trace import NULL_SEND, SUSPECT, VIEW_INSTALL

GROUP_SIZES = [3, 5, 8, 12]


def _agreement_nulls(events, crashed_at):
    """Numbered null multicasts in the group (a heartbeat wake's
    ``null_send`` names no group) from the first suspicion to the last view
    installation after the crash."""
    first = min(event.time for event in events if event.kind == SUSPECT)
    last = max(
        event.time for event in events
        if event.kind == VIEW_INSTALL and event.time > crashed_at
    )
    return sum(
        1 for event in events
        if event.kind == NULL_SEND and event.group == "g" and first <= event.time <= last
    )


def run_sweep():
    rows = []
    for size in GROUP_SIZES:
        names = [f"P{i}" for i in range(size)]
        survivors = names[:-1]
        probe = EventProbe(SUSPECT, VIEW_INSTALL, NULL_SEND)
        session = run_session(
            names,
            groups=[("g", names)],
            seed=30 + size,
            analysis="online",
            sinks=[probe],
            view_agreement_sets={"g": survivors},
        )
        run_session_traffic(session, "g", names[:2], messages_per_sender=2, drain=10)
        victim = names[-1]
        crashed_at = session.sim.now
        session.crash(victim)
        session.run(150)
        latencies = view_agreement_latency(probe.trace(), "g", victim)
        membership_messages = sum(
            session[name].endpoint("g").gv.stats.suspect_messages_sent
            + session[name].endpoint("g").gv.stats.confirm_messages_sent
            + session[name].endpoint("g").gv.stats.refute_messages_sent
            for name in survivors
        )
        mean_latency = sum(latencies.values()) / len(latencies) if latencies else 0.0
        correct_views = all(
            session[name].view("g").members == frozenset(survivors) for name in survivors
        )
        assert_session_correct(session)
        nulls = _agreement_nulls(probe.events, crashed_at)
        rows.append((size, mean_latency, membership_messages, nulls, correct_views))
    return rows


def test_membership_agreement_scaling(benchmark):
    rows = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    table = [
        "group size | suspicion->view latency | membership msgs | agreement nulls"
        " | views correct"
    ]
    for size, latency, messages, nulls, correct in rows:
        table.append(
            f"{size:10d} | {fmt(latency):>23} | {messages:15d} | {nulls:15d}"
            f" | {correct}"
        )
    table.append(
        "paper: agreement needs a suspect message from every unsuspected member "
        "and one confirm round -> message cost grows roughly quadratically with "
        "group size while latency stays dominated by the suspicion timeout; "
        "each survivor's number rides its suspicion, so no null is sent apart"
    )
    RESULTS.add_table("E11 membership agreement vs group size", table)

    assert all(correct for *_, correct in rows)
    assert rows[-1][2] > rows[0][2]  # membership traffic grows with group size
    assert [nulls for _, _, _, nulls, _ in rows] == [0] * len(GROUP_SIZES)
