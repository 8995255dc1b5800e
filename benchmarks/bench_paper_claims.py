"""The paper's claims, E1-E17, as one gated registry.

Each row of :data:`CLAIMS` is ``(id, section, claim, run, holds)`` plus the
names of its headline quantities.  ``run()`` drives the claim's seeded
scenario and returns a flat dict of measured quantities -- including
``passed``, the verdict of the stack's correctness checkers -- and
``holds(measured)`` is the claim's verdict: it checks every quantity the
claim names.  The registry has three readers:

* ``pytest benchmarks`` -- ``test_claim_holds[E1..E17]`` gates each row;
* ``python benchmarks/bench_paper_claims.py --json BENCH_paper_claims.json``
  writes every row (id, section, claim, measured, holds) through
  :func:`common.write_bench_json`, prints the claim table and exits 1 if
  any claim does not hold;
* :func:`render_claim_table` renders README's claim table from that JSON,
  and ``test_readme_claim_table_matches_the_committed_json`` keeps the two
  equal.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import pytest

from common import EventProbe, fmt, run_session, run_session_traffic, write_bench_json
from mutants import deliver_past_suspected_senders

from repro.analysis import check_events
from repro.analysis.overhead import (
    isis_overhead_bytes,
    newtop_overhead_bytes,
    piggyback_overhead_bytes,
    psync_overhead_bytes,
)
from repro.api import Session
from repro.apps import ServerMigrationScenario
from repro.baselines import PrimaryPartitionMembership, PropagationGraphNetwork
from repro.core import OrderingMode
from repro.core.messages import Beacon
from repro.core.suspector import RING_FANOUT
from repro.net.latency import ConstantLatency, UniformLatency
from repro.net.network import Network, NetworkConfig
from repro.net.simulator import Simulator
from repro.net.trace import (
    BLOCKED_SEND,
    CONFIRM,
    DELIVER,
    NULL_SEND,
    RECEIVE,
    SEND,
    SUSPECT,
    UNBLOCKED_SEND,
    VIEW_INSTALL,
    TraceSink,
)
from repro.net.transport import Transport
from repro.scenarios import SCENARIO_PROTOCOL_DEFAULTS

Measured = Dict[str, object]

SYMMETRIC = OrderingMode.SYMMETRIC
ASYMMETRIC = OrderingMode.ASYMMETRIC
MODES = (SYMMETRIC.value, ASYMMETRIC.value)

_ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
CLAIMS_JSON = os.path.join(_ROOT, "BENCH_paper_claims.json")
README = os.path.join(_ROOT, "README.md")
TABLE_BEGIN = "<!-- paper-claims:begin -->"
TABLE_END = "<!-- paper-claims:end -->"


@dataclass(frozen=True)
class Claim:
    """One claim of the paper and the experiment that measures it."""

    id: str
    section: str
    claim: str
    run: Callable[[], Measured]
    holds: Callable[[Mapping[str, object]], bool]
    #: The measured quantities README's claim table shows.
    headline: Tuple[str, ...]


def _flatten(rows: Mapping[str, Mapping[str, object]]) -> Measured:
    """``{row: {quantity: value}}`` as the flat ``{"row.quantity": value}``."""
    return {f"{row}.{key}": value for row, values in rows.items() for key, value in values.items()}


def _first_exclusion(trace, process: str, group: str, excluded: str) -> Optional[float]:
    """When ``process`` first installed a ``group`` view without ``excluded``."""
    for event in trace.events(kind=VIEW_INSTALL, process=process, group=group):
        if excluded not in event.detail("members", ()):
            return event.time
    return None


def _first_delivery(trace, process: str, group: str) -> Optional[float]:
    events = trace.events(kind=DELIVER, process=process, group=group)
    return min((event.time for event in events), default=None)


def _since(start: float, time: Optional[float]) -> Optional[float]:
    return None if time is None else time - start


# E1 -- Fig. 1: online server migration via overlapping groups.
def run_e1() -> Measured:
    report = ServerMigrationScenario(requests_per_phase=6, seed=11).run()
    return {
        "requests_before": report.requests_before,
        "requests_during": report.requests_during,
        "requests_after": report.requests_after,
        "all_requests_applied": report.all_requests_applied,
        "state_transferred_intact": report.state_transferred_intact,
        "old_group_cleaned_up": report.old_group_cleaned_up,
        "final_group_members": list(report.final_group_members),
        "migration_window": report.migration_duration,
        "service_uninterrupted": report.service_uninterrupted,
    }


def holds_e1(m) -> bool:
    return bool(
        m["service_uninterrupted"] and m["all_requests_applied"]
        and m["state_transferred_intact"] and m["old_group_cleaned_up"]
        and m["final_group_members"] == ["P1", "P3"]
    )


# E2 -- Fig. 2: a causal chain across four overlapping groups under a partition.
def run_e2() -> Measured:
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
            "g1": ["Pi", "Pj"], "g2": ["Pl"], "g3": ["Pl", "Pq"], "g4": ["Pi", "Pj", "Pq", "Ps"],
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
    # m1 is g1's only message and m4 g4's: read them off the probe, since
    # a streaming run keeps no delivery records.
    trace = probe.trace()
    exclusion_time = _first_exclusion(trace, "Pi", "g1", "Pk")
    return {
        "m1_delivered_at_Pi": _first_delivery(trace, "Pi", "g1") is not None,
        "m4_delivery_time": _first_delivery(trace, "Pi", "g4"),
        "Pk_excluded_at_Pi": "Pk" not in session["Pi"].view("g1").members,
        "exclusion_time": exclusion_time,
        "exclusion_latency": _since(send_time, exclusion_time),
        "passed": session.result().passed,
    }


def _excluded_before_m4(m) -> bool:
    return (
        m["exclusion_time"] is not None and m["m4_delivery_time"] is not None
        and m["exclusion_time"] <= m["m4_delivery_time"]
    )


def holds_e2(m) -> bool:
    return bool(
        m["passed"] and not m["m1_delivered_at_Pi"] and m["Pk_excluded_at_Pi"]
        and _excluded_before_m4(m)
    )


# E3 -- Fig. 3: what each layer adds to delivery latency.
def _transport_latency(messages: int = 10) -> float:
    """Mean one-way latency of the bare transport (the bottom layer)."""
    sim = Simulator(seed=4)
    transport = Transport(Network(sim, NetworkConfig(latency_model=UniformLatency())))
    sender = transport.endpoint("a")
    latencies = []
    transport.endpoint("b").register_handler(
        "data", lambda run: latencies.extend(sim.now - msg.sent_at for msg in run)
    )
    for index in range(messages):
        sim.schedule_at(float(index), sender.send, "b", index)
    sim.run()
    return sum(latencies) / len(latencies)


def _group_latency(mode: OrderingMode) -> Tuple[float, bool]:
    """Mean delivery latency of one group in ``mode``, and the checkers'
    verdict.  Atomic-only delivery bypasses the total-order layer on
    purpose, so that run is not verified."""
    atomic = mode == OrderingMode.ATOMIC_ONLY
    session = run_session(
        ["P1", "P2", "P3"], groups=[("g", None, mode)], seed=4, analysis="online",
        checks=() if atomic else None,
    )
    for index in range(10):
        session.multicast("P1", "g", index)
        session.run(1.0)
    session.run(60)
    return session.metrics_sink.latency.mean, atomic or session.result().passed


def run_e3() -> Measured:
    atomic, _ = _group_latency(OrderingMode.ATOMIC_ONLY)
    total_order, passed = _group_latency(SYMMETRIC)
    return {
        "transport_latency": _transport_latency(),
        "atomic_latency": atomic,
        "total_order_latency": total_order,
        "passed": passed,
    }


def holds_e3(m) -> bool:
    # The atomic figure includes zero-latency self-deliveries, so it is only
    # compared against the total-order figure measured the same way.
    return bool(
        m["passed"]
        and m["atomic_latency"] <= m["total_order_latency"]
        and m["transport_latency"] <= m["total_order_latency"]
    )


# E4 -- Example 1: a crash during multicast plus a dependent crash.
E4_SURVIVORS = ("Pi", "Pj")


class _SurvivorWatcher(TraceSink):
    """What E4 needs from a run that stores no trace: Pi's confirmations
    and stable-view time, and which survivors received m' (whose id is
    known only once Ps multicasts it)."""

    def __init__(self) -> None:
        self.confirm_target_sets: List[frozenset] = []
        self.stable_view_time: Optional[float] = None
        self.m_prime_id: Optional[str] = None
        self.m_prime_receivers = set()

    def on_event(self, event) -> None:
        if event.kind == RECEIVE:
            if event.message_id == self.m_prime_id and event.process in E4_SURVIVORS:
                self.m_prime_receivers.add(event.process)
        elif event.process != "Pi" or event.group != "g":
            return
        elif event.kind == CONFIRM:
            self.confirm_target_sets.append(frozenset(event.detail("targets", ())))
        elif event.kind == VIEW_INSTALL and self.stable_view_time is None:
            if set(event.detail("members", ())) == set(E4_SURVIVORS):
                self.stable_view_time = event.time


def run_e4() -> Measured:
    watcher = _SurvivorWatcher()
    session = run_session(
        ["Pi", "Pj", "Pr", "Ps"], groups=[("g", None)], seed=7, analysis="online",
        sinks=[watcher], view_agreement_sets={"g": list(E4_SURVIVORS)},
    )
    # The survivors' payloads, kept by the application: a streaming run
    # keeps no delivery records of its own.
    payloads = {name: set() for name in E4_SURVIVORS}
    for name in E4_SURVIVORS:
        session[name].add_delivery_callback(
            lambda group, sender, payload, msg_id, seen=payloads[name]: seen.add(payload)
        )
    session.run(3)
    session.network.add_filter(lambda src, dst, payload: not (src == "Pr" and dst in E4_SURVIVORS))
    crash_time = session.sim.now
    session.multicast("Pr", "g", "m")
    session.run(0.1)
    session.crash("Pr")

    def react(group, sender, payload, msg_id):
        # Ps delivers m, multicasts m' -> m and crashes at once, before it
        # can refute the survivors' suspicion of Pr.
        if payload == "m":
            watcher.m_prime_id = session.multicast("Ps", group, "m-prime")
            session.crash("Ps")

    session["Ps"].add_delivery_callback(react)
    session.run(250)
    result = session.result()
    return {
        **_flatten({
            name: {"delivered_m": "m" in seen, "delivered_m_prime": "m-prime" in seen}
            for name, seen in payloads.items()
        }),
        "m_prime_receivers": len(watcher.m_prime_receivers),
        "joint_detection": frozenset({"Pr", "Ps"}) in watcher.confirm_target_sets,
        "views_stabilised": all(
            session[name].view("g").sorted_members() == E4_SURVIVORS for name in E4_SURVIVORS
        ),
        "stable_view_latency": _since(crash_time, watcher.stable_view_time),
        "analysis": result.analysis,
        "trace_events": result.trace_events,
        "trace_events_stored": result.trace_events_stored,
        "passed": result.passed,
    }


def holds_e4(m) -> bool:
    return bool(
        m["passed"] and m["joint_detection"] and m["views_stabilised"]
        and m["stable_view_latency"] is not None
        # m' reached both survivors, so "never without m" is not vacuous.
        and m["m_prime_receivers"] == len(E4_SURVIVORS)
        and all(
            m[f"{name}.delivered_m"] or not m[f"{name}.delivered_m_prime"]
            for name in E4_SURVIVORS
        )
        and m["analysis"] == "online" and m["trace_events_stored"] == 0
    )


# E5 -- Example 2: MD5' under a permanent partition.
def run_e5() -> Measured:
    session = run_session(
        ["Pi", "Pj", "Pk", "Pq"],
        groups=[("g1", ["Pi", "Pj", "Pk"]), ("g2", ["Pk", "Pq"]), ("g3", ["Pq", "Pi", "Pj"])],
        seed=11,
        view_agreement_sets={"g1": ["Pi", "Pj"], "g2": ["Pq"], "g3": ["Pi", "Pj", "Pq"]},
    )
    session.run(5)
    # Permanent partition: Pk can no longer reach Pi or Pj (but still Pq).
    session.network.add_filter(
        lambda src, dst, payload: not (src == "Pk" and dst in ("Pi", "Pj"))
    )
    state = {"m2": False, "m4": False}

    def pk_reacts(group, sender, payload, msg_id):
        if payload == "m1" and not state["m2"]:
            state["m2"] = True
            session.multicast("Pk", "g2", "m2")

    def pq_reacts(group, sender, payload, msg_id):
        if payload == "m2" and not state["m4"]:
            state["m4"] = True
            session.multicast("Pq", "g3", "m4")

    session["Pk"].add_delivery_callback(pk_reacts)
    session["Pq"].add_delivery_callback(pq_reacts)
    m1_time = session.sim.now
    session.multicast("Pk", "g1", "m1")
    session.run(250)
    trace = session.trace()
    m4_time = _first_delivery(trace, "Pi", "g3")
    return {
        "m1_delivered_at_Pi": "m1" in session["Pi"].delivered_payloads("g1"),
        "exclusion_time": _first_exclusion(trace, "Pi", "g1", "Pk"),
        "m4_delivery_time": m4_time,
        "m4_latency": _since(m1_time, m4_time),
        "passed": session.result().passed,
    }


def holds_e5(m) -> bool:
    return bool(m["passed"] and not m["m1_delivered_at_Pi"] and _excluded_before_m4(m))


# E6 -- Example 3: concurrent subgroup views stabilise into non-intersecting ones.
def _partitioned_views(use_signatures: bool) -> Measured:
    probe = EventProbe(VIEW_INSTALL)
    # The global view-agreement checks assume a single surviving component;
    # this run *deliberately* ends partitioned, so those two checks are
    # replaced by the per-side view-sequence replays below.
    session = run_session(
        ["Pi", "Pj", "Pk", "Pl", "Pm"],
        groups=[("g", None)],
        seed=9,
        mode_overrides={"use_signature_views": True} if use_signatures else None,
        analysis="online",
        sinks=[probe],
        checks=("total_order", "sender_in_view", "causal_prefix"),
    )
    session.run(5)
    session.crash("Pm")
    partition_time = session.sim.now + 4.0
    session.sim.schedule_at(partition_time, session.partition, [["Pi", "Pj"], ["Pk", "Pl"]])
    session.run(250)
    trace = probe.trace()
    one, two = (session[name].endpoint("g") for name in ("Pi", "Pk"))
    return {
        "side_one": sorted(one.view.members),
        "side_two": sorted(two.view.members),
        "stabilisation_latency": max(
            event.time
            for process in ("Pi", "Pk")
            for event in trace.events(kind=VIEW_INSTALL, process=process, group="g")
        ) - partition_time,
        "signature_disjoint": (
            not one.signature_view.intersects(two.signature_view) if use_signatures else None
        ),
        # Each side's view sequences agree (VC1), checked over the probe's
        # captured view installs; the rest streams through the suite.
        "passed": all(
            check_events(trace, {"g": side}, checks=("view_sequences",)).passed
            for side in (["Pi", "Pj"], ["Pk", "Pl"])
        )
        and session.result().passed,
    }


def run_e6() -> Measured:
    plain, signed = _partitioned_views(False), _partitioned_views(True)
    return {
        "side_one": plain["side_one"],
        "side_two": plain["side_two"],
        "views_intersect": bool(set(plain["side_one"]) & set(plain["side_two"])),
        "stabilisation_latency": plain["stabilisation_latency"],
        "signature_disjoint": signed["signature_disjoint"],
        "passed": plain["passed"] and signed["passed"],
    }


def holds_e6(m) -> bool:
    return bool(
        m["passed"] and m["side_one"] == ["Pi", "Pj"] and m["side_two"] == ["Pk", "Pl"]
        and not m["views_intersect"] and m["signature_disjoint"]
    )


# E7 -- §6: per-message protocol overhead, Newtop vs the baselines.
E7_SIZES = (3, 5, 10, 20, 50, 100)
E7_MODELS = {
    "newtop": newtop_overhead_bytes,
    "isis": isis_overhead_bytes,
    "psync": psync_overhead_bytes,
    "piggyback": lambda size: piggyback_overhead_bytes(size, unstable_messages=size),
}


def run_e7() -> Measured:
    measured = _flatten({
        f"n{size}": {f"{name}_bytes": model(size) for name, model in E7_MODELS.items()}
        for size in E7_SIZES
    })
    # Cross-check the analytic models against running implementations at
    # n=5, through the same session front door every stack shares.
    names = [f"P{i}" for i in range(5)]
    passed = True
    for stack in ("isis", "psync"):
        session = run_session(names, groups=[("g", None)], stack=stack, seed=2)
        for i in range(3):
            session.multicast("P0", "g", i)
            session.multicast("P2", "g", i + 100)
        session.run(100)
        passed = passed and session.result().passed
        measured[f"n5.{stack}_running_bytes"] = session["P0"]["g"].per_message_overhead_bytes()
    measured["passed"] = passed
    return measured


def holds_e7(m) -> bool:
    series = {name: [m[f"n{size}.{name}_bytes"] for size in E7_SIZES] for name in E7_MODELS}
    newtop = series.pop("newtop")
    return bool(
        m["passed"]
        and len(set(newtop)) == 1  # constant in group size
        and all(isis > ours for isis, ours in zip(series["isis"], newtop))
        and all(values[-1] > values[0] for values in series.values())  # the others grow
        and m["n5.isis_running_bytes"] > newtop[0]
    )


# E8 -- §4.1 vs §4.2: symmetric vs asymmetric ordering.
E8_SIZES = (3, 5, 8)


def _group_costs(session: Session, group: str) -> Measured:
    """Latency and deliveries of ``group`` from the session's latency sink;
    its sends and numbered nulls (a heartbeat wake's ``null_send`` names no
    group) from the stored trace."""
    trace = session.trace()
    return {
        "latency": session.metrics_sink.latency.mean,
        "sends": len(trace.events(kind=SEND, group=group)),
        "nulls": len(trace.events(kind=NULL_SEND, group=group)),
        "deliveries": session.metrics_sink.deliveries_by_group.get(group, 0),
    }


def _ordering_run(size: int, mode: OrderingMode) -> Measured:
    """Four messages from every member of one group of ``size``."""
    names = [f"P{i}" for i in range(size)]
    session = run_session(names, groups=[("bench", None, mode)], seed=size)
    run_session_traffic(session, "bench", names, messages_per_sender=4)
    return {
        **_group_costs(session, "bench"),
        "msgs_sent": session.network.stats.messages_sent,
        "passed": session.result().passed,
    }


def run_e8() -> Measured:
    return _flatten({
        f"n{size}.{mode.value}": _ordering_run(size, mode)
        for size in E8_SIZES for mode in (SYMMETRIC, ASYMMETRIC)
    })


def holds_e8(m) -> bool:
    return all(
        # Everything is delivered in both modes ...
        m[f"n{size}.{mode}.passed"]
        and m[f"n{size}.{mode}.deliveries"] == m[f"n{size}.{mode}.sends"] * size
        for size in E8_SIZES for mode in MODES
    ) and all(
        # ... and the member->sequencer hop keeps the asymmetric mean
        # latency from beating the symmetric one.
        m[f"n{size}.asymmetric.latency"] >= m[f"n{size}.symmetric.latency"] * 0.8
        for size in E8_SIZES
    )


# E9 -- §7: send blocking by group-mode combination.
E9_CONFIGURATIONS = {
    "sym+sym": (SYMMETRIC, SYMMETRIC, 21),
    "sym+asym": (SYMMETRIC, ASYMMETRIC, 22),
    "asym+asym": (ASYMMETRIC, ASYMMETRIC, 23),
}


def _two_group_sender(mode_one: OrderingMode, mode_two: OrderingMode, seed: int) -> Measured:
    probe = EventProbe(BLOCKED_SEND, UNBLOCKED_SEND)
    session = run_session(
        ["P1", "P2", "P3"], groups=[("g1", None, mode_one), ("g2", None, mode_two)],
        seed=seed, analysis="online", sinks=[probe],
    )
    for index in range(6):
        session.multicast("P2", "g1", f"one-{index}")
        session.multicast("P2", "g2", f"two-{index}")
        session.run(1.0)
    session.run(80)
    trace = probe.trace()
    waits = trace.blocking_times()
    return {
        "blocked": len(trace.events(kind=BLOCKED_SEND, process="P2")),
        "mean_wait": sum(waits) / len(waits) if waits else 0.0,
        "delivered_at_P3": len(session["P3"].delivered),
        "passed": session.result().passed,
    }


def run_e9() -> Measured:
    return _flatten({
        name: _two_group_sender(*configuration)
        for name, configuration in E9_CONFIGURATIONS.items()
    })


def holds_e9(m) -> bool:
    return (
        m["sym+sym.blocked"] == 0
        and (m["sym+asym.blocked"] > 0 or m["asym+asym.blocked"] > 0)
        and all(
            m[f"{name}.passed"] and m[f"{name}.delivered_at_P3"] == 12
            for name in E9_CONFIGURATIONS
        )
    )


# E10 -- §4.1: the time-silence mechanism's cost/latency trade-off.
E10_OMEGAS = (1.0, 2.0, 4.0, 8.0)


def _one_quiet_sender(omega: float) -> Measured:
    # The null count is read off the stored trace, so this run keeps the
    # offline (materialized-trace) analysis mode.
    session = run_session(
        ["P1", "P2", "P3", "P4"], groups=[("g", None)], seed=17,
        mode_overrides=dict(omega=omega, suspicion_timeout=omega * 8),
    )
    for index in range(6):
        session.multicast("P1", "g", index)
        session.run(3.0)
    session.run(60)
    costs = _group_costs(session, "g")
    return {
        # Null messages per application send: the time-silence overhead.
        "null_ratio": costs["nulls"] / max(costs["sends"], 1),
        "latency": costs["latency"],
        "deliveries": costs["deliveries"],
        "passed": session.result().passed,
    }


def run_e10() -> Measured:
    return _flatten({f"omega{omega:g}": _one_quiet_sender(omega) for omega in E10_OMEGAS})


def holds_e10(m) -> bool:
    rows = [f"omega{omega:g}" for omega in E10_OMEGAS]
    return (
        m[f"{rows[0]}.null_ratio"] > m[f"{rows[-1]}.null_ratio"]  # more nulls at a small omega
        and m[f"{rows[0]}.latency"] < m[f"{rows[-1]}.latency"]  # and lower delivery latency
        # 6 sends x 4 members delivered
        and all(m[f"{row}.passed"] and m[f"{row}.deliveries"] == 24 for row in rows)
    )


# E11 -- §5.2: membership agreement latency and cost vs group size.
E11_SIZES = (3, 5, 8, 12)


def _agreement_nulls(events, crashed_at: float) -> Optional[int]:
    """Numbered null multicasts in the group (a heartbeat wake's
    ``null_send`` names no group) from the first suspicion to the last view
    installation after the crash; ``None`` if no agreement ran."""
    first = min((event.time for event in events if event.kind == SUSPECT), default=None)
    last = max(
        (event.time for event in events if event.kind == VIEW_INSTALL and event.time > crashed_at),
        default=None,
    )
    if first is None or last is None:
        return None
    return sum(
        1 for event in events
        if event.kind == NULL_SEND and event.group == "g" and first <= event.time <= last
    )


def _crash_agreement(size: int) -> Measured:
    names = [f"P{i}" for i in range(size)]
    survivors, victim = names[:-1], names[-1]
    probe = EventProbe(SUSPECT, VIEW_INSTALL, NULL_SEND)
    session = run_session(
        names, groups=[("g", names)], seed=30 + size, analysis="online", sinks=[probe],
        view_agreement_sets={"g": survivors},
    )
    run_session_traffic(session, "g", names[:2], messages_per_sender=2, drain=10)
    crashed_at = session.sim.now
    session.crash(victim)
    session.run(150)
    latencies = probe.trace().view_agreement_latency("g", victim)
    stats = [session[name].endpoint("g").gv.stats for name in survivors]
    return {
        "agreement_latency": sum(latencies.values()) / len(latencies) if latencies else 0.0,
        "membership_msgs": sum(
            s.suspect_messages_sent + s.confirm_messages_sent + s.refute_messages_sent
            for s in stats
        ),
        "agreement_nulls": _agreement_nulls(probe.events, crashed_at),
        "views_correct": all(
            session[name].view("g").members == frozenset(survivors) for name in survivors
        ),
        "passed": session.result().passed,
    }


def run_e11() -> Measured:
    return _flatten({f"n{size}": _crash_agreement(size) for size in E11_SIZES})


def holds_e11(m) -> bool:
    smallest, largest = E11_SIZES[0], E11_SIZES[-1]
    return all(
        m[f"n{size}.passed"] and m[f"n{size}.views_correct"]
        and m[f"n{size}.agreement_nulls"] == 0
        for size in E11_SIZES
    ) and m[f"n{largest}.membership_msgs"] > m[f"n{smallest}.membership_msgs"]


# E12 -- §5.3: dynamic group formation vs group size.
E12_SIZES = (3, 5, 8)


def _formation(size: int) -> Measured:
    names = [f"P{i}" for i in range(size)]
    # Pre-existing membership: everyone is already in a base group, as the
    # paper envisages (formation happens alongside existing work).
    session = run_session(names, groups=[("base", names)], seed=40 + size, analysis="online")
    session.run(5)
    messages_before = session.network.stats.messages_sent
    start = session.sim.now
    session[names[0]].form_group("gn", names)
    formed = session.run_until(
        lambda: all(
            session[name].is_member("gn") and not session[name].endpoint("gn").in_formation_wait
            for name in names
        ),
        timeout=200,
    )
    measured = {
        "formed": formed,
        "formation_latency": session.sim.now - start,
        "control_msgs": session.network.stats.messages_sent - messages_before,
    }
    # The new group carries ordered traffic immediately afterwards.
    message_id = session[names[1]].multicast("gn", "post-formation")
    measured["usable"] = session.run_until_delivered(message_id, timeout=100)
    measured["passed"] = session.result().passed
    return measured


def run_e12() -> Measured:
    return _flatten({f"n{size}": _formation(size) for size in E12_SIZES})


def holds_e12(m) -> bool:
    smallest, largest = E12_SIZES[0], E12_SIZES[-1]
    return all(
        m[f"n{size}.passed"] and m[f"n{size}.formed"] and m[f"n{size}.usable"]
        for size in E12_SIZES
    ) and m[f"n{largest}.control_msgs"] > m[f"n{smallest}.control_msgs"]


# E13 -- §2/§6: multi-group scaling and arbitrary overlap.
E13_GROUPS_PER_PROCESS = (1, 2, 4, 6)
LIVENESS_TIMERS = ("time-silence", "suspector", "heartbeat")


def _ring_overlap(group_count: int) -> Measured:
    """A ring of overlapping two-member groups over four processes."""
    names = ["P1", "P2", "P3", "P4"]
    groups = [
        (f"g{index}", [names[index % 4], names[(index + 1) % 4]]) for index in range(group_count)
    ]
    session = run_session(names, groups=groups, seed=50 + group_count, analysis="online")
    for group_id, members in groups:
        session.multicast(members[0], group_id, f"{group_id}-a")
        session.multicast(members[1], group_id, f"{group_id}-b")
        session.run(1.0)
    session.run(100)
    result = session.result()
    return {"latency": result.metrics["latency"]["mean"], "passed": result.passed}


class _FiredLabels:
    """Stands in for the simulator's profiler: counts fired events by the
    first word of their scheduling label."""

    def __init__(self):
        self.fired = collections.Counter()

    def record_event(self, label, elapsed):
        self.fired[label.split(" ")[0]] += 1


def _idle_overlap(group_count: int, timeouts: int = 4) -> Measured:
    """Beacons per process per Ω/2 and liveness wakes per process per Ω of
    five processes idling in ``group_count`` fully overlapping groups, at
    constant link delay (no latency draw: the counts are exact)."""
    names = [f"P{index}" for index in range(1, 6)]
    big_omega = SCENARIO_PROTOCOL_DEFAULTS["suspicion_timeout"]
    session = Session(
        "newtop", config=SCENARIO_PROTOCOL_DEFAULTS, seed=1,
        latency_model=ConstantLatency(0.7), analysis="online",
    )
    session.spawn(names)
    for index in range(group_count):
        session.group(f"g{index}", names)
    session.run(2 * big_omega + 0.3)
    session.sim.profiler = labels = _FiredLabels()
    beacons = []
    session.network.add_filter(
        lambda src, dst, message: isinstance(message.payload, Beacon)
        and beacons.append(message.payload.groups) or True
    )
    session.run(timeouts * big_omega)
    return {
        "beacons": len(beacons) / (len(names) * 2 * timeouts),
        "wakes": sum(labels.fired[label] for label in LIVENESS_TIMERS) / (len(names) * timeouts),
        # One beacon vouches for every shared group, not one per group.
        "beacons_name_every_group": all(len(groups) == group_count for groups in beacons),
        "passed": session.result().passed,
    }


def run_e13() -> Measured:
    measured = _flatten({f"ring{count}": _ring_overlap(count) for count in E13_GROUPS_PER_PROCESS})
    # The propagation-graph alternative for the same cyclic overlap.
    graph = PropagationGraphNetwork(
        {"g0": ["P1", "P2"], "g1": ["P2", "P3"], "g2": ["P3", "P4"], "g3": ["P4", "P1"]},
        seed=3,
    )
    for group, members in graph.groups.items():
        graph.multicast(members[0], group, f"{group}-x")
    graph.run(100)
    measured["graph_hops"] = graph.total_hops
    measured["graph_depth"] = max(graph.depth_of(node) for node in ("P1", "P2", "P3", "P4"))
    measured.update(
        _flatten({f"idle{count}": _idle_overlap(count) for count in E13_GROUPS_PER_PROCESS})
    )
    return measured


def holds_e13(m) -> bool:
    return all(
        m[f"ring{count}.passed"] and m[f"ring{count}.latency"] > 0
        and m[f"idle{count}.passed"] and m[f"idle{count}.beacons_name_every_group"]
        # Exact, and flat in the number of groups.
        and (m[f"idle{count}.beacons"], m[f"idle{count}.wakes"]) == (float(RING_FANOUT), 2.0)
        for count in E13_GROUPS_PER_PROCESS
    ) and m["graph_hops"] >= 4


# E14 -- §5.1: stability-driven garbage collection, in both orderings.
E14_CASES = {
    "slow": dict(gap=3.0, window=None, seed=61),
    "fast": dict(gap=0.2, window=None, seed=62),
    "fast_window2": dict(gap=0.2, window=2, seed=63),
}
#: Final retained (all nulls) at P2 in each asymmetric case.
E14_ASYMMETRIC_FINAL = {"slow": 2, "fast": 3, "fast_window2": 3}


def _retention(gap: float, window, seed: int, mode: OrderingMode) -> Measured:
    session = run_session(
        ["P1", "P2", "P3"], groups=[("g", None, mode)], seed=seed,
        mode_overrides={"flow_control_window": window} if window else None,
        analysis="online", latency_model=ConstantLatency(0.7),
    )
    for index in range(10):
        session.multicast("P1", "g", f"m{index}")
        session.run(gap)
    session.run(80)
    buffer = session["P2"].endpoint("g").stability.buffer
    return {
        "peak": buffer.peak_size,
        "final": buffer.size(),
        "final_non_null": buffer.non_null_count(),
        "gc": buffer.discarded_stable_count,
        # One group: the process's delivery count is the group's.
        "delivered": len(session["P2"].delivered),
        "passed": session.result().passed,
    }


def run_e14() -> Measured:
    return _flatten({
        f"{name}.{mode.value}": _retention(mode=mode, **case)
        for name, case in E14_CASES.items() for mode in (SYMMETRIC, ASYMMETRIC)
    })


def holds_e14(m) -> bool:
    return all(
        m[f"{name}.{mode}.passed"] and m[f"{name}.{mode}.delivered"] == 10
        and m[f"{name}.{mode}.gc"] > 0 and m[f"{name}.{mode}.final_non_null"] == 0
        for name in E14_CASES for mode in MODES
    ) and {
        name: m[f"{name}.asymmetric.final"] for name in E14_CASES
    } == E14_ASYMMETRIC_FINAL and all(
        # A faster sender holds more unstable messages at once; the
        # flow-control window caps that growth.
        m[f"fast.{mode}.peak"] >= m[f"slow.{mode}.peak"]
        and m[f"fast_window2.{mode}.peak"] <= m[f"fast.{mode}.peak"]
        for mode in MODES
    )


# E15 -- §7: flow control keeps receiver buffers bounded, in both orderings.
E15_CONFIGURATIONS = {"free": (None, 71), "window3": (3, 72)}
#: Sender deferrals and receiver peak in each asymmetric configuration.
E15_ASYMMETRIC_DEFERRALS = {"free": 0, "window3": 17}
E15_ASYMMETRIC_PEAK = {"free": 23, "window3": 9}


def _burst(window, seed: int, mode: OrderingMode) -> Measured:
    probe = EventProbe(BLOCKED_SEND)
    names = ["P1", "P2", "P3"]
    session = run_session(
        names, groups=[("g", None, mode)], seed=seed,
        mode_overrides={"flow_control_window": window} if window else None,
        analysis="online", sinks=[probe], latency_model=ConstantLatency(0.7),
    )
    # A burst of back-to-back sends with no gaps: the worst case for
    # receiver-side buffering.
    for index in range(20):
        session.multicast("P1", "g", f"burst-{index}")
    session.run(200)
    return {
        "peak_retained": session["P2"].endpoint("g").stability.buffer.peak_size,
        "deferred_sends": len(probe.trace().events(kind=BLOCKED_SEND, process="P1", group="g")),
        # One group: a process's delivery count is the group's.
        "delivered": min(len(session[name].delivered) for name in names),
        "passed": session.result().passed,
    }


def run_e15() -> Measured:
    return _flatten({
        f"{name}.{mode.value}": _burst(window, seed, mode)
        for name, (window, seed) in E15_CONFIGURATIONS.items() for mode in (SYMMETRIC, ASYMMETRIC)
    })


def holds_e15(m) -> bool:
    def asymmetric(key):
        return {name: m[f"{name}.asymmetric.{key}"] for name in E15_CONFIGURATIONS}

    return all(
        m[f"{name}.{mode}.passed"] and m[f"{name}.{mode}.delivered"] == 20
        for name in E15_CONFIGURATIONS for mode in MODES
    ) and all(
        m[f"window3.{mode}.deferred_sends"] > 0
        and m[f"window3.{mode}.peak_retained"] <= m[f"free.{mode}.peak_retained"]
        for mode in MODES
    ) and asymmetric("deferred_sends") == E15_ASYMMETRIC_DEFERRALS and (
        asymmetric("peak_retained") == E15_ASYMMETRIC_PEAK
    )


# E16 -- §6: availability under partitions, Newtop vs primary partition.
E16_MEMBERS = ["P1", "P2", "P3", "P4", "P5"]
E16_SHAPES = {
    "split_2_3": [["P1", "P2"], ["P3", "P4", "P5"]],
    "split_1_4": [["P1"], ["P2", "P3", "P4", "P5"]],
    "split_2_2_1": [["P1", "P2"], ["P3", "P4"], ["P5"]],
}


def _newtop_available_fraction(components, seed: int) -> float:
    session = run_session(E16_MEMBERS, groups=[("g", E16_MEMBERS)], seed=seed, analysis="online")
    session.run(5)
    session.partition(components)
    session.run(200)
    available = 0
    for component in components:
        # A side is operational if a fresh multicast from one of its members
        # is delivered by every member of that side.
        message_id = session[component[0]].multicast("g", f"probe-{component[0]}")
        if session.run_until_delivered(message_id, processes=component, timeout=120):
            available += len(component)
    return available / len(E16_MEMBERS)


def run_e16() -> Measured:
    return _flatten({
        name: {
            "primary_partition": PrimaryPartitionMembership(E16_MEMBERS).availability_fraction(
                components
            ),
            "newtop": _newtop_available_fraction(components, seed=80 + index),
        }
        for index, (name, components) in enumerate(E16_SHAPES.items())
    })


def holds_e16(m) -> bool:
    return all(
        m[f"{name}.newtop"] == 1.0 and m[f"{name}.newtop"] >= m[f"{name}.primary_partition"]
        for name in E16_SHAPES
    ) and any(m[f"{name}.primary_partition"] == 0.0 for name in E16_SHAPES)  # no majority


# E17 -- sustained workload: Newtop (both modes) vs the §6 baselines.
E17_NAMES = [f"P{i}" for i in range(5)]
E17_SENDERS = E17_NAMES[:3]
E17_MESSAGES_PER_SENDER = 4
#: row -> (stack registry name, per-group mode override, seed)
E17_PROTOCOLS = {
    "newtop_symmetric": ("newtop", SYMMETRIC, 91),
    "newtop_asymmetric": ("newtop", ASYMMETRIC, 92),
    "isis": ("isis", None, 93),
    "fixed_sequencer": ("fixed_sequencer", None, 94),
    "lamport_ack": ("lamport_ack", None, 95),
}


def _sustained(stack: str, mode: Optional[OrderingMode], seed: int) -> Measured:
    session = run_session(
        E17_NAMES, groups=[("g", None, mode)], stack=stack, seed=seed, analysis="online"
    )
    start = session.sim.now
    # Message cost is measured over the active window plus a short settle,
    # so a long idle drain full of time-silence nulls is not charged to the
    # application multicasts.
    run_session_traffic(session, "g", E17_SENDERS, E17_MESSAGES_PER_SENDER, drain=5.0)
    messages_during_active = session.network.stats.messages_sent
    session.run(115)
    result = session.result()
    return {
        "deliveries": result.deliveries,
        "throughput": result.deliveries / (session.sim.now - start),
        "msgs_per_multicast": messages_during_active / (E17_MESSAGES_PER_SENDER * len(E17_SENDERS)),
        # The streaming checker suite is the order-agreement verdict: the
        # per-stack total-order / causal checkers consumed every delivery.
        "passed": result.passed,
    }


def run_e17() -> Measured:
    return _flatten({name: _sustained(*protocol) for name, protocol in E17_PROTOCOLS.items()})


def holds_e17(m) -> bool:
    expected = E17_MESSAGES_PER_SENDER * len(E17_SENDERS) * len(E17_NAMES)
    return all(
        m[f"{name}.passed"] and m[f"{name}.deliveries"] == expected for name in E17_PROTOCOLS
    ) and all(
        m["lamport_ack.msgs_per_multicast"] > m[f"newtop_{mode}.msgs_per_multicast"]
        for mode in MODES
    )


CLAIMS: Tuple[Claim, ...] = (
    Claim(
        "E1", "Fig. 1",
        "A replica can be migrated to a new machine by forming an overlapping group, "
        "transferring state inside it and winding down the old memberships, without any "
        "noticeable disruption in service.",
        run_e1, holds_e1, ("requests_during", "migration_window", "service_uninterrupted"),
    ),
    Claim(
        "E2", "Fig. 2, MD5'",
        "When m1 -> m2 -> m3 -> m4 spans overlapping groups and m1 is lost to a partition, "
        "m4 is still delivered, but only after m1's sender is excluded from the receiver's "
        "view of m1's group: MD5' holds without piggybacking causal histories.",
        run_e2, holds_e2, ("m1_delivered_at_Pi", "exclusion_time", "m4_delivery_time"),
    ),
    Claim(
        "E3", "Fig. 3",
        "Total order costs more delivery latency than atomic delivery and the bare "
        "transport below it: it waits for the receive-vector bound, which atomic delivery "
        "bypasses.",
        run_e3, holds_e3, ("transport_latency", "atomic_latency", "total_order_latency"),
    ),
    Claim(
        "E4", "Example 1",
        "If Pr crashes while multicasting m so that only Ps receives it, and Ps delivers m, "
        "multicasts m' -> m and crashes before it can refute the suspicion of Pr, the "
        "survivors detect Pr and Ps together and never deliver the orphan m' without m.",
        run_e4, holds_e4,
        ("joint_detection", "m_prime_receivers", "Pi.delivered_m_prime", "stable_view_latency"),
    ),
    Claim(
        "E5", "Example 2, MD5'",
        "When a permanent partition makes a causal predecessor m1 irretrievable, the receiver "
        "excludes m1's sender from its view of that group before delivering any causally "
        "dependent message.",
        run_e5, holds_e5, ("exclusion_time", "m4_delivery_time", "m4_latency"),
    ),
    Claim(
        "E6", "Example 3, §6",
        "After a partition hits in the middle of a membership agreement, concurrent views "
        "stabilise into non-intersecting ones, and so do the §6 signature views.",
        run_e6, holds_e6, ("views_intersect", "stabilisation_latency", "signature_disjoint"),
    ),
    Claim(
        "E7", "§6",
        "Newtop's protocol information per multicast is small and bounded, independent of "
        "group size, whereas vector clocks grow with membership, context graphs with "
        "concurrency and piggybacked causal history without bound.",
        run_e7, holds_e7, ("n100.newtop_bytes", "n100.isis_bytes", "n5.isis_running_bytes"),
    ),
    Claim(
        "E8", "§4.1 vs §4.2",
        "Both orderings deliver everything with the same guarantees; the asymmetric one adds "
        "a sequencing hop for non-sequencer senders.",
        run_e8, holds_e8, ("n8.symmetric.latency", "n8.asymmetric.latency"),
    ),
    Claim(
        "E9", "§7",
        "Symmetric Newtop never blocks a send; a multi-group sender blocks only while a "
        "message it unicast to another group's sequencer awaits sequencing.",
        run_e9, holds_e9, ("sym+sym.blocked", "sym+asym.blocked", "asym+asym.blocked"),
    ),
    Claim(
        "E10", "§4.1",
        "Null messages keep delivery live when members are quiet, at the cost of extra "
        "traffic; omega trades null traffic against delivery latency.",
        run_e10, holds_e10,
        ("omega1.null_ratio", "omega8.null_ratio", "omega1.latency", "omega8.latency"),
    ),
    Claim(
        "E11", "§5.2",
        "A crash is agreed through suspect and confirm messages among the unsuspected "
        "members and a new view is installed in step with delivery; each survivor's number "
        "rides its suspect message, so the agreement sends no null of its own.",
        run_e11, holds_e11, ("n3.membership_msgs", "n12.membership_msgs", "n12.agreement_nulls"),
    ),
    Claim(
        "E12", "§5.3",
        "Forming a new group takes a two-phase vote plus one exchange of start-group "
        "messages, and the new group carries ordered traffic at once.",
        run_e12, holds_e12, ("n3.control_msgs", "n8.control_msgs", "n8.formation_latency"),
    ),
    Claim(
        "E13", "§2, §6",
        "Arbitrarily overlapping groups need only per-group receive vectors and one clock, "
        "no shared sequencer structure; an idle process's liveness cost does not grow with "
        "its number of groups.",
        run_e13, holds_e13, ("graph_hops", "idle6.beacons", "idle6.wakes"),
    ),
    Claim(
        "E14", "§5.1",
        "The m.ldn piggyback tells every process when a message has reached the whole view, "
        "so retention buffers are garbage collected down to a few idle nulls, and a sender "
        "window caps their peak, in both orderings.",
        run_e14, holds_e14,
        ("fast.symmetric.peak", "fast_window2.symmetric.peak", "fast.asymmetric.final"),
    ),
    Claim(
        "E15", "§7",
        "Flow control keeps a sender from overflowing the buffers of any functioning "
        "destination while the whole workload is delivered, in both orderings.",
        run_e15, holds_e15,
        ("free.asymmetric.peak_retained", "window3.asymmetric.peak_retained",
         "window3.asymmetric.deferred_sends"),
    ),
    Claim(
        "E16", "§6",
        "Primary-partition membership keeps only a majority side operational; Newtop lets "
        "every connected subgroup keep operating.",
        run_e16, holds_e16, ("split_2_2_1.primary_partition", "split_2_2_1.newtop"),
    ),
    Claim(
        "E17", "§4, §6",
        "Under one workload every protocol delivers everything, verified against its own "
        "ordering guarantees, and Newtop's total order costs fewer network messages per "
        "multicast than an all-ack protocol in both of its modes.",
        run_e17, holds_e17,
        ("newtop_symmetric.msgs_per_multicast", "newtop_asymmetric.msgs_per_multicast",
         "lamport_ack.msgs_per_multicast"),
    ),
)


def evaluate(claim: Claim) -> Dict[str, object]:
    """One JSON row: the claim, what was measured and the verdict."""
    measured = claim.run()
    return {
        "id": claim.id,
        "section": claim.section,
        "claim": claim.claim,
        "measured": measured,
        "holds": bool(claim.holds(measured)),
    }


def render_claim_table(document: Mapping[str, object]) -> str:
    """README's claim table (Markdown) from a ``BENCH_paper_claims.json``
    document: id, section, claim, verdict and the headline numbers."""
    headline = {claim.id: claim.headline for claim in CLAIMS}
    lines = ["| id | section | claim | holds | headline measured |", "|---|---|---|---|---|"]
    for row in document["claims"]:
        values = [(key, row["measured"][key]) for key in headline[row["id"]]]
        numbers = ", ".join(
            f"`{key}` {fmt(value) if isinstance(value, float) else value}"
            for key, value in values
        )
        cells = (row["id"], row["section"], row["claim"], str(row["holds"]).lower(), numbers)
        lines.append("| " + " | ".join(cell.replace("|", "\\|") for cell in cells) + " |")
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run every claim, write the JSON and print the table; 1 if any
    claim does not hold."""
    parser = argparse.ArgumentParser(description="The paper's claims E1-E17, gated.")
    parser.add_argument("--json", default="BENCH_paper_claims.json")
    args = parser.parse_args(argv)
    started = time.perf_counter()
    rows = [evaluate(claim) for claim in CLAIMS]
    document = write_bench_json(
        args.json, "paper_claims", "paper", {"claims": rows},
        wall_seconds=time.perf_counter() - started,
    )
    print(render_claim_table(document))
    failed = [row["id"] for row in rows if not row["holds"]]
    if failed:
        print(f"claims that do not hold: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


@pytest.mark.parametrize("claim", CLAIMS, ids=lambda claim: claim.id)
def test_claim_holds(claim):
    row = evaluate(claim)
    assert row["holds"], row["measured"]


def test_the_exclusion_mutant_turns_e5_and_the_cli_red(tmp_path):
    e5 = next(claim for claim in CLAIMS if claim.id == "E5")
    assert deliver_past_suspected_senders.caught_by == e5.id
    assert e5.holds(e5.run())
    with deliver_past_suspected_senders:
        assert not e5.holds(e5.run())
        assert main(["--json", str(tmp_path / "claims.json")]) == 1
    rows = json.loads((tmp_path / "claims.json").read_text())["claims"]
    assert [row["holds"] for row in rows if row["id"] == "E5"] == [False]


def test_readme_claim_table_matches_the_committed_json():
    with open(CLAIMS_JSON, encoding="utf-8") as handle:
        document = json.load(handle)
    with open(README, encoding="utf-8") as handle:
        readme = handle.read()
    assert [row["id"] for row in document["claims"]] == [claim.id for claim in CLAIMS]
    assert all(row["holds"] for row in document["claims"])
    table = readme.split(TABLE_BEGIN, 1)[1].split(TABLE_END, 1)[0].strip()
    assert table == render_claim_table(document)


if __name__ == "__main__":
    sys.exit(main())
