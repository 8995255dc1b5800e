"""Golden digests: the event stream and the journeys of seeded runs.

Each digest is the sha256 (and the event count) of the run's stored trace as
:class:`repro.net.trace.JsonlSink` writes it -- ``seq``, ``time``, ``kind``,
``process``, ``group``, ``message_id``, ``sender``, ``clock`` and ``details``
of every event, in recording order.  A refactor that moves nothing leaves
all three where they are; a *protocol* change that sends, numbers, times or
delivers anything differently moves them -- then, and only then, regenerate
with ``PYTHONPATH=src python tests/test_golden_traces.py`` and say so.

``journey_digests.json`` does the same for what :mod:`repro.obs.journey`
makes of a run: the sha256 of the whole ``journeys`` block plus every
tracked journey's transition list, at sample rate 1 and 1-in-64, offline
and online, for the three runs above and five more that between them
produce every transition and every reason the tracker knows (the test
below says which).  It was generated at the commit *before* journeys moved
onto the trace recorder's seam (PR 21), so it pins that the move changed no
journey; the same command regenerates it.

A change that is meant to move *liveness traffic only* (idle heartbeats,
suspector timers, nulls) regenerates with ``--against PARENT/src``: the
command then first compares the runs' *protocol skeletons* under both
source trees -- per process, its ``send`` / ``deliver`` / ``suspect`` /
``view_install`` events in order, without their times and without the
process-wide counter in message ids, the two things every later latency
draw moves once one transmission is gone from the simulator's one random
stream.  It compares two of them and reports, per run, which held:

* the *clocked* skeleton keeps each event's Lamport number;
* the *clock-free* one drops the numbers (an event's clock and a
  suspicion's ``last_number``) and compares per (process, group, view):
  removing a numbered null renumbers every later message, and numbers
  decide the order of deliveries across a process's groups.

It refuses to write while both differ for a run not named by
``--accept RUN``; a run accepted so must be explained below.
Regeneration notes:

* PR 22 (one beacon per process pair): ``churn60``,
  ``formation_crash_during_vote`` and ``brief_mute_three_groups`` moved;
  the five runs without overlapping symmetric groups stayed byte-identical.
  Skeletons equal against PR 21; per kind only the ``null_send`` counts
  differ (866 -> 849, 227 -> 211: a heartbeat wake is one event per
  process, not one per group) and the network carries 4,494 -> 4,436 and
  691 -> 549 messages, all of the difference ``Beacon``s; ``suspect`` and
  ``view_install`` times move by at most 0.75 (shifted latency draws), and
  one process of ``churn60`` receives two messages in the other order.
* A null owed only for work not yet on the wire:
  ``kv_failover_asymmetric`` stayed byte-identical (asymmetric groups keep
  their nulls; clocked skeleton equal).  ``formation_crash_during_vote``
  moved with its clock-free skeleton equal: ``null_send`` 211 -> 208,
  messages 549 -> 536.  ``partition_three_three`` (journeys only) moved:
  ``null_send`` 285 -> 283, messages 1,373 -> 1,372, the other kinds
  unchanged.  ``churn60`` moved with **both skeletons different**
  (accepted): messages 4,436 -> 4,222 (numbered nulls on the wire 2,309 ->
  2,105), ``null_send`` 849 -> 856 (23 of them flagged re-sends by members
  a crashed or departed member's missing acknowledgment left unstable
  until its view change; each draws answers), sends 27 -> 28 and
  deliveries 202 -> 206, ``suspect`` and ``view_install`` counts
  unchanged.  Both skeleton differences are in the formed group ``fg00``,
  whose workload sends its first round at 13.0.  With fewer nulls before
  it, the formation votes draw other latencies: ``P002`` activates the
  group at 12.75 instead of 13.0, so its round-0 send -- skipped on the
  parent by the scenario's membership guard, which ran at 13.0 ahead of the
  activation -- is now deferred by the formation wait and sent at 13.75,
  and all four members deliver it.  The round-1 sends of ``P001`` and
  ``P002`` at 16.0 are concurrent: on the parent both were numbered 11 and
  the tie went to ``P001``; now they are numbered 16 and 15, so every
  member delivers ``P002``'s first.  Each is the same total order at every
  member, and the checkers pass.
* Asymmetric groups reach stability (the sequencer's aggregated ``ldn``
  no longer has an entry for the sequencer itself, which pinned it at 0):
  ``churn60`` and ``formation_crash_during_vote`` (symmetric only) and the
  four other journey runs stayed byte-identical.  ``kv_failover_asymmetric``
  moved with its clock-free skeleton equal: its members stop owing a null
  every ω once their writes are stable, so ``null_send`` 84 -> 78, messages
  214 -> 199 and events 196 -> 190, the other kinds unchanged; journeys 96
  -> 90 at rate 1 and 0 -> 1 at 1-in-64 (ids renumbered).
  ``flow_control_window_one`` (journeys only) moved because its asymmetric
  window now reopens: the parent delivered 9 of 36 in ``asym`` and left
  three sends deferred at each of P2, P3 and P4 for good; now all 36 are
  delivered (sends 15 -> 24, ``unblocked_send`` 9 -> 18, ``null_send`` 98
  -> 100, messages 265 -> 286, journeys 86 -> 103), ``sym`` unchanged.
  ``partition_three_three`` (journeys only) moved: ``null_send`` 283 ->
  276, messages 1,372 -> 1,353, journeys 335 -> 328, the other kinds
  unchanged.
* A suspicion carries its sender's null (a symmetric group's suspect and
  confirm messages carry the null the agreement needs, instead of a null
  multicast of its own): ``kv_failover_asymmetric``,
  ``formation_crash_during_vote`` (its agreement runs in the formation
  wait) and ``flow_control_window_one`` stayed byte-identical.  A carried
  null is a journey of its own (created under the frame's cause, received
  or wire-dropped with the frame), so ``brief_mute_three_groups`` (331 ->
  351 journeys) and ``mute_then_resume`` (165 -> 178) moved with the same
  events and messages as before.  ``partition_three_three`` (journeys
  only): ``null_send`` 276 -> 267, messages 1,353 -> 1,321, journeys 328 ->
  360, the other kinds unchanged.  ``flapping_link`` (journeys only):
  ``null_send`` 50 -> 55 and messages 5,363 -> 5,383, the other kinds
  unchanged -- the carried nulls renumber the run, and its last
  application message is still undelivered when the closing round of
  nulls goes out at 125.0, so it is acknowledged by one more round at
  126.5.  ``churn60`` moved with **both skeletons different** (accepted):
  events 1,418 -> 1,343, ``null_send`` 856 -> 781, messages 4,222 -> 3,984
  (null frames 2,105 -> 1,920, beacons 1,518 -> 1,465), 56 nulls carried,
  every other kind's count unchanged.  The difference is again the formed
  group ``fg00``'s concurrent round-1 sends at 16.0: with other latency
  draws before them, the round-0 sends go out at 14.25 instead of 13.75,
  and ``P001``'s and ``P002``'s round-1 sends are now both numbered 16
  (the commit before: 16 and 15), so the tie goes to ``P001`` at every
  member, as it did two commits back.  The same total order at every
  member; the checkers pass.
* One nearest-rank percentile (``repro.stats.percentile`` takes
  ``ceil(q * n / 100)``, as its docstring always said, where it rounded):
  the trace digests and all three clocked skeletons stayed byte-identical;
  26 of the 32 journey documents moved, and a leaf-by-leaf diff of all 32
  finds 90 differing fields, every one a ``p50`` (20), ``p90`` (46) or
  ``p99`` (24) of a journey block's wait-state summaries.
"""

import argparse
import functools
import hashlib
import json
import os
import subprocess
import sys

import pytest

from repro.api import Session
from repro.apps.kv import ShardedKV
from repro.core.config import OrderingMode
from repro.core.messages import reset_message_counter
from repro.net.trace import JsonlSink
from repro.scenarios import (
    SCENARIO_PROTOCOL_DEFAULTS as FAST,
    ScenarioEngine,
    churn_scenario,
    from_config,
)

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
GOLDEN_TRACE_DIGESTS = os.path.join(GOLDEN, "trace_digests.json")
GOLDEN_JOURNEY_DIGESTS = os.path.join(GOLDEN, "journey_digests.json")


class _Hashing:
    """The file a :class:`JsonlSink` writes into, kept as a digest."""

    def __init__(self):
        self.sha256 = hashlib.sha256()

    def write(self, text):
        self.sha256.update(text.encode("utf-8"))

    def flush(self):
        pass


def _digest(session):
    assert session.result().passed
    target = _Hashing()
    sink = JsonlSink(target)
    for event in session.trace():
        sink.on_event(event)
    return {"events": sink.events_written, "sha256": target.sha256.hexdigest()}


def _churn60(**options):
    """The 60-process churn run ``test_hot_path_equivalence.py`` twins."""
    engine = ScenarioEngine(
        from_config(
            churn_scenario(
                n_processes=60, n_groups=6, group_size=8, crashes=2, leaves=2,
                formations=1, messages_per_sender=2, seed=11,
            )
        ),
        **options,
    )
    assert engine.run().passed
    return engine.session


def _kv_failover(**options):
    """Three asymmetric shards; the sequencer of one crashes between writes."""
    layout = {f"s{s}": [f"s{s}r{r}" for r in range(3)] for s in range(3)}
    session = Session("newtop", config=FAST, seed=5, **options)
    session.spawn([pid for members in layout.values() for pid in members])
    store = ShardedKV(session, mode=OrderingMode.ASYMMETRIC)
    store.bootstrap(layout)
    session.run(1.0)

    def write_round(tag):
        acks = []
        for index in range(6):
            key = f"key{index}"
            outcome = store.submit(
                client="c1", client_op=f"{tag}{index}", op="set", key=key, value=tag,
                via=store.alive_members(store.ring.lookup(key))[0],
                ring=store.ring, callback=acks.append,
            )
            assert outcome["status"] == "submitted"
        assert session.run_until(lambda: len(acks) == 6, timeout=60)
        assert all(ack["status"] == "applied" for ack in acks)

    write_round("before")
    session.crash(min(layout[store.ring.lookup("key0")]))  # smallest id: the sequencer
    session.run(15.0)
    write_round("after")
    session.run(10.0)
    assert all(store.converged(shard_id) for shard_id in layout)
    return session


def _formation_crash(**options):
    """§5.3 formation of a five-member group; one invitee crashes while
    the votes are in flight, the rest carry traffic in what forms."""
    members = ["P1", "P2", "P3", "P4", "P5"]
    session = Session("newtop", config=FAST, seed=8, **options)
    session.spawn(members)
    session.group("old", ["P1", "P2", "P3"])
    session.form_group("new", members)
    session.run(1.2)
    session.crash("P4")
    session.run(60.0)
    for sender in ("P1", "P2", "P5"):
        for group in session[sender].groups:
            session.multicast(sender, group, f"{sender}/{group}")
    session.run(30.0)
    return session


RUNS = {
    "churn60": _churn60,
    "kv_failover_asymmetric": _kv_failover,
    "formation_crash_during_vote": _formation_crash,
}


def _fresh(name):
    reset_message_counter()  # message ids are numbered process-wide
    return _digest(RUNS[name]())


@pytest.mark.parametrize("name", sorted(RUNS))
def test_golden_trace_digest(name):
    with open(GOLDEN_TRACE_DIGESTS, encoding="utf-8") as handle:
        golden = json.load(handle)
    assert _fresh(name) == golden[name]


# ----------------------------------------------------------------------
# Journeys: five more runs, for the transitions the three above never make
# ----------------------------------------------------------------------
OMEGA_BIG = FAST["suspicion_timeout"]


def _load(session, groups, rounds, gap, tag):
    """``rounds`` rounds of one multicast per current member per group."""
    for index in range(rounds):
        for group, members in groups.items():
            for sender in members:
                if session[sender].is_member(group):
                    session.multicast(sender, group, f"{tag}{index}/{sender}")
        session.run(gap)


def _flow_window(**options):
    """``flow_control_window=1`` in a symmetric and an asymmetric group:
    sends queue behind the window and are ``unblocked`` later."""
    config = dict(FAST, flow_control_window=1)
    session = Session("newtop", config=config, seed=3, **options)
    session.spawn(["P1", "P2", "P3", "P4"])
    session.group("sym", ["P1", "P2", "P3"])
    session.group("asym", ["P2", "P3", "P4"], mode=OrderingMode.ASYMMETRIC)
    groups = {"sym": ["P1", "P2", "P3"], "asym": ["P2", "P3", "P4"]}
    _load(session, groups, 4, 0.5, "w")
    session.run(40.0)
    return session


def _partition(**options):
    """Six processes split three and three under load: drops at send
    (``partition``) and on arrival (``partition_in_flight``), then each
    side's step (viii) discards what it holds of the other's."""
    names = [f"P{index}" for index in range(1, 7)]
    session = Session("newtop", config=FAST, seed=4, **options)
    session.spawn(names)
    session.group("g", names)
    session.group("h", names[1:5], mode=OrderingMode.ASYMMETRIC)
    groups = {"g": names, "h": names[1:5]}
    session.run(1.0)
    _load(session, groups, 4, 0.2, "pre")
    session.partition([names[:3], names[3:]])
    _load(session, groups, 6, 0.5, "split")
    session.run(40.0)
    _load(session, groups, 2, 0.5, "post")
    session.run(20.0)
    return session


def _flapping_link(**options):
    """One directed link lost for Ω + k/4, twelve times, under load: the
    far end suspects, the others refute, and what arrived in between was
    ``held`` and is ``released`` (and, at rate 1, the tracker overflows)."""
    names = ["P1", "P2", "P3", "P4", "P5"]
    session = Session("newtop", config=FAST, seed=6, **options)
    session.spawn(names)
    session.group("g", names)
    session.run(1.0)
    for flap in range(12):
        outage = OMEGA_BIG + flap * 0.25
        session.network.drop_between({"P1"}, {"P2"}, outage)
        _load(session, {"g": names}, int(outage / 0.5) + 6, 0.5, f"f{flap}-")
    session.run(30.0)
    return session


def _mute_then_resume(**options):
    """One member's outbound traffic is lost until just after the others
    excluded it and just before it excludes them: what it sends in between
    is discarded as an ``excluded_sender``'s."""
    names = ["P1", "P2", "P3", "P4", "P5"]
    session = Session("newtop", config=FAST, seed=7, **options)
    session.spawn(names)
    session.group("g", names)
    session.run(1.0)
    _load(session, {"g": names}, 2, 0.5, "a")
    session.network.drop_between({"P3"}, set(names) - {"P3"}, 8.8)
    _load(session, {"g": names}, 30, 1.0, "m")
    session.run(30.0)
    return session


def _brief_mute(**options):
    """Three overlapping four-member groups; the member two of them share
    falls silent for a little over Ω and then speaks while suspected:
    ``held``, and discarded at confirmation (``confirmed_suspect``)."""
    names = [f"P{index}" for index in range(1, 10)]
    groups = {"g1": names[0:4], "g2": names[3:7], "g3": names[5:9]}
    session = Session("newtop", config=FAST, seed=8, **options)
    session.spawn(names)
    for group, members in groups.items():
        session.group(group, members)
    session.run(1.0)
    _load(session, groups, 2, 0.5, "a")
    session.network.drop_between({"P4"}, set(names) - {"P4"}, OMEGA_BIG + 0.6)
    _load(session, groups, 24, 0.5, "b")
    session.run(30.0)
    return session


JOURNEY_RUNS = dict(
    RUNS,
    flow_control_window_one=_flow_window,
    partition_three_three=_partition,
    flapping_link=_flapping_link,
    mute_then_resume=_mute_then_resume,
    brief_mute_three_groups=_brief_mute,
)
JOURNEY_VARIANTS = [
    (analysis, rate) for analysis in ("offline", "online") for rate in (1, 64)
]
#: What the eight runs produce between them at rate 1: every state, and
#: every reason a hold, a discard or a wire drop can carry except the two
#: no session-level fault makes (a crashed sender's own sends, which the
#: crashed process never attempts, and a link-fault model's drops, which
#: ``tests/test_link_faults.py`` covers).
EVERY_TRANSITION = {
    "created", "unblocked", "sent_to_sequencer", "sequenced", "received",
    "held", "released", "delivered",
    "discarded:excluded_sender", "discarded:step_viii",
    "discarded:confirmed_suspect",
    "wire_dropped:receiver_crashed", "wire_dropped:partition",
    "wire_dropped:partition_in_flight", "wire_dropped:filter",
}


@functools.lru_cache(maxsize=None)
def _fresh_journeys(name, analysis, rate):
    """Digest of the run's journeys, and the transitions seen in them."""
    reset_message_counter()
    session = JOURNEY_RUNS[name](
        analysis=analysis,
        observe={"journeys": True, "journey_sample_rate": rate},
    )
    assert not session.recorder.sink_errors
    tracker = session.observation.journeys
    journeys = [journey.as_dict() for journey in tracker._journeys.values()]
    document = {"block": tracker.snapshot(), "journeys": journeys}
    seen = set()
    for journey in journeys:
        for state, _time, _process, detail in journey["transitions"]:
            reasoned = state in ("discarded", "wire_dropped")
            seen.add(f"{state}:{detail}" if reasoned else state)
    digest = {
        "journeys": len(journeys),
        "overflow": document["block"]["overflow"],
        "sha256": hashlib.sha256(
            json.dumps(document, sort_keys=True).encode("utf-8")
        ).hexdigest(),
    }
    return digest, frozenset(seen)


@pytest.mark.parametrize("name", sorted(JOURNEY_RUNS))
@pytest.mark.parametrize("analysis,rate", JOURNEY_VARIANTS)
def test_golden_journey_digest(name, analysis, rate):
    with open(GOLDEN_JOURNEY_DIGESTS, encoding="utf-8") as handle:
        golden = json.load(handle)
    assert _fresh_journeys(name, analysis, rate)[0] == golden[name][f"{analysis}/{rate}"]


def test_golden_journey_runs_make_every_transition():
    seen = set()
    for name in JOURNEY_RUNS:
        seen |= _fresh_journeys(name, "offline", 1)[1]
    assert seen == EVERY_TRANSITION


#: What the protocol decided, as opposed to when the network got it there.
SKELETON_KINDS = ("send", "deliver", "suspect", "view_install")
#: Event details that are Lamport numbers.
CLOCK_DETAILS = ("last_number",)


def _skeletons():
    """name -> two skeletons of the run, each without times and without
    the process-wide counter in message ids:

    * ``clocked``: process -> its ``SKELETON_KINDS`` events in order;
    * ``clock_free``: process -> ``group@view`` -> the same events of that
      view, without their Lamport numbers -- what a change that removes
      numbered messages (and so renumbers every later one) must keep.
    """
    skeletons = {}
    for name in sorted(RUNS):
        reset_message_counter()
        session = RUNS[name]()
        clocked, clock_free, views = {}, {}, {}
        for event in session.trace():
            if event.kind not in SKELETON_KINDS:
                continue
            sender = (event.message_id or "").split("#")[0]
            clocked.setdefault(event.process, []).append([
                event.kind, event.group, sender,
                event.sender, event.clock, repr(event.details),
            ])
            details = dict(event.details)
            if event.kind == "view_install":
                views[(event.process, event.group)] = details["index"]
            view = details.get("view_index", views.get((event.process, event.group)))
            clock_free.setdefault(event.process, {}).setdefault(
                f"{event.group}@{view}", []
            ).append([
                event.kind, sender, event.sender,
                repr(sorted(
                    (key, value) for key, value in details.items()
                    if key not in CLOCK_DETAILS
                )),
            ])
        skeletons[name] = {"clocked": clocked, "clock_free": clock_free}
    return skeletons


def _skeleton_verdicts(parent_src):
    """Run name -> which of its skeletons under ``parent_src`` equal ours:
    ``"clocked"`` (both do), ``"clock_free"`` (only the clock-free one) or
    ``None`` (neither)."""
    env = dict(os.environ, PYTHONPATH=parent_src)
    parent = json.loads(
        subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--skeletons"],
            env=env, check=True, capture_output=True, text=True,
        ).stdout
    )
    ours = json.loads(json.dumps(_skeletons()))
    return {
        name: next(
            (
                form for form in ("clocked", "clock_free")
                if ours[name][form] == parent[name][form]
            ),
            None,
        )
        for name in sorted(RUNS)
    }


def _write(path, document):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1)
        handle.write("\n")


_VERDICTS = {
    "clocked": "clocked skeleton equal",
    "clock_free": "clock-free per-(group, view) skeleton equal",
    None: "both skeletons differ",
}


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Regenerate the golden digests.")
    parser.add_argument("--skeletons", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument(
        "--against", metavar="PARENT_SRC",
        help="first compare the runs' protocol skeletons with PARENT_SRC's",
    )
    parser.add_argument(
        "--accept", metavar="RUN", action="append", default=[],
        help="write even though both of RUN's skeletons differ (say why in "
        "the regeneration notes)",
    )
    args = parser.parse_args()
    if args.skeletons:
        print(json.dumps(_skeletons()))
        sys.exit(0)
    if args.against:
        verdicts = _skeleton_verdicts(args.against)
        for name, verdict in verdicts.items():
            accepted = " (accepted)" if verdict is None and name in args.accept else ""
            print(f"{name}: {_VERDICTS[verdict]}{accepted}")
        moved = [
            name for name, verdict in verdicts.items()
            if verdict is None and name not in args.accept
        ]
        if moved:
            sys.exit(f"protocol skeletons differ from {args.against}: {moved}")
    fresh = {name: _fresh(name) for name in sorted(RUNS)}
    _write(GOLDEN_TRACE_DIGESTS, fresh)
    for name, entry in fresh.items():
        print(f"{name}: {entry['events']} events, {entry['sha256']}")
    fresh = {
        name: {
            f"{analysis}/{rate}": _fresh_journeys(name, analysis, rate)[0]
            for analysis, rate in JOURNEY_VARIANTS
        }
        for name in sorted(JOURNEY_RUNS)
    }
    _write(GOLDEN_JOURNEY_DIGESTS, fresh)
    for name, variants in fresh.items():
        for variant, entry in variants.items():
            print(f"{name} {variant}: {entry['journeys']} journeys, {entry['sha256']}")
