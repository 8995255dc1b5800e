"""Golden trace digests: the full offline event stream of three seeded runs.

Each digest is the sha256 (and the event count) of the run's stored trace as
:class:`repro.net.trace.JsonlSink` writes it -- ``seq``, ``time``, ``kind``,
``process``, ``group``, ``message_id``, ``sender``, ``clock`` and ``details``
of every event, in recording order.  A refactor that moves nothing leaves
all three where they are; a *protocol* change that sends, numbers, times or
delivers anything differently moves them -- then, and only then, regenerate
with ``PYTHONPATH=src python tests/test_golden_traces.py`` and say so.
"""

import hashlib
import json
import os

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

GOLDEN_TRACE_DIGESTS = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "golden", "trace_digests.json"
)


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


def _churn60():
    """The 60-process churn run ``test_hot_path_equivalence.py`` twins."""
    engine = ScenarioEngine(
        from_config(
            churn_scenario(
                n_processes=60, n_groups=6, group_size=8, crashes=2, leaves=2,
                formations=1, messages_per_sender=2, seed=11,
            )
        )
    )
    assert engine.run().passed
    return engine.session


def _kv_failover():
    """Three asymmetric shards; the sequencer of one crashes between writes."""
    layout = {f"s{s}": [f"s{s}r{r}" for r in range(3)] for s in range(3)}
    session = Session("newtop", config=FAST, seed=5)
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


def _formation_crash():
    """§5.3 formation of a five-member group; one invitee crashes while
    the votes are in flight, the rest carry traffic in what forms."""
    members = ["P1", "P2", "P3", "P4", "P5"]
    session = Session("newtop", config=FAST, seed=8)
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


if __name__ == "__main__":
    fresh = {name: _fresh(name) for name in sorted(RUNS)}
    with open(GOLDEN_TRACE_DIGESTS, "w", encoding="utf-8") as handle:
        json.dump(fresh, handle, indent=1)
        handle.write("\n")
    for name, entry in fresh.items():
        print(f"{name}: {entry['events']} events, {entry['sha256']}")
