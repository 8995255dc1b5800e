"""Protocol regressions found by the scenario fuzzer.

Each entry below was a checker violation on an earlier build, found by a
fuzz campaign, shrunk, diagnosed and fixed:

* ``(7, 66)`` -- *mutual-suspicion deadlock*: two processes whose traffic
  relayed through a partitioned sequencer suspected each other at the
  same instant; each parked the other's suspect message behind its own
  pending suspicion, so neither learned it had to refute, and both
  vacuously confirmed total detections.  Fixed by letting a suspect
  message naming the *receiver* bypass the pending hold.
* ``(7, 15)`` -- *confirm dropped after a refutation race*: a survivor
  accepted a refutation moments before the peers' confirm arrived, then
  ignored the confirm because it no longer matched local suspicions --
  views split forever.  Fixed by rule (vi) finality: a peer's confirm is
  adopted unconditionally.
* ``(7, 54)`` -- *invisible member*: a process whose only traffic was
  unicasts to a dead sequencer reset its own time-silence timer on each
  send, so it never broadcast a liveness null; peers (rightly) heard
  nothing and removed it.  Fixed by making the timer measure silence as
  observed by *peers* -- unicast requests no longer reset it.
* ``(7, 103)`` -- *unsound failover discard cut*: survivors of a
  sequencer crash cut their streams at the naive lnmn although a peer had
  already delivered higher sequenced numbers; re-sequencing after later
  deliveries broke total order and causality.  Fixed by cutting at the
  agreed last-number of the dead sequencer.
* ``(7, 132)`` -- *membership gossip lost to a partition*: suspicions
  multicast during a partition window vanished both ways and were never
  re-sent, wedging failure agreement (and, through the shared clock,
  another group's view install).  Fixed by re-gossiping long-unresolved
  suspicions every suspicion timeout.
* ``(2026, 92)`` -- *send-blocking rule released at receipt*: a
  sequenced-but-undelivered copy of an own unicast released the Send
  Blocking Rule; a failure agreement then discarded that copy and
  re-sequenced it after causally-later sends in other groups had already
  delivered.  Fixed by releasing only at *delivery* of the own copy.
* ``(42, 44)`` -- *formation vote lost to a partition*: one member's
  ``yes`` vote was partitioned away, so a voter sat in VOTING until the
  timeout and missed the group everyone else activated.  Fixed by
  treating a received ``start-group`` message as proof of a unanimous
  vote.

* ``(7, 12)`` and ``(7, 50)`` under the ledger's ``fuzz_serial`` tuning --
  *a departure is silence in one group*: not violations but the two specs
  a scratch prototype stalled (deliveries 81 -> 61 at 836 -> 1,337
  messages; 596 -> 899 messages) by crediting every transport receipt
  from ``q`` to every group shared with ``q``: a member that had left
  ``g`` kept being heard in ``g`` through ``h`` and was never excluded.
  Liveness evidence names its groups (a beacon's ``groups``); the pair is
  pinned at the deliveries of the commit before and at most the messages
  of the commit that made nulls owed only for work not yet on the wire
  (836 -> 755 and 596 -> 528 then, deliveries unchanged).

The full generated corpus entries regenerate deterministically from
``(corpus_seed, index)`` under the default tuning, and the shrunk minimal
repros are pinned verbatim -- both must stay clean.

One shrunk repro is pinned the other way round, as a strict ``xfail``: an
asymmetric view-agreement violation after a single isolation, not fixed
yet (``KNOWN_FAILING_REPROS``).
"""

import pytest

from repro.scenarios import run_scenario
from repro.scenarios.fuzz import DEFAULT_EVENT_WEIGHTS, GeneratorTuning, run_fuzz_unit

#: ``(corpus_seed, index)`` of every fuzzer-found violation, regenerated in
#: full.  The default-tuning corpus is part of the regression surface: if
#: generator defaults change, these entries change meaning and the pinned
#: shrunk configs below carry the regression load alone.
FUZZER_FOUND = [
    pytest.param(7, 66, id="mutual-suspicion-deadlock"),
    pytest.param(7, 15, id="confirm-vs-refutation-race"),
    pytest.param(7, 54, id="unicast-only-sender-invisible"),
    pytest.param(7, 103, id="failover-discard-cut"),
    pytest.param(7, 132, id="suspicion-gossip-lost-to-partition"),
    pytest.param(2026, 92, id="blocking-rule-released-at-receipt"),
    pytest.param(42, 44, id="formation-vote-lost-to-partition"),
]


@pytest.mark.parametrize("corpus_seed, index", FUZZER_FOUND)
def test_fuzzer_found_corpus_entries_stay_clean(corpus_seed, index):
    row = run_fuzz_unit(corpus_seed, index)
    assert row["status"] != "violation", row["violations"]


#: The ledger's ``fuzz_serial`` tuning (``benchmarks/ledger/cases.py``).
LEDGER_TUNING = GeneratorTuning(
    event_weights=dict(DEFAULT_EVENT_WEIGHTS, drop=0.0),
    asymmetric_probability=0.0,
    open_loop_probability=0.0,
    load_phase_probability=0.0,
).to_config()


@pytest.mark.parametrize(
    "index, deliveries, messages_sent",
    [
        pytest.param(12, 81, 755, id="leave-one-of-three-overlapping-groups"),
        pytest.param(50, 59, 528, id="leave-one-of-two-overlapping-groups"),
    ],
)
def test_a_departure_is_silence_in_its_own_group(index, deliveries, messages_sent):
    # Deliveries pinned on the commit before beacons named their groups:
    # everything still delivered, in no more messages than pinned.
    row = run_fuzz_unit(7, index, tuning=LEDGER_TUNING)
    assert row["status"] == "pass", row["violations"]
    assert row["deliveries"] == deliveries
    assert row["messages_sent"] <= messages_sent


#: The shrunk minimal repros, pinned verbatim as the shrinker emitted them.
SHRUNK_REPROS = {
    "failover-discard-cut": {
        "schema": 1,
        "name": "fuzz-7-103",
        "seed": 1412644969,
        "processes": ["P001", "P002", "P004", "P006"],
        "groups": [
            {"id": "g00", "members": ["P004", "P002", "P006", "P001"],
             "mode": "asymmetric"},
            {"id": "g01", "members": ["P006", "P004", "P001"],
             "mode": "asymmetric"},
        ],
        "workload": {"gap": 1.76, "messages_per_sender": 4,
                     "senders_per_group": 2, "start": 1.0},
        "events": [
            {"time": 6.01, "kind": "crash", "targets": ["P006"]},
            {"time": 8.53, "kind": "partition", "components": [["P002", "P004"]]},
        ],
        "load_phases": [{"duration": 9.9, "profile": "uniform", "rate": 2.99,
                         "senders_per_group": 2, "start": 7.28}],
        "latency": {"model": "constant", "delay": 0.763},
        "drain": 40.0,
    },
    "suspicion-gossip-lost-to-partition": {
        "schema": 1,
        "name": "fuzz-7-132",
        "seed": 761779318,
        "processes": ["P001", "P002", "P004", "P005", "P006", "P007"],
        "groups": [
            {"id": "g00", "members": ["P001", "P007", "P006"],
             "mode": "asymmetric"},
            {"id": "g02", "members": ["P007", "P006", "P002", "P004", "P005"],
             "mode": "asymmetric"},
        ],
        "workload": {"messages_per_sender": 2, "senders_per_group": 2,
                     "gap": 2.17, "start": 1.0},
        "events": [
            {"time": 5.21, "kind": "crash", "targets": ["P006"]},
            {"time": 6.03, "kind": "crash", "targets": ["P002"]},
            {"time": 6.8, "kind": "partition", "components": [["P005"]]},
            {"time": 19.4, "kind": "heal"},
        ],
        "latency": {"model": "lognormal", "median": 1.014, "sigma": 0.2},
        "drain": 40.0,
    },
    "blocking-rule-released-at-receipt": {
        "schema": 1,
        "name": "fuzz-2026-92",
        "seed": 1274263422,
        "processes": ["P002", "P003", "P004", "P005", "P006", "P007"],
        "groups": [
            {"id": "g00", "members": ["P002", "P004", "P007", "P006", "P005"],
             "mode": "asymmetric"},
            {"id": "g01", "members": ["P006", "P005", "P003", "P007"],
             "mode": "asymmetric"},
            {"id": "g02", "members": ["P002", "P005", "P006"],
             "mode": "symmetric"},
        ],
        "workload": {"duration": 22.5, "profile": "bursty", "rate": 3.16,
                     "senders_per_group": 3, "start": 1.0},
        "events": [
            {"time": 6.31, "kind": "partition", "components": [["P002", "P005"]]},
            {"time": 7.19, "kind": "crash", "targets": ["P003", "P007"]},
        ],
        "latency": {"model": "uniform", "low": 0.382, "high": 1.125},
        "drain": 40.0,
    },
    "formation-vote-lost-to-partition": {
        "schema": 1,
        "name": "fuzz-42-44",
        "seed": 607975256,
        "processes": ["P002", "P003", "P004", "P005", "P006", "P007"],
        "groups": [
            {"id": "g00", "members": ["P003", "P006", "P007", "P004"],
             "mode": "asymmetric"},
        ],
        "workload": {"messages_per_sender": 3, "senders_per_group": 2,
                     "gap": 1.66, "start": 1.0},
        "events": [
            {"time": 4.86, "kind": "isolate", "targets": ["P003"]},
            {"time": 5.1, "kind": "form_group", "group": "fz0",
             "targets": ["P002", "P005", "P007"]},
            {"time": 6.99, "kind": "partition", "components": [["P004", "P005"]]},
        ],
        "link_faults": {"seed": 38616,
                        "links": [{"src": ["P004"], "dst": ["P005"],
                                   "duplicate": 0.076}]},
        "drain": 40.0,
    },
}


@pytest.mark.parametrize(
    "config", SHRUNK_REPROS.values(), ids=SHRUNK_REPROS.keys()
)
def test_shrunk_minimal_repros_stay_clean(config):
    result = run_scenario(config)
    assert result.passed, list(result.checks.violations)


#: Shrunk repros of violations that are not fixed yet, pinned so that a fix
#: shows up (the test then passes and, being strict, fails the suite until
#: the entry moves to ``SHRUNK_REPROS``) and so that nobody mistakes them
#: for a new regression.
KNOWN_FAILING_REPROS = {
    # Asymmetric view agreement after a single isolation (the class of
    # corpus 9 spec 128): "view sequences differ for g01: P007 =
    # [[P006, P007, P008], [P007, P008], [P007]] vs P008 = [[P006, P007,
    # P008], [P008]]", under PYTHONHASHSEED 0 and 1.  Shrunk from default-
    # tuning corpus 1 spec 266, which only started to fail once suspicions
    # carried their sender's null; this shrunk config fails on the commit
    # before that as well.
    "asymmetric-view-agreement-after-isolation": {
        "schema": 1,
        "name": "fuzz-1-266",
        "seed": 410241606,
        "processes": ["P003", "P004", "P006", "P007", "P008"],
        "groups": [
            {"id": "g00", "members": ["P004", "P006", "P008"],
             "mode": "asymmetric"},
            {"id": "g01", "members": ["P007", "P008", "P006"],
             "mode": "asymmetric"},
            {"id": "g02", "members": ["P008", "P007", "P003"],
             "mode": "symmetric"},
        ],
        "workload": {"duration": 23.4, "profile": "uniform", "rate": 2.34,
                     "senders_per_group": 3, "start": 1.0},
        "events": [{"time": 4.03, "kind": "isolate", "targets": ["P006"]}],
        "drain": 40.0,
    },
}


@pytest.mark.xfail(strict=True, reason="known asymmetric view-agreement violation")
@pytest.mark.parametrize(
    "config", KNOWN_FAILING_REPROS.values(), ids=KNOWN_FAILING_REPROS.keys()
)
def test_known_failing_shrunk_repros(config):
    result = run_scenario(config)
    assert result.passed, list(result.checks.violations)
