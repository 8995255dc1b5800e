"""Golden counter totals: every registry counter of two seeded observed runs.

``tests/golden/counter_totals.json`` holds ``registry.read_counters()`` at
the end of each run below, the simulator's, transport's, suspector's,
time-silence's, heartbeat's, endpoint's, journey tracker's and trace
recorder's counts side by side.  A change to *how* a count reaches the
registry must leave the file byte-identical; a protocol change that sends,
times or suspects anything differently moves it -- then regenerate with
``PYTHONPATH=src python tests/test_counter_totals.py`` and say so.

The two runs between them make every counter count:

* ``churn`` -- a small ``churn_scenario`` (crashes, leaves, one formed
  group): concurrences, watch-all entries, re-sent and carried nulls;
* ``asymmetric_failover`` -- an asymmetric group whose sequencer crashes,
  beside a symmetric group whose member's outbound traffic is lost until
  the others exclude it, so that it is forced to suspect them in turn
  (rule (vii)) before it crashes; journeys sampled 1-in-2 with a small
  ``max_tracked``, so that some are skipped and some overflow.
"""

import functools
import json
import os
import sys

import pytest

from repro.api import Session
from repro.core.config import OrderingMode
from repro.core.messages import reset_message_counter
from repro.scenarios import (
    SCENARIO_PROTOCOL_DEFAULTS as FAST,
    churn_scenario,
    run_scenario,
)

GOLDEN_COUNTER_TOTALS = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "golden", "counter_totals.json"
)


def _churn():
    result = run_scenario(
        churn_scenario(n_processes=40, n_groups=4, group_size=8, formations=1, seed=3),
        analysis="online",
        observe="metrics",
    )
    assert result.passed
    return result.obs["metrics"]["counters"]


def _asymmetric_failover():
    names = ["P1", "P2", "P3", "P4", "P5"]
    session = Session(
        "newtop", config=FAST, seed=9, analysis="online",
        observe={"journeys": True, "journey_sample_rate": 2},
    )
    session.observation.journeys.max_tracked = 24
    session.spawn(names)
    session.group("a", names[:4], mode=OrderingMode.ASYMMETRIC)  # P1 sequences
    session.group("g", names[1:])
    session.run(1.0)
    for index in range(3):
        for sender in names[:4]:
            session.multicast(sender, "a", f"a{index}/{sender}")
        session.run(0.5)
    session.crash("P1")
    session.network.drop_between({"P5"}, {"P2", "P3", "P4"}, 8.8)
    session.sim.schedule(15.0, session.crash, "P5")
    for index in range(6):
        for sender in names[1:4]:
            session.multicast(sender, "a", f"b{index}/{sender}")
            session.multicast(sender, "g", f"c{index}/{sender}")
        session.run(1.0)
    session.run(60.0)
    assert session.result().passed
    return session.observation.registry.read_counters()


RUNS = {"churn": _churn, "asymmetric_failover": _asymmetric_failover}

#: The counters each run leaves at 0 (the other run makes each count).
ZERO_IN = {
    "churn": {"suspector.forced_suspicions"},
    "asymmetric_failover": {"suspector.concurrences", "time_silence.nulls_resent"},
}


@functools.lru_cache(maxsize=None)
def _fresh(name):
    reset_message_counter()  # message ids are numbered process-wide
    return dict(sorted(RUNS[name]().items()))


def _render(totals):
    return json.dumps(totals, indent=1, sort_keys=True) + "\n"


@pytest.mark.parametrize("name", sorted(RUNS))
def test_counter_totals_match_golden(name):
    with open(GOLDEN_COUNTER_TOTALS, encoding="utf-8") as handle:
        golden = json.load(handle)
    totals = _fresh(name)
    assert totals == golden[name]
    assert {counter for counter, value in totals.items() if value == 0} == ZERO_IN[name]


def test_counter_totals_golden_is_byte_identical():
    with open(GOLDEN_COUNTER_TOTALS, encoding="utf-8") as handle:
        text = handle.read()
    assert text == _render({name: _fresh(name) for name in sorted(RUNS)})


if __name__ == "__main__":
    with open(GOLDEN_COUNTER_TOTALS, "w", encoding="utf-8") as handle:
        handle.write(_render({name: _fresh(name) for name in sorted(RUNS)}))
    sys.stdout.write(f"wrote {GOLDEN_COUNTER_TOTALS}\n")
