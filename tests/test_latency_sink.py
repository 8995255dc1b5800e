"""The run's one latency sink, against the post-hoc reference and a golden file.

:meth:`~repro.net.trace.EventTrace.delivery_latencies` pairs deliveries
with first sends over a stored trace and is the reference: on two seeded
offline runs the session's ``MetricsSink`` must agree with a fold of it
on count, min and max, and on the mean to 1e-12 (a running mean against a
sum).  ``churn`` is ``churn_scenario(n_processes=60, n_groups=6,
seed=5)``; in ``asymmetric_failover`` the sequencer multicasts too (its
own delivery is recorded before its send) and then crashes, so the
survivors re-send their unsequenced requests under the original ids.

``tests/golden/span_stages.json`` holds ``obs["spans"]["stages"]`` of the
seed-5 churn run, online, with ``observe={"spans": True, "sampler":
False}``, as the separate span sink computed them before the stages moved
into the latency sink.  A protocol change that times anything differently
moves it -- then regenerate with ``PYTHONPATH=src python
tests/test_latency_sink.py`` and say so.
"""

import json
import os
import sys

import pytest

from repro.api import Session
from repro.core.config import OrderingMode
from repro.core.messages import reset_message_counter
from repro.net.trace import DELIVER, SEND
from repro.scenarios import (
    SCENARIO_PROTOCOL_DEFAULTS as FAST,
    ScenarioEngine,
    churn_scenario,
    from_config,
    run_scenario,
)

GOLDEN_SPAN_STAGES = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "golden", "span_stages.json"
)

CHURN = churn_scenario(n_processes=60, n_groups=6, seed=5)


def _churn():
    engine = ScenarioEngine(from_config(CHURN))
    result = engine.run()
    assert result.latency_reservoir is engine.session.metrics_sink.latency
    return result, engine.session.trace()


def _asymmetric_failover():
    reset_message_counter()  # message ids are numbered process-wide
    names = ["P1", "P2", "P3", "P4"]
    session = Session("newtop", config=FAST, seed=9, observe={"sampler": False})
    session.spawn(names)
    session.group("a", names, mode=OrderingMode.ASYMMETRIC)  # P1 sequences
    session.run(1.0)
    for index in range(3):
        for sender in names:
            session.multicast(sender, "a", f"a{index}/{sender}")
        session.run(0.5)
    session.crash("P1")
    for index in range(4):
        for sender in names[1:]:
            session.multicast(sender, "a", f"b{index}/{sender}")
        session.run(0.25)
    session.run(60.0)
    result = session.result()
    counters = result.obs["metrics"]["counters"]
    assert counters["transport.sends_by_cause.failover_resend"] > 0
    return result, session.trace()


RUNS = {"churn": _churn, "asymmetric_failover": _asymmetric_failover}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_the_sink_agrees_with_the_trace_oracle(name):
    result, trace = RUNS[name]()
    assert result.passed and result.analysis == "offline"
    latencies = trace.delivery_latencies()
    assert latencies and len(latencies) == result.deliveries
    latency = result.metrics["latency"]
    assert latency["count"] == len(latencies)
    assert latency["mean"] == pytest.approx(sum(latencies) / len(latencies), rel=0, abs=1e-12)
    assert (latency["min"], latency["max"]) == (min(latencies), max(latencies))
    if name == "asymmetric_failover":
        # The case the sink must wait for: a delivery recorded before its send.
        first_send = {}
        for event in trace.events(kind=SEND):
            first_send.setdefault(event.message_id, event.seq)
        assert any(
            event.seq < first_send[event.message_id] for event in trace.events(kind=DELIVER)
        )


def _span_stages():
    result = run_scenario(CHURN, analysis="online", observe={"spans": True, "sampler": False})
    assert result.passed
    return result, result.obs["spans"]["stages"]


def test_span_stages_match_golden():
    with open(GOLDEN_SPAN_STAGES, encoding="utf-8") as handle:
        golden = json.load(handle)
    result, stages = _span_stages()
    assert list(stages) == ["transit", "ordering_wait", "latency", "spread"]
    assert stages == golden
    # One table, one reservoir: the latency stage is the metrics block's.
    metrics = result.metrics["latency"]
    assert stages["latency"] == {key: metrics[key] for key in stages["latency"]}


if __name__ == "__main__":
    with open(GOLDEN_SPAN_STAGES, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(_span_stages()[1], indent=1, sort_keys=True) + "\n")
    sys.stdout.write(f"wrote {GOLDEN_SPAN_STAGES}\n")
