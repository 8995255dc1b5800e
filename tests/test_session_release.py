"""A finished scenario frees itself.

Every session is a web of reference cycles while it runs: a process and
its heartbeat, a group endpoint and its time-silence and suspector
callbacks, every pending timer and the simulator that queues it.  The
runners that own their session and return only a result or a row
(:func:`repro.scenarios.run_scenario`, the sweep's
:func:`repro.experiments.sweep.run_cell`) end it with
:meth:`repro.api.Session.release`, which drops the pending events and cuts
the one link that closes each cycle.  So a dead session is freed by
reference counting at once, instead of waiting for a full collection of
the cycle collector with dozens of other dead sessions.

The guard: with the collector disabled, ``gc.collect()`` finds nothing
after a run, on every shape a campaign or a sweep runs.  A cut left out
leaves the whole session behind and fails it.  The observation is the
session's own: ``observe=`` refuses a caller-built ``Observation``, whose
registry would otherwise keep the finished run alive.
"""

import gc

import pytest

from repro.api import Session, available_stacks
from repro.obs import Observation
from repro.scenarios import churn_scenario, run_scenario, run_scenarios
from repro.scenarios.fuzz import run_fuzz_unit


def _garbage_after(run):
    """Cyclic garbage one call leaves, with the cycle collector off.  A
    first call loads whatever that shape imports lazily."""
    run()
    gc.collect()
    gc.disable()
    try:
        run()
        return gc.collect()
    finally:
        gc.enable()


def _symmetric():
    return churn_scenario(n_processes=12, n_groups=3, group_size=6, formations=1, seed=2)


def _asymmetric_sequencer_crash():
    config = churn_scenario(n_processes=10, n_groups=2, group_size=6, seed=5)
    for group in config["groups"]:
        group["mode"] = "asymmetric"
    sequencer = min(config["groups"][0]["members"])
    config["events"].append({"time": 7.0, "kind": "crash", "targets": [sequencer]})
    return config


def _churn():
    return churn_scenario(n_processes=12, n_groups=3, group_size=6, crashes=1, leaves=1, seed=3)


def _small(**extra):
    config = churn_scenario(n_processes=8, n_groups=2, group_size=4, seed=3)
    config.update(extra)
    return config


CASES = {
    "symmetric-offline": lambda: run_scenario(_symmetric()),
    "symmetric-online": lambda: run_scenario(_symmetric(), analysis="online"),
    "asymmetric-sequencer-crash-offline": lambda: run_scenario(
        _asymmetric_sequencer_crash()
    ),
    "asymmetric-sequencer-crash-online": lambda: run_scenario(
        _asymmetric_sequencer_crash(), analysis="online"
    ),
    "open-loop": lambda: run_scenario(
        _small(workload={"profile": "poisson", "rate": 1.5, "duration": 10.0}),
        analysis="online",
    ),
    "link-faults": lambda: run_scenario(
        _small(link_faults={"seed": 9, "reorder": 0.2, "duplicate": 0.1}),
        analysis="online",
    ),
    "observe-full": lambda: run_scenario(_symmetric(), analysis="online", observe="full"),
    "observe-metrics-dict": lambda: run_scenario(
        _churn(), analysis="online", observe={"sampler": False}
    ),
    "observe-journeys-dict": lambda: run_scenario(
        _churn(), analysis="online", observe={"sampler": False, "journeys": True}
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_a_finished_scenario_leaves_no_cyclic_garbage(case):
    assert _garbage_after(CASES[case]) == 0


@pytest.mark.parametrize("stack", available_stacks())
def test_a_finished_scenario_leaves_no_cyclic_garbage_on_any_stack(stack):
    def run():
        result = run_scenario(_small(), stack=stack, analysis="online", on_unsupported="skip")
        assert result.passed

    assert _garbage_after(run) == 0


def test_a_fuzz_corpus_slice_leaves_no_cyclic_garbage():
    """The first 40 specs of default-tuning corpus 2: every fault the
    generator composes, drop windows and asymmetric groups included."""

    def run():
        for index in range(40):
            run_fuzz_unit(2, index)

    assert _garbage_after(run) == 0


def test_a_finished_sweep_cell_leaves_no_cyclic_garbage():
    from repro.experiments import SweepSpec
    from repro.experiments.sweep import run_cell

    spec = SweepSpec(
        stacks=("newtop",), loads=(1.0,), faults=("crash",),
        processes=8, groups=2, group_size=4, duration=12.0, drain=20.0,
    )
    rows = []
    assert _garbage_after(
        lambda: rows.append(run_cell(spec, "newtop", "poisson", 1.0, "crash"))
    ) == 0
    assert rows[-1]["passed"]


def test_an_observation_instance_is_refused_everywhere():
    """The session is the one owner of its observation: each front door
    refuses a caller-built one and names what ``observe=`` takes."""
    accepted = "None, False, True, 'metrics', 'journeys', 'full' or a dict"
    with pytest.raises(ValueError, match=accepted):
        Session("newtop", observe=Observation())
    with pytest.raises(ValueError, match=accepted):
        run_scenario(_small(), observe=Observation())
    with pytest.raises(ValueError, match=accepted):
        run_scenarios([_small()], observe=Observation())


def test_what_a_result_reads_stays_readable_after_release():
    session = Session("newtop", seed=3, analysis="online")
    session.spawn(["P1", "P2", "P3"])
    session.group("g")
    session.multicast("P1", "g", "x")
    session.run(20)
    result = session.result()
    session.release()
    assert session.result() is result
    assert session.sim.pending_events == 0
    assert session.deliveries() == result.deliveries == 3
    assert session.network.stats.messages_sent == result.messages_sent
    assert sum(
        endpoint.stats.sent for endpoint in session.transport.endpoints()
    ) == result.messages_sent
    assert session.recorder.kind_counts()["deliver"] == 3
    assert session["P1"].delivered.count == 1
