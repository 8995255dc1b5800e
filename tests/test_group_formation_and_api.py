"""Integration tests for dynamic group formation (§5.3) and the public
process API (error handling, crash semantics, session helpers)."""

import pytest

from repro.analysis import check_all
from repro.api import Session
from repro.core import (
    AlreadyMemberError,
    NewtopConfig,
    NewtopProcess,
    NotAMemberError,
    OrderingMode,
    ProcessCrashedError,
)
from repro.core.group_formation import FormationStatus
from repro.net.trace import GROUP_FORMED

FAST = dict(omega=1.5, suspicion_timeout=6.0, suspector_check_interval=0.5)


def _session(names, seed=1, **overrides):
    config = NewtopConfig(**FAST).replace(**overrides)
    session = Session("newtop", config=config, seed=seed)
    session.spawn(names)
    return session


# ----------------------------------------------------------------------
# Group formation
# ----------------------------------------------------------------------
def test_group_formation_reaches_all_members():
    session = _session(["P1", "P2", "P3"], seed=2)
    handle = session["P1"].form_group("gn", ["P1", "P2", "P3"])
    assert session.run_until(lambda: handle.formed, timeout=60)
    assert session.run_until(
        lambda: all(session[p].is_member("gn") for p in ("P1", "P2", "P3")), timeout=60
    )
    assert session.run_until(
        lambda: all(
            not session[p].endpoint("gn").in_formation_wait for p in ("P1", "P2", "P3")
        ),
        timeout=60,
    )
    assert session.trace().events(kind=GROUP_FORMED)


def test_formed_group_carries_ordered_traffic():
    session = _session(["P1", "P2", "P3"], seed=3)
    handle = session["P2"].form_group("gn", ["P1", "P2", "P3"])
    session.run_until(lambda: handle.formed, timeout=60)
    session.run(20)
    for i in range(3):
        session["P1"].multicast("gn", f"x{i}")
        session["P3"].multicast("gn", f"y{i}")
    session.run(80)
    orders = [tuple(session[p].delivered_payloads("gn")) for p in ("P1", "P2", "P3")]
    assert len(set(orders)) == 1
    assert len(orders[0]) == 6
    assert check_all(session.trace()).passed


def test_formation_alongside_existing_group_keeps_cross_group_order():
    # The migration pattern: members of g1 form g2 while g1 keeps carrying
    # traffic; messages of both groups stay totally ordered at the common
    # members.
    session = _session(["P1", "P2", "P3"], seed=4)
    session.group("g1", ["P1", "P2"])
    session["P1"].multicast("g1", "pre-formation")
    session.run(10)
    handle = session["P3"].form_group("g2", ["P1", "P2", "P3"])
    session.run_until(lambda: handle.formed, timeout=60)
    session.run(20)
    session["P1"].multicast("g1", "during")
    session["P3"].multicast("g2", "new-group")
    session.run(80)
    assert "pre-formation" in session["P2"].delivered_payloads("g1")
    assert "new-group" in session["P1"].delivered_payloads("g2")
    assert check_all(session.trace()).passed


def test_formation_vetoed_by_policy():
    config = NewtopConfig(**FAST)
    session = Session("newtop", config=config, seed=5)
    session.spawn("P1")
    # The one process option a session does not spawn with: a vote policy
    # that declines every invitation.
    NewtopProcess(
        "P2-veto",
        session.sim,
        session.transport,
        recorder=session.recorder,
        config=config,
        formation_vote_policy=lambda group, members: False,
    )
    handle = session["P1"].form_group("gn", ["P1", "P2-veto"])
    session.run(config.formation_timeout + 20)
    assert not handle.formed
    assert not session["P1"].is_member("gn")


def test_formation_timeout_without_responses():
    config = NewtopConfig(**FAST, formation_timeout=10.0)
    session = Session("newtop", config=config, seed=6)
    session.spawn(["P1"])
    # P9 does not exist, so no vote ever arrives and the attempt fails.
    handle = session["P1"].form_group("gn", ["P1", "P9"])
    session.run(40)
    assert handle.status in (FormationStatus.VOTING, FormationStatus.FAILED)
    assert not session["P1"].is_member("gn")


def test_formation_start_number_raises_clock():
    session = _session(["P1", "P2"], seed=7)
    session.group("busy", ["P1", "P2"])
    for i in range(10):
        session["P1"].multicast("busy", i)
    session.run(40)
    clock_before = session["P2"].clock.value
    handle = session["P1"].form_group("gn", ["P1", "P2"])
    session.run_until(lambda: handle.formed, timeout=60)
    session.run(30)
    floor = session["P2"].endpoint("gn").engine.d_floor
    assert floor >= 1
    assert session["P2"].clock.value >= clock_before


# ----------------------------------------------------------------------
# Public API error handling
# ----------------------------------------------------------------------
def test_multicast_requires_membership():
    session = _session(["P1", "P2"])
    session.group("g", ["P1", "P2"])
    with pytest.raises(NotAMemberError):
        session["P1"].multicast("nope", "x")


def test_create_group_twice_rejected():
    session = _session(["P1", "P2"])
    session.group("g")
    with pytest.raises(AlreadyMemberError):
        session["P1"].create_group("g", ["P1", "P2"])


def test_create_group_requires_self_membership():
    session = _session(["P1", "P2"])
    with pytest.raises(NotAMemberError):
        session["P1"].create_group("other", ["P2"])


def test_crashed_process_rejects_operations():
    session = _session(["P1", "P2"])
    session.group("g")
    session.crash("P1")
    with pytest.raises(ProcessCrashedError):
        session["P1"].multicast("g", "x")
    # Crash is idempotent.
    session["P1"].crash()
    assert session["P1"].crashed


def test_groups_property_and_views():
    session = _session(["P1", "P2", "P3"])
    session.group("g1", ["P1", "P2"])
    session.group("g2", ["P1", "P2", "P3"])
    assert session["P1"].groups == ["g1", "g2"]
    assert session["P3"].groups == ["g2"]
    assert session["P1"].view("g1").sorted_members() == ("P1", "P2")
    assert session["P3"].is_member("g2")
    assert not session["P3"].is_member("g1")


def test_delivery_callbacks_receive_all_fields():
    session = _session(["P1", "P2"])
    session.group("g")
    seen = []
    session["P2"].add_delivery_callback(
        lambda group, sender, payload, msg_id: seen.append((group, sender, payload, msg_id))
    )
    message_id = session["P1"].multicast("g", {"k": 1})
    session.run_until_delivered(message_id, timeout=60)
    assert seen and seen[0][0] == "g" and seen[0][1] == "P1"
    assert seen[0][2] == {"k": 1} and seen[0][3] == message_id


def test_cluster_helpers():
    """Session introspection: process ids, the process map, crash state."""
    session = _session(["P1", "P2", "P3"])
    session.group("g")
    assert session.stack.process_ids() == ["P1", "P2", "P3"]
    assert len(session.processes) == 3
    assert all(session.stack.is_member(name, "g") for name in session.processes)
    session.crash("P3")
    assert session.stack.is_crashed("P3") and session["P3"].crashed
    assert not any(session.stack.is_crashed(name) for name in ("P1", "P2"))
    session.run(1.0)
    assert session.sim.now >= 1.0


def test_flow_control_window_defers_but_delivers_everything():
    session = _session(["P1", "P2", "P3"], seed=9, flow_control_window=2)
    session.group("g")
    for i in range(8):
        session["P1"].multicast("g", f"m{i}")
    session.run(200)
    for process in session.processes.values():
        assert process.delivered_payloads("g") == [f"m{i}" for i in range(8)]
    assert check_all(session.trace()).passed
