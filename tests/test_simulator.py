"""Unit tests for the discrete-event simulation kernel."""

import hashlib
import json
import os

import pytest

from repro.net.simulator import Simulator, SimulatorError


def test_initial_state():
    sim = Simulator(seed=42)
    assert sim.now == 0.0
    assert sim.pending_events == 0
    assert sim.events_processed == 0


def test_schedule_and_run_single_event():
    sim = Simulator()
    fired = []
    sim.schedule(5.0, fired.append, "a")
    sim.run()
    assert fired == ["a"]
    assert sim.now == 5.0


def test_events_fire_in_time_order():
    sim = Simulator()
    fired = []
    sim.schedule(3.0, fired.append, "late")
    sim.schedule(1.0, fired.append, "early")
    sim.schedule(2.0, fired.append, "middle")
    sim.run()
    assert fired == ["early", "middle", "late"]


def test_same_time_events_fire_in_scheduling_order():
    sim = Simulator()
    fired = []
    for label in ("first", "second", "third"):
        sim.schedule(1.0, fired.append, label)
    sim.run()
    assert fired == ["first", "second", "third"]


def test_same_instant_order_holds_across_every_way_of_scheduling():
    """One heap, one ``(time, sequence)`` key: 300 events of one instant,
    scheduled relatively, absolutely and from inside that instant, with a
    cancelled one between each pair, fire in scheduling order."""
    sim = Simulator()
    fired = []

    def inside(index):
        fired.append(index)
        if index < 100:
            sim.call_soon(fired.append, 200 + index)

    for index in range(100):
        sim.schedule(2.0, inside, index)
        sim.schedule(2.0, fired.append, "cancelled").cancel()
        sim.schedule_at(2.0, inside, 100 + index)
    sim.run()
    assert fired == (
        [index + offset for index in range(100) for offset in (0, 100)]
        + list(range(200, 300))
    )
    assert sim.now == 2.0 and sim.pending_events == 0


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulatorError):
        sim.schedule(-0.1, lambda: None)


def test_cancel_prevents_execution():
    sim = Simulator()
    fired = []
    handle = sim.schedule(1.0, fired.append, "cancelled")
    sim.schedule(2.0, fired.append, "kept")
    handle.cancel()
    sim.run()
    assert fired == ["kept"]
    assert handle.cancelled


def test_run_until_time_bound():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "a")
    sim.schedule(10.0, fired.append, "b")
    sim.run(until=5.0)
    assert fired == ["a"]
    assert sim.now == 5.0
    sim.run()
    assert fired == ["a", "b"]


def test_run_until_executes_events_at_exactly_until():
    sim = Simulator()
    fired = []
    sim.schedule_at(5.0, fired.append, "at")
    sim.schedule_at(5.0, lambda: sim.call_soon(fired.append, "chained at"))
    sim.schedule_at(5.000001, fired.append, "after")
    sim.run(until=5.0)
    assert fired == ["at", "chained at"]
    assert sim.now == 5.0 and sim.live_pending_events == 1


def test_run_max_events():
    sim = Simulator()
    fired = []
    for i in range(10):
        sim.schedule(float(i + 1), fired.append, i)
    sim.run(max_events=3)
    assert fired == [0, 1, 2]


def test_events_scheduled_during_execution():
    sim = Simulator()
    fired = []

    def chain(depth):
        fired.append(depth)
        if depth < 3:
            sim.schedule(1.0, chain, depth + 1)

    sim.schedule(1.0, chain, 0)
    sim.run()
    assert fired == [0, 1, 2, 3]
    assert sim.now == 4.0


def test_schedule_at_absolute_time():
    sim = Simulator()
    fired = []
    sim.schedule(2.0, lambda: sim.schedule_at(7.5, fired.append, "x"))
    sim.run()
    assert fired == ["x"]
    assert sim.now == 7.5


def test_call_soon_runs_after_current_event():
    sim = Simulator()
    order = []

    def outer():
        sim.call_soon(order.append, "soon")
        order.append("outer")

    sim.schedule(1.0, outer)
    sim.run()
    assert order == ["outer", "soon"]


def test_run_until_predicate():
    sim = Simulator()
    counter = []
    for i in range(10):
        sim.schedule(float(i + 1), counter.append, i)
    reached = sim.run_until(lambda: len(counter) >= 4, timeout=100.0)
    assert reached
    assert len(counter) == 4


def test_run_until_predicate_timeout():
    sim = Simulator()
    sim.schedule(100.0, lambda: None)
    reached = sim.run_until(lambda: False, timeout=5.0)
    assert not reached


def test_rng_is_deterministic_per_seed():
    first = Simulator(seed=7).rng.random()
    second = Simulator(seed=7).rng.random()
    other = Simulator(seed=8).rng.random()
    assert first == second
    assert first != other


def test_step_returns_false_when_empty():
    sim = Simulator()
    assert not sim.step()


def test_run_not_reentrant():
    sim = Simulator()
    errors = []

    def try_nested():
        try:
            sim.run()
        except SimulatorError as exc:
            errors.append(exc)

    sim.schedule(1.0, try_nested)
    sim.run()
    assert len(errors) == 1


# ---------------------------------------------------------------------------
# ISSUE 1 regressions: epsilon clamping, cancellation hygiene, compaction
# ---------------------------------------------------------------------------


def test_schedule_at_clamps_epsilon_negative_delay():
    """Float rounding of absolute times must not abort the run.

    ``schedule_at(t)`` computes ``t - now``; after many accumulated
    additions the difference for "now" can come out a tiny negative
    (e.g. -1e-16) and used to raise SimulatorError mid-run.
    """
    sim = Simulator()
    sim.schedule(0.1 + 0.2, lambda: None)  # now becomes 0.30000000000000004
    sim.run()
    fired = []
    # The absolute time 0.3 is epsilon below sim.now (0.30000000000000004).
    assert 0.3 < sim.now
    handle = sim.schedule_at(0.3, fired.append, "ok")
    assert handle.time == pytest.approx(sim.now)
    sim.run()
    assert fired == ["ok"]


def test_truly_negative_delay_still_rejected():
    sim = Simulator()
    with pytest.raises(SimulatorError):
        sim.schedule(-0.5, lambda: None)


def test_cancel_releases_callback_references():
    """A cancelled long-dated timer must not pin its closure until the
    original fire time."""
    import gc
    import weakref

    class Payload:
        pass

    sim = Simulator()
    payload = Payload()
    ref = weakref.ref(payload)
    handle = sim.schedule(1000.0, lambda p: None, payload)
    del payload
    gc.collect()
    assert ref() is not None  # pinned while scheduled
    handle.cancel()
    gc.collect()
    assert ref() is None  # released immediately on cancel
    sim.run()


def test_cancel_after_the_event_fired_is_inert():
    """The handle is the event record; once fired it holds nothing, and a
    late cancel() neither marks it cancelled nor moves a counter."""
    sim = Simulator()
    fired = []
    first = sim.schedule(1.0, fired.append, "first")
    sim.run()
    assert fired == ["first"]
    sim.schedule(1.0, fired.append, "second")
    first.cancel()
    assert not first.cancelled
    assert (sim.pending_events, sim.live_pending_events) == (1, 1)
    sim.run()
    assert fired == ["first", "second"]
    assert sim.compactions == 0


def test_cancel_is_idempotent_and_counts_stay_consistent():
    sim = Simulator()
    handle = sim.schedule(2.0, lambda: pytest.fail("cancelled timer fired"))
    other = sim.schedule(3.0, lambda: None)
    handle.cancel()
    handle.cancel()
    assert handle.cancelled and handle.time == 2.0
    assert (sim.pending_events, sim.live_pending_events) == (2, 1)
    sim.run()
    assert not other.cancelled
    assert (sim.pending_events, sim.live_pending_events) == (0, 0)


def test_drop_pending_leaves_every_handle_cancelled_and_every_count_as_it_was():
    """The end of a finished run: every queued handle is left as cancel()
    leaves it, the heap is empty, and no count moves."""
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "ran")
    sim.run(until=1.5)
    pending = [sim.schedule(delay, fired.append, delay) for delay in (1.0, 2.0, 3.0)]
    already = sim.schedule(4.0, fired.append, "cancelled before")
    already.cancel()
    counts = sim.counts()
    processed, cancelled = sim.events_processed, sim.events_cancelled
    sim.drop_pending()
    for handle in pending + [already]:
        assert handle.cancelled
        assert handle._callback is None and handle._args == ()
    assert (sim.pending_events, sim.live_pending_events) == (0, 0)
    assert sim.counts() == counts
    assert (sim.events_processed, sim.events_cancelled) == (processed, cancelled)
    pending[0].cancel()  # a dropped handle is inert
    assert sim.counts() == counts and sim.pending_events == 0
    sim.run(until=100.0)
    assert fired == ["ran"]
    assert sim.events_processed == processed


def test_rescheduling_a_long_dated_timer_keeps_the_heap_bounded():
    """What every protocol timer does: cancel the pending deadline, date a
    new one.  10,000 rounds against 50 standing events must compact, not
    grow."""
    sim = Simulator()
    for index in range(50):
        sim.schedule(5000.0 + index, lambda: None)
    fired = []
    handle = sim.schedule(1000.0, fired.append, 0)
    peak = 0
    for round_ in range(1, 10_001):
        handle.cancel()
        handle = sim.schedule(1000.0 + round_, fired.append, round_)
        peak = max(peak, sim.pending_events)
    assert sim.compactions > 0
    assert sim.live_pending_events == 51
    assert peak <= 2 * 51 + 64
    sim.run(until=20_000.0)
    assert fired == [10_000] and sim.events_processed == 51


def test_heap_compaction_keeps_cancelled_fraction_bounded():
    sim = Simulator()
    handles = [sim.schedule(10.0 + i, lambda: None) for i in range(500)]
    for handle in handles[:400]:
        handle.cancel()
    # More than half the heap was cancelled; compaction must have run.
    assert sim.compactions >= 1
    assert sim.live_pending_events == 100
    assert sim.pending_events <= 300
    sim.run()
    assert sim.events_processed == 100


# ---------------------------------------------------------------------------
# Golden firing order: the kernel has no twin, this run pins it instead
# ---------------------------------------------------------------------------

GOLDEN_FIRING_ORDER = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "golden", "firing_order_churn40.json"
)


class _RecordingSimulator(Simulator):
    """Notes ``(time, sequence, label)`` of every event as it fires."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.fired = []

    def _push(self, time, callback, args, label):
        sequence = self._next_sequence

        def fire(*fire_args):
            self.fired.append((time, sequence, label))
            callback(*fire_args)

        return super()._push(time, fire, args, label)


def _churn40_firing_order(monkeypatch):
    from repro.api import session as session_module
    from repro.scenarios import churn_scenario, run_scenario

    created = []

    def recording(*args, **kwargs):
        created.append(_RecordingSimulator(*args, **kwargs))
        return created[-1]

    monkeypatch.setattr(session_module, "Simulator", recording)
    result = run_scenario(
        churn_scenario(
            n_processes=40, n_groups=4, group_size=8, crashes=2, leaves=2,
            formations=1, messages_per_sender=2, seed=11,
        ),
        analysis="online",
    )
    assert result.passed
    (sim,) = created
    assert len(sim.fired) == result.events_processed
    digest = hashlib.sha256()
    for time, sequence, label in sim.fired:
        digest.update(f"{time!r} {sequence} {label}\n".encode())
    return {
        "events": len(sim.fired),
        "sha256": digest.hexdigest(),
        "head": [list(entry) for entry in sim.fired[:12]],
        "tail": [list(entry) for entry in sim.fired[-4:]],
    }


def test_golden_firing_order_of_a_seeded_churn_run(monkeypatch):
    """Every event of one seeded 40-process churn run, in firing order, as
    ``(time, scheduling sequence, label)``: a kernel edit that reorders,
    drops or re-dates anything changes the digest.  A *protocol* change that
    schedules differently changes it too -- then, and only then, regenerate
    with ``PYTHONPATH=src python tests/test_simulator.py``.  Last
    regenerated when suspect and confirm messages began to carry their
    sender's null, so the nulls an agreement needed stopped being multicast
    apart (3,075 -> 2,973 events)."""
    with open(GOLDEN_FIRING_ORDER, encoding="utf-8") as handle:
        golden = json.load(handle)
    assert _churn40_firing_order(monkeypatch) == golden


if __name__ == "__main__":
    with pytest.MonkeyPatch.context() as patch:
        fresh = _churn40_firing_order(patch)
    os.makedirs(os.path.dirname(GOLDEN_FIRING_ORDER), exist_ok=True)
    with open(GOLDEN_FIRING_ORDER, "w", encoding="utf-8") as handle:
        json.dump(fresh, handle, indent=1)
        handle.write("\n")
    print(f"wrote {GOLDEN_FIRING_ORDER}: {fresh['events']} events, {fresh['sha256']}")
