"""Tier-1 tests for :mod:`repro.parallel` and its integration points.

Three layers are pinned here:

* the executor itself -- pooled results equal inline results, a worker
  crash fails only its unit, timeouts interrupt runaway units, progress
  events stream;
* **seed-stable sharding** -- the ISSUE's determinism contract: a sweep
  grid and a scenario batch run serially and on a pool must produce
  identical per-cell metrics and checker verdicts (wall clock is the one
  legitimately nondeterministic field);
* the mergeable latency reservoirs that make sharded accounting exact.
"""

import copy
import hashlib
import os
import pickle
import random
import struct
import time

import pytest

from repro.experiments import SweepSpec, run_sweep
from repro.parallel import (
    STATUS_CRASHED,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_TIMEOUT,
    ParallelExecutor,
    WorkUnit,
    run_units,
)
from repro.scenarios import ScenarioExecutionError, churn_scenario, run_scenarios
from repro.workloads import LatencyReservoir


# ----------------------------------------------------------------------
# Unit functions must be module-level so workers can import them.
# ----------------------------------------------------------------------
def _square(value):
    return value * value


def _fail(value):
    raise RuntimeError(f"unit failed on {value}")


def _die(value):
    os._exit(13)


def _sleep(seconds):
    time.sleep(seconds)
    return seconds


def _log_and_return(value):
    from repro.parallel import worker_log

    worker_log(f"working on {value}")
    return value


# ----------------------------------------------------------------------
# Executor behaviour
# ----------------------------------------------------------------------
def test_pooled_results_match_inline_in_unit_order():
    units = [WorkUnit(f"u{index}", _square, (index,)) for index in range(12)]
    inline = run_units(units, parallel=1)
    pooled = run_units(units, parallel=3)
    assert [result.value for result in inline] == [index * index for index in range(12)]
    assert [result.value for result in pooled] == [result.value for result in inline]
    assert all(result.status == STATUS_OK for result in pooled)


def test_worker_crash_fails_only_its_unit():
    units = [
        WorkUnit("ok-1", _square, (3,)),
        WorkUnit("boom", _die, (0,)),
        WorkUnit("ok-2", _square, (4,)),
        WorkUnit("ok-3", _square, (5,)),
    ]
    results = ParallelExecutor(pool_size=2).run(units)
    by_id = {result.unit_id: result for result in results}
    assert by_id["boom"].status == STATUS_CRASHED
    assert "exited with code 13" in by_id["boom"].error
    assert [by_id[uid].value for uid in ("ok-1", "ok-2", "ok-3")] == [9, 16, 25]


def test_unit_error_is_reported_with_traceback():
    results = ParallelExecutor(pool_size=2).run(
        [WorkUnit("bad", _fail, (7,)), WorkUnit("good", _square, (7,))]
    )
    bad, good = results
    assert bad.status == STATUS_ERROR and "unit failed on 7" in bad.error
    assert good.status == STATUS_OK and good.value == 49


def test_timeout_interrupts_runaway_unit():
    start = time.time()
    results = ParallelExecutor(pool_size=2, timeout=0.5).run(
        [WorkUnit("stuck", _sleep, (30,)), WorkUnit("fine", _square, (2,))]
    )
    assert time.time() - start < 10
    assert results[0].status == STATUS_TIMEOUT
    assert results[1].status == STATUS_OK and results[1].value == 4


def test_progress_and_log_events_stream():
    events = []
    run_units(
        [WorkUnit("a", _log_and_return, (1,)), WorkUnit("b", _log_and_return, (2,))],
        parallel=2,
        on_event=lambda kind, unit_id, worker, payload: events.append((kind, unit_id, payload)),
    )
    kinds = [event[0] for event in events]
    assert kinds.count("start") == 2 and kinds.count("done") == 2
    logs = [payload for kind, _uid, payload in events if kind == "log"]
    assert sorted(logs) == ["working on 1", "working on 2"]


def test_duplicate_unit_ids_rejected():
    with pytest.raises(ValueError):
        ParallelExecutor(pool_size=2).run(
            [WorkUnit("dup", _square, (1,)), WorkUnit("dup", _square, (2,))]
        )


# ----------------------------------------------------------------------
# Seed-stable sharding: the determinism contract
# ----------------------------------------------------------------------
def _strip_wall(cells):
    cells = copy.deepcopy(cells)
    for cell in cells:
        cell.pop("wall_seconds", None)
    return cells


def test_sweep_grid_parallel_equals_serial():
    """The ISSUE acceptance pin: run_sweep(spec, parallel=N) yields a
    report identical to the serial run, cell for cell."""
    spec = SweepSpec(
        stacks=("newtop-symmetric", "newtop-asymmetric", "lamport_ack"),
        profiles=("poisson",),
        loads=(0.5, 1.0),
        faults=("none", "crash"),
        processes=8,
        groups=2,
        group_size=5,
        duration=12.0,
        drain=20.0,
        seed=7,
    )
    serial = run_sweep(spec)
    pooled = run_sweep(spec, parallel=2)
    assert serial.spec == pooled.spec
    assert _strip_wall(serial.cells) == _strip_wall(pooled.cells)
    assert serial.passed and pooled.passed


def _scenario_fingerprint(result):
    return (
        result.name,
        result.stack,
        result.passed,
        tuple(result.checks.violations),
        result.agreement_sets,
        result.deliveries,
        result.messages_sent,
        result.delivery_events,
        result.sim_time,
        result.events_processed,
        result.trace_events,
        result.workload,
    )


def test_scenario_batch_parallel_equals_serial():
    configs = [
        churn_scenario(
            n_processes=12, n_groups=3, group_size=5, crashes=1, leaves=1,
            formations=1, messages_per_sender=2, seed=seed,
        )
        for seed in (3, 5, 8)
    ]
    serial = run_scenarios(configs, analysis="online")
    pooled = run_scenarios(configs, parallel=2, analysis="online")
    assert [_scenario_fingerprint(r) for r in serial] == [
        _scenario_fingerprint(r) for r in pooled
    ]
    assert all(result.passed for result in pooled)


@pytest.mark.parametrize("parallel", [None, 2])
def test_scenario_batch_surfaces_worker_casualties(parallel):
    """Serial and pooled batches report a casualty the same way: one
    ScenarioExecutionError naming it, with its config for replay."""
    good = churn_scenario(n_processes=8, n_groups=2, group_size=4,
                          crashes=0, leaves=0, messages_per_sender=1, seed=2)
    bad = dict(good)
    bad["groups"] = [{"id": "broken", "members": ["nobody"]}]
    with pytest.raises(ScenarioExecutionError) as caught:
        run_scenarios([good, bad], parallel=parallel, analysis="online")
    (failure,) = caught.value.failures
    assert (failure.index, failure.status) == (1, STATUS_ERROR)
    assert "InvalidScenarioSpec" in failure.error
    assert failure.seed == 2


def test_scenario_batch_refuses_what_a_pool_cannot_ship():
    """A pool builds its own instances: a stack or an Observation instance
    is refused before any worker starts, not swapped for something else."""
    from repro.api import get_stack
    from repro.obs import Observation

    config = churn_scenario(n_processes=8, n_groups=2, group_size=4, seed=2)
    with pytest.raises(ValueError, match="stack registry name"):
        run_scenarios([config], parallel=2, stack=get_stack("newtop"))
    with pytest.raises(ValueError, match="Observation keywords"):
        run_scenarios([config], parallel=2, observe=Observation())
    # Serially a dict builds the session's own observation.
    (result,) = run_scenarios([config], observe={"sampler": False})
    assert result.obs is not None and "samples" not in result.obs


def test_serial_batch_refuses_one_observation_for_many_configs():
    """Every session builds its own observation: a serial batch refuses an
    Observation instance as a pool does, while a dict gives each scenario
    its own, which reads that run alone."""
    from repro.obs import Observation

    configs = [
        churn_scenario(n_processes=8, n_groups=2, group_size=4, seed=seed)
        for seed in (2, 3)
    ]
    with pytest.raises(ValueError, match="Observation keywords"):
        run_scenarios(configs, observe=Observation(sampler=False))
    first, second = run_scenarios(configs, observe={"sampler": False})
    (alone,) = run_scenarios(configs[1:], observe={"sampler": False})
    sends = [
        result.obs["metrics"]["counters"]["transport.sends"]
        for result in (first, second, alone)
    ]
    assert sends[1] == sends[2] == second.messages_sent
    assert sends[0] == first.messages_sent
    assert "samples" not in second.obs


def test_failed_sweep_cell_keeps_its_grid_position():
    """A crashed/timed-out cell must not kill the sweep: its row keeps
    the coordinates with passed=False (exercised via a timeout so small
    the cell cannot finish)."""
    spec = SweepSpec(
        stacks=("newtop-symmetric",), profiles=("poisson",), loads=(1.0,),
        faults=("none",), processes=8, groups=2, group_size=5,
        duration=12.0, drain=20.0, seed=7,
    )
    report = run_sweep(spec, parallel=2, timeout=1e-9)
    (cell,) = report.cells
    assert cell["passed"] is False
    assert cell["execution_status"] == STATUS_TIMEOUT
    assert report.cell("newtop-symmetric", "poisson", 1.0, "none") is cell
    assert not report.passed
    # The JSON-recording path must survive metric-less failure rows.
    document = report.as_dict()
    assert document["curves"] == {}


def test_failed_serial_sweep_cell_keeps_its_grid_position(monkeypatch):
    """Serial sweeps report a casualty as pooled ones do: a cell that
    raises becomes a passed=False row in its grid position, and the
    other cells still run."""
    from repro.experiments import sweep

    real_run_cell = sweep.run_cell

    def run_cell(spec, stack, profile_name, load, fault):
        if load == 0.5:
            raise RuntimeError("cell blew up")
        return real_run_cell(spec, stack, profile_name, load, fault)

    monkeypatch.setattr(sweep, "run_cell", run_cell)
    spec = SweepSpec(
        stacks=("newtop-symmetric",), profiles=("poisson",), loads=(0.5, 1.0),
        faults=("none",), processes=8, groups=2, group_size=5,
        duration=12.0, drain=20.0, seed=7,
    )
    seen = []
    report = run_sweep(spec, progress=seen.append)
    failed, ran = report.cells
    assert failed["passed"] is False
    assert failed["execution_status"] == STATUS_ERROR
    assert "cell blew up" in failed["violations"][0]
    assert report.cell("newtop-symmetric", "poisson", 0.5, "none") is failed
    assert ran["passed"] and ran["offered_load"] == 1.0
    assert not report.passed
    assert sorted(row["offered_load"] for row in seen) == [0.5, 1.0]


# ----------------------------------------------------------------------
# Mergeable latency reservoirs
# ----------------------------------------------------------------------
def test_reservoir_exact_moments_and_undercapacity_merge():
    left, right = LatencyReservoir(capacity=64), LatencyReservoir(capacity=64)
    for value in range(10):
        left.add(float(value))
    for value in range(10, 30):
        right.add(float(value))
    merged = LatencyReservoir.merged([left, right], capacity=64)
    assert merged.count == 30
    assert merged.mean == pytest.approx(sum(range(30)) / 30)
    assert merged.min == 0.0 and merged.max == 29.0
    # Under capacity the merged pool is the exact union.
    assert sorted(merged.samples) == [float(v) for v in range(30)]
    summary = merged.summary()
    assert summary["count"] == 30 and summary["p50"] == pytest.approx(14.0, abs=1.0)


def test_reservoir_compaction_is_deterministic_and_quantile_faithful():
    def build(seed):
        reservoir = LatencyReservoir(capacity=128, seed=seed)
        for value in range(1000):
            reservoir.add(float(value))
        return reservoir

    assert build(9).samples == build(9).samples  # same stream, same reservoir
    merged = LatencyReservoir.merged([build(9), build(10)], capacity=128)
    assert merged.count == 2000
    assert len(merged.samples) == 128
    assert merged.min == 0.0 and merged.max == 999.0
    # Systematic rank selection keeps the quantiles close to truth (the
    # tolerance is ~3 sigma for 256 uniform draws compacted to 128).
    assert merged.summary()["p50"] == pytest.approx(500.0, rel=0.2)


def test_reservoir_merge_weights_sources_by_count():
    """A low-count reservoir must not dominate a high-count one: the
    merged pool is apportioned by observation count, not pool length."""
    bulk = LatencyReservoir(capacity=32, seed=2)
    for index in range(100_000):
        bulk.add(1.9 + 0.2 * (index % 101) / 100)
    outliers = LatencyReservoir(capacity=256, seed=1)
    for _ in range(100):
        outliers.add(50.0)
    merged = LatencyReservoir.merged([bulk, outliers], capacity=1000)
    summary = merged.summary()
    assert summary["count"] == 100_100
    # 99.9% of the observations sit near 2.0, so the median must too --
    # even though the outlier source supplied 3x more raw samples.
    assert summary["p50"] == pytest.approx(2.0, abs=0.2)
    assert summary["max"] == 50.0


def _lognormal_reservoir(seed):
    """A 4,096-sample reservoir fed a seeded 10,000-sample stream."""
    rng = random.Random(seed)
    reservoir = LatencyReservoir(capacity=4096, seed=seed)
    for _ in range(10_000):
        reservoir.add(rng.lognormvariate(0.0, 1.0))
    return reservoir


def _pool_digest(samples):
    return hashlib.sha256(struct.pack("<%dd" % len(samples), *samples)).hexdigest()


def test_reservoir_numbers_are_pinned():
    """Summary and pool of a seeded full reservoir, and of a merge of two,
    as literal values: the pool's storage must not move a bit of them."""
    reservoir = _lognormal_reservoir(41)
    assert reservoir.summary() == {
        "count": 10000,
        "mean": 1.635093169150738,
        "min": 0.02965254908128672,
        "max": 46.51421114794294,
        "p50": 1.0148713504075006,
        "p90": 3.6666063079370064,
        "p99": 10.067128478101365,
    }
    samples = reservoir.samples
    assert len(samples) == 4096
    assert samples[:3] == [0.9470173613400157, 3.6666063079370064, 0.19223379471147006]
    assert _pool_digest(samples) == (
        "948df7ebb5ec7cef299879a227bfd9dd33e53a34fca891111e7eb5ea0e65a795"
    )

    merged = LatencyReservoir.merged(
        [_lognormal_reservoir(41), _lognormal_reservoir(42)], capacity=4096
    )
    again = LatencyReservoir.merged(
        [_lognormal_reservoir(41), _lognormal_reservoir(42)], capacity=4096
    )
    assert merged.samples == again.samples
    assert merged.summary() == again.summary() == {
        "count": 20000,
        "mean": 1.652531967072923,
        "min": 0.023870884331647562,
        "max": 46.51421114794294,
        "p50": 1.0040175291750486,
        "p90": 3.6949990768805265,
        "p99": 10.448521858599683,
    }
    assert _pool_digest(merged.samples) == (
        "17728a350e18259839f1ed08b333f61c6a312b7fdbae6c82db77f0ae6b74194d"
    )


def test_reservoir_pickle_round_trip_keeps_moments_and_pool():
    """What the worker pool ships back: count, moments, pool and the
    replacement stream all survive a pickle round-trip."""
    reservoir = _lognormal_reservoir(7)
    copied = pickle.loads(pickle.dumps(reservoir))
    assert (copied.count, copied.mean, copied.min, copied.max) == (
        reservoir.count, reservoir.mean, reservoir.min, reservoir.max
    )
    assert copied.samples == reservoir.samples
    assert copied.summary() == reservoir.summary()
    for value in (0.5, 7.25, 99.0):
        reservoir.add(value)
        copied.add(value)
    assert copied.samples == reservoir.samples
