"""The campaign runner: fan a seeded corpus across workers and tally.

:func:`run_campaign` runs corpus entries ``0..count-1`` of
``corpus_seed`` -- each regenerated *inside* its work unit from
``(corpus_seed, index)`` alone (cheap, deterministic, nothing big crosses
the pickle boundary) -- over :func:`repro.parallel.run_units`, with a
per-unit wall-clock timeout.  Outcomes stream into a
:class:`~repro.obs.metrics.MetricsRegistry` as they land (counters
``fuzz.pass`` / ``fuzz.violation`` / ``fuzz.stall`` / ``fuzz.crashed`` /
``fuzz.timeout``), so a long campaign's progress is observable while it
runs; the final :class:`CampaignReport` carries the same tallies plus
per-spec rows and full replay information for every failure.

A *violation* is a completed run whose checkers failed -- the signal the
fuzzer hunts.  A *stall* is a completed, checker-clean run that delivered
nothing despite offering traffic (liveness smoke, tracked separately: the
paper's guarantees are safety properties and some generated scenarios
legitimately stall a group).  *Crashed* / *timeout* are execution
casualties, reported with the same replay info -- an engine crash on a
generated spec is a bug worth a repro too.

Every failure is replayable standalone::

    python -m repro.scenarios.fuzz gen --seed S --index I | tail -1 > spec.json
    python -m repro.scenarios.fuzz replay spec.json

and with ``shrink_failures=True`` the campaign delta-debugs each
violation down to a locally-minimal config (see
:mod:`repro.scenarios.fuzz.shrink`) and -- when ``artifact_dir`` is set --
writes a replayable JSON artifact per casualty.
"""

from __future__ import annotations

import json
import os
import time as _time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional

from repro.obs.metrics import MetricsRegistry
from repro.scenarios.engine import run_scenario
from repro.scenarios.fuzz.generator import (
    GeneratorTuning,
    generate_config,
    generate_spec,
)
from repro.scenarios.fuzz.shrink import classify_violations, shrink_config

#: Schema stamp of the minimized-repro artifact JSON.
ARTIFACT_SCHEMA_VERSION = 1

#: Campaign outcome states, in reporting order.
STATUSES = ("pass", "violation", "stall", "crashed", "timeout")


def run_fuzz_unit(
    corpus_seed: int,
    index: int,
    tuning: Optional[Mapping[str, object]] = None,
    stack: str = "newtop",
) -> Dict[str, object]:
    """Run corpus entry ``(corpus_seed, index)`` and return its row.

    Module-level and argument-picklable: this is the function the pool
    workers import and call.  The spec is regenerated here, in the worker.
    """
    spec = generate_spec(corpus_seed, index, GeneratorTuning.from_config(tuning))
    result = run_scenario(spec, stack=stack)
    violations = list(result.checks.violations)
    if violations:
        status = "violation"
    elif result.deliveries == 0 and result.messages_sent > 0:
        status = "stall"
    else:
        status = "pass"
    return {
        "index": index,
        "name": spec.name,
        "seed": spec.seed,
        "status": status,
        "violation_kind": classify_violations(violations),
        "violations": violations[:5],
        "events": len(spec.events),
        "processes": len(spec.processes),
        "groups": len(spec.groups),
        "deliveries": result.deliveries,
        "messages_sent": result.messages_sent,
        "sim_time": round(result.sim_time, 3),
    }


@dataclass
class FuzzFailure:
    """One campaign casualty with everything needed to reproduce it."""

    index: int
    #: ``violation`` / ``stall`` / ``crashed`` / ``timeout``.
    status: str
    #: Checker violations (violations only; first few).
    violations: List[str] = field(default_factory=list)
    violation_kind: Optional[str] = None
    #: Executor diagnosis for crashed/timeout casualties.
    error: Optional[str] = None
    #: The regenerated spec config -- ``run_scenario(failure.config)``
    #: replays the exact simulation.
    config: Dict[str, object] = field(default_factory=dict)
    #: Locally-minimal reproducing config (violations only, when the
    #: campaign ran with ``shrink_failures=True``).
    minimized: Optional[Dict[str, object]] = None
    shrink_runs: int = 0
    #: Full journeys of the messages the violations implicate (the
    #: shrinker's explain-the-violation replay; see
    #: :func:`repro.scenarios.fuzz.shrink.explain_journeys`).
    journeys: List[Dict[str, object]] = field(default_factory=list)
    #: Path of the written artifact JSON (``artifact_dir`` was set).
    artifact: Optional[str] = None

    def as_dict(self) -> Dict[str, object]:
        row: Dict[str, object] = {
            "index": self.index,
            "status": self.status,
            "violation_kind": self.violation_kind,
            "violations": list(self.violations),
            "error": self.error,
            "config": self.config,
        }
        if self.minimized is not None:
            row["minimized"] = self.minimized
            row["shrink_runs"] = self.shrink_runs
        if self.journeys:
            row["journeys"] = list(self.journeys)
        if self.artifact is not None:
            row["artifact"] = self.artifact
        return row


@dataclass
class CampaignReport:
    """Everything one fuzz campaign produced."""

    corpus_seed: int
    count: int
    tuning: Dict[str, object]
    stack: str
    #: Outcome tallies keyed by :data:`STATUSES`.
    tallies: Dict[str, int]
    #: Per-spec rows in corpus order (casualty rows carry the diagnosis).
    rows: List[Dict[str, object]]
    failures: List[FuzzFailure]
    wall_seconds: float
    #: Campaign throughput at this scale (the ROADMAP's measured number).
    specs_per_minute: float
    #: Snapshot of the streaming campaign counters.
    metrics: Dict[str, object] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        """Zero violations and zero execution casualties (stalls are
        tracked but do not fail the campaign -- see the module notes)."""
        return all(
            self.tallies[status] == 0 for status in ("violation", "crashed", "timeout")
        )

    def as_dict(self) -> Dict[str, object]:
        return {
            "schema": ARTIFACT_SCHEMA_VERSION,
            "corpus_seed": self.corpus_seed,
            "count": self.count,
            "tuning": self.tuning,
            "stack": self.stack,
            "tallies": dict(self.tallies),
            "passed": self.passed,
            "wall_seconds": round(self.wall_seconds, 3),
            "specs_per_minute": round(self.specs_per_minute, 2),
            "failures": [failure.as_dict() for failure in self.failures],
            "rows": self.rows,
            "metrics": self.metrics,
        }


def write_artifact(path: str, failure: FuzzFailure, corpus_seed: int) -> None:
    """Write one casualty's replayable JSON artifact."""
    payload = {
        "schema": ARTIFACT_SCHEMA_VERSION,
        "kind": "fuzz-repro",
        "corpus_seed": corpus_seed,
        "index": failure.index,
        "status": failure.status,
        "violation_kind": failure.violation_kind,
        "violations": list(failure.violations),
        "error": failure.error,
        #: The spec to replay: minimized when the shrinker ran, else the
        #: full generated config.
        "spec": failure.minimized if failure.minimized is not None else failure.config,
        "original": failure.config,
        "shrink_runs": failure.shrink_runs,
        #: Journeys of the messages the violations name: created / sent /
        #: held / sequenced / delivered transitions from the exact replay.
        "journeys": list(failure.journeys),
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def run_campaign(
    corpus_seed: int,
    count: int,
    tuning: Optional[GeneratorTuning] = None,
    parallel: Optional[int] = None,
    timeout: Optional[float] = 120.0,
    stack: str = "newtop",
    shrink_failures: bool = True,
    max_shrink: int = 3,
    shrink_budget: int = 120,
    artifact_dir: Optional[str] = None,
    registry: Optional[MetricsRegistry] = None,
    progress: Optional[Callable[[Dict[str, object]], None]] = None,
) -> CampaignReport:
    """Run corpus entries ``0..count-1`` of ``corpus_seed`` and tally.

    ``parallel=N`` shards the corpus over a worker pool with ``timeout``
    bounding each unit's wall clock; the report is identical to a serial
    run (every spec regenerates from its ``(corpus_seed, index)``).
    ``progress`` observes each row, a casualty's too, as its unit
    finishes, serial or pooled; ``registry`` (or an internal one) streams
    the ``fuzz.*`` tallies while the campaign runs.  Up to
    ``max_shrink`` violations are delta-debugged afterwards
    (``shrink_budget`` scenario runs each); with ``artifact_dir`` every
    casualty gets a replayable artifact JSON.
    """
    # Imported here, not at the top: ``run_fuzz_unit`` alone never needs
    # the pool executor or the multiprocessing machinery behind it.
    from repro.parallel import WorkUnit, run_units

    tuning = GeneratorTuning.from_config(tuning)
    registry = registry if registry is not None else MetricsRegistry()
    tallies = dict.fromkeys(STATUSES, 0)
    registry.counter_source("fuzz.", tallies.copy)
    wall_start = _time.time()
    tuning_config = tuning.to_config()

    units = [
        WorkUnit(
            unit_id=f"fuzz-{corpus_seed}-{index:05d}",
            fn=run_fuzz_unit,
            args=(corpus_seed, index),
            kwargs={"tuning": tuning_config, "stack": stack},
        )
        for index in range(count)
    ]
    indices = {unit.unit_id: index for index, unit in enumerate(units)}
    rows_by_unit: Dict[str, Dict[str, object]] = {}

    def on_event(kind, unit_id, worker, outcome) -> None:
        # Every outcome is tallied and reported as it lands, in either mode.
        if kind != "done":
            return
        if outcome.ok:
            row = dict(outcome.value)
        else:
            row = {
                "index": indices[unit_id],
                "status": outcome.status if outcome.status in STATUSES else "crashed",
                "error": outcome.error,
                "violations": [],
                "violation_kind": None,
            }
        rows_by_unit[unit_id] = row
        tallies[row["status"]] += 1
        if progress is not None:
            progress(row)

    run_units(units, parallel=parallel, timeout=timeout, on_event=on_event)
    rows = [rows_by_unit[unit.unit_id] for unit in units]
    failures = [
        FuzzFailure(
            index=row["index"],
            status=row["status"],
            violations=list(row["violations"]),
            violation_kind=row["violation_kind"],
            error=row.get("error"),
            config=generate_config(corpus_seed, row["index"], tuning),
        )
        for row in rows
        if row["status"] != "pass"
    ]

    if shrink_failures:
        shrunk = 0
        for failure in failures:
            if failure.status != "violation" or shrunk >= max_shrink:
                continue
            result = shrink_config(
                failure.config,
                violation_kind=failure.violation_kind,
                max_runs=shrink_budget,
                stack=stack,
            )
            failure.minimized = result.config
            failure.shrink_runs = result.runs
            if result.violations:
                failure.violations = list(result.violations)
            failure.journeys = list(result.journeys)
            shrunk += 1

    if artifact_dir is not None and failures:
        os.makedirs(artifact_dir, exist_ok=True)
        for failure in failures:
            path = os.path.join(
                artifact_dir,
                f"fuzz-{corpus_seed}-{failure.index:05d}-{failure.status}.json",
            )
            write_artifact(path, failure, corpus_seed)
            failure.artifact = path

    wall = _time.time() - wall_start
    return CampaignReport(
        corpus_seed=corpus_seed,
        count=count,
        tuning=tuning_config,
        stack=stack,
        tallies=tallies,
        rows=rows,
        failures=failures,
        wall_seconds=wall,
        specs_per_minute=(count / wall * 60.0) if wall > 0 else 0.0,
        metrics=registry.snapshot(),
    )


def replay_artifact(path: str, stack: str = "newtop") -> Dict[str, object]:
    """Replay a fuzz artifact (or bare spec config) JSON file.

    Returns a verdict row: the replayed violations, their kind, and --
    for full artifacts -- whether the recorded violation kind reproduced.
    """
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if isinstance(payload, Mapping) and "spec" in payload:
        config = payload["spec"]
        expected = payload.get("violation_kind")
    else:
        config = payload
        expected = None
    result = run_scenario(config, stack=stack)
    violations = list(result.checks.violations)
    kind = classify_violations(violations)
    return {
        "path": path,
        "passed": result.passed,
        "violations": violations[:5],
        "violation_kind": kind,
        "expected_kind": expected,
        #: ``None`` for bare spec configs (nothing was recorded to match).
        "reproduced": (kind == expected) if expected is not None else None,
        "deliveries": result.deliveries,
        "sim_time": round(result.sim_time, 3),
    }
