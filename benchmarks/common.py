"""Shared helpers for the benchmark harness.

Every ``bench_*.py`` file reproduces the experiment its module docstring
names (E1-E28): it builds the workload, runs it on the simulated
substrate, verifies the paper's correctness properties on the trace,
derives the quantities the paper argues about, appends a human-readable
row set to the consolidated report, and asserts the *shape* of the result
(who wins, how quantities scale) rather than absolute numbers.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.analysis.metrics import build_report
from repro.api import ProtocolStack, Session, SessionResult
from repro.core import OrderingMode
from repro.experiments import SweepReport
from repro.net.latency import LatencyModel
from repro.net.trace import EventTrace, TraceEvent, TraceSink
from repro.scenarios import SCENARIO_PROTOCOL_DEFAULTS


@dataclass
class ResultCollector:
    """Collects per-experiment result tables printed at session end."""

    tables: List[Tuple[str, List[str]]] = field(default_factory=list)

    def add_table(self, title: str, rows: Iterable[str]) -> None:
        """Register one experiment's rows for the consolidated report."""
        self.tables.append((title, list(rows)))


#: The session-wide collector used by every benchmark module.
RESULTS = ResultCollector()


def run_session(
    names: Sequence[str],
    groups: Optional[Sequence] = None,
    stack: Union[str, ProtocolStack] = "newtop",
    seed: int = 1,
    mode_overrides: Optional[Dict[str, object]] = None,
    analysis: str = "offline",
    checks: Optional[Sequence[str]] = None,
    sinks: Optional[Sequence[TraceSink]] = None,
    view_agreement_sets: Optional[Dict[str, Sequence[str]]] = None,
    observe: object = None,
    latency_model: Optional[LatencyModel] = None,
) -> Session:
    """One :class:`repro.api.Session` with the benchmark-default protocol
    configuration, processes spawned and groups installed.

    ``groups`` entries are ``(group_id, members)`` or
    ``(group_id, members, mode)``; ``members=None`` means every process.
    The default is one group ``"bench"`` over everyone.  This replaces the
    per-benchmark cluster boilerplate: the session carries the trace
    wiring, and :func:`assert_session_correct` reads the verdict from
    whichever analysis mode the benchmark selected.  ``latency_model``
    replaces the seeded random link delay (a benchmark that gates exact
    counts passes ``ConstantLatency``).
    """
    overrides = dict(SCENARIO_PROTOCOL_DEFAULTS)
    if mode_overrides:
        overrides.update(mode_overrides)
    session = Session(
        stack,
        config=overrides,
        seed=seed,
        sinks=sinks,
        checks=checks,
        analysis=analysis,
        view_agreement_sets=view_agreement_sets,
        observe=observe,
        latency_model=latency_model,
    )
    session.spawn(names)
    for entry in groups if groups is not None else [("bench", None)]:
        group_id, members = entry[0], entry[1]
        mode = entry[2] if len(entry) > 2 else None
        session.group(group_id, members, mode=mode)
    return session


def run_session_traffic(
    session: Session,
    group: str,
    senders: Sequence[str],
    messages_per_sender: int,
    gap: float = 1.0,
    drain: float = 60.0,
) -> None:
    """Issue a fixed, interleaved workload through the session and drain."""
    for index in range(messages_per_sender):
        for sender in senders:
            session.multicast(sender, group, f"{sender}-{index}")
        session.run(gap)
    session.run(drain)


def assert_session_correct(session: Session) -> SessionResult:
    """Every benchmark checks the stack's guarantees before reporting."""
    result = session.result()
    assert result.passed, f"protocol guarantees violated: {result.checks.violations[:3]}"
    return result


def latency_block(result) -> Optional[Dict[str, object]]:
    """The delivery-latency summary (count/mean/p50/p95/p99/...) of a run.

    Reads the block straight off the rolling
    :class:`~repro.net.trace.MetricsSink` snapshot -- which now carries the
    percentiles -- rather than re-walking a reservoir in every benchmark.
    Works on :class:`SessionResult` and ``ScenarioResult`` alike; falls
    back to the exact reservoir for results without a metrics snapshot
    (offline runs), and returns ``None`` when neither exists.
    """
    metrics = getattr(result, "metrics", None)
    if metrics is not None and metrics.get("latency"):
        return metrics["latency"]
    reservoir = getattr(result, "latency_reservoir", None)
    if reservoir is not None:
        return reservoir.summary(percentiles=(50, 95, 99))
    return None


class EventProbe(TraceSink):
    """Retains only the trace events of the given kinds.

    Benchmarks that run ``analysis="online"`` (streamed verification, no
    stored trace) attach one of these via ``sinks=[probe]`` to keep just
    the handful of events their measurement needs -- a view installation
    time, a blocked-send count -- while the bulk of the trace stays
    unmaterialized.  ``probe.trace()`` wraps the captured events in an
    :class:`~repro.net.trace.EventTrace` so the normal query and metrics
    helpers work on them.
    """

    def __init__(self, *kinds: str) -> None:
        self.kinds = frozenset(kinds)
        self.events: List[TraceEvent] = []

    def on_event(self, event: TraceEvent) -> None:
        if not self.kinds or event.kind in self.kinds:
            self.events.append(event)

    def trace(self) -> EventTrace:
        return EventTrace(list(self.events))


def newtop_run_metrics(
    names: Sequence[str],
    mode: OrderingMode,
    messages_per_sender: int = 4,
    seed: int = 3,
    senders: Optional[Sequence[str]] = None,
) -> Dict[str, float]:
    """One standard Newtop run; returns the flattened metrics report."""
    session = run_session(names, groups=[("bench", None, mode)], seed=seed)
    active_senders = list(senders) if senders is not None else list(names)
    start = session.sim.now
    run_session_traffic(session, "bench", active_senders, messages_per_sender)
    duration = session.sim.now - start
    assert_session_correct(session)
    report = build_report(session.trace(), session.network.stats, duration=duration, group="bench")
    flattened = report.as_dict()
    flattened["group_size"] = float(len(names))
    return flattened


#: Version of the shared BENCH_*.json header schema.  Bumped to 2 when the
#: provenance stamps (``git_sha``, ``python_version``) and the optional
#: per-run ``obs`` blocks were added.
BENCH_SCHEMA_VERSION = 2


def _git_sha() -> str:
    """The repository HEAD sha, or ``"unknown"`` outside a git checkout.

    Anchored at this file's directory, not the caller's cwd, so the stamp
    is right even when a benchmark CLI is invoked from elsewhere.
    """
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=False,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def write_bench_json(
    json_path: str,
    benchmark: str,
    scale: str,
    payload: Mapping[str, object],
    *,
    config: Optional[Mapping[str, object]] = None,
    seed: Optional[int] = None,
    wall_seconds: Optional[float] = None,
) -> Dict[str, object]:
    """Write one benchmark's CI result file with the shared schema.

    Every emitter (E19 churn, E20 protocol comparison, E21 workload sweep)
    goes through here so the artifacts stay diffable across benchmarks:
    the header always carries ``benchmark``, ``scale``, ``config``,
    ``seed``, ``wall_seconds`` and the provenance stamps
    (``schema_version``, ``git_sha``, ``python_version``), and the
    benchmark-specific rows ride in ``payload``.  Returns the full
    document that was written.
    """
    document: Dict[str, object] = {
        "benchmark": benchmark,
        "scale": scale,
        "config": dict(config) if config is not None else {},
        "seed": seed,
        "wall_seconds": round(wall_seconds, 3) if wall_seconds is not None else None,
        "schema_version": BENCH_SCHEMA_VERSION,
        "git_sha": _git_sha(),
        "python_version": platform.python_version(),
    }
    overlap = set(document) & set(payload)
    if overlap:
        raise ValueError(f"payload keys {sorted(overlap)} collide with the header")
    document.update(payload)
    with open(json_path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
    return document


def benchmark_arg_parser(
    description: str,
    default_json: str,
    scales: Mapping[str, object],
    default_scale: str = "smoke",
    default_parallel: int = 1,
) -> argparse.ArgumentParser:
    """The shared CLI of every script benchmark: ``--scale``, ``--json``
    and ``--parallel N``.

    ``--parallel`` shards the benchmark's independent work units (sweep
    cells, scenario shards, per-stack runs) across a
    :mod:`repro.parallel` worker pool of N processes; ``1`` runs inline.
    Results are seed-stable either way -- the pool never changes numbers,
    only wall clock -- and a benchmark whose work is a single unit simply
    caps the pool at one worker.
    """
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument("--scale", choices=sorted(scales), default=default_scale)
    parser.add_argument("--json", default=default_json)
    parser.add_argument(
        "--parallel", type=int, default=default_parallel, metavar="N",
        help="worker processes for independent units (default: %(default)s)",
    )
    parser.add_argument(
        "--observe", nargs="?", const="metrics",
        choices=("metrics", "journeys", "full"),
        default=None, metavar="LEVEL",
        help="attach repro.obs to the runs and emit an 'obs' block into the "
        "JSON: bare flag or 'metrics' enables the registry + simulated-time "
        "sampler, 'journeys' adds sampled per-message journey tracing, "
        "'full' adds the hot-path profiler, span breakdowns and journeys "
        "(default: off)",
    )
    return parser


def merge_sweep_reports(*reports: SweepReport) -> SweepReport:
    """One :class:`~repro.experiments.SweepReport` over several sweeps.

    The merged-report path for sharded execution: split a grid into
    sub-specs (per fault pattern, per stack family, per worker budget),
    run each wherever is convenient -- serially, on a pool, on another
    machine -- and recombine the cells into a single report whose
    ``curves()``/``cell()``/``passed`` views and JSON form behave exactly
    as if one sweep had produced everything.  Identical sub-specs collapse
    into one header; differing ones are kept under ``"merged"``.
    """
    if not reports:
        raise ValueError("nothing to merge")
    specs = [report.spec for report in reports]
    spec = specs[0] if all(entry == specs[0] for entry in specs) else {"merged": specs}
    return SweepReport(
        spec=spec, cells=[cell for report in reports for cell in report.cells]
    )


def unavailability_windows(
    series: Sequence[Tuple[float, float, int, int]],
    *,
    min_offered: int = 1,
) -> List[Dict[str, float]]:
    """Merge time bins in which demand went unserved into outage windows.

    ``series`` is a list of ``(start, end, served, offered)`` bins in time
    order -- per-shard workload bins (E26), per-phase client counters
    (E21), or any other served-vs-offered accounting.  A bin is *starved*
    when at least ``min_offered`` operations were offered and none were
    served; consecutive starved bins merge into one window.  Returns
    ``[{"start", "end", "duration"}, ...]`` -- the benchmark-facing shape
    of "how long was this shard/group unavailable, and when".
    """
    windows: List[Dict[str, float]] = []
    current: Optional[List[float]] = None
    for start, end, served, offered in series:
        starved = offered >= min_offered and served == 0
        if starved:
            if current is not None and abs(current[1] - start) < 1e-9:
                current[1] = end
            else:
                if current is not None:
                    windows.append(
                        {"start": current[0], "end": current[1],
                         "duration": current[1] - current[0]}
                    )
                current = [start, end]
        elif current is not None:
            windows.append(
                {"start": current[0], "end": current[1],
                 "duration": current[1] - current[0]}
            )
            current = None
    if current is not None:
        windows.append(
            {"start": current[0], "end": current[1],
             "duration": current[1] - current[0]}
        )
    return windows


def fmt(value: float) -> str:
    """Consistent numeric formatting for report rows."""
    if value >= 1000:
        return f"{value:,.0f}"
    if value >= 10:
        return f"{value:.1f}"
    return f"{value:.2f}"
