"""Human-readable rendering of observation snapshots and bench JSONs.

``render_obs`` turns one observation snapshot (the ``obs`` block a
:class:`~repro.obs.Observation` emits) into aligned text tables;
``render_document`` walks any JSON document produced by the benchmark
harness (session results, scenario shards, sweep grids, BENCH files,
fuzz-campaign JSONs and fuzz-repro artifacts), renders its header, and
finds every embedded ``obs`` block wherever it rides.
``render_journey_document`` is the journey explorer: the slowest sampled
journeys as span trees plus the by-cause / by-wait-state breakdown.
``python -m repro.obs report FILE`` and ``python -m repro.obs journey
FILE`` are the CLI front ends.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple

__all__ = [
    "render_obs",
    "render_document",
    "render_journey_document",
    "find_obs_blocks",
    "document_has_renderable_content",
    "document_has_journeys",
    "paste_columns",
]

_BAR_WIDTH = 30
_BLOCKS = " ▁▂▃▄▅▆▇█"


def _fmt(value: Any) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 1:
            return f"{value:.3f}".rstrip("0").rstrip(".")
        return f"{value:.5f}".rstrip("0").rstrip(".")
    if isinstance(value, int):
        return f"{value:,}"
    return str(value)


def _table(rows: List[Tuple[str, ...]], indent: str = "  ") -> List[str]:
    if not rows:
        return []
    widths = [max(len(row[col]) for row in rows) for col in range(len(rows[0]))]
    lines = []
    for row in rows:
        cells = [cell.ljust(width) for cell, width in zip(row, widths)]
        lines.append(indent + "  ".join(cells).rstrip())
    return lines


def _sparkline(values: List[Optional[float]]) -> str:
    """One-character-per-sample curve; gaps (``None``) render as ``.``."""
    present = [value for value in values if value is not None]
    if not present:
        return ""
    low, high = min(present), max(present)
    span = (high - low) or 1.0
    chars = []
    for value in values:
        if value is None:
            chars.append(".")
        else:
            chars.append(_BLOCKS[1 + int((value - low) / span * (len(_BLOCKS) - 2))])
    return "".join(chars)


# ----------------------------------------------------------------------
# Section renderers
# ----------------------------------------------------------------------
def _render_metrics(
    metrics: Mapping[str, Any], samples: Optional[Mapping[str, Any]] = None
) -> List[str]:
    lines = ["metrics"]
    counters = metrics.get("counters") or {}
    if counters:
        lines.append("  counters")
        lines.extend(_table([(name, _fmt(value)) for name, value in counters.items()], "    "))
        if "time_silence.nulls_owed" in counters:
            # The three deadlines of repro.core.time_silence: ω while owed,
            # the heartbeat period while idle, and the heartbeat period for a
            # re-send asking for an acknowledgment that never came.  Beside
            # them the nulls no timer fired: each rode a suspect or confirm
            # message of its sender's (repro.core.membership).
            lines.append(
                "  time-silence firings: "
                f"{_fmt(counters['time_silence.nulls_owed'])} owed, "
                f"{_fmt(counters.get('time_silence.nulls_idle', 0))} idle, "
                f"{_fmt(counters.get('time_silence.nulls_resent', 0))} re-sent; "
                f"{_fmt(counters.get('time_silence.nulls_carried', 0))} rode a "
                "suspicion or confirmation"
            )
        beacons = counters.get("transport.sent.Beacon")
        heartbeats = counters.get("time_silence.nulls_idle")
        if beacons and heartbeats:
            # A process heartbeat's wake sends one beacon per due ring
            # neighbour, whatever number of groups it names: about K
            # (repro.core.suspector.RING_FANOUT) for a process whose groups
            # share their rings; lower when some of the nulls_idle were an
            # asymmetric group's numbered idle nulls.
            lines.append(
                f"  idle beacons per process heartbeat: {_fmt(beacons / heartbeats)} "
                f"({_fmt(beacons)} Beacon sends / {_fmt(heartbeats)} nulls_idle)"
            )
    gauges = metrics.get("gauges") or {}
    heartbeat_wakes = counters.get("heartbeat.wakes", 0)
    ticks = counters.get("suspector.probes", 0)
    periods = gauges.get("heartbeat.process_periods")
    if (heartbeat_wakes or ticks) and periods:
        # An idle process reads 1 however many symmetric groups it is in:
        # its heartbeat wake beacons for all of them and runs their
        # suspectors' deadline tests; a suspector ticks on its own only
        # while restless, ahead of a deadline the next wake would miss, or
        # in an asymmetric group (see repro.core.time_silence).
        lines.append(
            f"  liveness wakes per process per heartbeat period (Ω/2): "
            f"{_fmt((heartbeat_wakes + ticks) / periods)} "
            f"({_fmt(heartbeat_wakes)} heartbeat wakes + {_fmt(ticks)} suspector "
            f"ticks, of them {_fmt(counters.get('suspector.pokes', 0))} pulled in "
            f"by a poke, over {_fmt(periods)} process-periods)"
        )
    retained = gauges.get("stability.retained")
    if retained is not None:
        # §5.1's collector at a glance: with stability advancing, "now"
        # stays near the traffic in flight; a collector that stopped makes
        # it the peak and the run's whole history.  The peak is over the
        # sampler's ticks ("-" without a sampler).
        column = ((samples or {}).get("gauges") or {}).get("stability.retained") or []
        peak = max([retained, *column]) if column else None
        lines.append(f"  retained messages: now {_fmt(retained)}, peak {_fmt(peak)}")
    if gauges:
        lines.append("  gauges (at snapshot)")
        lines.extend(_table([(name, _fmt(value)) for name, value in gauges.items()], "    "))
    histograms = metrics.get("histograms") or {}
    for name, hist in histograms.items():
        lines.append(
            f"  histogram {name}: count={_fmt(hist.get('count'))} "
            f"mean={_fmt(hist.get('mean'))} max={_fmt(hist.get('max'))}"
        )
        buckets = hist.get("buckets") or {}
        total = sum(buckets.values()) or 1
        rows = []
        # JSON round-trips sort keys lexicographically (le_1, le_128,
        # le_16 ...); restore numeric bucket order, overflow last.

        def _edge_key(edge: str) -> Tuple[int, float]:
            if edge.startswith("le_"):
                try:
                    return (0, float(edge[3:]))
                except ValueError:
                    pass
            return (1, 0.0)

        for edge in sorted(buckets, key=_edge_key):
            hits = buckets[edge]
            bar = "#" * int(round(hits / total * _BAR_WIDTH))
            rows.append((edge, _fmt(hits), bar))
        lines.extend(_table(rows, "    "))
    return lines


def _render_samples(samples: Mapping[str, Any]) -> List[str]:
    times = samples.get("times") or []
    lines = [
        f"sampler: {len(times)} samples at interval {_fmt(samples.get('interval'))}"
        + (f" (t={_fmt(times[0])}..{_fmt(times[-1])})" if times else "")
    ]
    curve = samples.get("messages_per_delivery") or []
    present = [value for value in curve if value is not None]
    if present:
        lines.append("  messages per delivery over time (ROADMAP item 1 baseline)")
        lines.append(f"    {_sparkline(curve)}")
        lines.append(
            f"    min={_fmt(min(present))}  max={_fmt(max(present))}  "
            f"last={_fmt(present[-1])}  intervals_with_deliveries={len(present)}/{len(curve)}"
        )
    gauges = samples.get("gauges") or {}
    rows = []
    for name, column in gauges.items():
        if not column:
            continue
        rows.append(
            (name, f"last {_fmt(column[-1])}", f"peak {_fmt(max(column))}",
             _sparkline(list(column)))
        )
    if rows:
        lines.append("  gauge series")
        lines.extend(_table(rows, "    "))
    return lines


def _render_profile(profile: Mapping[str, Any]) -> List[str]:
    lines = [f"profiler: {_fmt(profile.get('total_seconds'))}s attributed wall time"]
    sections = profile.get("sections") or {}
    top = profile.get("top") or []
    if top:
        lines.append("  top hotspots")
        rows = []
        for entry in top:
            name = entry.get("section", "?")
            detail = sections.get(name, {})
            share = detail.get("share")
            rows.append(
                (
                    name,
                    f"{_fmt(entry.get('seconds'))}s",
                    f"{_fmt(detail.get('calls'))} calls",
                    f"{_fmt(detail.get('mean_us'))}us/call",
                    f"{share * 100:.1f}%" if share is not None else "-",
                )
            )
        lines.extend(_table(rows, "    "))
    return lines


def _render_spans(spans: Mapping[str, Any]) -> List[str]:
    lines = [f"spans: {_fmt(spans.get('tracked_messages'))} messages tracked"]
    stages = spans.get("stages") or {}
    rows = [("stage", "count", "mean", "p50", "p95", "p99", "max")]
    for name, summary in stages.items():
        if summary is None:
            rows.append((name, "0", "-", "-", "-", "-", "-"))
            continue
        rows.append(
            (
                name,
                _fmt(summary.get("count")),
                _fmt(summary.get("mean")),
                _fmt(summary.get("p50")),
                _fmt(summary.get("p95")),
                _fmt(summary.get("p99")),
                _fmt(summary.get("max")),
            )
        )
    if len(rows) > 1:
        lines.extend(_table(rows, "  "))
    return lines


_WAIT_STATE_ORDER = (
    "blocked_send", "sequencer_queue", "transit",
    "suspicion_hold", "causal_hold", "latency",
)


def _render_journey_tree(journey: Mapping[str, Any], indent: str = "  ") -> List[str]:
    """One journey as a span tree: header line + timestamped transitions."""
    lines = [
        indent
        + f"{journey.get('msg_id')}  cause={journey.get('cause')}  "
        + f"sender={journey.get('sender')}  group={journey.get('group')}  "
        + f"deliveries={_fmt(journey.get('deliveries'))}  "
        + f"latency={_fmt(journey.get('latency'))}"
    ]
    created = journey.get("created_at") or 0.0
    transitions = journey.get("transitions") or []
    for index, transition in enumerate(transitions):
        state, time, process, detail = (list(transition) + [None] * 4)[:4]
        connector = "└─" if index == len(transitions) - 1 else "├─"
        offset = time - created if isinstance(time, (int, float)) else None
        at = f" @{process}" if process else ""
        suffix = f" ({_fmt(detail)})" if detail not in (None, "") else ""
        lines.append(f"{indent}  {connector} +{_fmt(offset)} {state}{at}{suffix}")
    if journey.get("truncated_transitions"):
        lines.append(
            f"{indent}     ... {_fmt(journey['truncated_transitions'])} "
            "more transitions truncated"
        )
    return lines


def _render_journeys(journeys: Mapping[str, Any]) -> List[str]:
    lines = [
        f"journeys: {_fmt(journeys.get('tracked'))} tracked "
        f"(1 in {_fmt(journeys.get('sample_rate'))}, "
        f"seed {_fmt(journeys.get('seed'))})"
        + (
            f", {_fmt(journeys.get('overflow'))} overflowed"
            if journeys.get("overflow")
            else ""
        )
    ]
    by_cause = journeys.get("sends_by_cause") or {}
    total = sum(by_cause.values())
    if by_cause:
        lines.append(
            f"  sends by cause (partition of transport.sends = {_fmt(total)})"
        )
        rows = []
        for cause, count in sorted(by_cause.items(), key=lambda kv: (-kv[1], kv[0])):
            share = count / total if total else 0.0
            rows.append(
                (cause, _fmt(count), f"{share * 100:.1f}%",
                 "#" * int(round(share * _BAR_WIDTH)))
            )
        lines.extend(_table(rows, "    "))
    wait_states = journeys.get("wait_states") or {}
    if wait_states:
        lines.append("  wait states by cause (sampled journeys)")
        rows = [("cause", "wait state", "count", "mean", "p50", "p90", "p99", "max")]
        for cause in sorted(wait_states):
            stages = wait_states[cause] or {}
            ordered = [stage for stage in _WAIT_STATE_ORDER if stage in stages]
            ordered += [stage for stage in sorted(stages) if stage not in ordered]
            for stage in ordered:
                summary = stages[stage] or {}
                rows.append(
                    (cause, stage, _fmt(summary.get("count")),
                     _fmt(summary.get("mean")), _fmt(summary.get("p50")),
                     _fmt(summary.get("p90")), _fmt(summary.get("p99")),
                     _fmt(summary.get("max")))
                )
        lines.extend(_table(rows, "    "))
    slowest = journeys.get("slowest") or []
    if slowest:
        lines.append("  slowest sampled journeys")
        for journey in slowest:
            lines.extend(_render_journey_tree(journey, "    "))
    forced = journeys.get("forced") or []
    if forced:
        lines.append("  pinned journeys (force_ids)")
        for journey in forced:
            lines.extend(_render_journey_tree(journey, "    "))
    return lines


#: Fuzz-campaign outcome states (mirrors ``repro.scenarios.fuzz.STATUSES``;
#: duplicated here so rendering a JSON never imports the scenario engine).
_FUZZ_STATUSES = ("pass", "violation", "stall", "crashed", "timeout")


def _render_fuzz(document: Mapping[str, Any]) -> List[str]:
    """Fuzz campaign tallies / repro-artifact sections, when present."""
    lines: List[str] = []
    tallies = document.get("tallies")
    if isinstance(tallies, Mapping) and set(tallies) & set(_FUZZ_STATUSES):
        failures = [
            failure for failure in document.get("failures") or ()
            if isinstance(failure, Mapping)
        ]
        shrink_steps = sum(failure.get("shrink_runs") or 0 for failure in failures)
        lines.append("fuzz campaign")
        rows = [("specs run", _fmt(document.get("count", sum(tallies.values()))))]
        for status in _FUZZ_STATUSES:
            if status in tallies:
                rows.append((f"  {status}", _fmt(tallies[status])))
        if "specs_per_minute" in document:
            rows.append(("specs/min", _fmt(document["specs_per_minute"])))
        rows.append(("shrink steps", _fmt(shrink_steps)))
        lines.extend(_table(rows, "  "))
        oracle = document.get("oracle")
        if isinstance(oracle, Mapping):
            shrunk = oracle.get("shrunk_events")
            lines.append(
                f"  oracle arm: {_fmt(oracle.get('violations'))} "
                f"{oracle.get('violation_kind') or '?'} violation(s) in "
                f"{_fmt(oracle.get('budget'))} specs"
                + (f", shrunk to {_fmt(shrunk)} event(s)" if shrunk is not None else "")
            )
    if document.get("kind") == "fuzz-repro":
        lines.append("fuzz repro artifact")
        lines.extend(_table([
            ("status", str(document.get("status"))),
            ("violation kind", str(document.get("violation_kind"))),
            ("shrink runs", _fmt(document.get("shrink_runs"))),
        ], "  "))
        for violation in (document.get("violations") or [])[:5]:
            lines.append(f"  - {violation}")
        journeys = document.get("journeys")
        if isinstance(journeys, list) and journeys:
            lines.append("  implicated message journeys")
            for journey in journeys:
                if isinstance(journey, Mapping):
                    lines.extend(_render_journey_tree(journey, "    "))
    return lines


def render_obs(obs: Mapping[str, Any], title: str = "") -> str:
    """Render one observation snapshot into a text block."""
    lines: List[str] = []
    if title:
        lines.append(title)
        lines.append("-" * len(title))
    if obs.get("metrics"):
        lines.extend(_render_metrics(obs["metrics"], obs.get("samples")))
    if obs.get("samples"):
        lines.extend(_render_samples(obs["samples"]))
    if obs.get("profile"):
        lines.extend(_render_profile(obs["profile"]))
    if obs.get("spans"):
        lines.extend(_render_spans(obs["spans"]))
    if obs.get("journeys"):
        lines.extend(_render_journeys(obs["journeys"]))
    if obs.get("sink_errors"):
        lines.append(f"sink errors: {obs['sink_errors']}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Whole-document rendering
# ----------------------------------------------------------------------
def find_obs_blocks(node: Any, path: str = "") -> Iterator[Tuple[str, Dict[str, Any]]]:
    """Yield every ``obs`` block in a JSON document as ``(path, block)``."""
    if isinstance(node, Mapping):
        for key, value in node.items():
            child_path = f"{path}.{key}" if path else str(key)
            if key == "obs" and isinstance(value, Mapping):
                yield child_path, dict(value)
            else:
                yield from find_obs_blocks(value, child_path)
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from find_obs_blocks(value, f"{path}[{index}]")


_HEADER_KEYS = (
    "benchmark", "scale", "seed", "wall_seconds",
    "schema_version", "git_sha", "python_version",
)


def render_document(document: Mapping[str, Any], source: str = "") -> str:
    """Render a bench/result JSON: header summary + every obs block."""
    lines: List[str] = []
    title = document.get("benchmark") or source or "result"
    lines.append(f"== {title} ==")
    header_rows = [
        (key, _fmt(document[key])) for key in _HEADER_KEYS if key in document
    ]
    lines.extend(_table(header_rows))
    summary_keys = [
        key
        for key in ("events_per_second", "deliveries", "messages_sent", "events_processed")
        if key in document
    ]
    if summary_keys:
        lines.extend(_table([(key, _fmt(document[key])) for key in summary_keys]))
    fuzz_lines = _render_fuzz(document)
    if fuzz_lines:
        lines.append("")
        lines.extend(fuzz_lines)
    blocks = list(find_obs_blocks(document))
    if not blocks and not fuzz_lines:
        lines.append("")
        lines.append("(no obs blocks in this document -- rerun with --observe)")
    for path, block in blocks:
        lines.append("")
        lines.append(render_obs(block, title=f"obs @ {path}"))
    return "\n".join(lines)


def document_has_renderable_content(document: Any) -> bool:
    """Whether ``report`` has anything beyond the header to show: an ``obs``
    block anywhere, or a fuzz campaign / repro-artifact shape."""
    if not isinstance(document, Mapping):
        return False
    if any(True for _ in find_obs_blocks(document)):
        return True
    return bool(_render_fuzz(document))


def document_has_journeys(document: Any) -> bool:
    """Whether the journey explorer has anything to show for ``document``."""
    if not isinstance(document, Mapping):
        return False
    for _, block in find_obs_blocks(document):
        if isinstance(block.get("journeys"), Mapping):
            return True
    journeys = document.get("journeys")
    return isinstance(journeys, list) and bool(journeys)


def render_journey_document(document: Mapping[str, Any], source: str = "") -> str:
    """The journey explorer view: every ``journeys`` block's span trees and
    by-cause / by-wait-state breakdowns, plus fuzz-artifact journeys."""
    title = document.get("benchmark") or source or "result"
    lines: List[str] = [f"== {title}: journeys =="]
    found = False
    for path, block in find_obs_blocks(document):
        journeys = block.get("journeys")
        if not isinstance(journeys, Mapping):
            continue
        found = True
        lines.append("")
        lines.append(f"journeys @ {path}.journeys")
        lines.extend(_render_journeys(journeys))
    artifact_journeys = document.get("journeys")
    if isinstance(artifact_journeys, list) and artifact_journeys:
        found = True
        lines.append("")
        lines.append("implicated message journeys")
        for journey in artifact_journeys:
            if isinstance(journey, Mapping):
                lines.extend(_render_journey_tree(journey, "  "))
    if not found:
        lines.append("")
        lines.append(
            "(no journeys in this document -- rerun with --observe journeys)"
        )
    return "\n".join(lines)


def paste_columns(rendered: List[str], gap: str = "  │ ") -> str:
    """Join fully-rendered text blocks side-by-side, one column each."""
    split = [text.split("\n") for text in rendered]
    height = max(len(column) for column in split)
    widths = [max((len(line) for line in column), default=0) for column in split]
    lines = []
    for row in range(height):
        cells = [
            (column[row] if row < len(column) else "").ljust(width)
            for column, width in zip(split, widths)
        ]
        lines.append(gap.join(cells).rstrip())
    return "\n".join(lines)
