"""Delta-debugging shrinker: a failing spec down to a locally-minimal repro.

Given a scenario config whose run produced checker violations,
:func:`shrink_config` searches for the smallest config that still
reproduces a violation of the *same kind* (total order, causality,
virtual synchrony, view agreement, view-scoped delivery -- see
:func:`classify_violations`).  Matching on the kind rather than the exact
violation string is what lets the spec shrink at all: removing events
renumbers views and message ids, so the string always changes while the
bug stays the same.

The search runs four reduction passes to a fixpoint under one run budget:

1. **events** -- classic ddmin over the event list (chunked removal with
   progressively finer granularity);
2. **load phases** -- greedy removal;
3. **groups** -- greedy removal (events referencing a removed group are
   dropped with it);
4. **processes** -- greedy removal (the process is scrubbed from group
   memberships, event targets/src/dst/partition components; anything the
   removal invalidates is dropped).

Every candidate is re-validated through the strict
:func:`~repro.scenarios.spec.from_config` before it is run -- an invalid
candidate is simply *not a candidate*, so the shrinker can propose
aggressive cuts without tracking cross-references itself.  Candidate runs
that crash the engine count against the budget but never count as
reproducing.

The result is *locally* minimal: no single remaining event, phase, group
or process can be removed without losing the violation kind.
"""

from __future__ import annotations

import copy
import re
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.net.trace import DELIVER
from repro.scenarios.engine import ScenarioEngine, run_scenario
from repro.scenarios.spec import InvalidScenarioSpec, from_config

#: Violation-kind classification, by distinctive checker-message fragment.
#: Order matters: the first matching fragment names the kind.
VIOLATION_KINDS: Tuple[Tuple[str, str], ...] = (
    ("virtual synchrony violated", "virtual-synchrony"),
    ("view sequences differ", "view-agreement"),
    ("total order violated", "total-order"),
    ("duplicate delivery", "total-order"),
    ("causally preceding", "causality"),
    ("outside its view", "view-delivery"),
)


def classify_violations(violations: Sequence[str]) -> Optional[str]:
    """The kind of the first recognized violation (``None`` when clean)."""
    for violation in violations:
        for fragment, kind in VIOLATION_KINDS:
            if fragment in violation:
                return kind
    return "other" if violations else None


#: Message ids as the checkers print them: ``<sender>#<counter>``.
_MSG_ID_RE = re.compile(r"[A-Za-z_][\w.\-]*#\d+")

#: The virtual-synchrony report: group, view position, the two processes.
_SYNCHRONY_RE = re.compile(
    r"virtual synchrony violated in (\S+) view (\d+): (\S+) and (\S+) delivered"
)


def implicated_message_ids(violations: Sequence[str]) -> List[str]:
    """Message ids named by checker violation strings, deduplicated in
    first-mention order (the order the checkers reported them)."""
    seen: List[str] = []
    for violation in violations:
        for msg_id in _MSG_ID_RE.findall(violation):
            if msg_id not in seen:
                seen.append(msg_id)
    return seen


def explain_journeys(
    config: Mapping,
    violations: Sequence[str],
    stack: str = "newtop",
    max_messages: int = 8,
) -> List[Dict[str, object]]:
    """Re-run ``config`` with journey tracing pinned to the messages the
    ``violations`` name, and return their full journeys.

    A virtual-synchrony report names no message, only two processes and a
    view: then the messages are the ones those processes' deliveries in
    that view differ on (:func:`_differing_deliveries`).  The replay is
    deterministic (same spec, same seed), so the journeys describe exactly
    the run that violated -- created / sent / held / sequenced / delivered
    transitions with simulated timestamps.  Returns ``[]`` when no message
    is implicated, or on replay failure (explanations are best-effort
    evidence, never a second crash).
    """
    try:
        force_ids = implicated_message_ids(violations)
        if not force_ids:
            force_ids = _differing_deliveries(config, violations, stack=stack)
        force_ids = force_ids[:max_messages]
        if not force_ids:
            return []
        result = run_scenario(
            config,
            stack=stack,
            observe={
                "sampler": False,
                "journeys": True,
                "journey_force_ids": force_ids,
                # Only the pinned ids: 1-in-2^32 background sampling.
                "journey_sample_rate": 1 << 32,
            },
        )
    except Exception:
        return []
    obs = result.obs or {}
    block = obs.get("journeys") or {}
    return list(block.get("forced") or [])


def _differing_deliveries(
    config: Mapping, violations: Sequence[str], stack: str = "newtop"
) -> List[str]:
    """The message ids the first virtual-synchrony report's two processes
    delivered in the named view but not both, sorted.

    The report gives only counts, so ``config`` is replayed with its trace
    stored and the two processes' deliveries stamped with that view are
    compared.  ``[]`` when no violation is such a report.
    """
    for violation in violations:
        match = _SYNCHRONY_RE.search(violation)
        if match is not None:
            break
    else:
        return []
    group, view, first, second = match.groups()
    engine = ScenarioEngine(from_config(config), stack=stack)
    engine.run()
    delivered: Dict[str, set] = {first: set(), second: set()}
    for event in engine.session.trace().events(kind=DELIVER, group=group):
        if event.process in delivered and event.detail("view_index") == int(view):
            delivered[event.process].add(event.message_id)
    engine.session.release()
    return sorted(delivered[first] ^ delivered[second])


@dataclass
class ShrinkResult:
    """Outcome of one shrink search."""

    #: The locally-minimal reproducing config.
    config: Dict[str, object]
    #: The violation kind every kept candidate reproduced.
    violation_kind: str
    #: Violations of the final minimal run (evidence for the artifact).
    violations: List[str] = field(default_factory=list)
    #: Scenario runs spent (including non-reproducing and crashed ones).
    runs: int = 0
    #: (events, processes, groups, load_phases) before and after.
    original_size: Tuple[int, int, int, int] = (0, 0, 0, 0)
    final_size: Tuple[int, int, int, int] = (0, 0, 0, 0)
    #: True when the run budget expired before reaching a fixpoint.
    budget_exhausted: bool = False
    #: Full journeys of the messages the final violations implicate
    #: (:func:`explain_journeys` over the minimal config; empty when no
    #: violation names a message or a custom oracle ran the search).
    journeys: List[Dict[str, object]] = field(default_factory=list)


def _size(config: Mapping) -> Tuple[int, int, int, int]:
    return (
        len(config.get("events", ())),
        len(config.get("processes", ())),
        len(config.get("groups", ())),
        len(config.get("load_phases", ())),
    )


def _without_group(config: Dict, group_id: str) -> Dict:
    candidate = copy.deepcopy(config)
    candidate["groups"] = [
        group for group in candidate["groups"] if group["id"] != group_id
    ]
    candidate["events"] = [
        event for event in candidate.get("events", ())
        if event.get("group") != group_id
    ]
    return candidate


def _without_process(config: Dict, name: str) -> Dict:
    candidate = copy.deepcopy(config)
    candidate["processes"] = [p for p in candidate["processes"] if p != name]
    groups = []
    for group in candidate["groups"]:
        members = [m for m in group["members"] if m != name]
        if len(members) >= 2:
            groups.append({**group, "members": members})
    candidate["groups"] = groups
    kept_groups = {group["id"] for group in groups}
    events = []
    for event in candidate.get("events", ()):
        event = dict(event)
        for key in ("targets", "src", "dst"):
            if key in event:
                event[key] = [p for p in event[key] if p != name]
        if "components" in event:
            components = [
                [p for p in side if p != name] for side in event["components"]
            ]
            event["components"] = [side for side in components if side]
        kind = event["kind"]
        if kind in ("crash", "isolate", "leave") and not event.get("targets"):
            continue
        if kind == "leave" and event.get("group") not in kept_groups | {
            e.get("group") for e in candidate.get("events", ())
            if e.get("kind") == "form_group"
        }:
            continue
        if kind == "form_group" and len(event.get("targets", ())) < 2:
            continue
        if kind == "partition" and not event.get("components"):
            continue
        if kind == "drop" and (not event.get("src") or not event.get("dst")):
            continue
        events.append(event)
    candidate["events"] = events
    return candidate


def shrink_config(
    config: Mapping,
    violation_kind: Optional[str] = None,
    max_runs: int = 120,
    run: Optional[Callable[[Mapping], Sequence[str]]] = None,
    stack: str = "newtop",
) -> ShrinkResult:
    """Shrink ``config`` while a violation of ``violation_kind`` persists.

    ``violation_kind`` defaults to whatever one initial run of ``config``
    produces (raising ``ValueError`` if that run is clean -- there is
    nothing to shrink).  ``run`` overrides the oracle (tests use it to
    count invocations); the default runs the scenario on ``stack`` and
    returns its checker violations.
    """
    state = {"runs": 0, "exhausted": False}

    def oracle(candidate: Mapping) -> Sequence[str]:
        state["runs"] += 1
        if run is not None:
            return run(candidate)
        return run_scenario(candidate, stack=stack).checks.violations

    def reproduces(candidate: Mapping) -> Tuple[bool, List[str]]:
        if state["runs"] >= max_runs:
            state["exhausted"] = True
            return False, []
        try:
            from_config(candidate)
        except InvalidScenarioSpec:
            return False, []
        try:
            violations = list(oracle(candidate))
        except Exception:
            return False, []
        return classify_violations(violations) == violation_kind, violations

    current: Dict[str, object] = copy.deepcopy(dict(config))
    if violation_kind is None:
        initial = list(oracle(current))
        violation_kind = classify_violations(initial)
        if violation_kind is None:
            raise ValueError("config runs clean; nothing to shrink")
        best_violations = initial
    else:
        best_violations = []
    original_size = _size(current)

    def try_keep(candidate: Dict[str, object]) -> bool:
        nonlocal current, best_violations
        ok, violations = reproduces(candidate)
        if ok:
            current = candidate
            best_violations = list(violations)
        return ok

    def ddmin_events() -> bool:
        """One ddmin sweep over the event list; True if anything shrank."""
        shrank = False
        granularity = 2
        while len(current.get("events", ())) >= 2 and not state["exhausted"]:
            events = list(current["events"])
            chunk = max(1, len(events) // granularity)
            removed_any = False
            start = 0
            while start < len(events) and not state["exhausted"]:
                candidate = copy.deepcopy(current)
                candidate["events"] = events[:start] + events[start + chunk:]
                if try_keep(candidate):
                    events = list(current["events"])
                    shrank = removed_any = True
                    # Stay at this granularity; the list just got shorter.
                    chunk = max(1, len(events) // granularity)
                else:
                    start += chunk
            if removed_any:
                granularity = max(2, granularity - 1)
                continue
            if chunk == 1:
                break
            granularity = min(len(events), granularity * 2)
        # A final single-event pass (ddmin's complement step at chunk 1
        # already covers this unless the budget cut the loop short).
        for index in range(len(current.get("events", ())) - 1, -1, -1):
            if state["exhausted"] or index >= len(current["events"]):
                continue
            candidate = copy.deepcopy(current)
            del candidate["events"][index]
            shrank |= try_keep(candidate)
        return shrank

    def greedy(items: Callable[[], List], remove: Callable[[object], Dict]) -> bool:
        shrank = False
        progress = True
        while progress and not state["exhausted"]:
            progress = False
            for item in items():
                if try_keep(remove(item)):
                    shrank = progress = True
                    break
        return shrank

    progress = True
    while progress and not state["exhausted"]:
        progress = False
        progress |= ddmin_events()
        progress |= greedy(
            lambda: list(range(len(current.get("load_phases", ())))),
            lambda index: {
                **copy.deepcopy(current),
                "load_phases": [
                    phase for position, phase
                    in enumerate(current.get("load_phases", ()))
                    if position != index
                ],
            },
        )
        progress |= greedy(
            lambda: [group["id"] for group in current.get("groups", ())],
            lambda group_id: _without_group(current, group_id),
        )
        progress |= greedy(
            lambda: list(current.get("processes", ())),
            lambda name: _without_process(current, name),
        )

    if not best_violations:
        # The caller supplied violation_kind; record the minimal run's
        # evidence (one extra run, best-effort under the budget).
        ok, violations = reproduces(current)
        if ok:
            best_violations = violations
    journeys: List[Dict[str, object]] = []
    if run is None and best_violations:
        # Explain the violation: replay the minimal config with journey
        # tracing pinned to the implicated messages (skipped under a
        # custom oracle, whose candidates may not be runnable scenarios).
        journeys = explain_journeys(current, best_violations, stack=stack)
    return ShrinkResult(
        config=current,
        violation_kind=violation_kind,
        violations=list(best_violations)[:5],
        runs=state["runs"],
        original_size=original_size,
        final_size=_size(current),
        budget_exhausted=state["exhausted"],
        journeys=journeys,
    )
