"""The tests' oracle: post-hoc checkers for the paper's guarantees.

The paper states its guarantees as predicates over executions (§3).  Every
run's verdict comes from the streaming suite in
:mod:`repro.analysis.online`; these functions evaluate the same predicates
a second, independent way -- over a stored
:class:`~repro.net.trace.EventTrace`, with the happened-before relation
built as an explicit transitive closure -- so tests can check a run with
both and ``tests/test_online_checkers.py`` can require that the two agree.

Checked properties
------------------
* **MD4 / MD4' (total order)** -- any two processes deliver the messages
  they both deliver in the same relative order, within a group and across
  groups, and each process's delivery order respects the happened-before
  relation of the sends.
* **MD1 (validity)** -- a message is delivered only while its sender is in
  the delivering process's current view of the message's group.
* **MD3 / VC3 (view atomicity / virtual synchrony)** -- processes that
  install the same pair of consecutive views deliver the same set of the
  group's messages between them.
* **VC1 (view validity)** -- processes that never suspect each other
  install identical view sequences (checked pairwise on surviving,
  never-partitioned processes).
* **MD5 / MD5' (causal prefix)** -- if ``m -> m'`` and ``m'`` is delivered
  at a process while ``m``'s sender is still in that process's view of
  ``m``'s group, then ``m`` was delivered before ``m'``.

Crashed processes are exempt from liveness-flavoured checks (a crashed
process may have delivered a prefix only), exactly as the paper's
properties quantify over functioning processes.

The reports differ from the suite's: a causal violation here is listed
once per (earlier, later) pair of the closure, so one missing predecessor
is reported once for every later message that depends on it.  Some checks
are quadratic in processes or messages; that is the price of being a
straightforward second opinion.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple
from weakref import WeakKeyDictionary

from repro.analysis.online import CheckResult
from repro.net.trace import CRASH, DELIVER, DEPART, EventTrace, SEND, VIEW_INSTALL


def trace_groups(trace: EventTrace) -> List[str]:
    """All group identifiers appearing in the trace."""
    return sorted({event.group for event in trace if event.group is not None})


def crashed_processes(trace: EventTrace) -> List[str]:
    """Processes that recorded a crash event."""
    return sorted({event.process for event in trace.events(kind=CRASH)})


#: trace -> group argument -> its happened-before pairs
_HB_CACHE: WeakKeyDictionary = WeakKeyDictionary()


def happened_before_pairs(
    trace: EventTrace, group: Optional[str] = None
) -> List[Tuple[str, str]]:
    """Pairs ``(m, m')`` of message ids with ``send(m) -> send(m')``.

    The happened-before relation is reconstructed per the paper: m -> m'
    if the same process sent m before m', or if some process delivered m
    before sending m', closed transitively.  Quadratic in the number of
    messages, so the result is memoized per trace and ``group`` argument
    (:func:`check_all` evaluates it globally twice and once per group).
    """
    cache = _HB_CACHE.setdefault(trace, {})
    cached = cache.get(group)
    if cached is not None:
        return cached
    per_process: Dict[str, List] = {}
    for event in trace:
        if event.kind in (SEND, DELIVER):
            if group is not None and event.group != group:
                continue
            per_process.setdefault(event.process, []).append(event)

    direct: Dict[str, set] = {}
    for events in per_process.values():
        seen_messages: List[str] = []
        for event in events:
            if event.message_id is None:
                continue
            if event.kind == SEND:
                for earlier in seen_messages:
                    if earlier != event.message_id:
                        direct.setdefault(earlier, set()).add(event.message_id)
            seen_messages.append(event.message_id)

    # Transitive closure (messages at test scale are few enough).
    closed: Dict[str, set] = {key: set(values) for key, values in direct.items()}
    changed = True
    while changed:
        changed = False
        for key in list(closed):
            additions = set()
            for successor in closed[key]:
                additions |= closed.get(successor, set())
            if not additions.issubset(closed[key]):
                closed[key] |= additions
                changed = True
    # Sorted: the checkers report violations in pair order, and a set's
    # order is the interpreter's string hash seed.
    pairs = [
        (earlier, later)
        for earlier, laters in closed.items()
        for later in sorted(laters)
    ]
    cache[group] = pairs
    return pairs


def _subsequence_of_common(first: Sequence[str], second: Sequence[str]) -> Optional[Tuple[str, str]]:
    """Return a witness pair ordered differently in the two sequences, if any.

    Only messages delivered by *both* processes are compared (a process may
    legitimately not deliver messages sent by members it excluded).
    """
    common = set(first) & set(second)
    first_common = [item for item in first if item in common]
    second_common = [item for item in second if item in common]
    position = {item: index for index, item in enumerate(second_common)}
    previous_index = -1
    previous_item: Optional[str] = None
    for item in first_common:
        index = position[item]
        if index < previous_index and previous_item is not None:
            return (previous_item, item)
        if index > previous_index:
            previous_index = index
            previous_item = item
    return None


def _delivery_records(
    trace: EventTrace, process: str, group: Optional[str]
) -> List[Tuple[str, Optional[frozenset]]]:
    """``(message_id, view members at delivery)`` per delivery at ``process``.

    The members are those of the delivering process's view of the
    *message's* group in force at the delivery; ``None`` when no view was
    ever installed (stacks without membership record no installs -- their
    deliveries stay unconditionally order-constrained).
    """
    timelines = _view_timelines(trace, process)
    records: List[Tuple[str, Optional[frozenset]]] = []
    for event in trace.events(kind=DELIVER, process=process):
        if event.message_id is None:
            continue
        if group is not None and event.group != group:
            continue
        members: Optional[frozenset] = None
        if event.group is not None:
            timeline = timelines.get(event.group)
            if timeline:
                members = _view_at(timeline, event.time, event.seq)
        records.append((event.message_id, members))
    return records


def check_total_order(trace: EventTrace, group: Optional[str] = None) -> CheckResult:
    """MD4/MD4': pairwise identical relative delivery order, plus causal
    consistency of each process's own delivery order.

    With ``group`` given, only that group's deliveries are compared (MD4);
    without it, each process's *entire* cross-group delivery sequence is
    compared (MD4').

    The pairwise comparison is scoped by mutual view membership: a delivery
    at ``p`` constrains the pair ``(p, q)`` only while ``p``'s view of the
    message's group still contains ``q`` (and vice versa).  Processes that
    have mutually excluded each other -- the two sides of a partition --
    proceed independently, exactly as the paper's Example 3 permits;
    requiring their post-divergence sequences to agree would reject correct
    executions.  Deliveries without any installed view stay constrained,
    so stacks that record no membership are checked in full.
    """
    violations: List[str] = []
    processes = trace.processes()
    records = {
        process: _delivery_records(trace, process, group) for process in processes
    }
    sequences = {
        process: [message for message, _ in records[process]]
        for process in processes
    }
    for i, first_process in enumerate(processes):
        for second_process in processes[i + 1 :]:
            witness = _subsequence_of_common(
                [
                    message
                    for message, members in records[first_process]
                    if members is None or second_process in members
                ],
                [
                    message
                    for message, members in records[second_process]
                    if members is None or first_process in members
                ],
            )
            if witness is not None:
                violations.append(
                    f"total order violated between {first_process} and {second_process}: "
                    f"{witness[0]} vs {witness[1]}"
                )
    # Causal consistency of each local order: m -> m' implies m delivered
    # before m' whenever both are delivered.
    pairs = happened_before_pairs(trace, group)
    for process in processes:
        order = {msg_id: index for index, msg_id in enumerate(sequences[process])}
        for earlier, later in pairs:
            if earlier in order and later in order and order[earlier] > order[later]:
                violations.append(
                    f"{process} delivered {later} before causally preceding {earlier}"
                )
    return CheckResult("total_order", not violations, violations)


def _view_timelines(
    trace: EventTrace, process: str
) -> Dict[str, List[Tuple[float, int, frozenset]]]:
    """Per group, the timeline of views installed at ``process`` (shared
    by the MD1 and MD5' checkers)."""
    view_timeline: Dict[str, List[Tuple[float, int, frozenset]]] = {}
    for event in trace.events(kind=VIEW_INSTALL, process=process):
        view_timeline.setdefault(event.group, []).append(
            (event.time, event.seq, frozenset(event.detail("members", ())))
        )
    return view_timeline


def _view_at(
    timeline: Iterable[Tuple[float, int, frozenset]], time: float, seq: int
) -> Optional[frozenset]:
    """The view in force at ``(time, seq)``: the last install not after it."""
    current: Optional[frozenset] = None
    for install_time, install_seq, members in timeline:
        if (install_time, install_seq) <= (time, seq):
            current = members
        else:
            break
    return current


def check_sender_in_view(trace: EventTrace) -> CheckResult:
    """MD1: each delivery's sender belongs to the view in force at that
    process for the message's group at delivery time."""
    violations: List[str] = []
    for process in trace.processes():
        view_timeline = _view_timelines(trace, process)
        for event in trace.events(kind=DELIVER, process=process):
            timeline = view_timeline.get(event.group)
            if not timeline:
                continue
            current = _view_at(timeline, event.time, event.seq)
            if current is not None and event.sender not in current:
                violations.append(
                    f"{process} delivered {event.message_id} from {event.sender} "
                    f"outside its view {sorted(current)} of {event.group}"
                )
    return CheckResult("sender_in_view", not violations, violations)


def check_view_sequences(
    trace: EventTrace,
    group: str,
    processes: Optional[Iterable[str]] = None,
) -> CheckResult:
    """VC1: the listed processes installed identical view sequences.

    Callers pass the set of processes expected to agree (e.g. the members of
    one surviving partition component); by default every process that
    installed at least one view of the group and never crashed is included,
    which is only appropriate for partition-free runs.
    """
    violations: List[str] = []
    crashed = set(crashed_processes(trace))
    if processes is None:
        candidates = [
            process
            for process in trace.processes()
            if process not in crashed and trace.view_sequence(process, group)
        ]
    else:
        candidates = [process for process in processes if process not in crashed]
    sequences = {process: trace.view_sequence(process, group) for process in candidates}
    if len(candidates) > 1:
        reference_process = candidates[0]
        reference = sequences[reference_process]
        for process in candidates[1:]:
            if sequences[process] != reference:
                violations.append(
                    f"view sequences differ for {group}: {reference_process}="
                    f"{[sorted(view) for view in reference]} vs {process}="
                    f"{[sorted(view) for view in sequences[process]]}"
                )
    return CheckResult("view_sequences", not violations, violations)


def check_same_view_delivery_sets(
    trace: EventTrace,
    group: str,
    processes: Optional[Iterable[str]] = None,
) -> CheckResult:
    """MD3/VC3 (virtual synchrony): processes that installed the same pair
    of consecutive views delivered the same set of the group's messages
    between those installations."""
    violations: List[str] = []
    crashed = set(crashed_processes(trace))
    candidates = [
        process
        for process in (processes if processes is not None else trace.processes())
        if process not in crashed
    ]
    # For each process: list of (view_index, delivered ids while that view
    # was current).
    per_process: Dict[str, Dict[int, Set[str]]] = {}
    for process in candidates:
        deliveries_by_view: Dict[int, Set[str]] = {}
        for event in trace.events(kind=DELIVER, process=process, group=group):
            view_index = event.detail("view_index")
            if view_index is None:
                continue
            deliveries_by_view.setdefault(int(view_index), set()).add(event.message_id)
        per_process[process] = deliveries_by_view
    views_of = {
        process: trace.view_sequence(process, group) for process in candidates
    }
    for i, first in enumerate(candidates):
        for second in candidates[i + 1 :]:
            first_views = views_of[first]
            second_views = views_of[second]
            # Compare deliveries in view r whenever both installed the same
            # view r and the same view r+1 (the paper's premise for MD3).
            shared = min(len(first_views), len(second_views))
            for r in range(shared - 1):
                if first_views[r] != second_views[r]:
                    continue
                if first_views[r + 1] != second_views[r + 1]:
                    continue
                delivered_first = per_process[first].get(r, set())
                delivered_second = per_process[second].get(r, set())
                if delivered_first != delivered_second:
                    difference = delivered_first ^ delivered_second
                    violations.append(
                        f"virtual synchrony violated in {group} view {r}: "
                        f"{first} vs {second} differ on {sorted(difference)}"
                    )
    return CheckResult("same_view_delivery_sets", not violations, violations)


def check_causal_prefix(trace: EventTrace) -> CheckResult:
    """MD5/MD5': a delivered message is preceded by every causally prior
    message whose sender is still in the delivering process's view of that
    message's group at delivery time."""
    violations: List[str] = []
    pairs = happened_before_pairs(trace)
    send_info: Dict[str, Tuple[str, str]] = {}
    for event in trace.events(kind=SEND):
        if event.message_id is not None:
            send_info[event.message_id] = (event.sender or event.process, event.group)
    for process in trace.processes():
        delivered_order = trace.delivered_ids(process)
        delivered_set = set(delivered_order)
        position = {msg_id: index for index, msg_id in enumerate(delivered_order)}
        view_timeline = _view_timelines(trace, process)
        # A voluntary departure ends the process's membership: afterwards it
        # keeps no view of the group, so causal predecessors from that group
        # are exempt (same clause of MD5' that covers excluded senders).
        departed_at: Dict[str, Tuple[float, int]] = {}
        for event in trace.events(kind=DEPART, process=process):
            if event.group is not None and event.group not in departed_at:
                departed_at[event.group] = (event.time, event.seq)
        deliver_events = {
            event.message_id: event
            for event in trace.events(kind=DELIVER, process=process)
        }
        for earlier, later in pairs:
            if later not in delivered_set:
                continue
            if earlier not in send_info:
                continue
            earlier_sender, earlier_group = send_info[earlier]
            later_event = deliver_events.get(later)
            if later_event is None:
                continue
            departure = departed_at.get(earlier_group)
            if departure is not None and departure <= (later_event.time, later_event.seq):
                # The process had departed earlier's group by then.
                continue
            # View of earlier's group in force when `later` was delivered.
            current = _view_at(
                view_timeline.get(earlier_group, []),
                later_event.time,
                later_event.seq,
            )
            if current is None or earlier_sender not in current:
                # MD5' explicitly allows the causal predecessor to be
                # missing when its sender has been excluded from the view.
                continue
            if earlier not in delivered_set or position[earlier] > position[later]:
                violations.append(
                    f"{process} delivered {later} without (or before) causally "
                    f"preceding {earlier} whose sender {earlier_sender} is still "
                    f"in its view of {earlier_group}"
                )
    return CheckResult("causal_prefix", not violations, violations)


def check_all(
    trace: EventTrace,
    groups: Optional[Iterable[str]] = None,
    view_agreement_sets: Optional[Dict[str, Iterable[str]]] = None,
) -> CheckResult:
    """Run every checker and combine the results.

    ``view_agreement_sets`` optionally maps group id to the processes
    expected to agree on view sequences (use it in partition scenarios,
    where only same-side processes must agree).

    The happened-before relation is memoized per trace and the per-kind
    event indexes inside :class:`~repro.net.trace.EventTrace`, so the
    global and per-group passes here share one computation per variant.
    """
    result = check_total_order(trace)
    result = result.merge(check_sender_in_view(trace))
    result = result.merge(check_causal_prefix(trace))
    for group in groups if groups is not None else trace_groups(trace):
        expected = view_agreement_sets.get(group) if view_agreement_sets else None
        result = result.merge(check_total_order(trace, group))
        result = result.merge(check_view_sequences(trace, group, expected))
        result = result.merge(check_same_view_delivery_sets(trace, group, expected))
    return result
