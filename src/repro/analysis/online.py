"""The checkers for the paper's guarantees: one streaming suite.

The paper states its guarantees as predicates over executions.  This
module checks each of them *incrementally*, as the events are recorded:
:class:`OnlineCheckSuite` is the one :class:`~repro.net.trace.TraceSink`,
and each checker is one of its parts, so every run -- stored trace or not
-- gets its verdict from the same code.  Work per event never depends on
the process count or the run length; what it does depend on is stated per
checker:

* :class:`OnlineTotalOrder` (MD4/MD4') -- a shared global-position arbiter
  assigns each message a position at its first delivery anywhere; every
  later delivery is validated against per-pair delivery watermarks
  (conflict detection), O(deliverers-of-message) per delivery instead of
  O(P^2) sequence comparisons at the end; a message's deliverer map is
  dropped once every member of its views has delivered it.
* :class:`OnlineCausalOrder` (MD5/MD5' and causal delivery consistency) --
  delta-stamped vector clocks: each send is stamped with the entries of
  the sender's causal context that moved since its previous send, so a
  message's causal past is the per-sender prefixes below the vector its
  sender's delta chain adds up to.  A delivery folds only the deltas the
  process has not yet folded from that sender, and a per-process frontier
  visits each causal predecessor once: O(entries moved since the sender's
  last message folded here) per delivery -- the whole chain, i.e. the
  full vector, on the first delivery from a sender -- plus amortized O(1)
  per predecessor, instead of a transitive closure over all message pairs.
* :class:`OnlineSenderInView` (MD1) -- each delivery is an O(1)
  membership test against the current view of its group.
* :class:`OnlineVirtualSynchrony` (MD3/VC3) -- per-(process, group,
  view_index) delivery-set fingerprints (order-independent hash + count);
  processes that installed the same consecutive views must have equal
  fingerprints for the enclosed interval.
* :class:`OnlineViewAgreement` (VC1) -- per-(process, group) view
  sequences, compared at :meth:`result` time within the expected
  agreement sets.

The suite dispatches once: ``view_install``, ``depart`` and ``crash`` go
to its view timeline, each ``send`` to the checkers that take sends, and
each run of deliveries whole to the checkers that take deliveries.  The
timeline is the suite's one record of view facts -- current views,
departures, every install history and the crashed processes -- and the
checkers read it instead of keeping copies.  A session attaches the
stack's suite to its :class:`~repro.net.trace.TraceRecorder` in either
analysis mode (``keep_events=False`` when nothing is stored) and reads
:meth:`~OnlineCheckSuite.result` at the end of the run; a stored or parsed
trace is checked by replaying it, its deliveries regrouped into the runs
they were recorded as, through a fresh suite (:func:`check_events`).

The reports are worded once, here.  A causality violation reads "<p>
delivered <m'> without causally preceding <m> whose sender <s> is still in
its view of <g>", and names one missed predecessor: each (process,
predecessor) pair is checked once, at the first delivery whose causal past
covers it, so a predecessor that never arrives is reported once per
process, not once per later message that depends on it.  A delivery from
an already-excluded sender that inverts a causal pair is reported under
MD1 ("outside its view"), because exclusion exempts it from MD5' by the
paper's own clause.

``tests/oracle_checkers.py`` keeps an independent post-hoc evaluation of
the same predicates over a stored trace; ``tests/test_online_checkers.py``
requires the two to agree on every verdict and on the kind of the first
violation, on seeded executions, on mutated ones and on fuzz specs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.net.trace import (
    CRASH,
    DELIVER,
    DEPART,
    SEND,
    DeliveryRun,
    TraceEvent,
    TraceSink,
    VIEW_INSTALL,
    delivery_runs,
)


@dataclass
class CheckResult:
    """Outcome of one (or several) property checks."""

    name: str
    passed: bool
    violations: List[str] = field(default_factory=list)

    def merge(self, other: "CheckResult") -> "CheckResult":
        """Combine two results into one (AND of passes, union of violations)."""
        return CheckResult(
            name=f"{self.name}+{other.name}",
            passed=self.passed and other.passed,
            violations=self.violations + other.violations,
        )

    def __bool__(self) -> bool:
        return self.passed


class _ViewTimeline:
    """The suite's one record of view facts, fed once per ``view_install``,
    ``depart`` and ``crash``: the current members of each process's groups,
    the groups each process has departed, each (process, group)'s install
    history and the crashed processes.  The checkers read it and keep no
    copy; every installed composition is held once, the frozenset that
    processes installing it share.
    """

    def __init__(self) -> None:
        #: process -> group -> current members
        self.views: Dict[str, Dict[str, FrozenSet[str]]] = {}
        #: process -> groups it has departed
        self.departed: Dict[str, Set[str]] = {}
        #: (process, group) -> the compositions it installed, in order; the
        #: pairs in the order of their first install
        self.installs: Dict[Tuple[str, str], List[FrozenSet[str]]] = {}
        self.crashed: Set[str] = set()
        #: every composition installed so far, each the one shared copy
        self._shared: Dict[FrozenSet[str], FrozenSet[str]] = {}

    def on_event(self, event: TraceEvent) -> None:
        """Record a view fact; an event of any other kind is ignored."""
        kind, process, group = event.kind, event.process, event.group
        if kind == CRASH:
            self.crashed.add(process)
        elif group is None:
            return
        elif kind == VIEW_INSTALL:
            composition = frozenset(event.detail("members", ()))
            members = self._shared.setdefault(composition, composition)
            self.views.setdefault(process, {})[group] = members
            self.installs.setdefault((process, group), []).append(members)
        elif kind == DEPART:
            self.departed.setdefault(process, set()).add(group)


class OnlineChecker:
    """Base class: one property of an :class:`OnlineCheckSuite`,
    accumulating a :class:`CheckResult`.

    A checker reads the suite's view timeline and is fed by the suite
    through the hooks it defines: ``on_deliveries(time, process, run,
    first_seq)`` for each run of deliveries, ``on_send(event)`` for each
    ``send``.  Subclasses set :attr:`name`, and either append to
    :attr:`violations` as they are detected or override :meth:`result` for
    end-of-run evaluation.
    """

    name = "online"

    def __init__(self, timeline: _ViewTimeline) -> None:
        self._timeline = timeline
        self.violations: List[str] = []

    def result(self) -> CheckResult:
        """The verdict over everything seen so far."""
        return CheckResult(self.name, not self.violations, list(self.violations))


class _OpenMessage:
    """A message whose deliverer map :class:`OnlineTotalOrder` still holds,
    with what it needs to tell when the map may close."""

    __slots__ = ("deliverers", "members", "inside", "closed")

    def __init__(
        self,
        process: str,
        position: int,
        view: Optional[FrozenSet[str]],
        closed: Optional[FrozenSet[str]],
    ) -> None:
        #: process -> (local delivery position, members of the process's
        #: view of the message's group at that delivery, or None)
        self.deliverers: Dict[str, Tuple[int, Optional[FrozenSet[str]]]] = {
            process: (position, view)
        }
        #: the union of the deliverers' views -- almost always the one
        #: view they share -- or None once a deliverer had none: the map
        #: then never closes
        self.members = view
        #: how many deliverers are in ``members``
        self.inside = 1 if view is not None and process in view else 0
        #: the tombstone of an earlier close of the same message, if any
        self.closed = closed


class OnlineTotalOrder(OnlineChecker):
    """MD4/MD4': pairwise-consistent delivery order, checked per delivery.

    A shared arbiter assigns every message a global position the first time
    any process delivers it, defining the reference total order.  Conflict
    detection uses per-pair watermarks: ``watermark[p][q]`` holds the
    highest position *in q's local sequence* of any message both p and q
    have delivered (with the message id as witness).  When p delivers m
    that q delivered at local position j, a violation exists iff
    ``watermark[p][q] > j`` -- i.e. p previously delivered some m' that q
    delivered *after* m, so p orders m' before m while q orders m before
    m'.  Each delivery costs O(#processes that already delivered the same
    message) -- bounded by group size -- and the common case (delivery in
    arbiter order, first deliverer) is O(1).

    This checks the cross-group relation (MD4'), which subsumes the
    per-group one: a group's delivery sequence is a projection of the
    process's full sequence, so any per-group inversion is a full-sequence
    inversion.

    The pairwise constraint is scoped by mutual view membership: a delivery at ``p`` constrains the pair ``(p, q)``
    only while ``p``'s view of the message's group still contains ``q``
    (and symmetrically).  Partitioned sides that have mutually excluded
    each other proceed independently (the paper's Example 3); deliveries
    without any installed view stay constrained.

    Memory is the checker's own stability rule (§5.1 applied to the
    checker): a message's deliverer map closes once every member of every
    view recorded by one of its deliverers has delivered it.  A process
    that delivers it later is outside every recorded view, so mutual-view
    scoping skips each of its pairs with the earlier deliverers; it opens
    a fresh map and is checked against the later deliverers that hold it
    in view.  A deliverer with no view keeps the map open.  What stays per
    message is its arbiter rank and a tombstone: the union of its views
    and deliverers, usually the one view they share.  On a run whose
    messages all reach their views, the maps held at the end are none
    (:meth:`maps_held`; ``benchmarks/bench_observation_path.py`` gates
    it), and the tombstones one per message (:meth:`closed_held`).

    A process delivering a message it has already delivered -- in its map
    or in its tombstone -- is reported as a duplicate delivery.
    """

    name = "total_order"

    def __init__(self, timeline: _ViewTimeline) -> None:
        super().__init__(timeline)
        self.events_seen = 0
        #: The arbiter's output: message id -> global position in the
        #: reference delivery order (first-delivery rank).  Every process's
        #: delivery sequence must embed into this order on its common
        #: messages; exposed for observability and debugging.
        self.arbiter_position: Dict[str, int] = {}
        self._next_position = 0
        #: message id -> its open deliverer map
        self._open: Dict[str, _OpenMessage] = {}
        #: message id -> tombstone of its closed map: every process that
        #: had delivered it by the close
        self._closed: Dict[str, FrozenSet[str]] = {}
        #: process -> number of deliveries so far (its local position counter)
        self._local_count: Dict[str, int] = {}
        #: p -> q -> (max local position in q of a message delivered by
        #: both, witness message id); p's row exists from its first delivery
        self._watermark: Dict[str, Dict[str, Tuple[int, str]]] = {}

    def on_deliveries(self, time: float, process: str, run: DeliveryRun, first_seq: int) -> None:
        self.events_seen += len(run)
        local_pos = self._local_count.get(process, 0)
        watermark = self._watermark
        marks = watermark.get(process)
        if marks is None:
            marks = watermark[process] = {}
        views = self._timeline.views.get(process)
        opened, closed = self._open, self._closed
        for group, message, _sender, _clock, _view_index in run:
            if message is None:
                continue
            position = local_pos
            local_pos += 1
            view = views.get(group) if views is not None else None
            entry = opened.get(message)
            if entry is None:
                tombstone = closed.get(message)
                if tombstone is None:
                    # First delivery anywhere: the arbiter assigns the global slot.
                    self.arbiter_position[message] = self._next_position
                    self._next_position += 1
                elif process in tombstone:
                    self._duplicate(process, message)
                    continue
                entry = opened[message] = _OpenMessage(process, position, view, tombstone)
            else:
                deliverers = entry.deliverers
                again = process in deliverers
                if again or (entry.closed is not None and process in entry.closed):
                    self._duplicate(process, message)
                here = (position, message)
                for other, (other_pos, other_view) in deliverers.items():
                    # Mutual-view scoping: this common message binds the pair
                    # only if each side still saw the other in its view at
                    # delivery.
                    if view is not None and other not in view:
                        continue
                    if other_view is not None and process not in other_view:
                        continue
                    mark = marks.get(other)
                    if mark is not None and mark[0] > other_pos:
                        self.violations.append(
                            f"total order violated between {process} and {other}: "
                            f"{process} delivered {mark[1]} before {message}, "
                            f"{other} delivered {message} before {mark[1]} "
                            f"(arbiter order: {message}="
                            f"{self.arbiter_position.get(message)}, {mark[1]}="
                            f"{self.arbiter_position.get(mark[1])})"
                        )
                    # Update both directions' watermarks with this common
                    # message.  The reverse one always moves: position is the
                    # highest this process has handed out.
                    if mark is None or other_pos > mark[0]:
                        marks[other] = (other_pos, message)
                    watermark[other][process] = here
                deliverers[process] = (position, view)
                members = entry.members
                if members is None:
                    continue
                if view is None:
                    entry.members = None
                    continue
                if view is not members and not view <= members:
                    # A view other than the one the deliverers share so far
                    # (a message delivered across a view change): recount.
                    members = entry.members = members | view
                    entry.inside = sum(1 for other in deliverers if other in members)
                elif not again and process in members:
                    entry.inside += 1
            members = entry.members
            if members is not None and entry.inside == len(members):
                self._close(message, entry)
        self._local_count[process] = local_pos

    def _close(self, message: str, entry: _OpenMessage) -> None:
        """Every member of every view recorded for ``message`` has
        delivered it: forget its map, keep who delivered it."""
        assert entry.members is not None
        tombstone = entry.members
        if entry.inside < len(entry.deliverers):
            # A deliverer outside its own view (only a hand-made stream).
            tombstone = tombstone.union(entry.deliverers)
        if entry.closed is not None:
            tombstone = tombstone | entry.closed
        self._closed[message] = tombstone
        del self._open[message]

    def _duplicate(self, process: str, message: str) -> None:
        self.violations.append(
            f"duplicate delivery: {process} delivered {message} again "
            f"(arbiter position {self.arbiter_position[message]})"
        )

    def maps_held(self) -> int:
        """Deliverer maps still open."""
        return len(self._open)

    def closed_held(self) -> int:
        """Tombstones of closed deliverer maps, one per message."""
        return len(self._closed)


class OnlineSenderInView(OnlineChecker):
    """MD1: each delivery's sender is in the live view of the message's
    group at the delivering process -- an O(1) membership test against the
    suite's view timeline."""

    name = "sender_in_view"

    def on_deliveries(self, time: float, process: str, run: DeliveryRun, first_seq: int) -> None:
        views = self._timeline.views.get(process)
        if views is None:
            return
        for group, message_id, sender, _clock, _view_index in run:
            members = views.get(group)
            # No view installed yet: deliveries before the first install are
            # not constrained.
            if members is not None and sender not in members:
                self.violations.append(
                    f"{process} delivered {message_id} from {sender} outside "
                    f"its view {sorted(members)} of {group}"
                )


class _CausalRow:
    """One process's state in :class:`OnlineCausalOrder`, as a sender and
    as a receiver."""

    __slots__ = ("sends", "deltas", "delivered", "frontier", "folded", "moved")

    def __init__(self) -> None:
        #: its registered sends in order, (message id, group); the n-th
        #: send sits at index n - 1, and its delta at ``deltas[n - 1]``
        self.sends: List[Tuple[str, Optional[str]]] = []
        self.deltas: List[Dict[str, int]] = []
        #: message ids delivered here whose frontier check has not come
        #: yet: each (process, predecessor) pair is checked once, and the
        #: check that finds an id drops it
        self.delivered: Set[str] = set()
        #: sender -> length of its send prefix verified here; for every
        #: sender but the process itself, also the process's causal context
        self.frontier: Dict[str, int] = {}
        #: sender -> how many of its sends' deltas were folded in here
        self.folded: Dict[str, int] = {}
        #: context entries raised since the process's previous send: the
        #: delta its next send is stamped with
        self.moved: Dict[str, int] = {}


class OnlineCausalOrder(OnlineChecker):
    """MD5/MD5' and causal delivery consistency, via delta-stamped vector
    clocks.

    A message's causal context is a sparse vector of per-sender send
    counts: sender s's n-th message m has ``vector[s] == n`` and
    ``vector[x] == k`` for every other sender x with k messages in m's
    causal past.  Because a sender's own messages are totally ordered by
    its send sequence, m's causal past is *exactly* the union of
    per-sender prefixes below its vector -- no transitive closure needed.

    The vector is never copied.  Each sender keeps the list of its sends,
    and a send is stamped with a *delta*: only the entries of the sender's
    context that were raised since its previous send (its own entry is
    the send's position in that list and is not stored), so the n-th
    message's vector is what the deltas of sends 1..n add up to.  A
    re-send under an old id (asymmetric failover) registers nothing and
    resets nothing: the message's causal past is fixed by its first send.

    On delivery at p of s's n-th message the checker folds the deltas of
    s's sends after the last one already folded at p, up to n (a per-(p,
    s) index).  The first delivery from a sender therefore folds the whole
    chain -- the full vector, which is what a process that joined by §5.3
    formation needs -- and a message whose sender's previous message went
    to a group p is not in still has that message's delta folded with its
    own.  Nothing is skipped by this: an entry absent from the deltas
    folded now was folded, at its present value or a higher one, with an
    earlier message of s, when p's frontier passed it.

    Every folded entry that raises p's per-sender frontier advances it
    over each newly covered prefix index once: each predecessor must
    already be delivered at p, or be exempt because p currently has no
    view of the predecessor's group, has departed it, or has excluded the
    predecessor's sender from it (MD5''s own clause; views only shrink, so
    the exemption is permanent -- a later delivery of such a message is an
    MD1 violation and is reported there).  Entries raised at p go into the
    delta of p's own next send.

    Cost per delivery: O(entries moved since the sender's last message
    folded here) to find the frontiers that move, plus one visit per
    (process, causal predecessor) pair over the run -- not bounded by group
    size: a member that hears from a sender rarely pays, when it does, for
    what the sender learned in between.  A run of deliveries
    (:meth:`on_deliveries`) reads the process's row, views and departed
    groups once: nothing a run holds moves them.  On the ledger's
    ``stream_busy`` (seed 0) it is 10.4 delta entries per delivery, and the
    sender's own, where the full vector holds 30.2
    (:meth:`delta_entries_folded`; ``benchmarks/bench_observation_path.py``
    gates it).  Memory is O(delta entries), not O(sends x senders), plus
    the ids delivered at a process ahead of the frontier check that looks
    for them: a frontier only moves forward, so each (process, predecessor)
    pair is checked once and the check drops the id it finds
    (:meth:`delivered_ids_held`; on a clean run none are left at the end).

    The advance-once frontier relies on exemptions being permanent.  The
    "no view yet" exemption is safe even with dynamic group formation
    (§5.3): a formed group's members install the initial view *before*
    multicasting their start-group message, and every member may send
    application traffic only after collecting start-group from its whole
    view -- so no message of the group can causally precede any member's
    install, and a process that never joins keeps no view forever.
    Hand-mutated event streams that violate this protocol invariant may
    trade a causal report for an MD1 one, but never a FAIL for a PASS of
    the suite as a whole.
    """

    name = "causal_prefix"

    def __init__(self, timeline: _ViewTimeline) -> None:
        super().__init__(timeline)
        #: message id -> (sender, n): it is that sender's n-th send
        self._sent: Dict[str, Tuple[str, int]] = {}
        self._rows: Dict[str, _CausalRow] = {}

    def on_deliveries(self, time: float, process: str, run: DeliveryRun, first_seq: int) -> None:
        rows = self._rows
        row = rows.get(process)
        if row is None:
            row = rows[process] = _CausalRow()
        delivered, frontier, folded_at, moved = (
            row.delivered, row.frontier, row.folded, row.moved
        )
        views = self._timeline.views.get(process)
        departed = self._timeline.departed.get(process, ())
        sent_as = self._sent
        for _group, message, _sender, _clock, _view_index in run:
            if message is None:
                continue
            sent = sent_as.get(message)
            if sent is None:
                # Delivery without a recorded send: nothing to infer (yet).
                delivered.add(message)
                continue
            sender, position = sent
            if frontier.get(sender, 0) < position:
                # Its check is still to come (past the frontier, it was made).
                delivered.add(message)
            folded = folded_at.get(sender, 0)
            if folded >= position:
                continue  # Folded with a later message of the sender's already.
            folded_at[sender] = position
            deltas = rows[sender].deltas[folded:position]
            deltas.append({sender: position})
            for delta in deltas:
                for origin, count in delta.items():
                    verified = frontier.get(origin, 0)
                    if verified >= count:
                        continue
                    frontier[origin] = moved[origin] = count
                    sends = rows[origin].sends
                    for index in range(verified, count):
                        predecessor, predecessor_group = sends[index]
                        if predecessor in delivered:
                            delivered.remove(predecessor)
                            continue
                        if predecessor_group is not None:
                            # Exempt: no view of the group, departed from
                            # it, or the predecessor's sender excluded from it.
                            if views is None or predecessor_group in departed:
                                continue
                            members = views.get(predecessor_group)
                            if members is None or origin not in members:
                                continue
                        self.violations.append(
                            f"{process} delivered {message} without causally "
                            f"preceding {predecessor} whose sender {origin} is "
                            f"still in its view of {predecessor_group}"
                        )

    def on_send(self, event: TraceEvent) -> None:
        if event.message_id is None or event.message_id in self._sent:
            # Nothing to register; in particular not a re-send under the
            # original id (asymmetric failover): the message's causal past
            # is fixed by its first send.
            return
        sender = event.process
        row = self._rows.get(sender)
        if row is None:
            row = self._rows[sender] = _CausalRow()
        delta = row.moved
        row.moved = {}
        # The sender's own entry is the send's position: never stored.
        delta.pop(sender, None)
        row.sends.append((event.message_id, event.group))
        row.deltas.append(delta)
        self._sent[event.message_id] = (sender, len(row.sends))

    def delivered_ids_held(self) -> int:
        """Delivered ids still waiting for their frontier check, over all
        processes."""
        return sum(len(row.delivered) for row in self._rows.values())

    def delta_entries_folded(self) -> int:
        """The work done so far, in delta entries folded at receivers (one
        frontier comparison each; every delivery that folds anything also
        compares its sender's own entry).  Counted from the fold indexes
        when asked, not on the delivery path."""
        rows = self._rows
        return sum(
            len(delta)
            for row in rows.values()
            for sender, folded in row.folded.items()
            for delta in rows[sender].deltas[:folded]
        )


class OnlineVirtualSynchrony(OnlineChecker):
    """MD3/VC3: per-(process, group, view_index) delivery-set fingerprints.

    Deliveries accumulate into an order-independent fingerprint (XOR and
    sum of message-id hashes, plus a count) keyed by the ``view_index``
    the protocol stamped on the delivery.  At :meth:`result` time,
    processes (crashed ones exempt, as in the paper) that installed the
    same view at the same position of their install history *and* the same
    successor view must have identical fingerprints for the enclosed
    interval.  Per delivery this is O(1); memory is O(views), not
    O(deliveries).

    ``view_agreement_sets`` scopes the comparison per group: groups
    named in the mapping compare only the listed processes (the scenario's
    stable core -- e.g. drop-window targets are excluded because lost
    messages may never trigger suspicion); unnamed groups fall back to
    every process seen for the group.
    """

    name = "same_view_delivery_sets"

    def __init__(
        self,
        timeline: _ViewTimeline,
        view_agreement_sets: Optional[Dict[str, Iterable[str]]] = None,
    ) -> None:
        super().__init__(timeline)
        self.view_agreement_sets = view_agreement_sets
        #: (process, group) -> view_index -> (xor, sum, count)
        self._fingerprints: Dict[
            Tuple[str, str], Dict[int, Tuple[int, int, int]]
        ] = {}

    def on_deliveries(self, time: float, process: str, run: DeliveryRun, first_seq: int) -> None:
        fingerprints = self._fingerprints
        for group, message_id, _sender, _clock, view_index in run:
            if group is None or view_index is None or message_id is None:
                continue
            view_index = int(view_index)
            digest = hash(message_id)
            buckets = fingerprints.setdefault((process, group), {})
            xor, total, count = buckets.get(view_index, (0, 0, 0))
            buckets[view_index] = (xor ^ digest, total + digest, count + 1)

    def _in_scope(self, process: str, group: str) -> bool:
        """Listed groups compare only their agreement set; unlisted groups
        compare everyone."""
        if self.view_agreement_sets is None:
            return True
        expected = self.view_agreement_sets.get(group)
        return expected is None or process in set(expected)

    def result(self) -> CheckResult:
        violations = list(self.violations)
        crashed = self._timeline.crashed
        # Group closed intervals by (group, position, view, successor view):
        # everyone in a bucket agreed on both installs, so their interval
        # fingerprints must match (the premise of MD3).
        buckets: Dict[
            Tuple[str, int, FrozenSet[str], FrozenSet[str]],
            List[Tuple[str, Tuple[int, int, int]]],
        ] = {}
        for (process, group), views in self._timeline.installs.items():
            if process in crashed or not self._in_scope(process, group):
                continue
            fingerprints = self._fingerprints.get((process, group), {})
            for position in range(len(views) - 1):
                key = (group, position, views[position], views[position + 1])
                buckets.setdefault(key, []).append(
                    (process, fingerprints.get(position, (0, 0, 0)))
                )
        for (group, position, _view, _next_view), members in buckets.items():
            reference_process, reference = members[0]
            for process, fingerprint in members[1:]:
                if fingerprint != reference:
                    violations.append(
                        f"virtual synchrony violated in {group} view "
                        f"{position}: {reference_process} and {process} "
                        f"delivered different message sets "
                        f"(counts {reference[2]} vs {fingerprint[2]})"
                    )
        return CheckResult(self.name, not violations, violations)


class OnlineViewAgreement(OnlineChecker):
    """VC1: processes expected to agree install identical view sequences.

    View installs are rare (O(membership changes), never O(messages)); the
    suite's view timeline keeps every (process, group)'s install history,
    and this checker compares them at :meth:`result` time within the
    expected agreement sets (only the scenario's stable core must agree
    after partitions; crashed processes are exempt).
    """

    name = "view_sequences"

    def __init__(
        self,
        timeline: _ViewTimeline,
        view_agreement_sets: Optional[Dict[str, Iterable[str]]] = None,
    ) -> None:
        super().__init__(timeline)
        self.view_agreement_sets = view_agreement_sets

    def result(self) -> CheckResult:
        violations = list(self.violations)
        sequences = self._timeline.installs
        crashed = self._timeline.crashed
        for group in sorted({group for _process, group in sequences}):
            expected = (
                self.view_agreement_sets.get(group)
                if self.view_agreement_sets is not None
                else None
            )
            if expected is not None:
                candidates = [process for process in expected if process not in crashed]
            else:
                # No agreement set for this group: fall back to every
                # process that installed a view of it (appropriate for
                # partition-free groups).
                candidates = sorted(
                    process
                    for (process, seq_group) in sequences
                    if seq_group == group and process not in crashed
                )
            if len(candidates) < 2:
                continue
            reference_process = candidates[0]
            reference = sequences.get((reference_process, group), [])
            for process in candidates[1:]:
                sequence = sequences.get((process, group), [])
                if sequence != reference:
                    violations.append(
                        f"view sequences differ for {group}: "
                        f"{reference_process}={[sorted(v) for v in reference]} "
                        f"vs {process}={[sorted(v) for v in sequence]}"
                    )
        return CheckResult(self.name, not violations, violations)


#: Checker-name -> factory over (the suite's view timeline, view agreement
#: sets); the names are what protocol stacks declare as the checks their
#: guarantees claim (``ProtocolStack.checks``).
CHECKER_FACTORIES = {
    "total_order": lambda timeline, sets: OnlineTotalOrder(timeline),
    "sender_in_view": lambda timeline, sets: OnlineSenderInView(timeline),
    "causal_prefix": lambda timeline, sets: OnlineCausalOrder(timeline),
    "view_sequences": OnlineViewAgreement,
    "same_view_delivery_sets": OnlineVirtualSynchrony,
}

#: Every checker, in dispatch order -- the default (Newtop) selection.
ALL_CHECKS: Tuple[str, ...] = (
    "total_order",
    "sender_in_view",
    "causal_prefix",
    "view_sequences",
    "same_view_delivery_sets",
)


class OnlineCheckSuite(TraceSink):
    """All streaming checkers behind the one trace sink.

    Construct (optionally with the per-group view agreement sets: group id
    -> the processes expected to agree), register on a
    :class:`~repro.net.trace.TraceRecorder` -- with ``keep_events=False``
    when nothing need be materialized -- and read :meth:`result` once the
    run settles.  The suite subscribes to the five kinds it reads, so the
    dominant null-message traffic never reaches it, and dispatches each
    once: ``view_install``, ``depart`` and ``crash`` to :attr:`timeline`,
    the one record of view facts its checkers read; ``send`` to the
    checkers with an ``on_send``; and a process's run of deliveries
    (:meth:`on_deliveries`) whole to the checkers with an ``on_deliveries``,
    which read that process's state once per run (20.8 deliveries on the
    ledger's ``stream_busy``).  A delivery reaches it only as a run: a
    ``deliver`` event handed to :meth:`on_event` raises.

    ``checks`` selects a subset of checkers by name (see
    :data:`CHECKER_FACTORIES`): protocol stacks whose guarantees are weaker
    than Newtop's (e.g. a fixed sequencer claims total order but not causal
    prefixes across groups) verify exactly the properties they claim.
    """

    KINDS = frozenset({SEND, DELIVER, VIEW_INSTALL, DEPART, CRASH})

    def __init__(
        self,
        view_agreement_sets: Optional[Dict[str, Iterable[str]]] = None,
        checks: Optional[Iterable[str]] = None,
    ) -> None:
        self.check_names: Tuple[str, ...] = (
            ALL_CHECKS if checks is None else tuple(checks)
        )
        unknown = [name for name in self.check_names if name not in CHECKER_FACTORIES]
        if unknown:
            raise ValueError(
                f"unknown check names {unknown}; expected a subset of {ALL_CHECKS}"
            )
        self.timeline = _ViewTimeline()
        built = {
            name: CHECKER_FACTORIES[name](self.timeline, view_agreement_sets)
            for name in self.check_names
        }
        # The two checkers callers read counters from, by name.
        self.total_order = built.get("total_order")
        self.causal_order = built.get("causal_prefix")
        self.checkers: Tuple[OnlineChecker, ...] = tuple(
            built[name] for name in self.check_names
        )
        if not self.checkers:
            raise ValueError("an OnlineCheckSuite needs at least one check")
        #: The checkers' hooks, in checker order.
        self._on_send = tuple(
            checker.on_send for checker in self.checkers if hasattr(checker, "on_send")
        )
        self._on_deliveries = tuple(
            checker.on_deliveries
            for checker in self.checkers
            if hasattr(checker, "on_deliveries")
        )
        self.events_seen = 0

    def on_event(self, event: TraceEvent) -> None:
        """One event other than a delivery: a ``send`` to the checkers
        that take sends, any other kind to the view timeline."""
        if event.kind == DELIVER:
            raise ValueError(
                "a delivery reaches the check suite as a run (on_deliveries); "
                "replay a stored trace with check_events"
            )
        self.events_seen += 1
        if event.kind == SEND:
            for on_send in self._on_send:
                on_send(event)
        else:
            self.timeline.on_event(event)

    def on_deliveries(self, time: float, process: str, run: DeliveryRun, first_seq: int) -> None:
        """A run of deliveries at ``process``, whole to each delivery checker."""
        self.events_seen += len(run)
        for on_deliveries in self._on_deliveries:
            on_deliveries(time, process, run, first_seq)

    def result(self) -> CheckResult:
        """Merge every checker's verdict (AND of passes)."""
        merged: Optional[CheckResult] = None
        for checker in self.checkers:
            verdict = checker.result()
            merged = verdict if merged is None else merged.merge(verdict)
        assert merged is not None
        return merged


class GroupScopedCheckSuite(TraceSink):
    """Streaming checks evaluated independently per group.

    Single-group protocols (the :mod:`repro.baselines`) lifted to many
    overlapping groups run one independent protocol instance per group, so
    their guarantees -- total order, causal order -- hold *within* each
    group but say nothing across groups (exactly the weakness §6 of the
    paper attributes to them).  This sink hands each event, and each
    delivery of a run, to an :class:`OnlineCheckSuite` dedicated to its
    group, scoping every selected check to one group's event stream;
    group-less events (crashes) fan out to every group's suite, including
    ones created later.

    Only crash events are buffered for that late replay: crashes are
    bounded by the process count, so the suite keeps the online mode's
    flat-memory property (no event stream is ever materialized).
    """

    def __init__(
        self,
        view_agreement_sets: Optional[Dict[str, Iterable[str]]] = None,
        checks: Optional[Iterable[str]] = None,
    ) -> None:
        self.check_names: Tuple[str, ...] = (
            ALL_CHECKS if checks is None else tuple(checks)
        )
        self.view_agreement_sets = view_agreement_sets
        self._suites: Dict[str, OnlineCheckSuite] = {}
        self._crash_events: List[TraceEvent] = []

    def _suite_for(self, group: str) -> OnlineCheckSuite:
        suite = self._suites.get(group)
        if suite is None:
            sets = None
            if self.view_agreement_sets is not None and group in self.view_agreement_sets:
                sets = {group: self.view_agreement_sets[group]}
            suite = OnlineCheckSuite(view_agreement_sets=sets, checks=self.check_names)
            # A crash is visible to every group the process belongs to, so
            # late-created suites must see the ones recorded before them.
            for event in self._crash_events:
                suite.on_event(event)
            self._suites[group] = suite
        return suite

    def on_event(self, event: TraceEvent) -> None:
        if event.group is None:
            if event.kind == CRASH:
                self._crash_events.append(event)
            for suite in self._suites.values():
                suite.on_event(event)
            return
        self._suite_for(event.group).on_event(event)

    def on_deliveries(self, time: float, process: str, run: DeliveryRun, first_seq: int) -> None:
        """Each delivery of the run, as a run of one, to its group's suite."""
        for seq, entry in enumerate(run, first_seq):
            self._suite_for(entry[0]).on_deliveries(time, process, (entry,), seq)

    def result(self) -> CheckResult:
        """AND of every group's verdict (PASS when no group was exercised)."""
        merged: Optional[CheckResult] = None
        for group in sorted(self._suites):
            verdict = self._suites[group].result()
            merged = verdict if merged is None else merged.merge(verdict)
        if merged is None:
            return CheckResult("per_group(" + ",".join(self.check_names) + ")", True, [])
        return merged


def check_events(
    events: Iterable[TraceEvent],
    view_agreement_sets: Optional[Dict[str, Iterable[str]]] = None,
    checks: Optional[Iterable[str]] = None,
    scope: str = "global",
) -> CheckResult:
    """Replay an event stream through a fresh suite and return the verdict.

    Events are fed in ``(time, seq)`` order -- the order the recorder
    produced them -- with the deliveries regrouped into the runs they were
    recorded as (:func:`~repro.net.trace.delivery_runs`), so a
    stored/parsed trace checks identically to a live run.  ``checks`` and
    ``scope`` mirror the per-stack selection of :class:`OnlineCheckSuite` /
    :class:`GroupScopedCheckSuite`.
    """
    if scope == "group":
        suite: TraceSink = GroupScopedCheckSuite(view_agreement_sets, checks=checks)
    else:
        suite = OnlineCheckSuite(view_agreement_sets, checks=checks)
    for item in delivery_runs(sorted(events, key=lambda event: (event.time, event.seq))):
        if isinstance(item, TraceEvent):
            suite.on_event(item)
        else:
            suite.on_deliveries(*item)
    return suite.result()
