"""Online KV consistency oracle: a :class:`~repro.net.trace.TraceSink`.

The oracle consumes the stream of :data:`~repro.net.trace.KV_APPLY` and
:data:`~repro.net.trace.KV_READ` events the store emits and checks, with
bounded memory and **zero stored trace events**, the guarantees the
sharded store claims:

**Per-shard order agreement** (linearizable writes within a shard).
  The first replica to apply position ``p`` of a group becomes the
  arbiter for ``p``; every other replica must apply the *same message
  with the same outcome and resulting digest* at ``p``, and each
  replica's positions must be gapless and monotone.  This is per-key
  linearizability within a shard made checkable: one agreed total order
  of applied writes.

**Read prefix-consistency** (reads serve the agreed order).
  A read served at replica position ``p`` must return exactly the value
  of the key's last agreed write at or before ``p`` -- same writer
  message, same digest; a key with no write in the prefix must read as
  absent.

**Read-your-writes across the ring.**
  When a client's write is acknowledged (applied at its coordinator, at
  position ``p`` of group ``G``), every later read of that key by that
  client served from ``G`` must be at position ``>= p``.  Reads served
  from a *different* group (the key migrated, or the shard's replica set
  moved) are covered by the transfer-integrity check plus the store's
  ``read_floor`` and re-enter this check after the client's next write.

**Monotonic reads.**
  Per client and group, served read positions never decrease.

**State-transfer integrity.**
  A ``migrate_in`` applied into a fresh key must produce exactly the
  digest the coordinator captured from the source shard's fenced state.

Memory is bounded by a sliding window per group (``window`` positions of
arbiter history; per-key history keeps everything in the window plus the
latest older write) and one small tuple per (client, key) obligation.
A replica lagging more than ``window`` positions behind the front is
checked only for gaplessness, not re-checked against pruned arbiter
entries -- the honest cost of online checking.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.net.trace import KV_APPLY, KV_READ, TraceEvent, TraceSink

#: Write-like ops that produce a per-key history entry when applied.
_WRITE_OPS = frozenset({"set", "increment", "delete", "migrate_in"})


class KVOracle(TraceSink):
    """Streaming consistency checker for :class:`repro.apps.kv`."""

    def __init__(self, *, window: int = 10_000, max_violations: int = 50) -> None:
        self.window = window
        self.max_violations = max_violations
        #: group -> position -> (msg_id, outcome, key, digest).
        self._arbiter: Dict[str, Dict[int, Tuple[str, str, Optional[str], Optional[str]]]] = {}
        #: group -> process -> applied position (gapless monotone check).
        self._progress: Dict[str, Dict[str, int]] = {}
        #: group -> highest position seen (prune cursor).
        self._front: Dict[str, int] = {}
        #: (group, key) -> list of (position, msg_id, digest), pruned.
        self._history: Dict[Tuple[str, str], List[Tuple[int, str, Optional[str]]]] = {}
        #: (client, key) -> (group, position) of the last acked write.
        self._obligations: Dict[Tuple[str, str], Tuple[str, int]] = {}
        #: (client, group) -> highest served read position.
        self._read_floor: Dict[Tuple[str, str], int] = {}
        self.violations: List[Dict[str, Any]] = []
        self.violation_count = 0
        self.applies_checked = 0
        self.reads_checked = 0

    # ------------------------------------------------------------------
    # Sink interface
    # ------------------------------------------------------------------
    KINDS = frozenset({KV_APPLY, KV_READ})

    def on_event(self, event: TraceEvent) -> None:
        if event.kind == KV_APPLY:
            self._on_apply(event)
        elif event.kind == KV_READ:
            self._on_read(event)

    @property
    def passed(self) -> bool:
        return self.violation_count == 0

    def summary(self) -> Dict[str, Any]:
        return {
            "passed": self.passed,
            "violations": self.violation_count,
            "first_violations": list(self.violations[:5]),
            "applies_checked": self.applies_checked,
            "reads_checked": self.reads_checked,
            "groups": len(self._progress),
            "open_obligations": len(self._obligations),
        }

    def _violate(self, check: str, event: TraceEvent, **detail: Any) -> None:
        self.violation_count += 1
        if len(self.violations) < self.max_violations:
            self.violations.append(
                {
                    "check": check,
                    "time": event.time,
                    "process": event.process,
                    "group": event.group,
                    **detail,
                }
            )

    # ------------------------------------------------------------------
    # Applies
    # ------------------------------------------------------------------
    def _on_apply(self, event: TraceEvent) -> None:
        self.applies_checked += 1
        group = event.group or ""
        details = dict(event.details)
        position = details.get("position")
        op = details.get("op")
        key = details.get("key")
        outcome = details.get("outcome")
        digest = details.get("digest")
        msg_id = event.message_id or ""

        # Gapless, monotone per-replica progress.
        progress = self._progress.setdefault(group, {})
        previous = progress.get(event.process, 0)
        if position != previous + 1:
            self._violate(
                "apply_gap",
                event,
                position=position,
                expected=previous + 1,
            )
        progress[event.process] = position

        # Order agreement against the arbiter (first replica to apply p).
        arbiter = self._arbiter.setdefault(group, {})
        entry = arbiter.get(position)
        if entry is None:
            front = self._front.get(group, 0)
            if position <= front - self.window:
                # The arbiter entry was pruned: a replica lagging beyond
                # the window is checked for gaplessness only.
                return
            arbiter[position] = (msg_id, outcome, key, digest)
            if position > front:
                self._front[group] = position
                self._prune(group, position)
            first = True
        else:
            first = False
            if entry[0] != msg_id:
                self._violate(
                    "order_divergence",
                    event,
                    position=position,
                    arbiter_message=entry[0],
                    message=msg_id,
                )
            elif entry[1] != outcome or entry[3] != digest:
                self._violate(
                    "state_divergence",
                    event,
                    position=position,
                    arbiter=(entry[1], entry[3]),
                    replica=(outcome, digest),
                )

        client = details.get("client")
        via = details.get("via")
        if (
            client is not None
            and key is not None
            and outcome == "applied"
            and via == event.process
            and op in ("set", "increment", "delete")
        ):
            # The coordinator's apply is the acknowledgement instant: from
            # here on the client must see this write (or a later one).
            self._obligations[(client, key)] = (group, position)

        if not first:
            return

        # Arbiter-side bookkeeping: history and transfer integrity.
        if key is not None and outcome == "applied" and op in _WRITE_OPS:
            history = self._history.setdefault((group, key), [])
            if op == "migrate_in":
                from_digest = details.get("from_digest")
                if not history and digest != from_digest:
                    self._violate(
                        "transfer_integrity",
                        event,
                        key=key,
                        expected=from_digest,
                        got=digest,
                    )
            history.append((position, msg_id, digest))

    def _prune(self, group: str, front: int) -> None:
        """Drop arbiter entries and history below the sliding window."""
        cut = front - self.window
        if cut <= 0:
            return
        arbiter = self._arbiter[group]
        if len(arbiter) > self.window + 64:
            for position in [p for p in arbiter if p < cut]:
                del arbiter[position]
        # History pruning is lazy (per read) to avoid scanning every key.

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def _on_read(self, event: TraceEvent) -> None:
        self.reads_checked += 1
        group = event.group or ""
        details = dict(event.details)
        key = details.get("key")
        position = details.get("position")
        required = details.get("required") or 0
        digest = details.get("digest")
        writer = event.message_id
        client = details.get("client")

        if position < required:
            self._violate(
                "watermark_ignored", event, position=position, required=required
            )

        # Prefix consistency: the read must serve the last agreed write
        # at or before the replica's position.
        history = self._history.get((group, key))
        entry = None
        if history:
            for candidate in reversed(history):
                if candidate[0] <= position:
                    entry = candidate
                    break
            # Lazy prune: keep the newest entry at/below the window cut.
            cut = self._front.get(group, 0) - self.window
            if cut > 0 and len(history) > 1:
                keep = [e for e in history if e[0] > cut]
                older = [e for e in history if e[0] <= cut]
                if older:
                    keep.insert(0, older[-1])
                if len(keep) < len(history):
                    history[:] = keep
        if entry is None:
            if digest is not None:
                self._violate(
                    "phantom_read", event, key=key, position=position, digest=digest
                )
        else:
            if digest != entry[2] or (digest is not None and writer != entry[1]):
                self._violate(
                    "stale_or_divergent_read",
                    event,
                    key=key,
                    position=position,
                    expected=(entry[1], entry[2]),
                    got=(writer, digest),
                )

        if client is None:
            return

        # Read-your-writes (same group; cross-group is covered by the
        # transfer-integrity check + the store's read_floor).
        obligation = self._obligations.get((client, key))
        if obligation is not None and obligation[0] == group and position < obligation[1]:
            self._violate(
                "read_your_writes",
                event,
                key=key,
                position=position,
                obliged=obligation[1],
            )

        # Monotonic reads per (client, group).
        floor_key = (client, group)
        floor = self._read_floor.get(floor_key, 0)
        if position < floor:
            self._violate(
                "monotonic_reads", event, position=position, floor=floor
            )
        else:
            self._read_floor[floor_key] = position
