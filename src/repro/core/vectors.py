"""Receive vectors, stability vectors and the deliverability bound ``D``.

§4.1: each process ``Pi`` keeps, per group ``gx``, a *receive vector*
``RV_x,i`` with one entry per member of its current view recording the
number (``m.c``) of the latest message received from that member.  The
minimum entry, ``D_x,i``, bounds the numbers of messages that can still
arrive: because senders number their messages increasingly and channels are
FIFO, ``Pi`` will never again receive a message numbered ``<= D_x,i`` in
``gx``, so every received message numbered ``<= D_x,i`` is safe to deliver
(condition *safe1*).  For a multi-group process the per-group minima are
combined into ``D_i = min over groups`` (*safe1'*).

§5.1: the *stability vector* ``SV_x,i`` records, per member, the largest
``m.ldn`` (the sender's own ``D`` at send time) received from it; a message
numbered ``<= min(SV_x,i)`` has been received by every member of the view
and can be discarded from retransmission buffers.

§5.2 (view installation, step viii): entries of failed processes are set to
infinity so that ``D`` can advance past the point at which the failed
processes fell silent.

The vector is :class:`SlabMemberVector`: values in a flat slab list keyed
by dense slot indices, with a cached minimum.  Entries are monotone (they
only grow), so the cache is ``(min value, count of entries at it)``: a
receipt that raises a non-minimal entry is O(1), and the O(n) rescan
happens only when the minimum actually advances -- amortised O(1) per
receipt on the hot path.  The dict-per-vector implementation it replaced
is the tests' reference model (``tests/reference_twins.py``).
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Iterator, List, Optional

#: Sentinel used for members removed from the view: their entry no longer
#: constrains the minimum (step (viii): ``RV[k] := infinity``).
INFINITY = math.inf


class SlabMemberVector:
    """Slab-backed per-member counter vector with an O(1) cached minimum.

    Values live in a flat list indexed by a dense per-member slot; the
    pid -> slot map is the only dict, and it is touched once per lookup
    rather than once per aggregate.  The minimum is cached as
    ``(_min_value, _min_count)`` and is exact at all times except when a
    raise empties the minimum class, which flags ``_min_dirty`` for a lazy
    rescan on the next read.
    """

    __slots__ = (
        "_slot", "_pids", "_values", "_present", "_present_count",
        "_min_value", "_min_count", "_min_dirty", "_last_finite_minimum",
    )

    def __init__(self, members: Iterable[str], initial: int = 0) -> None:
        self._slot: Dict[str, int] = {}
        self._pids: List[str] = []
        self._values: List[float] = []
        self._present: List[bool] = []
        for member in members:
            if member in self._slot:
                continue
            self._slot[member] = len(self._pids)
            self._pids.append(member)
            self._values.append(initial)
            self._present.append(True)
        if not self._pids:
            raise ValueError("a member vector needs at least one member")
        self._present_count = len(self._pids)
        self._min_value: float = float(initial)
        self._min_count = self._present_count
        self._min_dirty = False
        #: Largest finite minimum ever observed; the fallback value of
        #: :meth:`finite_minimum` once every entry has been marked infinite
        #: (mass failure / view collapse, §5.2 step viii).
        self._last_finite_minimum: float = float(initial)

    # ------------------------------------------------------------------
    # Entry access
    # ------------------------------------------------------------------
    def __getitem__(self, member: str) -> float:
        slot = self._slot.get(member)
        if slot is None or not self._present[slot]:
            raise KeyError(member)
        return self._values[slot]

    def __contains__(self, member: str) -> bool:
        slot = self._slot.get(member)
        return slot is not None and self._present[slot]

    def __iter__(self) -> Iterator[str]:
        for slot, pid in enumerate(self._pids):
            if self._present[slot]:
                yield pid

    def __len__(self) -> int:
        return self._present_count

    def get(self, member: str, default: Optional[float] = None) -> Optional[float]:
        """Entry for ``member`` or ``default`` when absent."""
        slot = self._slot.get(member)
        if slot is None or not self._present[slot]:
            return default
        return self._values[slot]

    def members(self) -> list[str]:
        """Member identifiers tracked by this vector, sorted."""
        return sorted(self)

    def as_dict(self) -> Dict[str, float]:
        """Copy of the vector as a mapping (for inspection / metrics)."""
        return {
            pid: self._values[slot]
            for slot, pid in enumerate(self._pids)
            if self._present[slot]
        }

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def update(self, member: str, value: float) -> bool:
        """Record ``value`` for ``member`` if it is larger than the current
        entry.  Returns True if the entry changed.

        Message numbers from one sender only ever increase (CA1 + FIFO), so
        a monotone update is the correct and safe behaviour even if the
        caller processes piggybacked or recovered messages out of order.
        """
        slot = self._slot.get(member)
        if slot is None or not self._present[slot]:
            raise KeyError(f"{member!r} is not tracked by this vector")
        current = self._values[slot]
        if value <= current:
            return False
        self._values[slot] = value
        self._on_raised(current)
        return True

    def mark_infinite(self, member: str) -> None:
        """Step (viii): stop letting ``member`` constrain the minimum."""
        slot = self._slot.get(member)
        if slot is None or not self._present[slot]:
            return
        current = self._values[slot]
        if current != INFINITY:
            self._values[slot] = INFINITY
            self._on_raised(current)

    def remove(self, member: str) -> None:
        """Drop ``member`` from the vector entirely (after view installation)."""
        slot = self._slot.get(member)
        if slot is None or not self._present[slot]:
            return
        self._present[slot] = False
        self._present_count -= 1
        self._on_raised(self._values[slot])

    def _on_raised(self, old_value: float) -> None:
        """An entry at ``old_value`` was raised or removed."""
        if self._min_dirty or old_value != self._min_value:
            return
        self._min_count -= 1
        if self._min_count <= 0:
            self._min_dirty = True

    def _rescan(self) -> None:
        best = INFINITY
        count = 0
        values = self._values
        present = self._present
        for slot in range(len(values)):
            if not present[slot]:
                continue
            value = values[slot]
            if value < best:
                best = value
                count = 1
            elif value == best:
                count += 1
        self._min_value = best
        self._min_count = count
        self._min_dirty = False

    # ------------------------------------------------------------------
    # The protocol-relevant aggregate
    # ------------------------------------------------------------------
    def minimum(self) -> float:
        """Minimum entry over all tracked members.

        Entries marked infinite (failed/departed members) do not constrain
        the result; if *every* entry is infinite the result is infinity,
        meaning nothing constrains deliverability any more.
        """
        if self._present_count == 0:
            return INFINITY
        if self._min_dirty:
            self._rescan()
        return self._min_value

    def minimum_in_doubt(self) -> bool:
        """Whether :meth:`minimum` may read something other than it read
        last time: an entry standing at the minimum was raised or removed
        since, and it was the last one there (exactly when a rescan is
        flagged).  False is a promise -- entries only grow, so no update
        since the last read moved the minimum."""
        return self._min_dirty

    def finite_minimum(self) -> float:
        """Minimum over the *finite* entries, with an all-infinite fallback.

        When every entry has been marked infinite (all other members failed
        at once) the plain :meth:`minimum` is ``inf`` -- a value that must
        never be serialised into an ``m.ldn`` field or compared against
        integer message numbers.  This variant clamps to the last finite
        bound observed instead, which is always a *safe* (possibly
        conservative) stability bound: entries only ever grow, so every
        message at or below it really was covered by finite evidence.
        """
        value = self.minimum()
        if value == INFINITY:
            return self._last_finite_minimum
        if value > self._last_finite_minimum:
            self._last_finite_minimum = value
        return value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{member}:{value}" for member, value in sorted(self.as_dict().items()))
        return f"{type(self).__name__}({inner})"


class ReceiveVector(SlabMemberVector):
    """``RV_x,i``: latest message number received from each view member.

    ``minimum()`` is the paper's ``D_x,i``.
    """

    __slots__ = ()

    def record_receipt(self, sender: str, clock: int) -> bool:
        """Record that a message numbered ``clock`` arrived from ``sender``."""
        return self.update(sender, clock)

    @property
    def deliverable_bound(self) -> float:
        """``D_x,i`` -- the largest number that is safe to deliver."""
        return self.minimum()


class StabilityVector(SlabMemberVector):
    """``SV_x,i``: latest ``m.ldn`` received from each view member.

    ``minimum()`` bounds the numbers of messages known to have been received
    by every member; such messages are *stable* and may be discarded from
    retransmission buffers (§5.1).
    """

    __slots__ = ()

    def record_ldn(self, sender: str, ldn: int) -> bool:
        """Record the ``m.ldn`` piggybacked on a message from ``sender``."""
        return self.update(sender, ldn)

    @property
    def stability_bound(self) -> float:
        """Largest message number known to be stable.

        Unlike the deliverable bound ``D`` (where an all-infinite vector
        legitimately means "nothing constrains delivery"), the stability
        bound is piggybacked into ``m.ldn`` fields and compared against
        integer message numbers, so it is clamped to the last finite value
        when every entry is infinite (mass failure, §5.2 step viii).
        """
        return self.finite_minimum()
