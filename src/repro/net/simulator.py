"""Discrete-event simulation kernel.

The Newtop paper assumes an *asynchronous* system: message transmission
times cannot be accurately estimated and processes have no synchronised
clocks.  A discrete-event simulator reproduces this faithfully while being
deterministic and seedable, which is what the test-suite and the benchmark
harness need.  Simulated time is a ``float`` in arbitrary "time units";
the protocol never reads it for correctness decisions (only timers such as
the time-silence period ``omega`` and the suspicion timeout ``Omega`` are
expressed in it, exactly as the paper's timeouts are).

One rule: *events fire in ``(time, sequence)`` order, from one heap.*

* :class:`Simulator` owns the virtual clock, a single :mod:`heapq` of
  ``(time, sequence, event)`` tuples and a seeded :class:`random.Random`.
  The sequence number is unique, so tuples compare in C and never reach
  the event; events of one instant fire in the order they were scheduled.
* :meth:`Simulator.schedule` returns the event record itself as the
  :class:`EventHandle`: ``time``, ``label``, ``cancelled`` and
  :meth:`EventHandle.cancel`.  A handle whose event has fired is inert.
* Cancellation is lazy -- the record drops its callback and arguments at
  once and stays in the heap until its turn comes -- and the heap is
  *compacted* whenever cancelled entries exceed
  :attr:`Simulator.compaction_threshold` of it, so timer churn (every
  protocol timer is re-dated far more often than it fires) cannot grow it.
* :meth:`Simulator.run` / :meth:`Simulator.run_until` drive the simulation,
  one pop per event; :meth:`Simulator.drop_pending` ends it, leaving every
  queued handle cancelled and the counts as the run left them.
"""

from __future__ import annotations

import heapq
import random
from time import perf_counter
from typing import Any, Callable, Optional


class SimulatorError(RuntimeError):
    """Raised when the simulation kernel is used incorrectly."""


class EventHandle:
    """One scheduled event, returned by :meth:`Simulator.schedule`.

    ``time`` is when the event fires (or would have), ``label`` the
    scheduling label, ``cancelled`` whether :meth:`cancel` stopped it.
    """

    __slots__ = ("time", "label", "cancelled", "_callback", "_args", "_sim")

    def __init__(self, sim: "Simulator", time: float, callback, args: tuple, label: str) -> None:
        self.time = time
        self.label = label
        self.cancelled = False
        #: ``None`` once the event has fired or been cancelled.
        self._callback: Optional[Callable[..., None]] = callback
        self._args = args
        self._sim = sim

    def cancel(self) -> None:
        """Prevent the event from firing (idempotent; inert once fired).

        Drops the callback and argument references immediately: a cancelled
        long-dated timer must not keep its closure (and whatever object
        graph it captures) alive until the original fire time rolls around.
        """
        if self._callback is None:
            return
        self.cancelled = True
        self._callback = None
        self._args = ()
        self._sim._on_cancelled()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending" if self._callback else "fired"
        return f"EventHandle(time={self.time!r}, label={self.label!r}, {state})"


class Simulator:
    """Deterministic discrete-event simulator.

    ``seed`` seeds the simulator-owned :attr:`rng`; all randomness in a
    simulation (latency sampling, workload generation) should be drawn from
    it so runs are reproducible.  The two observation hooks are
    duck-typed (the kernel never imports :mod:`repro.obs`): ``metrics`` (a
    ``MetricsRegistry``) is only carried -- the registry reads the kernel's
    own counts (:meth:`counts`) and heap occupancy when it is read, so it
    costs the event loop nothing; ``profiler`` (a
    ``HotPathProfiler``) wall-clocks every callback under the category of
    its scheduling label, at one ``is None`` check per event when absent.
    That per-callback hook in :meth:`step` is the profiler's one handle: no
    layer above the kernel holds it or times a section of its own.  The
    registry rides the object every layer already holds, so a layer that
    keeps counts reads it off the simulator at construction and registers
    them; what happens to a *message* is reported to the trace recorder
    instead (:mod:`repro.net.trace`).
    """

    #: Compact the heap once more than this fraction of it is cancelled
    #: entries (and the heap is at least ``_MIN_COMPACTION_SIZE`` long).
    compaction_threshold: float = 0.5
    _MIN_COMPACTION_SIZE = 64
    #: Relative tolerance for clamping epsilon-past times (a caller's time
    #: arithmetic can land ``1e-16`` before ``now``): a few thousand ulps,
    #: so that real timer-arithmetic bugs still raise.
    _PAST_EPSILON = 1e-12

    def __init__(self, seed: int = 0, metrics=None, profiler=None) -> None:
        self._now: float = 0.0
        self._heap: list = []
        self._next_sequence = 0
        self._events_processed = 0
        self._running = False
        self._cancelled_in_heap = 0
        self.events_cancelled = 0
        self.compactions = 0
        self.rng = random.Random(seed)
        self.seed = seed
        self.metrics = metrics
        self.profiler = profiler

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events executed so far (monitoring / debugging)."""
        return self._events_processed

    def counts(self) -> dict:
        """Events scheduled, fired and cancelled so far: the ``sim.*``
        counters of an observed run."""
        return {
            "events_scheduled": self._next_sequence,
            "events_fired": self._events_processed,
            "events_cancelled": self.events_cancelled,
        }

    @property
    def pending_events(self) -> int:
        """Number of events currently queued (including cancelled ones)."""
        return len(self._heap)

    @property
    def live_pending_events(self) -> int:
        """Number of queued events that have not been cancelled."""
        return len(self._heap) - self._cancelled_in_heap

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(
        self, delay: float, callback: Callable[..., None], *args: Any, label: str = ""
    ) -> EventHandle:
        """Schedule ``callback(*args)`` to run ``delay`` time units from now.

        ``delay`` must be non-negative; a zero delay schedules the callback
        for the current instant but *after* the currently executing event
        completes (run-to-completion semantics, like an event loop).
        Epsilon-negative delays produced by float rounding are clamped to
        zero rather than rejected.
        """
        return self._push(
            self._now + delay if delay >= 0 else self._clamp(self._now + delay),
            callback, args, label,
        )

    def schedule_at(
        self, time: float, callback: Callable[..., None], *args: Any, label: str = ""
    ) -> EventHandle:
        """Schedule ``callback(*args)`` at exactly the simulated ``time``."""
        return self._push(
            time if time >= self._now else self._clamp(time), callback, args, label
        )

    def call_soon(self, callback: Callable[..., None], *args: Any, label: str = "") -> EventHandle:
        """Schedule ``callback(*args)`` at the current instant."""
        return self._push(self._now, callback, args, label)

    def _clamp(self, time: float) -> float:
        """``now`` for a time that is past by rounding only; raises otherwise."""
        now = self._now
        if now - time > self._PAST_EPSILON * max(1.0, abs(now)):
            raise SimulatorError(
                f"cannot schedule an event in the past (delay={time - now})"
            )
        return now

    def _push(self, time: float, callback, args: tuple, label: str) -> EventHandle:
        event = EventHandle(self, time, callback, args, label)
        heapq.heappush(self._heap, (time, self._next_sequence, event))
        self._next_sequence += 1
        return event

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self, until: Optional[float] = None) -> bool:
        """Execute the next pending event (not later than ``until``).

        Returns ``True`` if an event was executed, ``False`` if nothing
        live is queued at or before ``until``.
        """
        heap = self._heap
        while heap:
            if until is not None and heap[0][0] > until:
                return False
            time, _, event = heapq.heappop(heap)
            callback = event._callback
            if callback is None:
                self._cancelled_in_heap -= 1
                continue
            args = event._args
            # Fired: the handle is inert from here on and holds nothing.
            event._callback = None
            event._args = ()
            self._now = time
            self._events_processed += 1
            profiler = self.profiler
            if profiler is None:
                callback(*args)
            else:
                start = perf_counter()
                callback(*args)
                profiler.record_event(event.label, perf_counter() - start)
            return True
        return False

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run events until the queue drains, ``until`` is reached or
        ``max_events`` events have been executed.

        ``until`` is an absolute simulated time; events scheduled at exactly
        ``until`` are executed.  When the run stops because of ``until`` the
        clock is advanced to ``until`` so subsequent relative scheduling
        behaves intuitively.
        """
        if self._running:
            raise SimulatorError("Simulator.run is not re-entrant")
        self._running = True
        executed = 0
        step = self.step
        try:
            while max_events is None or executed < max_events:
                if not step(until):
                    if until is not None and self._now < until:
                        self._now = until
                    return
                executed += 1
        finally:
            self._running = False

    def run_until(
        self,
        predicate: Callable[[], bool],
        timeout: float,
        max_events: int = 10_000_000,
    ) -> bool:
        """Run until ``predicate()`` becomes true or ``timeout`` time passes.

        Returns ``True`` if the predicate became true, ``False`` on timeout
        or queue exhaustion.  The predicate is evaluated after every event.
        """
        deadline = self._now + timeout
        executed = 0
        while not predicate():
            if executed >= max_events or not self.step(deadline):
                return False
            executed += 1
        return True

    def drop_pending(self) -> None:
        """End a finished run: empty the heap, leaving each pending handle as
        :meth:`EventHandle.cancel` leaves it, with no count moved.  (Owner
        -> handle -> bound callback -> owner is every timer's cycle.)"""
        for _, _, event in self._heap:
            if event._callback is not None:
                event.cancelled = True
                event._callback = None
                event._args = ()
        self._heap.clear()
        self._cancelled_in_heap = 0

    # ------------------------------------------------------------------
    # Lazy deletion
    # ------------------------------------------------------------------
    def _on_cancelled(self) -> None:
        """A queued event was cancelled: count it, compact when cancelled
        entries outnumber the threshold share of the heap."""
        self.events_cancelled += 1
        self._cancelled_in_heap += 1
        heap = self._heap
        if (
            len(heap) >= self._MIN_COMPACTION_SIZE
            and self._cancelled_in_heap > len(heap) * self.compaction_threshold
        ):
            # In place: run() and step() hold the list across callbacks.
            heap[:] = [entry for entry in heap if entry[2]._callback is not None]
            heapq.heapify(heap)
            self._cancelled_in_heap = 0
            self.compactions += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Simulator(now={self._now:.3f}, pending={self.pending_events}, "
            f"live={self.live_pending_events}, processed={self._events_processed})"
        )
