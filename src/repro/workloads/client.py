"""The open-loop traffic client: a reactive application inside sim time.

An :class:`OpenLoopClient` lives *inside* the simulation: each
arrival is one scheduled simulator event that draws the next
``(sender, group)`` from its profile's selection policy, attempts the
multicast through the session's stack, and schedules the next arrival from
the profile's arrival process.  Nothing is materialized up front, so the
client composes with ``analysis="online"`` runs of any size.

The client is **backpressure-aware**: it counts every attempt as *offered*
load and splits the outcome into *admitted* (the stack returned a message
id) versus *blocked* (the stack refused or deferred the send -- Newtop's
flow control, the send-blocking rule, or a policy stack such as
primary-partition halting a minority member).  Arrivals whose drawn sender
is crashed or no longer a group member are counted as *skipped* and issue
nothing, which keeps ``offered >= admitted`` exact.

It also watches its own deliveries: a session's clients share one
:class:`DeliveryRouter` on the recorder (installed by
:meth:`repro.api.Session.attach_client`), which hands each ``DELIVER``
event to the client that issued the message id -- one dict lookup per
delivery however many clients are attached.  From those the client
maintains streaming latency statistics -- exact count/mean/min/max plus
percentiles over a bounded deterministic reservoir -- without retaining
any trace event.

Determinism: all arrival gaps and selection draws come from one private
``random.Random(seed)``, independent of protocol state, so the same client
configuration replayed on two different stacks offers byte-identical
traffic at identical instants (only the admitted/blocked split and the
delivery outcomes differ -- which is exactly what a per-stack load
comparison wants to measure).
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.net.trace import DELIVER, TraceEvent, TraceSink
from repro.stats import (  # noqa: F401  (historical import site, re-exported)
    LATENCY_PERCENTILES,
    LATENCY_RESERVOIR,
    LatencyReservoir,
    percentile,
)
from repro.workloads.profiles import WorkloadProfile, get_profile


class DeliveryRouter(TraceSink):
    """A session's one ``DELIVER`` sink for its traffic clients: message id
    -> the client that issued it.

    A client that raises from ``on_event`` is treated as the recorder
    treats a raising sink (:meth:`~repro.net.trace.TraceRecorder.sink_failed`):
    logged in ``sink_errors`` and cut off alone, while the other clients
    keep every delivery.
    """

    KINDS = frozenset({DELIVER})

    def __init__(self, recorder) -> None:
        self._recorder = recorder
        self._owners: Dict[str, "OpenLoopClient"] = {}
        self._cut_off: List["OpenLoopClient"] = []

    def claim(self, message_id: str, client: "OpenLoopClient") -> None:
        """Route ``message_id``'s deliveries to ``client`` from now on."""
        if client not in self._cut_off:
            self._owners[message_id] = client

    def on_event(self, event: TraceEvent) -> None:
        client = self._owners.get(event.message_id)
        if client is None:
            return
        try:
            client.on_event(event)
        except Exception as exc:
            self._recorder.sink_failed(client, exc, event)
            self._cut_off.append(client)
            self._owners = {
                message_id: owner
                for message_id, owner in self._owners.items()
                if owner is not client
            }


class OpenLoopClient:
    """Rate-driven traffic source bound to one :class:`~repro.api.Session`."""

    def __init__(
        self,
        profile: WorkloadProfile,
        senders: Sequence[str],
        groups: Sequence[str],
        *,
        seed: int = 0,
        start: float = 1.0,
        duration: float = 20.0,
        name: str = "client",
        record_issues: bool = False,
    ) -> None:
        if not senders or not groups:
            raise ValueError("an open-loop client needs senders and groups")
        if duration <= 0:
            raise ValueError("client duration must be > 0")
        self.profile = get_profile(profile) if isinstance(profile, str) else profile
        self.senders = list(senders)
        self.groups = list(groups)
        self.seed = seed
        self.start_time = start
        self.duration = duration
        self.name = name
        self._rng = random.Random(seed)
        self._gaps = self.profile.arrivals.gaps(self._rng)
        self._session = None
        self._router: Optional[DeliveryRouter] = None
        self._sequence = 0
        # Offered-load accounting.
        self.offered = 0
        self.admitted = 0
        self.blocked = 0
        self.skipped = 0
        # Delivery accounting (fed by the session's delivery router).
        self.delivered_events = 0
        self._send_times: Dict[str, float] = {}
        self._delivered_ids: set = set()
        # Streaming latency stats: exact moments + mergeable reservoir.
        self.latency = LatencyReservoir(capacity=LATENCY_RESERVOIR, seed=seed)
        #: Optional issue log [(time, sender, group, payload_len)] for
        #: determinism tests; off by default to keep memory bounded.
        self.issued: Optional[List[Tuple[float, str, str, int]]] = (
            [] if record_issues else None
        )

    # ------------------------------------------------------------------
    # Session wiring
    # ------------------------------------------------------------------
    def bind(self, session, router: DeliveryRouter) -> "OpenLoopClient":
        """Bind to a session and to the router that will hand this client
        the deliveries of the message ids it claims.

        Called by :meth:`repro.api.Session.attach_client`.
        """
        if self._session is not None:
            raise RuntimeError(f"client {self.name!r} is already bound to a session")
        self._session = session
        self._router = router
        return self

    def release(self) -> None:
        """The session ended: let go of it and its router (both reach back
        here).  Counters and latency stay readable."""
        self._session = self._router = None

    def start(self) -> None:
        """Schedule the first arrival (call after :meth:`bind`)."""
        session = self._require_session()
        first = self.start_time + next(self._gaps)
        if first <= self.start_time + self.duration:
            session.sim.schedule_at(first, self._arrival, label=f"workload:{self.name}")

    # ------------------------------------------------------------------
    # The arrival loop
    # ------------------------------------------------------------------
    def _arrival(self) -> None:
        session = self._require_session()
        now = session.sim.now
        sender, group = self.profile.selection.choose(self._rng, self.senders, self.groups)
        payload = self._payload(sender, group)
        # Draw the next gap *before* any stack interaction so the arrival
        # sequence is identical on every stack.
        next_time = now + next(self._gaps)
        if self.issued is not None:
            self.issued.append((now, sender, group, len(payload)))
        stack = session.stack
        if stack.is_crashed(sender) or not stack.is_member(sender, group):
            self.skipped += 1
        else:
            self.offered += 1
            message_id = session.multicast(sender, group, payload)
            if message_id is not None:
                self.admitted += 1
                self._send_times[message_id] = now
                self._router.claim(message_id, self)
            else:
                self.blocked += 1
        if next_time <= self.start_time + self.duration:
            session.sim.schedule_at(next_time, self._arrival, label=f"workload:{self.name}")

    def _payload(self, sender: str, group: str) -> str:
        header = f"{self.name}/{sender}/{group}/{self._sequence}"
        self._sequence += 1
        if len(header) >= self.profile.payload_bytes:
            return header
        return header + "." * (self.profile.payload_bytes - len(header))

    # ------------------------------------------------------------------
    # Our own deliveries, one call each (from the delivery router)
    # ------------------------------------------------------------------
    def on_event(self, event: TraceEvent) -> None:
        sent_at = self._send_times.get(event.message_id)
        if sent_at is None:
            return
        self.delivered_events += 1
        self._delivered_ids.add(event.message_id)
        self.latency.add(event.time - sent_at)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    @property
    def delivered_unique(self) -> int:
        """Distinct admitted messages delivered by at least one process."""
        return len(self._delivered_ids)

    def counters(self) -> Dict[str, int]:
        """The monotone counters, for phase-delta accounting."""
        return {
            "offered": self.offered,
            "admitted": self.admitted,
            "blocked": self.blocked,
            "skipped": self.skipped,
            "delivered_events": self.delivered_events,
            "delivered_unique": self.delivered_unique,
        }

    def latency_summary(self) -> Dict[str, Optional[float]]:
        """Streaming latency statistics over this client's deliveries."""
        return self.latency.summary()

    def stats(self) -> Dict[str, object]:
        """JSON-shaped snapshot: offered/admitted split plus latency."""
        return {
            "client": self.name,
            "profile": self.profile.describe(),
            **self.counters(),
            "latency": self.latency_summary(),
        }

    def _require_session(self):
        if self._session is None:
            raise RuntimeError(
                f"client {self.name!r} is not bound; call Session.attach_client first"
            )
        return self._session

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"OpenLoopClient(name={self.name!r}, profile={self.profile.name!r}, "
            f"offered={self.offered}, admitted={self.admitted})"
        )


def aggregate_counters(clients: Iterable[OpenLoopClient]) -> Dict[str, int]:
    """Sum the monotone counters of several clients (scenario reporting)."""
    total: Dict[str, int] = {
        "offered": 0, "admitted": 0, "blocked": 0, "skipped": 0,
        "delivered_events": 0, "delivered_unique": 0,
    }
    for client in clients:
        for key, value in client.counters().items():
            total[key] += value
    return total
