"""KV-aware workload: thousands of logical clients routed through the ring.

:class:`KVWorkload` is the KV counterpart of
:class:`repro.workloads.client.OpenLoopClient`: open-loop arrivals (any
:class:`~repro.workloads.arrivals.ArrivalProcess`) multiplexed over a
population of **logical clients**, except that each arrival draws a *key*
(Zipf-skewed via the same :class:`~repro.workloads.selection.ZipfSenders`
machinery, so hot-key skew concentrates load on whichever shard owns the
hot keys) and routes it through the client's **cached, possibly stale**
:class:`~repro.apps.kv.ring.HashRing`.

Each logical client:

* holds one outstanding operation at a time (an arrival that lands on a
  busy client probes for a free one; if none, it counts as blocked),
* caches a ring and refreshes it from every ``stale_ring`` rejection,
* keeps a per-shard session watermark ``(generation, position)`` for
  read-your-writes + monotonic reads, resetting it when a replica move
  bumps the shard's generation,
* sends a write to the shard's coordinator (the sequencer of an
  asymmetric shard: two messages per write over three replicas where a
  uniformly drawn replica averages 2.67) and a read to a uniformly drawn
  replica (local, no message); symmetric shards, which have no
  coordinator, keep the uniform draw for both,
* retries a ``behind`` read at the coordinator the answer names, in the
  same instant -- it has applied every write it acknowledged -- and
  ``unavailable`` / ``rejected_moved`` outcomes (and ``behind`` where
  there is no coordinator, or the coordinator itself is behind) after
  ``retry_delay``, rotating to another alive replica -- the failover and
  rebalance client loops E26 measures,
* never times out a submitted write: the acknowledgement instant is
  exactly when its read-your-writes expectation advances, which keeps
  the oracle's obligations aligned with client state.  Writes whose
  coordinator crashed stay pending (reported, and the client stays
  busy -- the honest cost of a crash without client-side dedup).

Per-shard completed-operation time bins feed
:func:`benchmarks.common.unavailability_windows`, which is how the
benchmark turns "shard A stopped serving for 12s during the rebalance"
into a number.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Optional

from repro.apps.kv.ring import HashRing
from repro.apps.kv.store import ShardedKV
from repro.stats import LatencyReservoir
from repro.workloads.arrivals import ArrivalProcess, PoissonArrivals
from repro.workloads.selection import ZipfSenders


class _Client:
    """State of one logical client (slots: there are thousands)."""

    __slots__ = ("name", "ring", "marks", "busy", "ops")

    def __init__(self, name: str, ring: HashRing) -> None:
        self.name = name
        self.ring = ring
        #: shard id -> (generation, position) session watermark.
        self.marks: Dict[str, tuple] = {}
        self.busy = False
        self.ops = 0

    def mark(self, shard: str) -> tuple:
        return self.marks.get(shard, (0, 0))

    def advance(self, shard: str, generation: int, position: int) -> None:
        gen, pos = self.mark(shard)
        if generation > gen:
            self.marks[shard] = (generation, position)
        elif generation == gen and position > pos:
            self.marks[shard] = (generation, position)


class KVWorkload:
    """Open-loop KV traffic against one :class:`ShardedKV`."""

    def __init__(
        self,
        store: ShardedKV,
        *,
        clients: int = 1000,
        keys: int = 512,
        read_fraction: float = 0.7,
        zipf_exponent: float = 1.1,
        arrivals: Optional[ArrivalProcess] = None,
        rate: float = 50.0,
        duration: float = 100.0,
        drain: float = 30.0,
        retry_delay: float = 1.0,
        retry_cap: float = 8.0,
        bin_width: float = 5.0,
        seed: int = 0,
    ) -> None:
        if not 0.0 <= read_fraction <= 1.0:
            raise ValueError("read_fraction must be in [0, 1]")
        self.store = store
        self.session = store.session
        self.sim = store.session.sim
        self.keys = [f"k{index}" for index in range(keys)]
        self.selection = ZipfSenders(exponent=zipf_exponent)
        self.read_fraction = read_fraction
        self.arrivals = arrivals or PoissonArrivals(rate=rate)
        self.duration = duration
        self.drain = drain
        self.retry_delay = retry_delay
        self.retry_cap = retry_cap
        self.bin_width = bin_width
        self.rng = random.Random(seed)
        self.clients = [_Client(f"c{index}", store.ring) for index in range(clients)]
        self.read_latency = LatencyReservoir(seed=seed)
        self.write_latency = LatencyReservoir(seed=seed + 1)
        self.counters: Dict[str, int] = {
            "offered": 0,
            "blocked_all_busy": 0,
            "completed_reads": 0,
            "completed_writes": 0,
            "stale_refreshes": 0,
            "moved_retries": 0,
            "behind_retries": 0,
            "failover_redirects": 0,
            "unavailable_retries": 0,
            "abandoned": 0,
        }
        #: shard id -> {bin index -> completed ops} (serving evidence).
        self.completed_bins: Dict[str, Dict[int, int]] = {}
        #: shard id -> {bin index -> routed ops} (demand evidence).
        self.offered_bins: Dict[str, Dict[int, int]] = {}
        self._started_at: Optional[float] = None
        self._stop_at = 0.0
        self._gaps = None

    # ------------------------------------------------------------------
    # Arrival loop
    # ------------------------------------------------------------------
    def start(self) -> None:
        self._started_at = self.sim.now
        self._stop_at = self.sim.now + self.duration
        self._gaps = self.arrivals.gaps(self.rng)
        self.sim.schedule(next(self._gaps), self._on_arrival, label="kv_arrival")

    def _on_arrival(self) -> None:
        if self.sim.now < self._stop_at:
            self.sim.schedule(next(self._gaps), self._on_arrival, label="kv_arrival")
        else:
            return
        client = self._pick_client()
        if client is None:
            self.counters["blocked_all_busy"] += 1
            return
        self.counters["offered"] += 1
        key, _ = self.selection.choose(self.rng, self.keys, ("-",))
        is_read = self.rng.random() < self.read_fraction
        client.busy = True
        client.ops += 1
        self._attempt(client, key, is_read, started=self.sim.now, attempt=0, avoid=None)

    def _pick_client(self) -> Optional[_Client]:
        # A few probes keep this O(1) with thousands of mostly-idle clients.
        for _ in range(8):
            client = self.clients[self.rng.randrange(len(self.clients))]
            if not client.busy:
                return client
        return None

    # ------------------------------------------------------------------
    # One operation, with retries
    # ------------------------------------------------------------------
    def _attempt(
        self,
        client: _Client,
        key: str,
        is_read: bool,
        started: float,
        attempt: int,
        avoid: Optional[str],
    ) -> None:
        if client.busy is False:
            return  # completed by an earlier path
        if self.sim.now > self._stop_at + self.drain:
            self.counters["abandoned"] += 1
            client.busy = False
            return
        shard_id = client.ring.lookup(key)
        via = self._pick_replica(shard_id, is_read, avoid)
        if via is None:
            # Routed shard unknown/unreachable under this ring: refresh
            # against the authoritative ring and retry.
            client.ring = self.store.ring
            self.counters["unavailable_retries"] += 1
            self._retry(client, key, is_read, started, attempt, None)
            return
        self._note_bin(self.offered_bins, shard_id)
        if is_read:
            self._read_once(client, key, started, attempt, via)
        else:
            self._write_once(client, key, started, attempt, via)

    def _pick_replica(
        self, shard_id: str, is_read: bool, avoid: Optional[str]
    ) -> Optional[str]:
        """A write enters at the shard's coordinator; a read, and a write
        to a shard that has none, at a uniformly drawn alive replica."""
        shard = self.store.shards.get(shard_id)
        if shard is None:
            return None
        if not is_read:
            coordinator = self.store.coordinator(shard_id)
            if coordinator is not None:
                return coordinator
        alive = shard.alive_members()
        if not alive:
            return None
        pool = [m for m in alive if m != avoid] or alive
        return pool[self.rng.randrange(len(pool))]

    def _retry(
        self,
        client: _Client,
        key: str,
        is_read: bool,
        started: float,
        attempt: int,
        avoid: Optional[str],
    ) -> None:
        # Exponential backoff: a long outage (crash recovery, a frozen
        # shard mid-rebalance) must not turn every stuck client into a
        # per-second retry storm through the coordinator.
        delay = min(self.retry_delay * (2.0 ** min(attempt, 10)), self.retry_cap)
        self.sim.schedule(
            delay,
            self._attempt,
            client,
            key,
            is_read,
            started,
            attempt + 1,
            avoid,
            label="kv_retry",
        )

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def _read_once(
        self, client: _Client, key: str, started: float, attempt: int, via: str
    ) -> None:
        shard_id = client.ring.lookup(key)
        _gen, position = client.mark(shard_id)
        response = self.store.read(
            client=client.name,
            key=key,
            via=via,
            ring=client.ring,
            min_position=position,
        )
        status = response["status"]
        if status == "ok":
            client.advance(shard_id, response["generation"], response["position"])
            client.busy = False
            self.counters["completed_reads"] += 1
            self.read_latency.add(self.sim.now - started)
            self._note_bin(self.completed_bins, response["shard"])
            return
        if status == "behind":
            generation = response.get("generation", 0)
            if generation > client.mark(shard_id)[0]:
                # Replica move bumped the generation: old watermarks are
                # meaningless in the new group's positions.
                client.marks[shard_id] = (generation, 0)
            self.counters["behind_retries"] += 1
            coordinator = response["coordinator"]
            if coordinator is not None and coordinator != via:
                # The coordinator has applied every acknowledged write and
                # sits at or past the read floor: no back-off can be needed.
                self._read_once(client, key, started, attempt, coordinator)
            else:
                self._retry(client, key, True, started, attempt, via)
            return
        self._handle_reject(client, key, True, started, attempt, via, response)

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def _write_once(
        self, client: _Client, key: str, started: float, attempt: int, via: str
    ) -> None:
        def on_ack(ack: Dict[str, object]) -> None:
            if ack["status"] == "applied":
                client.advance(ack["shard"], ack["generation"], ack["position"])
                client.busy = False
                self.counters["completed_writes"] += 1
                self.write_latency.add(self.sim.now - started)
                self._note_bin(self.completed_bins, ack["shard"])
            else:  # rejected_moved: the key's shard changed under us
                client.ring = ack["ring"]
                self.counters["moved_retries"] += 1
                self._retry(client, key, False, started, attempt, None)

        response = self.store.submit(
            client=client.name,
            client_op=client.ops * 1_000_000 + attempt,
            op="set",
            key=key,
            value=f"{client.name}:{client.ops}:{attempt}",
            via=via,
            ring=client.ring,
            callback=on_ack,
        )
        if response["status"] == "submitted":
            return  # resolution arrives through on_ack
        self._handle_reject(client, key, False, started, attempt, via, response)

    # ------------------------------------------------------------------
    # Shared rejection handling
    # ------------------------------------------------------------------
    def _handle_reject(
        self,
        client: _Client,
        key: str,
        is_read: bool,
        started: float,
        attempt: int,
        via: str,
        response: Dict[str, object],
    ) -> None:
        status = response["status"]
        if status == "stale_ring":
            client.ring = response["ring"]
            self.counters["stale_refreshes"] += 1
            self._retry(client, key, is_read, started, attempt, None)
        elif status == "frozen":
            # Mid-rebalance freeze: the key's new home is not published
            # yet.  Refresh the ring (it may already be) and back off.
            client.ring = response["ring"]
            self.counters["moved_retries"] += 1
            self._retry(client, key, is_read, started, attempt, None)
        elif status == "unavailable":
            self.counters["failover_redirects"] += 1
            self._retry(client, key, is_read, started, attempt, via)
        else:  # pragma: no cover - store statuses are closed
            raise RuntimeError(f"unexpected store response {response!r}")

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def _note_bin(self, bins: Dict[str, Dict[int, int]], shard_id: str) -> None:
        index = int(self.sim.now / self.bin_width)
        per_shard = bins.setdefault(shard_id, {})
        per_shard[index] = per_shard.get(index, 0) + 1

    def shard_bins(self, shard_id: str) -> List[tuple]:
        """``(start, end, served, offered)`` series for one shard, covering
        the workload's whole offered window -- the input shape of
        :func:`benchmarks.common.unavailability_windows`."""
        if self._started_at is None:
            return []
        served = self.completed_bins.get(shard_id, {})
        offered = self.offered_bins.get(shard_id, {})
        first = int(self._started_at / self.bin_width)
        last = max([first] + list(served) + list(offered))
        return [
            (
                index * self.bin_width,
                (index + 1) * self.bin_width,
                served.get(index, 0),
                offered.get(index, 0),
            )
            for index in range(first, last + 1)
        ]

    def in_flight(self) -> int:
        return sum(1 for client in self.clients if client.busy)

    def report(self) -> Dict[str, Any]:
        return {
            "clients": len(self.clients),
            "keys": len(self.keys),
            "read_fraction": self.read_fraction,
            "counters": dict(self.counters),
            "in_flight": self.in_flight(),
            "read_latency": self.read_latency.summary(),
            "write_latency": self.write_latency.summary(),
            "per_shard_completed": {
                shard: sum(bins.values())
                for shard, bins in sorted(self.completed_bins.items())
            },
        }
