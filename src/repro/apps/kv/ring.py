"""Deterministic consistent-hash ring: key space -> shard identifiers.

The ring is the *routing artifact* of the sharded KV store: an immutable,
versioned mapping from keys to logical shard ids.  Clients cache a ring
and route with it; the authoritative copy lives at the store
(:class:`repro.apps.kv.store.ShardedKV`), which bumps the version whenever
a rebalance changes key ownership.  A client holding a stale ring is not
an error -- its requests are rejected with ``"stale_ring"`` plus the
current ring, and it retries.  That retry loop is the availability cost of
rebalancing, and experiment E26 measures it.

Properties:

* **Deterministic** -- placement depends only on ``(shards, vnodes)`` via
  BLAKE2b, never on process ids, interpreter hash seeds or run order; two
  rings built from the same parameters agree byte-for-byte across runs
  and across OS processes (the :mod:`repro.parallel` sharding contract).
* **Consistent** -- each shard owns ``vnodes`` pseudo-random points on a
  64-bit circle; a key belongs to the shard owning the first point at or
  after its hash.  Adding one shard to an ``n``-shard ring moves roughly
  ``1/(n+1)`` of the key space and nothing else.
* **Versioned** -- :meth:`HashRing.with_shard` / :meth:`HashRing.without_shard`
  return a *new* ring with ``version + 1``; rings are value objects and
  never mutate, so "is this client stale?" is one integer comparison.
* **Routed once** -- because a ring never mutates, it computes the owner
  of a key once and remembers it (a lookup runs several times per client
  operation, and again at every replica for every fenced delivery), and
  :meth:`HashRing.from_description` hands back the one ring a description
  names instead of validating and sorting a new one per call.

Note the ring maps keys to *shard ids*, not to protocol groups: a shard's
current group (which changes generation when its replica set is moved) is
the store's business, so replica moves do not invalidate client rings --
only ownership changes (splits/merges) do.
"""

from __future__ import annotations

import bisect
import hashlib
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, Iterable, List, Optional, Sequence, Tuple


def stable_hash(text: str) -> int:
    """A 64-bit deterministic hash of ``text`` (BLAKE2b, seed-free).

    ``hash()`` is salted per interpreter; this is not, which is what makes
    ring placement reproducible across runs and parallel workers.
    """
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


@lru_cache(maxsize=64)
def _ring_points(shards: Tuple[str, ...], vnodes: int) -> Tuple[Tuple[int, ...], Tuple[str, ...]]:
    """Sorted virtual-node points for a shard set (cached: rebalances are
    rare but lookups run per client operation)."""
    points: List[Tuple[int, str]] = []
    for shard in shards:
        for vnode in range(vnodes):
            points.append((stable_hash(f"{shard}#{vnode}"), shard))
    points.sort()
    return tuple(p for p, _ in points), tuple(s for _, s in points)


#: Remembered owners per ring before the memo starts over: a bound for
#: callers with an unbounded key space (the workloads here route a few
#: thousand keys).
_LOOKUP_MEMO_LIMIT = 1 << 16


@dataclass(frozen=True)
class HashRing:
    """One immutable version of the key -> shard mapping."""

    version: int
    shards: Tuple[str, ...]
    #: Virtual nodes per shard; more vnodes = smoother balance, slower
    #: ring construction (lookups stay O(log(shards * vnodes))).
    vnodes: int = 64
    #: Ordered ``(parent, child)`` split lineage.  A child shard owns a
    #: pseudo-random half of its *parent's* arcs and nothing else -- the
    #: shard-split contract: splitting ``s2`` into ``s3`` must never move
    #: a key that ``s0`` owned, because only ``s2`` gets fenced and
    #: migrated.  Splits apply in order, so lineages nest (a child may be
    #: split again, or the same parent split repeatedly).
    splits: Tuple[Tuple[str, str], ...] = ()
    # Derived routing state, filled in by ``__post_init__`` (equality and
    # hashing stay on the four fields above): the roots, each split's
    # parent with its two-shard sub-ring, and the owners worked out so far.
    _roots: Tuple[str, ...] = field(init=False, repr=False, compare=False)
    _split_rings: Tuple[Tuple[str, Tuple[str, ...]], ...] = field(
        init=False, repr=False, compare=False
    )
    _owner_of: Dict[str, str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.version < 1:
            raise ValueError(f"ring version must be >= 1, got {self.version}")
        if not self.shards:
            raise ValueError("a ring needs at least one shard")
        if len(set(self.shards)) != len(self.shards):
            raise ValueError(f"duplicate shard ids in {self.shards}")
        if self.vnodes < 1:
            raise ValueError(f"vnodes must be >= 1, got {self.vnodes}")
        splits = tuple((parent, child) for parent, child in self.splits)
        children = [child for _, child in splits]
        if len(set(children)) != len(children):
            raise ValueError(f"duplicate split children in {splits}")
        for parent, child in splits:
            if parent == child or parent not in self.shards or child not in self.shards:
                raise ValueError(f"invalid split pair {(parent, child)}")
        if not [s for s in self.shards if s not in children]:
            raise ValueError("every shard is a split child; no ring roots left")
        # Canonicalize so rings built from differently-ordered shard lists
        # are equal value objects with identical placement.  Split order is
        # semantic (lineages nest) and is preserved as given.
        object.__setattr__(self, "shards", tuple(sorted(self.shards)))
        object.__setattr__(self, "splits", splits)
        object.__setattr__(
            self, "_roots", tuple(s for s in self.shards if s not in children)
        )
        object.__setattr__(
            self,
            "_split_rings",
            tuple((parent, tuple(sorted((parent, child)))) for parent, child in splits),
        )
        object.__setattr__(self, "_owner_of", {})

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def lookup(self, key: str) -> str:
        """The shard id owning ``key`` under this ring version."""
        memo = self._owner_of
        owner = memo.get(key)
        if owner is None:
            if len(memo) >= _LOOKUP_MEMO_LIMIT:
                memo.clear()
            owner = memo[key] = self._route(key)
        return owner

    def _route(self, key: str) -> str:
        key_hash = stable_hash(key)
        owner = self._arc_owner(self._roots, key_hash)
        # Descend the split lineage: each split subdivides only its
        # parent's arcs, deciding parent-vs-child on a two-shard sub-ring.
        for parent, sub_ring in self._split_rings:
            if owner == parent:
                owner = self._arc_owner(sub_ring, key_hash)
        return owner

    def _arc_owner(self, shards: Tuple[str, ...], key_hash: int) -> str:
        hashes, owners = _ring_points(shards, self.vnodes)
        index = bisect.bisect_left(hashes, key_hash)
        if index == len(hashes):  # wrap around the circle
            index = 0
        return owners[index]

    # ------------------------------------------------------------------
    # Evolution (always a new ring, version + 1)
    # ------------------------------------------------------------------
    def with_shard(self, shard_id: str, split_from: Optional[str] = None) -> "HashRing":
        """A new ring version that also owns ``shard_id``.

        With ``split_from``, the new shard takes over a pseudo-random half
        of *that shard's* key space and nothing else -- the shard-split
        form, where exactly one existing shard needs fencing and
        migration.  Without it, the new shard claims arcs from every
        existing shard (elastic scale-out; every shard must then migrate
        its moved keys).
        """
        if shard_id in self.shards:
            raise ValueError(f"shard {shard_id!r} is already on the ring")
        splits = self.splits
        if split_from is not None:
            if split_from not in self.shards:
                raise ValueError(f"split source {split_from!r} is not on the ring")
            splits = splits + ((split_from, shard_id),)
        return HashRing(
            self.version + 1, self.shards + (shard_id,), self.vnodes, splits
        )

    def without_shard(self, shard_id: str) -> "HashRing":
        """A new ring version without ``shard_id`` (shard merge/retire).

        A split child merges back into its parent; a shard that still has
        split children cannot be removed (merge leaf-first).
        """
        if shard_id not in self.shards:
            raise ValueError(f"shard {shard_id!r} is not on the ring")
        if any(parent == shard_id for parent, _ in self.splits):
            raise ValueError(
                f"shard {shard_id!r} has split children; merge those first"
            )
        remaining = tuple(s for s in self.shards if s != shard_id)
        splits = tuple(pair for pair in self.splits if pair[1] != shard_id)
        return HashRing(self.version + 1, remaining, self.vnodes, splits)

    def moved_keys(self, keys: Iterable[str], new_ring: "HashRing") -> List[str]:
        """Keys whose owner differs between this ring and ``new_ring``,
        in sorted order (deterministic migration plans)."""
        return sorted(
            key for key in keys if self.lookup(key) != new_ring.lookup(key)
        )

    def describe(self) -> Dict[str, object]:
        """JSON-shaped description (benchmark reports, fence commands)."""
        description: Dict[str, object] = {
            "version": self.version,
            "shards": list(self.shards),
            "vnodes": self.vnodes,
        }
        if self.splits:
            description["splits"] = [list(pair) for pair in self.splits]
        return description

    @staticmethod
    def from_description(description: Dict[str, object]) -> "HashRing":
        """The ring :meth:`describe` output names.  Used by the pure
        command-apply path so every replica routes by the *identical* ring
        named by a fence command -- the same object, too: a fenced delivery
        asks for it again at every replica."""
        return _ring_of(
            int(description["version"]),
            tuple(description["shards"]),  # type: ignore[arg-type]
            int(description.get("vnodes", 64)),
            tuple(
                (str(parent), str(child))
                for parent, child in description.get("splits", ())  # type: ignore[union-attr]
            ),
        )


@lru_cache(maxsize=64)
def _ring_of(
    version: int,
    shards: Tuple[str, ...],
    vnodes: int,
    splits: Tuple[Tuple[str, str], ...],
) -> HashRing:
    """One ring per description (rings are immutable values; a run names a
    handful of them)."""
    return HashRing(version, shards, vnodes, splits)
