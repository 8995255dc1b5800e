"""Membership views.

A *view* is a process's current belief about which processes are
functioning, connected members of a group.  Newtop's views only ever shrink
("a new view will always be a proper subset of the old view(s)"); processes
that want to re-join their former co-members do so by forming a *new* group
(§3, §5.3), which is why there is no join operation here.

Two representations are provided:

* :class:`MembershipView` -- the plain representation used throughout §5: a
  set of member identifiers plus an installation index ``r`` (the paper's
  ``V^r_x,i``).
* :class:`SignatureView` -- the §6 extension adapted from Schiper &
  Ricciardi [19]: members are *signatures* ``{process-id, exclusion-count}``
  where the exclusion count is the total number of processes the holder has
  excluded from the initial view.  Two signature views of concurrent
  subgroups can never intersect, removing even the short-lived overlap of
  Example 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, Iterator, Optional, Tuple

from repro.core.errors import InvalidViewError


@dataclass(frozen=True)
class MembershipView:
    """An installed view ``V^r`` of one group at one process.

    Attributes
    ----------
    group:
        Group identifier.
    index:
        Installation index ``r``; the initial view has index 0 and each
        installation increments it by one.
    members:
        The processes believed to be functioning, connected members.
    """

    group: str
    index: int
    members: FrozenSet[str]

    def __post_init__(self) -> None:
        if self.index < 0:
            raise InvalidViewError(f"view index must be non-negative (got {self.index})")
        if not self.members:
            raise InvalidViewError(f"view {self.group}@{self.index} has no members")

    # ------------------------------------------------------------------
    # Set-like behaviour
    # ------------------------------------------------------------------
    def __contains__(self, member: str) -> bool:
        return member in self.members

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self.members))

    def __len__(self) -> int:
        return len(self.members)

    def sorted_members(self) -> Tuple[str, ...]:
        """Members in a deterministic (sorted) order.

        Used wherever the paper requires "a fixed pre-determined order"
        (the safe2 tie-break) or "a deterministic algorithm" (sequencer
        selection, §4.2).  Cached: views are immutable and this is called
        on every multicast fan-out.
        """
        cached = self.__dict__.get("_sorted_members")
        if cached is None:
            cached = tuple(sorted(self.members))
            object.__setattr__(self, "_sorted_members", cached)
        return cached

    # ------------------------------------------------------------------
    # View evolution
    # ------------------------------------------------------------------
    def exclude(self, departed: Iterable[str]) -> "MembershipView":
        """Install the successor view that excludes ``departed``.

        Raises :class:`InvalidViewError` if the result would be empty or if
        none of ``departed`` is actually in the view (installing an
        identical view would break the strictly-shrinking invariant).
        """
        departed_set = frozenset(departed)
        remaining = self.members - departed_set
        if remaining == self.members:
            raise InvalidViewError(
                f"view change for {self.group} excludes nobody: {sorted(departed_set)}"
            )
        if not remaining:
            raise InvalidViewError(
                f"view change for {self.group} would leave the view empty"
            )
        return MembershipView(group=self.group, index=self.index + 1, members=remaining)

    def sequencer(self) -> str:
        """The deterministic sequencer choice for asymmetric groups (§4.2).

        Processes with the same view are guaranteed to choose the same
        sequencer; the smallest member identifier is used.
        """
        return self.sorted_members()[0]

    @staticmethod
    def initial(group: str, members: Iterable[str]) -> "MembershipView":
        """The initial view ``V^0`` installed when a group is formed."""
        return MembershipView(group=group, index=0, members=frozenset(members))

    def describe(self) -> str:
        """Compact rendering used in traces and debug output."""
        return f"{self.group}@{self.index}{{{','.join(self.sorted_members())}}}"


@dataclass(frozen=True)
class Signature:
    """A member signature ``{process-id, exclusion-count}`` (§6)."""

    process: str
    exclusions: int

    def __post_init__(self) -> None:
        if self.exclusions < 0:
            raise InvalidViewError("exclusion count must be non-negative")


class SignatureView:
    """The §6 signature-based view representation.

    Wraps a :class:`MembershipView` with per-member exclusion counts.  When
    the holder installs a new view excluding ``k`` processes, the exclusion
    count of every *remaining* member signature increases by ``k``.  Two
    processes hold intersecting signature views only if they have excluded
    exactly the same number of processes, so views of concurrently evolving
    subgroups never intersect (the paper works through Example 3: after the
    partition the two-sided views are ``{{Pi,3},{Pj,3}}`` versus
    ``{{Pi,1},{Pj,1},{Pk,1},{Pl,1}}`` -- disjoint as signature sets).
    """

    def __init__(self, view: MembershipView, exclusions: int = 0) -> None:
        self._view = view
        self._exclusions = exclusions

    @property
    def view(self) -> MembershipView:
        """The underlying plain membership view."""
        return self._view

    @property
    def exclusions(self) -> int:
        """Total number of processes excluded from the initial view so far."""
        return self._exclusions

    def signatures(self) -> FrozenSet[Signature]:
        """The view as a set of member signatures."""
        return frozenset(
            Signature(process=member, exclusions=self._exclusions)
            for member in self._view.members
        )

    def exclude(self, departed: Iterable[str]) -> "SignatureView":
        """Install the successor signature view excluding ``departed``."""
        departed_set = frozenset(departed)
        new_view = self._view.exclude(departed_set)
        excluded_now = len(self._view.members & departed_set)
        return SignatureView(new_view, self._exclusions + excluded_now)

    def intersects(self, other: "SignatureView") -> bool:
        """Whether the two signature views share any member signature."""
        return bool(self.signatures() & other.signatures())

    @staticmethod
    def initial(group: str, members: Iterable[str]) -> "SignatureView":
        """Initial signature view: every member carries exclusion count 0."""
        return SignatureView(MembershipView.initial(group, members), 0)

    def describe(self) -> str:
        """Compact rendering used in traces and debug output."""
        inner = ", ".join(
            f"{{{signature.process},{signature.exclusions}}}"
            for signature in sorted(self.signatures(), key=lambda s: s.process)
        )
        return f"{self._view.group}@{self._view.index}[{inner}]"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SignatureView({self.describe()})"
