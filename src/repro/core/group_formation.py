"""Dynamic group formation (§5.3).

Newtop has no "join" operation: views only shrink, and processes that want
to (re)join their former co-members instead *form a new group* while
keeping their existing memberships.  Formation is a two-phase protocol run
by an initiator, followed by an in-group agreement on the number from which
application traffic may start:

1. The initiator sends a ``form group gn`` invitation carrying the intended
   membership to every intended member.
2. Every invitee diffuses its yes/no decision to every intended member.
3. The initiator sends its own ``yes`` only once it has received ``yes``
   from everybody else within a timeout; otherwise it diffuses ``no``
   (a single ``no`` acts as a veto).
4. A member that has collected ``yes`` from *every* intended member
   activates the group: installs the initial view, starts the time-silence
   mechanism and the group-view (membership) process, and multicasts a
   special ``start-group`` message whose number is its proposed
   *start-number*.
5. Before sending any application message in the new group, a member waits
   for a ``start-group`` message from every member of its current view; the
   group's deliverable bound is then set to the maximum proposed
   start-number and the member's clock is raised to it, which guarantees
   that application messages of the new group are numbered above the
   start-number and therefore order consistently with the member's other
   groups.

This module implements phases 1-3 (the voting); phases 4-5 live in the
group endpoint (the *formation wait* state) because they interact with the
delivery machinery.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from repro.core.config import OrderingMode
from repro.core.errors import GroupFormationError
from repro.core.messages import FormGroupInvite, FormGroupVote
from repro.net.simulator import EventHandle, Simulator

#: Policy callback deciding whether this process accepts an invitation:
#: ``policy(group_id, members) -> bool``.
VotePolicy = Callable[[str, Tuple[str, ...]], bool]


class FormationStatus(enum.Enum):
    """Lifecycle of one group-formation attempt, as seen by one process."""

    VOTING = "voting"
    FORMED = "formed"
    FAILED = "failed"


@dataclass
class FormationHandle:
    """Observable state of one formation attempt at one process."""

    group_id: str
    members: Tuple[str, ...]
    mode: OrderingMode
    initiator: str
    status: FormationStatus = FormationStatus.VOTING
    #: Votes received so far (voter -> decision), including our own.
    votes: Dict[str, bool] = field(default_factory=dict)
    #: Why the attempt failed, when it did.
    failure_reason: Optional[str] = None

    @property
    def formed(self) -> bool:
        """Whether the group has been activated locally."""
        return self.status == FormationStatus.FORMED

    @property
    def failed(self) -> bool:
        """Whether the attempt has failed locally."""
        return self.status == FormationStatus.FAILED


class FormationCoordinator:
    """Runs the voting phases of group formation for one process.

    The coordinator is owned by a :class:`~repro.core.process.NewtopProcess`
    and calls back into it to transmit messages and to activate groups that
    reached unanimous agreement.
    """

    def __init__(
        self,
        process,
        sim: Simulator,
        vote_policy: Optional[VotePolicy] = None,
        formation_timeout: float = 30.0,
    ) -> None:
        self.process = process
        self.sim = sim
        self.vote_policy = vote_policy or (lambda group_id, members: True)
        self.formation_timeout = formation_timeout
        self._attempts: Dict[str, FormationHandle] = {}
        self._timers: Dict[str, EventHandle] = {}
        self._own_vote_sent: Dict[str, bool] = {}

    # ------------------------------------------------------------------
    # Initiation (step 1)
    # ------------------------------------------------------------------
    def initiate(
        self, group_id: str, members: Tuple[str, ...], mode: OrderingMode
    ) -> FormationHandle:
        """Step 1: invite every intended member to form ``group_id``."""
        own_id = self.process.process_id
        if own_id not in members:
            raise GroupFormationError(
                f"initiator {own_id!r} must be an intended member of {group_id!r}"
            )
        if group_id in self._attempts:
            raise GroupFormationError(f"formation of {group_id!r} already in progress")
        handle = FormationHandle(
            group_id=group_id, members=tuple(members), mode=mode, initiator=own_id
        )
        self._attempts[group_id] = handle
        self._own_vote_sent[group_id] = False
        invite = FormGroupInvite(
            initiator=own_id, group=group_id, members=tuple(members), mode=mode.value
        )
        for member in members:
            if member != own_id:
                self.process.send_control(member, invite, cause="formation")
        self._timers[group_id] = self.sim.schedule(
            self.formation_timeout, self._on_timeout, group_id, label="formation-timeout"
        )
        self._check_initiator_vote(group_id)
        return handle

    # ------------------------------------------------------------------
    # Invitations (step 2)
    # ------------------------------------------------------------------
    def on_invite(self, invite: FormGroupInvite) -> FormationHandle:
        """An invitation arrived: decide, then diffuse our vote to everyone."""
        own_id = self.process.process_id
        handle = self._attempts.get(invite.group)
        if handle is None:
            handle = FormationHandle(
                group_id=invite.group,
                members=tuple(invite.members),
                mode=OrderingMode(invite.mode),
                initiator=invite.initiator,
            )
            self._attempts[invite.group] = handle
            self._own_vote_sent[invite.group] = False
        else:
            # Votes can overtake the invitation (they travel on different
            # channels); the invitation is authoritative for mode/initiator.
            handle.members = tuple(invite.members)
            handle.mode = OrderingMode(invite.mode)
            handle.initiator = invite.initiator
        if own_id not in handle.members:
            # Not actually an intended member; ignore the stray invitation.
            return handle
        accept = bool(self.vote_policy(invite.group, handle.members))
        self._diffuse_vote(handle, accept)
        return handle

    # ------------------------------------------------------------------
    # Votes (steps 2-4)
    # ------------------------------------------------------------------
    def on_vote(self, vote: FormGroupVote) -> None:
        """Record a diffused vote and re-evaluate activation conditions."""
        handle = self._attempts.get(vote.group)
        if handle is None:
            handle = FormationHandle(
                group_id=vote.group,
                members=tuple(vote.members),
                mode=OrderingMode.SYMMETRIC,
                initiator=vote.members[0] if vote.members else vote.voter,
            )
            self._attempts[vote.group] = handle
            self._own_vote_sent[vote.group] = False
        if handle.status != FormationStatus.VOTING:
            return
        handle.votes[vote.voter] = vote.accept
        if not vote.accept:
            self._fail(handle, f"vetoed by {vote.voter}")
            return
        self._check_initiator_vote(vote.group)
        self._check_activation(vote.group)

    def _diffuse_vote(self, handle: FormationHandle, accept: bool) -> None:
        own_id = self.process.process_id
        if self._own_vote_sent.get(handle.group_id):
            return
        self._own_vote_sent[handle.group_id] = True
        handle.votes[own_id] = accept
        vote = FormGroupVote(
            voter=own_id, group=handle.group_id, accept=accept, members=handle.members
        )
        for member in handle.members:
            if member != own_id:
                self.process.send_control(member, vote, cause="formation")
        if not accept:
            self._fail(handle, "declined locally")
            return
        self._check_activation(handle.group_id)

    def _check_initiator_vote(self, group_id: str) -> None:
        """Step 3: the initiator votes yes only once everyone else has."""
        handle = self._attempts.get(group_id)
        if handle is None or handle.status != FormationStatus.VOTING:
            return
        own_id = self.process.process_id
        if handle.initiator != own_id or self._own_vote_sent.get(group_id):
            return
        others = [member for member in handle.members if member != own_id]
        if all(handle.votes.get(member) is True for member in others):
            self._diffuse_vote(handle, True)

    def _check_activation(self, group_id: str) -> None:
        """Step 4: activate once a yes has arrived from every member."""
        handle = self._attempts.get(group_id)
        if handle is None or handle.status != FormationStatus.VOTING:
            return
        if all(handle.votes.get(member) is True for member in handle.members):
            handle.status = FormationStatus.FORMED
            self._cancel_timer(group_id)
            self.process.activate_formed_group(
                group_id, handle.members, handle.mode
            )

    def on_activation_evidence(self, group_id: str) -> bool:
        """A ``start-group`` message arrived while we are still VOTING.

        Its sender activated, and step 4 only fires on a ``yes`` from
        *every* intended member -- and since each member diffuses exactly
        one vote, a single ``no`` anywhere makes activation impossible for
        everyone.  The start-group message is therefore proof that the vote
        was unanimous, even if some of the ``yes`` messages were lost on
        their way to us (e.g. to a transient partition).  Adopt the
        outcome, provided we voted ``yes`` ourselves (which also means the
        invitation's membership and mode are authoritative here).
        """
        handle = self._attempts.get(group_id)
        if handle is None or handle.status != FormationStatus.VOTING:
            return False
        own_id = self.process.process_id
        if not self._own_vote_sent.get(group_id) or handle.votes.get(own_id) is not True:
            return False
        for member in handle.members:
            handle.votes.setdefault(member, True)
        self._check_activation(group_id)
        return handle.formed

    # ------------------------------------------------------------------
    # Failure paths
    # ------------------------------------------------------------------
    def _on_timeout(self, group_id: str) -> None:
        handle = self._attempts.get(group_id)
        if handle is None or handle.status != FormationStatus.VOTING:
            return
        own_id = self.process.process_id
        if handle.initiator == own_id and not self._own_vote_sent.get(group_id):
            # Step 3: "Pi sends its 'yes' message if it receives a 'yes'
            # from the rest within some time duration, else it sends a 'no'."
            self._diffuse_vote(handle, False)
        else:
            self._fail(handle, "formation timed out")

    def _fail(self, handle: FormationHandle, reason: str) -> None:
        if handle.status == FormationStatus.VOTING:
            handle.status = FormationStatus.FAILED
            handle.failure_reason = reason
            self._cancel_timer(handle.group_id)

    def _cancel_timer(self, group_id: str) -> None:
        timer = self._timers.pop(group_id, None)
        if timer is not None:
            timer.cancel()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def attempt(self, group_id: str) -> Optional[FormationHandle]:
        """The formation attempt for ``group_id``, if any."""
        return self._attempts.get(group_id)
