"""Exception hierarchy for the Newtop protocol implementation.

All protocol-level errors derive from :class:`NewtopError`, so callers can
catch a single base class.  Misuse of the public API (e.g. multicasting in a
group the process is not a member of) raises specific subclasses rather
than generic ``ValueError`` so that tests and applications can distinguish
programming errors from protocol conditions.
"""

from __future__ import annotations


class NewtopError(Exception):
    """Base class for every error raised by the Newtop implementation."""


class NotAMemberError(NewtopError):
    """An operation referred to a group the process is not a member of."""

    def __init__(self, process_id: str, group_id: str) -> None:
        super().__init__(f"process {process_id!r} is not a member of group {group_id!r}")
        self.process_id = process_id
        self.group_id = group_id


class AlreadyMemberError(NewtopError):
    """The process already has an endpoint for the given group."""

    def __init__(self, process_id: str, group_id: str) -> None:
        super().__init__(f"process {process_id!r} is already a member of group {group_id!r}")
        self.process_id = process_id
        self.group_id = group_id


class ProcessCrashedError(NewtopError):
    """An operation was attempted on a crashed process."""

    def __init__(self, process_id: str) -> None:
        super().__init__(f"process {process_id!r} has crashed")
        self.process_id = process_id


class DepartedGroupError(NewtopError):
    """An operation was attempted in a group the process has departed."""

    def __init__(self, process_id: str, group_id: str) -> None:
        super().__init__(f"process {process_id!r} has departed group {group_id!r}")
        self.process_id = process_id
        self.group_id = group_id


class InvalidViewError(NewtopError):
    """A view operation violated the paper's view-update rules.

    Newtop views only ever shrink ("a new view will always be a proper
    subset of the old view(s)"); attempting to install a view that adds
    members, or that does not contain the installing process, raises this.
    """


class GroupFormationError(NewtopError):
    """Group formation failed (vetoed, timed out, or misconfigured)."""


class DeliveryOrderViolation(NewtopError):
    """Internal safety check failed: a delivery would break safe2.

    This is never expected to fire; it is an always-on internal assertion
    that turns a silent ordering bug into a loud failure.
    """


class ConfigurationError(NewtopError):
    """The supplied :class:`~repro.core.config.NewtopConfig` is invalid."""
