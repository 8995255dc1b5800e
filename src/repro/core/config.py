"""Configuration for Newtop processes.

The paper leaves several quantities as deployment-time parameters; they are
collected here with the paper's notation preserved where it exists (the
ordering mode is chosen per group at creation, §4.3, so it is not here):

* ``omega`` -- the time-silence period ω: a process sends a null message in
  a group if it has sent nothing *numbered* there for ω time units (§4.1)
  -- while it owes the group something (see below).
* ``suspicion_timeout`` -- Ω, the failure-suspector timeout: a member is
  suspected if nothing has been received from it for Ω (> ω) time units
  (§5.2).  "In practice, Ω should be tuned to a value that minimises the
  possibility of unfounded suspicions."  Ω/2 doubles as the *idle
  heartbeat* period: a member that owes its group nothing (no unstable
  traffic its own ``ldn`` does not cover yet, no view change, formation,
  deferred send or unsequenced unicast pending, no agreement waiting on a
  number of its own, nothing undelivered in any of its process's groups
  and no member asking for a reply that none of its multicasts gives)
  stretches its deadline from ω to Ω/2, never below ω, and in a symmetric
  group what it sends then is not a null but a numberless beacon to its
  K = 3 ring successors -- one per neighbour per Ω/2 whatever number of
  idle groups the two share, naming them -- or, while traffic it covered
  is still unstable, one numbered null per Ω/2 asking for the missing
  acknowledgments (:mod:`repro.core.time_silence`).  Those K
  members are the ones that time it out while the group is idle;
  everybody else concurs when asked, so a crash in an idle group is
  agreed one gossip hop later than Ω alone would give
  (:mod:`repro.core.suspector`).
* optional ISIS-style send blocking during view installation (§3 notes
  Newtop *can* provide the closed form of virtual synchrony "at the
  necessary expense of performance"),
* flow-control window (§7 / reference [11]),
* signature views (§6 extension for never-intersecting concurrent views).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.core.errors import ConfigurationError


class OrderingMode(enum.Enum):
    """Which total-order protocol a group runs (per group, per §4.3)."""

    #: Every member multicasts directly; delivery gated on receive vectors.
    SYMMETRIC = "symmetric"
    #: Members unicast to a deterministic sequencer which re-multicasts.
    ASYMMETRIC = "asymmetric"
    #: No ordering: atomic delivery only (the logical clock layer is
    #: bypassed for delivery decisions, as Fig. 3 allows).
    ATOMIC_ONLY = "atomic_only"


@dataclass
class NewtopConfig:
    """Tunable parameters of a Newtop process.

    The defaults are scaled to the simulator's default latency model
    (mean one-way delay around 1 time unit).
    """

    #: Time-silence period ω (§4.1): maximum interval per group without a
    #: *numbered* send before a null message is multicast, while the
    #: member owes the group something no multicast of its own already
    #: carries (``GroupEndpoint.owes_group``) -- the null deadline is ``last
    #: numbered send + omega`` then.  An idle heartbeat does not restart
    #: this clock, so a member that becomes owed more than ``omega`` after
    #: its last numbered send answers at once (and an answer given less
    #: than ``omega`` after a heartbeat continues that heartbeat's period:
    #: the next null is due ``omega`` after the heartbeat).  Also sets the
    #: grace ``min(suspicion_timeout, 2 * omega + suspector_check_interval)``
    #: a member gets when a ring-watched suspector starts watching it.
    omega: float = 2.0
    #: Failure-suspector timeout Ω (§5.2).  Must exceed ``omega``.  Half
    #: of it (never less than ``omega``) is the idle heartbeat period: how
    #: long a member that owes its group nothing may stay silent towards
    #: its K = 3 ring successors (symmetric groups: a numberless beacon)
    #: or the group (asymmetric groups: a null through the sequencer).  In
    #: a symmetric group larger than K + 1 only those K members time a
    #: silent member out after Ω; the rest concur on receipt of their
    #: suspicion, which costs one gossip hop of detection latency.
    suspicion_timeout: float = 10.0
    #: The suspector's detection grid: silence is judged at the points
    #: ``start + k * suspector_check_interval``, so a member silent for Ω
    #: is suspected at the first grid point at or after its deadline.  A
    #: granularity, not a polling cost: only the grid points at which a
    #: tick could find something are scheduled -- every one while the
    #: endpoint is restless (agreement busy, or anything undelivered),
    #: otherwise only the watched members' deadlines
    #: (:mod:`repro.core.suspector`).
    suspector_check_interval: float = 1.0
    #: If True, application sends are blocked while a view installation is
    #: pending, yielding ISIS-style closed virtual synchrony (r' == r).
    #: Newtop's default (False) allows sends to proceed, giving r' >= r.
    block_sends_during_view_change: bool = False
    #: Flow-control window: maximum number of own messages per group that
    #: may be unstable at once; further sends wait in the endpoint's
    #: deferred sends.  ``None`` disables flow control.
    flow_control_window: int | None = None
    #: Use signature views ({process-id, exclusion-count} tuples, §6) so
    #: that concurrent views of different subgroups never intersect.
    use_signature_views: bool = False
    #: Timeout used by the group-formation coordinator while collecting
    #: votes (§5.3 step 3).
    formation_timeout: float = 30.0

    @property
    def heartbeat_period(self) -> float:
        """How long a member that owes nothing may stay silent: Ω/2, never
        below ω (one lost or late heartbeat still leaves the suspector half
        a timeout)."""
        return max(self.omega, self.suspicion_timeout / 2)

    def validate(self) -> "NewtopConfig":
        """Raise :class:`ConfigurationError` if the parameters are inconsistent."""
        if self.omega <= 0:
            raise ConfigurationError(f"omega must be positive (got {self.omega})")
        if self.suspicion_timeout <= self.omega:
            raise ConfigurationError(
                "suspicion_timeout (Omega) must exceed the time-silence period "
                f"omega: got Omega={self.suspicion_timeout}, omega={self.omega}"
            )
        if self.suspector_check_interval <= 0:
            raise ConfigurationError("suspector_check_interval must be positive")
        if self.flow_control_window is not None and self.flow_control_window < 1:
            raise ConfigurationError("flow_control_window must be >= 1 or None")
        if self.formation_timeout <= 0:
            raise ConfigurationError("formation_timeout must be positive")
        return self

    def replace(self, **overrides) -> "NewtopConfig":
        """Return a copy of this config with ``overrides`` applied."""
        values = self.__dict__.copy()
        values.update(overrides)
        return NewtopConfig(**values).validate()
