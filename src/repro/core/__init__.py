"""Newtop protocol core: the paper's primary contribution.

This package implements the Newtop protocol suite of Ezhilchelvan, Macêdo
and Shrivastava (ICDCS 1995):

* single shared Lamport clock per process (:mod:`repro.core.clock`),
* symmetric and asymmetric (sequencer) total-order engines
  (:mod:`repro.core.symmetric`, :mod:`repro.core.asymmetric`),
* cross-group delivery conditions safe1'/safe2 (:mod:`repro.core.delivery`),
* time-silence liveness mechanism (:mod:`repro.core.time_silence`),
* message stability and retention (:mod:`repro.core.stability`),
* partitionable membership service (:mod:`repro.core.membership`,
  :mod:`repro.core.suspector`, :mod:`repro.core.views`),
* dynamic group formation (:mod:`repro.core.group_formation`),
* flow control (:mod:`repro.core.flow_control`),
* the process-level public API (:mod:`repro.core.process`).

Processes are wired into a running system by :class:`repro.api.Session`.
"""

from repro.core.clock import LamportClock
from repro.core.config import NewtopConfig, OrderingMode
from repro.core.delivery import DeliveryQueue
from repro.core.errors import (
    AlreadyMemberError,
    ConfigurationError,
    DeliveryOrderViolation,
    DepartedGroupError,
    GroupFormationError,
    InvalidViewError,
    NewtopError,
    NotAMemberError,
    ProcessCrashedError,
)
from repro.core.group_formation import FormationHandle, FormationStatus
from repro.core.messages import DataMessage, SequencerRequest, Suspicion
from repro.core.process import DeliveredMessage, NewtopProcess
from repro.core.vectors import ReceiveVector, StabilityVector
from repro.core.views import MembershipView, Signature, SignatureView

__all__ = [
    "AlreadyMemberError",
    "ConfigurationError",
    "DataMessage",
    "DeliveredMessage",
    "DeliveryOrderViolation",
    "DeliveryQueue",
    "DepartedGroupError",
    "FormationHandle",
    "FormationStatus",
    "GroupFormationError",
    "InvalidViewError",
    "LamportClock",
    "MembershipView",
    "NewtopConfig",
    "NewtopError",
    "NewtopProcess",
    "NotAMemberError",
    "OrderingMode",
    "ProcessCrashedError",
    "ReceiveVector",
    "SequencerRequest",
    "Signature",
    "SignatureView",
    "StabilityVector",
    "Suspicion",
]
