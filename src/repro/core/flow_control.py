"""Sender-side flow control.

The paper's concluding remarks mention that the authors "have also designed
and implemented a flow control mechanism that ensures that a sender process
does not cause buffers to overflow at any of the functioning destination
processes", deferring details to reference [11] (Macêdo's PhD thesis).  The
thesis mechanism is window-based and keyed on message stability, which is
what is reproduced here:

* a sender may have at most ``window`` of its *own* messages per group that
  are not yet known to be stable (i.e. not yet known to have reached every
  member of the view);
* further application sends wait in ``GroupEndpoint.deferred_sends`` (the
  one list the blocking rules and the formation wait defer into too) and
  ``NewtopProcess.flush_deferred_sends`` releases them, in order, as
  stability advances (the stability bound is driven by the ``m.ldn``
  piggyback of §5.1, so no extra messages are needed);
* null messages and membership traffic are never subject to flow control --
  they are precisely what keeps ``D`` (and therefore stability) advancing.

Because a receiver must retain every unstable message anyway (for
recovery), bounding the number of unstable messages per sender bounds every
receiver's buffer occupancy at ``window * |view|`` messages per group,
which is the no-overflow guarantee the paper claims.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional


class FlowController:
    """The stability window of one (process, group) pair; it only counts."""

    def __init__(self, window: Optional[int]) -> None:
        if window is not None and window < 1:
            raise ValueError("flow-control window must be >= 1 or None")
        self.window = window
        #: Clocks of own messages sent but not yet known stable, oldest
        #: first: the process clock never goes back, and a clock equal to
        #: the newest entry is already counted.
        self._outstanding: Deque[int] = deque()

    # ------------------------------------------------------------------
    # Send-side interface
    # ------------------------------------------------------------------
    @property
    def enabled(self) -> bool:
        """Whether flow control is active (a finite window is configured)."""
        return self.window is not None

    def can_send(self) -> bool:
        """Whether a new application message may be sent immediately."""
        if not self.enabled:
            return True
        return len(self._outstanding) < int(self.window)

    def note_sent(self, clock: int) -> None:
        """Record that an own application message numbered ``clock`` left."""
        outstanding = self._outstanding
        if self.enabled and not (outstanding and outstanding[-1] >= clock):
            outstanding.append(clock)

    # ------------------------------------------------------------------
    # Stability feedback
    # ------------------------------------------------------------------
    def note_stability(self, stability_bound: float) -> None:
        """Stop counting own messages at or below a new stability bound;
        called on every receipt, it costs one pop per message released."""
        outstanding = self._outstanding
        while outstanding and outstanding[0] <= stability_bound:
            outstanding.popleft()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def outstanding_count(self) -> int:
        """Own messages currently counted against the window."""
        return len(self._outstanding)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FlowController(window={self.window}, outstanding={len(self._outstanding)})"
