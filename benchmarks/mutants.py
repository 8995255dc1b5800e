"""Planted protocol bugs, for the harnesses that must catch them.

A mutant re-introduces one known bug by patching a library class for the
length of a ``with`` block, so every instance alive or built inside the
block runs the bug and nothing outside it does.  The library itself has
no switch for any of them.  Each mutant is named by the paper rule it
breaks and by the checker expected to catch it::

    from mutants import naive_view_cut

    with naive_view_cut:
        report = run_campaign(7, 8, tuning=...)   # finds the violation

A patch reaches running code only through the class, so the surface audit
requires that no live engine holds an instance attribute shadowing one of
the engine's methods.  Campaigns under a mutant run serially: a pool
worker does not inherit the patch.
"""

from contextlib import ExitStack
from typing import Callable, Iterable, Optional, Tuple
from unittest import mock


class Mutant:
    """One planted bug: the class attributes it replaces, restored on exit."""

    def __init__(self, name: str, breaks: str, caught_by: str,
                 patches: Callable[[], Iterable[Tuple[type, str, object]]]) -> None:
        self.name = name
        #: The paper rule the bug breaks.
        self.breaks = breaks
        #: The checker (or claim) expected to turn red under it.
        self.caught_by = caught_by
        self._patches = patches
        self._active: Optional[ExitStack] = None

    def __enter__(self) -> "Mutant":
        if self._active is not None:
            raise RuntimeError(f"mutant {self.name} is already active")
        self._active = ExitStack()
        for cls, attribute, value in self._patches():
            self._active.enter_context(mock.patch.object(cls, attribute, value))
        return self

    def __exit__(self, *exc_info) -> None:
        self._active.close()
        self._active = None

    def __repr__(self) -> str:
        return f"Mutant({self.name!r}, breaks={self.breaks!r}, caught_by={self.caught_by!r})"


def _naive_view_cut_patches():
    from repro.core.asymmetric import AsymmetricOrdering
    from repro.core.ordering import OrderingEngine

    return [
        (AsymmetricOrdering, "discard_bounds", OrderingEngine.discard_bounds),
        (AsymmetricOrdering, "view_change_threshold", OrderingEngine.view_change_threshold),
    ]


#: A sequencer group cuts its stream at the failed member's ``lnmn``, the
#: symmetric answer, with no end-of-view marker: a position the sequencer's
#: numbering never agrees on, so survivors install the view change after
#: different delivery sets under faults and load.
naive_view_cut = Mutant(
    "naive_view_cut",
    breaks="§5.2 step (viii) in a §4.2 group: one cut for every survivor",
    caught_by="virtual-synchrony",
    patches=_naive_view_cut_patches,
)


def _deliver_past_suspected_senders_patches():
    from repro.core.membership import GroupViewProcess
    from repro.core.symmetric import SymmetricOrdering

    def bound(self):
        suspected = self.endpoint.gv.suspected_processes()
        standing = [
            value for member, value in self.receive_vector.as_dict().items()
            if member not in suspected
        ]
        return max(min(standing, default=float("inf")), self.d_floor)

    return [
        (SymmetricOrdering, "deliverable_bound", bound),
        (GroupViewProcess, "_confirm", lambda self, detection: None),
    ]


#: Example 2's exclude-before-deliver step undone: a suspicion is never
#: confirmed into an exclusion, and a symmetric group's bound skips the
#: receive-vector entries of suspected members instead, so a process
#: delivers past a suspected sender's gap while the sender is still in its
#: view.
deliver_past_suspected_senders = Mutant(
    "deliver_past_suspected_senders",
    breaks="Example 2, MD5': exclude a sender before delivering past its gap",
    caught_by="E5",
    patches=_deliver_past_suspected_senders_patches,
)
