"""Mixed-mode operation: symmetric and asymmetric groups at one process.

Run with::

    python examples/mixed_mode_ordering.py

One process belongs to two overlapping groups and runs the symmetric
protocol in one and the asymmetric (sequencer) protocol in the other --
something no prior protocol supported (§4.3 of the paper).  The example
shows the Mixed-mode Blocking Rule in action (a multicast deferred while a
message awaits sequencing in the other group) and verifies that delivery
order stays consistent across both groups at the multi-group members.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro import OrderingMode, Session


def main() -> None:
    session = Session(
        stack="newtop",
        config={"omega": 2.0, "suspicion_timeout": 10.0},
        seed=3,
    )
    session.spawn(["P1", "P2", "P3", "P4"])

    # P2 and P3 belong to both groups; "control" uses a sequencer (P1),
    # "telemetry" is fully symmetric.
    session.group("control", ["P1", "P2", "P3"], mode=OrderingMode.ASYMMETRIC)
    session.group("telemetry", ["P2", "P3", "P4"], mode=OrderingMode.SYMMETRIC)

    # P2 disseminates in the asymmetric group (unicast to the sequencer) and
    # immediately afterwards in the symmetric group: the second send must
    # wait until the first comes back from the sequencer.
    session.multicast("P2", "control", "control: set-point 42")
    deferred = session.multicast("P2", "telemetry", "telemetry: reading 17.3")
    print(f"telemetry send deferred by the blocking rule: {deferred is None}")

    session.multicast("P3", "telemetry", "telemetry: reading 18.1")
    session.multicast("P1", "control", "control: ack")
    session.run(80)

    print("\nDeliveries at the multi-group members (interleaved across groups):")
    for name in ("P2", "P3"):
        print(f"  {name}:")
        for record in session[name].delivered:
            print(f"    [{record.group:9s}] {record.payload}")

    waits = session.trace().blocking_times(group="telemetry")
    if waits:
        print(f"\nBlocking-rule wait before the deferred telemetry send: "
              f"{waits[0]:.2f} simulated time units")

    orders = {
        tuple(record.msg_id for record in session[name].delivered) for name in ("P2", "P3")
    }
    result = session.result()
    print(f"\ncross-group delivery orders identical at P2 and P3: {len(orders) == 1}")
    print(f"all paper guarantees (MD1-MD5', VC1-VC3) hold on the trace: {result.passed}")


if __name__ == "__main__":
    main()
