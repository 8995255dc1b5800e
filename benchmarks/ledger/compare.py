"""``run.py --compare A.json B.json``: judge B against baseline A.

Per workload and end-to-end metric, prints both medians and quartile
spreads and one verdict from the bounds in :mod:`spec`:

``same``        B's median is within the bound of A's;
``worse``       B's median is worse than A's by more than the bound (and,
                for ``setup_s``, by more than its absolute floor);
``better``      the mirror image;
``unresolved``  either side's run-to-run spread (q3 - q1 over the median)
                is wider than the bound, so the medians cannot decide.

Simulated metrics repeat exactly for a seed: their spread is 0 and any
difference is real.  ``failed_ops_share`` has bound 0 -- any increase is
``worse``.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Tuple

from spec import END_TO_END, EndToEnd


def verdict(metric: EndToEnd, base: Dict[str, float], cand: Dict[str, float]) -> str:
    """The verdict for one metric from two ``{"median", "q1", "q3"}`` rows."""
    base_median, cand_median = base["median"], cand["median"]
    sign = 1.0 if metric.better == "lower" else -1.0
    worse_by = sign * (cand_median - base_median)
    scale = abs(base_median)
    if metric.bound == 0.0 or scale == 0.0:
        if worse_by > 0:
            return "worse"
        return "better" if worse_by < 0 else "same"
    for row in (base, cand):
        spread = row["q3"] - row["q1"]
        if spread > metric.bound * abs(row["median"]) and spread > metric.floor:
            return "unresolved"
    if abs(worse_by) <= metric.bound * scale or abs(worse_by) <= metric.floor:
        return "same"
    return "worse" if worse_by > 0 else "better"


def compare_documents(base: Dict, cand: Dict) -> Tuple[List[str], Dict[str, int]]:
    """Report rows and the verdict tally for two ledger documents."""
    rows: List[str] = []
    tally: Dict[str, int] = {}
    header = (
        f"{'workload':18s} {'metric':18s} {'A median':>13s} {'A iqr':>10s} "
        f"{'B median':>13s} {'B iqr':>10s} {'change':>8s}  verdict"
    )
    rows.append(header)
    for name, base_workload in base["workloads"].items():
        cand_workload = cand["workloads"].get(name)
        if cand_workload is None:
            rows.append(f"{name:18s} missing from B")
            tally["unresolved"] = tally.get("unresolved", 0) + 1
            continue
        same_print = base_workload["fingerprint"] == cand_workload["fingerprint"]
        rows.append(
            f"{name:18s} fingerprint {'identical' if same_print else 'DIFFERS'} "
            f"({base_workload['fingerprint'][:12]} vs {cand_workload['fingerprint'][:12]})"
        )
        for metric in END_TO_END:
            a: Optional[Dict] = base_workload["end_to_end"].get(metric.name)
            b: Optional[Dict] = cand_workload["end_to_end"].get(metric.name)
            if not a or not b or a["median"] is None or b["median"] is None:
                continue  # not defined on this workload
            outcome = verdict(metric, a, b)
            tally[outcome] = tally.get(outcome, 0) + 1
            change = (
                f"{100.0 * (b['median'] - a['median']) / abs(a['median']):+7.2f}%"
                if a["median"]
                else "     n/a"
            )
            rows.append(
                f"{name:18s} {metric.name:18s} {a['median']:13.6g} "
                f"{a['q3'] - a['q1']:10.3g} {b['median']:13.6g} "
                f"{b['q3'] - b['q1']:10.3g} {change}  {outcome}"
            )
    return rows, tally


def main(path_a: str, path_b: str) -> int:
    with open(path_a, "r", encoding="utf-8") as handle:
        base = json.load(handle)
    with open(path_b, "r", encoding="utf-8") as handle:
        cand = json.load(handle)
    rows, tally = compare_documents(base, cand)
    print("\n".join(rows))
    print("verdicts: " + ", ".join(f"{key}={value}" for key, value in sorted(tally.items())))
    return 1 if tally.get("worse") or tally.get("unresolved") else 0
