"""Self-check of the ledger benchmark (collected by ``pytest benchmarks``).

Runs ``run.py --quick`` (every workload at about one second, K=1, traced)
and asserts the shape the driver and later reviews rely on: the JSON
carries every name ``BENCHMARK.json`` declares, names and counts stay
inside the contract's limits, and every layer's ``self_share`` adds up
with the others to ``bench.profiled_coverage``.  Never part of tier-1:
the file name matches ``bench_*.py``, which only ``benchmarks/pytest.ini``
collects.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        return json.load(handle)


def test_declaration_limits():
    declared = _declared()
    assert set(declared) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert 2 <= len(declared["workloads"]) <= 8
    assert 1 <= len(declared["end_to_end"]) <= 16
    assert 1 <= len(declared["per_layer"]) <= 128
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in declared[key]]
    assert len(names) == len(set(names)), "a name is used twice"
    for name in names:
        assert NAME.match(name), name
    for entry in declared["end_to_end"]:
        assert 0 < entry["bound"] <= 0.25
    assert any(
        entry["name"] == "setup_s" and entry["unit"] == "s" and entry["better"] == "lower"
        for entry in declared["end_to_end"]
    )


def test_declaration_matches_spec():
    sys.path.insert(0, HERE)
    try:
        import spec
    finally:
        sys.path.remove(HERE)
    declared = _declared()
    assert [w["name"] for w in declared["workloads"]] == list(spec.WORKLOADS)
    assert sorted(e["name"] for e in declared["end_to_end"]) == sorted(spec.DRIVER_END_TO_END)
    assert declared["per_layer"] == spec.per_layer_declarations()


def test_quick_ledger(tmp_path):
    out = tmp_path / "ledger.json"
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--quick", "--out", str(out)],
        capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    document = json.loads(out.read_text())
    declared = _declared()
    assert document["failures"] == []
    assert document["hash_seed_check"]["match"]
    per_layer_names = [entry["name"] for entry in declared["per_layer"]]
    for workload in declared["workloads"]:
        block = document["workloads"][workload["name"]]
        assert block["correct"] and block["fingerprints_match"]
        for entry in declared["end_to_end"]:
            row = block["end_to_end"][entry["name"]]
            assert row["median"] > 0, (workload["name"], entry["name"])
        assert sorted(block["per_layer"]) == sorted(per_layer_names)
        shares = {
            name: value for name, value in block["per_layer"].items()
            if name.endswith(".self_share")
        }
        named = sum(value for name, value in shares.items() if name != "other.self_share")
        assert abs(named - block["per_layer"]["bench.profiled_coverage"]) < 1e-9
        assert abs(sum(shares.values()) - 1.0) < 1e-9
        assert block["per_layer"]["bench.profiled_coverage"] >= 0.9
