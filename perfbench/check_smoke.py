"""Smoke test of the benchmark itself.

Runs every workload at smoke scale, untraced and traced, and checks that
each run passes its gates and that its result line names exactly the
metrics ``BENCHMARK.json`` declares for that mode, each with the declared
unit.  Run from the repository root::

    python3 perfbench/check_smoke.py

(``python3 -m pytest perfbench/check_smoke.py`` collects the same test.)
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SMOKE_SECONDS = "2"


def run_smoke(workload: str, trace: int) -> dict:
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
        "--seconds", SMOKE_SECONDS, "--trace", str(trace), "--smoke",
    ]
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=600, check=False
    )
    assert done.returncode == 0, f"{command} exited {done.returncode}:\n{done.stderr}"
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_smoke_output_names_every_metric_with_its_unit():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in declared["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            result = run_smoke(workload, trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] is True and result["failed"] == 0
            assert result["attempted"] >= 1
            want = {m["name"]: m["unit"] for m in declared[section]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == want, f"{workload} trace={trace}: {got} != {want}"
            for name, metric in result["metrics"].items():
                assert isinstance(metric["value"], (int, float)), name
            if section == "end_to_end":
                zero = [n for n, m in result["metrics"].items() if not m["value"] > 0]
                assert not zero, f"{workload}: end-to-end metrics not positive: {zero}"


if __name__ == "__main__":
    test_smoke_output_names_every_metric_with_its_unit()
    print("perfbench smoke: every workload names every declared metric and unit")
