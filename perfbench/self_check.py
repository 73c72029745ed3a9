"""Quick self-check of the benchmark: every workload at tiny size, traced and not.

Usage, from the root of a checkout:
    python3 perfbench/self_check.py

Runs each workload, including those BENCHMARK.json leaves out, for one
second with --trace 0 and --trace 1 and asserts that the last output line
carries every end-to-end (respectively per-layer) metric of BENCHMARK.json
with its unit, that the report also holds the error rate, and that
``attempted`` and ``failed`` of the untraced run and the per-layer counts of
the traced run repeat exactly when the same seed runs again.  Exits non-zero
on the first problem.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys

from run import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 7


def run(workload: str, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def expect_metrics(result: dict, spec: list[dict], where: str) -> None:
    for m in spec:
        got = result["metrics"].get(m["name"])
        assert got is not None, f"{where}: metric {m['name']} missing"
        assert got["unit"] == m["unit"], f"{where}: {m['name']} has unit {got['unit']}"
        assert isinstance(got["value"], (int, float)), f"{where}: {m['name']} is not a number"
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"], where


def counts(result: dict) -> dict:
    return {k: v["value"] for k, v in result["metrics"].items() if not k.endswith(".busy_ms")}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    for name in WORKLOADS:
        plain = run(name, 0)
        expect_metrics(plain, bench["end_to_end"], f"{name} untraced")
        with open(os.path.join(HERE, "out", f"{name}-seed{SEED}-trace0", "report.json"),
                  encoding="utf-8") as fh:
            report = json.load(fh)
        assert report["metrics"]["error_rate"]["unit"] == "ratio", f"{name}: error_rate missing"
        again = run(name, 0)
        assert (plain["attempted"], plain["failed"]) == (again["attempted"], again["failed"]), \
            f"{name}: attempted or failed differ between runs"
        first = run(name, 1)
        expect_metrics(first, bench["per_layer"], f"{name} traced")
        assert counts(first) == counts(run(name, 1)), f"{name}: traced counts differ between runs"
        print(f"ok {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
