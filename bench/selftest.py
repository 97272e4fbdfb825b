"""Self-test of the benchmark itself.

    python3 bench/selftest.py

Runs every workload at its smallest size, plain and traced, and checks
that:
- the printed metrics are exactly the ones BENCHMARK.json names, with
  its units;
- every answer verifies;
- on both aggregate workloads, the traced run saw every agent query
  (inference.query_conditional.calls equals consensus.agent_queries),
  so no call path escaped the wrappers;
- one deliberately corrupted answer per workload is counted as failed.
Prints one line per check and exits 1 if any fails.
"""
from __future__ import annotations

import json
import sys

import run

SEED = 7
AGGREGATES = ("shared-aggregate", "unshared-aggregate")


def corrupt_first():
    """A tamper hook that breaks the first answer it sees, and only it."""
    seen = []

    def tamper(request, stdout: str) -> str:
        if seen:
            return stdout
        seen.append(request)
        if request.out is not None:  # flip one CPT row of the saved network
            data = json.loads(request.out.read_text())
            rows = next(iter(data["cpts"].values()))["rows"]
            key = next(iter(rows))
            rows[key] = 1.0 - rows[key] if rows[key] != 0.5 else 0.25
            request.out.write_text(json.dumps(data))
            return stdout
        if request.op.startswith("query"):
            value = float(stdout)
            return f"{value + 0.01 if value < 0.5 else value - 0.01:.6f}\n"
        return stdout.replace(" ok", " UNEXPECTED", 1)

    return tamper


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = 0

    def report(ok: bool, what: str) -> None:
        nonlocal failures
        failures += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {what}")

    report(
        [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS),
        "BENCHMARK.json lists the workloads run.py defines",
    )
    for name in run.WORKLOADS:
        for trace in (0, 1):
            result = run.run(name, SEED, 1, bool(trace))["result"]
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            report(units == wanted[trace], f"{name} trace={trace}: metric names and units")
            report(
                result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                f"{name} trace={trace}: {result['attempted']} answers verify",
            )
            values = {k: v["value"] for k, v in result["metrics"].items()}
            if trace and name in AGGREGATES:
                report(
                    values["trace.query_gap"] == 0 and values["consensus.agent_queries"] > 0,
                    f"{name}: traced query_conditional calls equal agent queries "
                    f"({values['inference.query_conditional.calls']})",
                )
        outcome = run.run(name, SEED, 1, False, tamper=corrupt_first())
        result = outcome["result"]
        report(
            result["failed"] == 1 and not result["correct"]
            and outcome["report"]["error_rate"] == 1 / result["attempted"],
            f"{name}: a corrupted answer is counted as failed",
        )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
