"""Smoke run of the benchmark at a tiny size, so that it cannot rot.

Runs every workload once untraced and once traced, with one round each,
and fails when an operation disagrees with the model, an end-of-round
check fails or a metric is missing. It makes no timing assertions.

Usage, from the root of the repository: python3 perfbench/smoke.py
"""

import json
import sys
from pathlib import Path

import run

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(run.SRC))

import workloads  # noqa: E402


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    wanted = {0: [m["name"] for m in spec["end_to_end"]],
              1: [m["name"] for m in spec["per_layer"]]}
    cases = (
        ("feasibility-rooms", run.run_inprocess,
         lambda: workloads.feasibility_rooms(7, rooms=60, seats=30, cycles=2)),
        ("history-churn", run.run_inprocess, lambda: workloads.history_churn(7, cycles=20)),
        ("wire-mixed", run.run_wire, lambda: workloads.wire_mixed(7, cycles=4)),
    )
    bad = 0
    for name, runner, build in cases:
        for trace in (0, 1):
            out = runner(build(), f"smoke-{name}", 0.0, 0, bool(trace))
            missing = [m for m in wanted[trace] if m not in out["metrics"]]
            ok = out["correct"] and out["failed"] == 0 and not missing
            bad += not ok
            print(f"{name} trace={trace}: correct={out['correct']} attempted={out['attempted']} "
                  f"failed={out['failed']} missing={missing} -> {'ok' if ok else 'FAILED'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
