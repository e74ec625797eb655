"""Self-test of the benchmark: every workload once at minimum length.

    python3 perfbench/selftest.py [workload ...]

For each workload it makes one untraced and two traced runs, and checks:
- the result line has exactly the required keys
- every metric named in BENCHMARK.json is emitted, with its unit
- the program's outputs were correct
- every traced count repeats exactly across the two traced runs

It exits 1 at the first problem.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message: str) -> None:
    print(f"FAIL {message}")
    sys.exit(1)


def result_line(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        fail(f"{workload} --trace {trace}: exit {proc.returncode}\n"
             f"{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check(workload: str, spec: dict) -> None:
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[section]}
        runs = [result_line(workload, trace) for _ in range(1 + trace)]
        for res in runs:
            if set(res) != RESULT_KEYS:
                fail(f"{workload}: result keys {sorted(res)}")
            if not res["correct"] or res["failed"]:
                fail(f"{workload} --trace {trace}: {res['failed']} of "
                     f"{res['attempted']} operations failed")
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != want:
                fail(f"{workload} --trace {trace}: metrics differ from "
                     f"BENCHMARK.json: {sorted(set(got.items()) ^ set(want.items()))}")
        if trace:
            first, second = ({k: v["value"] for k, v in r["metrics"].items()
                              if v["unit"] == "count"} for r in runs)
            moved = {k: (first[k], second[k]) for k in first
                     if first[k] != second[k]}
            if moved:
                fail(f"{workload}: traced counts differ between runs: {moved}")
    print(f"{workload}: ok")


def main(names: list[str]) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in names or [w["name"] for w in spec["workloads"]]:
        check(workload, spec)


if __name__ == "__main__":
    main(sys.argv[1:])
