"""Self-test of the benchmark: python3 bench/selftest.py (about a minute).

Runs every workload on tiny markets for one second and checks that
  * an untraced run prints every end-to-end metric of BENCHMARK.json and a
    traced run every per-layer metric, with no failed task;
  * a run whose tasks hand their gates a deliberately wrong answer fails
    every task, so fail_ratio rises to one and ok_ratio drops to zero;
  * the benchmark refuses to run, with no result line, in a directory that
    holds only BENCHMARK.json and the benchmark's own files.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("desk_incomplete", "decompose_verdicts", "wide_complete", "cli_cold")


def run(workload: str, *extra: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", "1", "--tiny", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def result_of(done: subprocess.CompletedProcess) -> dict:
    if done.returncode != 0:
        raise SystemExit(f"benchmark exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"FAIL: {what}")
    print(f"ok: {what}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    expect({w["name"] for w in spec["workloads"]} == set(WORKLOADS), "workload names")

    for workload in WORKLOADS:
        plain = result_of(run(workload, "--trace", "0"))
        expect(set(plain["metrics"]) == end_to_end and plain["failed"] == 0 and plain["correct"],
               f"{workload}: every end-to-end metric, no failure")
        traced = result_of(run(workload, "--trace", "1"))
        expect(set(traced["metrics"]) == per_layer and traced["failed"] == 0 and traced["correct"],
               f"{workload}: every per-layer metric, traced answers equal untraced")
        bad = result_of(run(workload, "--trace", "0", "--corrupt"))
        expect(bad["failed"] == bad["attempted"] > 0 and not bad["correct"]
               and bad["metrics"]["ok_ratio"]["value"] == 0.0,
               f"{workload}: wrong answers fail their gates")

    bare = BENCH / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        done = run(WORKLOADS[0], "--trace", "0", cwd=bare)
        expect(done.returncode != 0 and not done.stdout.strip(),
               "refuses to run without the library sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
