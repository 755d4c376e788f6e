"""Benchmark of the superhedge library, run from the root of a source tree.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (``--workload all`` runs each in turn, each in its own process):

  desk_incomplete     price, superhedge and verify incomplete one-asset trees
  decompose_verdicts  super-martingale verdicts and optional decompositions
  wide_complete       price and hedge complete trees with hundreds of outcomes
  cli_cold            one fresh ``python -m superhedge.cli`` per golden command

With ``--trace 0`` the result carries the end-to-end metrics: set-up time,
median and tail task time, tasks per second, the share of tasks that passed
their correctness gates, and peak resident memory.  With ``--trace 1`` it
carries per-layer metrics from spans around the library's public functions
and writes the spans to bench/out/.  The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.

The library runs from ``src`` as it is; nothing is installed.  Each workload
runs in a worker process with OpenBLAS/OpenMP pinned to one thread.  This
process and everything it starts are pinned to one CPU.  Set-up is measured
in that worker and in two more fresh workers that only set up, and the
median of the three is reported.  ``--tiny`` shrinks the markets and
``--corrupt`` hands every gate a wrong answer; the self-test uses both.

Every reported time is scaled to a reference core speed with a yardstick run
next to it on the same CPU (yardstick.py): the host's core speed drifts too
much for raw wall times to compare between runs.  The unscaled task median,
throughput and set-ups are printed in the report lines above the result.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import yardstick

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("desk_incomplete", "decompose_verdicts", "wide_complete", "cli_cold")
SETUP_SAMPLES = 3
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKER_TIMEOUT_S = 170.0


def worker_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_worker(args, extra: list[str]) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    if args.tiny:
        cmd.append("--tiny")
    if args.corrupt:
        cmd.append("--corrupt")
    done = subprocess.run(cmd, env=worker_env(), cwd=ROOT, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{args.workload}: worker failed with exit code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_workload(args, stick) -> dict:
    """Two set-up-only workers, then the worker that runs the workload.  An
    in-process worker scales the first part of its set-up, the import, by a
    yardstick reading taken here just before it starts and its own reading
    just after the import; cli_cold takes both readings itself."""
    setups, raw = [], []
    for extra in [["--setup-only"]] * (SETUP_SAMPLES - 1) + [[]]:
        result = run_worker(args, [*extra, "--before-ms", str(stick.read())])
        raw.append(result.pop("setup_raw_s"))
        setups.append(result.pop("setup_s"))
    if not args.trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    result["notes"]["setup_samples_s"] = setups
    result["notes"]["unscaled setup_samples_s"] = raw
    return result


def report(workload: str, result: dict, trace: int, cpu: int) -> None:
    print(f"== {workload} (trace {trace}): attempted {result['attempted']}, "
          f"failed {result['failed']}, correct {result['correct']}")
    for name, metric in result["metrics"].items():
        print(f"  {name:55s} {metric['value']:14.6g} {metric['unit']}")
    notes = result["notes"]
    if trace:
        print("  spans are per layer, self time excludes child spans; the library is "
              "single-threaded, so waiting on another layer is zero by construction")
        for row in notes.pop("top_operations"):
            print(f"  op task {row['task']:3d} {row['operation']:32s} {row['ms']:10.2f} ms "
                  f"lp {row['lp_calls']:4d} / {row['lp_ms']:8.2f} ms  "
                  f"array {row['largest_array']:8d}  {row['market']}")
    for key, value in notes.items():
        print(f"  {key}: {value}")
    print(f"  threads: {', '.join(f'{v}=1' for v in THREAD_VARS)}; pinned to CPU {cpu}")
    print(f"  times scaled to a yardstick of {yardstick.REF_MS} ms (yardstick.py)")
    for failure in result.pop("failures"):
        print(f"  FAILED {failure['label']}: {failure['status']} {failure['detail']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--corrupt", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "superhedge" / "__init__.py").is_file():
        print(f"error: no superhedge sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # byte-compile up front so that no run's set-up pays for compiling
    compileall.compile_dir(str(ROOT / "src"), quiet=1)
    compileall.compile_dir(str(BENCH), quiet=1, maxlevels=0)

    cpu = yardstick.pin_to_one_cpu()
    stick = yardstick.Yardstick()
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    final = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        args.workload = workload
        result = run_workload(args, stick)
        report(workload, result, args.trace, cpu)
        final["correct"] = final["correct"] and result["correct"]
        final["attempted"] += result["attempted"]
        final["failed"] += result["failed"]
        prefix = "" if len(workloads) == 1 else f"{workload}."
        final["metrics"].update({prefix + k: v for k, v in result["metrics"].items()})
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
