"""One workload in one process; started by run.py, which pins the BLAS
threads and puts ``src`` on PYTHONPATH (child processes inherit both).

A workload is a closed loop with one client: a task is one market's chain of
calls, and the next task starts when the previous one returns.  Markets come
in rounds (see markets.ROUNDS): round 0 is built during set-up, each later
round is generated and built with the clock paused, so that no task meets a
market whose caches an earlier task filled.  The loop runs whole rounds until
the task phase (rebuilds included) has taken --seconds of wall time.  With
--trace 1 it stops at half of that and then replays the same rounds, on
freshly built markets, with spans on.

Task times are scaled to the yardstick's reference speed (see yardstick.py):
the yardstick is read after set-up and then between tasks, at most every
READ_EVERY_S seconds, and each task's raw time is scaled by the readings on
either side of it.  Raw times are kept as ``raw_ms``.

The last line of stdout is one JSON object for run.py: this process's
set-up time, raw and scaled, the task counts and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import yardstick  # imports nothing heavy until a Yardstick is made

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
DATA = BENCH / "data"

IN_PROCESS_CAP_S = 30.0   # per-task wall-time cap; a task over it fails
CLI_CAP_S = 60.0
READ_EVERY_S = 0.3        # in-process workloads: yardstick readings at most this often

# The nine golden commands of the CLI test suite; inputs and expected
# reports are copies kept under bench/data.
CLI_COMMANDS = [
    ("check_binomial.txt", ["check", "binomial.json"]),
    ("check_hull.txt", ["check", "hull.json"]),
    ("price_binomial_full.txt", ["price", "binomial.json", "call100", "--mode", "full"]),
    ("price_tree_call.txt", ["price", "bound_tree.json", "--mode", "call", "--strike", "90"]),
    ("price_tree_put.txt", ["price", "bound_tree.json", "--mode", "put", "--strike", "90"]),
    ("price_tree_generated.txt", ["price", "bound_tree.json", "call90", "--mode", "generated"]),
    ("hedge_binomial.txt", ["hedge", "binomial.json", "call100", "--mode", "full"]),
    ("decompose_hull_witness.txt", ["decompose", "hull.json", "drifting", "--method", "witness"]),
    ("decompose_binomial_complete.txt",
     ["decompose", "binomial.json", "S", "--method", "complete", "--xi0", "ratio"]),
]

# (metric, span name, statistic, unit); every value is per traced task.
PER_LAYER = [
    ("lp.enumerate_vertices.calls", "lp.enumerate_vertices", "calls", "count"),
    ("lp.enumerate_vertices.self_ms", "lp.enumerate_vertices", "self_ms", "ms"),
    ("lp.enumerate_vertices.subsets", "lp.enumerate_vertices", "subsets", "count"),
    ("lp.enumerate_vertices.vertices", "lp.enumerate_vertices", "vertices", "count"),
    ("lp.enumerate_vertices.yield", "lp.enumerate_vertices", "yield", "ratio"),
    ("lp.solve.calls", "lp.solve", "calls", "count"),
    ("lp.solve.self_ms", "lp.solve", "self_ms", "ms"),
    ("lp.solve.nonoptimal", "lp.solve", "nonoptimal", "count"),
    ("spaces.build_space.ms", "spaces.build_space", "ms", "ms"),
    ("spaces.AdaptedProcess.ms", "spaces.AdaptedProcess", "ms", "ms"),
    ("measures.MartingalePolytope.ms", "measures.MartingalePolytope", "ms", "ms"),
    ("measures.GeneratorHull.ms", "measures.GeneratorHull", "ms", "ms"),
    ("measures.cond_exp_sup.calls", "measures.cond_exp_sup", "calls", "count"),
    ("measures.cond_exp_sup.self_ms", "measures.cond_exp_sup", "self_ms", "ms"),
    ("measures.max_expectation.calls", "measures.max_expectation", "calls", "count"),
    ("measures.max_expectation.self_ms", "measures.max_expectation", "self_ms", "ms"),
    ("measures.is_unit_claim.ms", "measures.is_unit_claim", "ms", "ms"),
    ("measures.closure_vertices.calls", "measures.closure_vertices", "calls", "count"),
    ("processes.is_supermartingale.self_ms", "processes.is_supermartingale", "self_ms", "ms"),
    ("processes.is_martingale.self_ms", "processes.is_martingale", "self_ms", "ms"),
    ("processes.ess_sup_process.self_ms", "processes.ess_sup_process", "self_ms", "ms"),
    ("decomposition.local_regular_witness.self_ms",
     "decomposition.local_regular_witness", "self_ms", "ms"),
    ("decomposition.optional_decomposition_complete.self_ms",
     "decomposition.optional_decomposition_complete", "self_ms", "ms"),
    ("decomposition.validate_decomposition.ms", "decomposition.validate_decomposition", "ms", "ms"),
    ("pricing.fair_price_full.self_ms", "pricing.fair_price_full", "self_ms", "ms"),
    ("pricing.fair_price_generated.self_ms", "pricing.fair_price_generated", "self_ms", "ms"),
    ("pricing.sup_expectation.ms", "pricing.sup_expectation", "ms", "ms"),
    ("hedging.superhedge.self_ms", "hedging.superhedge", "self_ms", "ms"),
    ("hedging.martingale_representation.self_ms",
     "hedging.martingale_representation", "self_ms", "ms"),
    ("hedging.verify_self_financing.ms", "hedging.verify_self_financing", "ms", "ms"),
    ("hedging.strategy_capital.ms", "hedging.strategy_capital", "ms", "ms"),
    ("market_io.load_market.ms", "market_io.load_market", "ms", "ms"),
    ("cli.import.ms", "cli.import", "ms", "ms"),
    ("cli.main.ms", "cli.main", "ms", "ms"),
]


class TaskTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise TaskTimeout()


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten tasks
    beyond it: the eleventh-largest time.  With ten tasks or fewer, the max."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


# ---------------------------------------------------------------- in-process

def run_task(fn, market, checks):
    """Run one task under the wall-time cap; returns (record, fingerprint)."""
    prints, status, detail = None, "ok", ""
    signal.setitimer(signal.ITIMER_REAL, IN_PROCESS_CAP_S)
    start = perf_counter()
    try:
        prints = fn(market, checks)
    except TaskTimeout:
        status, detail = "timeout", f"over {IN_PROCESS_CAP_S} s"
    except Exception as exc:  # a raising task is a failed task, whatever it raises
        status, detail = "error", f"{type(exc).__name__}: {exc}"
    finally:
        elapsed = perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0.0)
    if status == "ok" and checks.failed:
        status, detail = "wrong", ",".join(checks.failed)
    return {"label": market["label"], "raw_ms": 1000.0 * elapsed, "status": status,
            "detail": detail}, prints


def in_process(args) -> dict:
    import numpy as np

    import markets

    signal.signal(signal.SIGALRM, _alarm)
    rng = np.random.default_rng(args.seed)
    specs = markets.market_round(args.workload, rng, args.tiny)
    warm = markets.warmup_market(args.workload)

    # Set-up is timed in parts, each scaled by the readings on either side
    # of it: the import, each market's build and the warm-up task.  The
    # yardstick is made only after the import, which must pay for scipy.
    start = perf_counter()
    import tasks

    import_s = perf_counter() - start
    stick = yardstick.Yardstick()
    after_import = stick.read()
    parts = yardstick.Segments(stick, after_import)
    built = [parts.run(tasks.build_market, s) for s in specs]
    fn = tasks.TASKS[args.workload]
    record, _ = parts.run(run_task, fn, tasks.build_market(warm), tasks.Checks())
    if record["status"] != "ok":
        raise SystemExit(f"warm-up task failed: {record['detail']}")
    setup = {"setup_raw_s": import_s + parts.raw_s,
             "setup_s": yardstick.scale(import_s, args.before_ms, after_import) + parts.scaled_s}
    if args.setup_only:
        return setup
    readings = yardstick.Readings(stick, READ_EVERY_S)

    budget = args.seconds / 2.0 if args.trace else args.seconds
    records, prints, rounds = [], [], []
    phase_start = perf_counter()
    while True:
        rounds.append(specs)
        for market in built:
            rec, fp = run_task(fn, market, tasks.Checks(args.corrupt))
            readings.after(rec)
            records.append(rec)
            prints.append(fp)
        if perf_counter() - phase_start >= budget:
            break
        specs = markets.market_round(args.workload, rng, args.tiny)
        built = None  # let the finished round go before the next one is built
        built = [tasks.build_market(s) for s in specs]
    readings.scaled(records)

    out = dict(setup, records=records,
               peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    if args.trace:
        out["traced"] = traced_in_process(fn, rounds, prints, args.corrupt, stick)
    return out


def traced_in_process(fn, rounds, untraced_prints, corrupt, stick) -> dict:
    """Rebuild every round of the untraced pass and run it again traced;
    answers must match the untraced pass exactly."""
    import numpy as np

    import tasks
    import tracing

    tracer = tracing.Tracer()
    tracing.install(tracer)
    readings = yardstick.Readings(stick, READ_EVERY_S)
    records, mismatches, task_id = [], 0, 0
    for specs in rounds:
        for spec in specs:
            tracer.task = task_id
            span = tracer.open("build")
            market = tasks.build_market(spec)
            tracer.close(span)
            span = tracer.open("task")
            rec, fp = run_task(fn, market, tasks.Checks(corrupt))
            tracer.close(span)
            readings.after(rec)
            records.append(rec)
            ref = untraced_prints[task_id]
            same = fp is not None and ref is not None and len(fp) == len(ref) and all(
                np.array_equal(a, b) for a, b in zip(fp, ref))
            if not same and rec["status"] == "ok":
                rec["status"], rec["detail"] = "wrong", "traced answer differs from untraced"
                mismatches += 1
            task_id += 1
    readings.scaled(records)
    return {"records": records, "spans": tracer.spans, "mismatches": mismatches}


# ----------------------------------------------------------------- cli_cold

def cold_import_s() -> float:
    start = perf_counter()
    done = subprocess.run([sys.executable, "-c", "import superhedge.cli"], cwd=ROOT,
                          capture_output=True, timeout=CLI_CAP_S)
    elapsed = perf_counter() - start
    if done.returncode != 0:
        raise SystemExit("cannot import superhedge.cli:\n" + done.stderr.decode(errors="replace"))
    return elapsed


def cli_task(golden: str, argv: list[str], corrupt: bool, spans_path: Path | None):
    """One fresh interpreter on one golden command; returns (record, stdout)."""
    cli_args = [str((DATA / a).relative_to(ROOT)) if a.endswith(".json") else a for a in argv]
    if spans_path is None:
        cmd = [sys.executable, "-m", "superhedge.cli", *cli_args]
    else:
        cmd = [sys.executable, str((BENCH / "cli_child.py").relative_to(ROOT)), str(spans_path),
               *cli_args]
    status, detail, stdout = "ok", "", None
    start = perf_counter()
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, timeout=CLI_CAP_S)
    except subprocess.TimeoutExpired:
        status, detail = "timeout", f"over {CLI_CAP_S} s"
    elapsed = perf_counter() - start
    if status == "ok":
        stdout = done.stdout + (b"x" if corrupt else b"")
        if done.returncode != 0:
            status, detail = "error", f"exit {done.returncode}: {done.stderr.decode(errors='replace')}"
        elif stdout != (DATA / "golden" / golden).read_bytes():
            status, detail = "wrong", "report differs from golden"
    return {"label": golden, "raw_ms": 1000.0 * elapsed, "status": status,
            "detail": detail}, stdout


def cli_cold(args) -> dict:
    import random

    # the yardstick lives in this process; the cold interpreters are children
    stick = yardstick.Yardstick()
    before = stick.read()
    setup_s = cold_import_s()
    readings = yardstick.Readings(stick, 0.0)  # a reading after every task
    setup = {"setup_raw_s": setup_s,
             "setup_s": yardstick.scale(setup_s, before, readings.values[0])}
    if args.setup_only:
        return setup
    rng = random.Random(args.seed)
    commands = CLI_COMMANDS[:2] if args.tiny else CLI_COMMANDS
    budget = args.seconds / 2.0 if args.trace else args.seconds
    records, outputs, order = [], [], []
    phase_start = perf_counter()
    while perf_counter() - phase_start < budget:
        for golden, argv in rng.sample(commands, len(commands)):
            rec, stdout = cli_task(golden, argv, args.corrupt, None)
            readings.after(rec)
            records.append(rec)
            outputs.append(stdout)
            order.append((golden, argv))
    readings.scaled(records)
    out = dict(setup, records=records)
    if args.trace:
        out["traced"] = traced_cli(order, outputs, args.corrupt, stick)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return out


def traced_cli(order, untraced_outputs, corrupt, stick) -> dict:
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"cli-child-{os.getpid()}.json"
    readings = yardstick.Readings(stick, 0.0)
    records, spans, mismatches = [], [], 0
    try:
        for task_id, (golden, argv) in enumerate(order):
            start = perf_counter()
            rec, stdout = cli_task(golden, argv, corrupt, spans_path)
            end = perf_counter()
            readings.after(rec)
            records.append(rec)
            if stdout != untraced_outputs[task_id] and rec["status"] == "ok":
                rec["status"], rec["detail"] = "wrong", "traced report differs from untraced"
                mismatches += 1
            child = json.loads(spans_path.read_text()) if spans_path.exists() else []
            root = len(spans)
            spans.append({"name": "task", "start": start, "end": end, "parent": None,
                          "task": task_id})
            for span in child:
                span["task"] = task_id
                span["parent"] = root if span["parent"] is None else span["parent"] + root + 1
                spans.append(span)
    finally:
        spans_path.unlink(missing_ok=True)
    readings.scaled(records)
    return {"records": records, "spans": spans, "mismatches": mismatches}


# ------------------------------------------------------------------ metrics

def end_to_end(records: list[dict], peak_rss_mb: float) -> tuple[dict, dict]:
    times = [r["ms"] for r in records]
    ok = sum(r["status"] == "ok" for r in records)
    value, pct = tail(times)
    metrics = {
        "task_p50_ms": (statistics.median(times), "ms"),
        "task_tail_ms": (value, "ms"),
        "tasks_per_s": (ok / (sum(times) / 1000.0), "1/s"),
        "ok_ratio": (ok / len(records), "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    raw = [r["raw_ms"] for r in records]
    notes = {"tail_percentile": pct, "tasks": len(records),
             "fail_ratio": (len(records) - ok) / len(records),
             "unscaled task_p50_ms": statistics.median(raw),
             "unscaled tasks_per_s": ok / (sum(raw) / 1000.0)}
    return metrics, notes


def per_layer(traced: dict, untraced: list[dict]) -> tuple[dict, list[dict]]:
    """Per-layer metrics per traced task, and the per-(market, operation) rows.
    A span's times are scaled by the factor its task's time was scaled by."""
    import tracing

    spans = traced["spans"]
    records = traced["records"]
    n_tasks = len(records)
    factor = [r["ms"] / r["raw_ms"] for r in records]
    selfs = tracing.self_times(spans)
    stats: dict[str, dict] = {}
    for span, self_s in zip(spans, selfs):
        st = stats.setdefault(span["name"], {"calls": 0, "ms": 0.0, "self_ms": 0.0, "subsets": 0,
                                             "vertices": 0, "nonoptimal": 0})
        f = factor[span["task"]]
        st["calls"] += 1
        st["ms"] += 1000.0 * f * (span["end"] - span["start"])
        st["self_ms"] += 1000.0 * f * self_s
        st["subsets"] += span.get("subsets", 0)
        st["vertices"] += span.get("vertices", 0)
        st["nonoptimal"] += span.get("status", 0) != 0
    metrics = {}
    for metric, name, stat, unit in PER_LAYER:
        st = stats.get(name, {})
        if stat == "yield":
            value = st["vertices"] / st["subsets"] if st.get("subsets") else 0.0
        else:
            value = st.get(stat, 0) / n_tasks
        metrics[metric] = (value, unit)
    overhead = (sum(r["ms"] for r in records) - sum(r["ms"] for r in untraced)) / n_tasks
    metrics["trace.overhead_ms"] = (overhead, "ms")
    return metrics, operation_rows(spans, records, factor)


def operation_rows(spans: list[dict], records: list[dict], factor: list[float]) -> list[dict]:
    """Time, LP count, LP time and largest array per (market, operation): an
    operation is a call the task (or its build step) made into the library.
    Times are scaled like the spans' in per_layer."""
    top = [None] * len(spans)
    rows: dict[int, dict] = {}
    for i, span in enumerate(spans):
        parent = span["parent"]
        if parent is None:
            continue
        if spans[parent]["parent"] is None:
            top[i] = i
            op = span["name"] if spans[parent]["name"] == "task" else "build"
            rows[i] = {"task": span["task"], "market": records[span["task"]]["label"],
                       "operation": op,
                       "ms": 1000.0 * factor[span["task"]] * (span["end"] - span["start"]),
                       "lp_calls": 0, "lp_ms": 0.0, "largest_array": 0}
        else:
            top[i] = top[parent]
        row = rows[top[i]]
        row["largest_array"] = max(row["largest_array"], span.get("array", 0))
        if span["name"] == "lp.solve":
            row["lp_calls"] += 1
            row["lp_ms"] += 1000.0 * factor[span["task"]] * (span["end"] - span["start"])
    merged: dict[tuple, dict] = {}
    for row in rows.values():
        key = (row["task"], row["operation"])
        if key not in merged:
            merged[key] = row
            continue
        into = merged[key]
        for field in ("ms", "lp_calls", "lp_ms"):
            into[field] += row[field]
        into["largest_array"] = max(into["largest_array"], row["largest_array"])
    return list(merged.values())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--before-ms", type=float, required=True,
                        help="yardstick reading taken just before this process started; "
                             "cli_cold takes its own just before its set-up")
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--corrupt", action="store_true")
    args = parser.parse_args(argv)

    out = cli_cold(args) if args.workload == "cli_cold" else in_process(args)
    if args.setup_only:
        print(json.dumps(out))
        return 0

    records = out["records"]
    result = {"setup_raw_s": out["setup_raw_s"], "setup_s": out["setup_s"],
              "attempted": len(records),
              "failed": sum(r["status"] != "ok" for r in records)}
    failures = [r for r in records if r["status"] != "ok"]
    if args.trace:
        traced = out["traced"]
        metrics, ops = per_layer(traced, records)
        failures += [r for r in traced["records"] if r["status"] != "ok"]
        result["attempted"] += len(traced["records"])
        result["failed"] = len(failures)
        OUT.mkdir(exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}"
        (OUT / f"{stem}-spans.json").write_text(json.dumps(traced["spans"]))
        (OUT / f"{stem}-ops.json").write_text(json.dumps(ops, indent=1))
        result["notes"] = {"traced_tasks": len(traced["records"]),
                           "mismatches": traced["mismatches"],
                           "spans": str((OUT / f"{stem}-spans.json").relative_to(ROOT)),
                           "operations": str((OUT / f"{stem}-ops.json").relative_to(ROOT)),
                           "top_operations": sorted(ops, key=lambda r: -r["ms"])[:8]}
    else:
        metrics, notes = end_to_end(records, out["peak_rss_mb"])
        result["notes"] = notes
    result["correct"] = not any(r["status"] in ("wrong", "error") for r in failures)
    result["failures"] = failures[:5]
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
