#!/usr/bin/env python3
"""FleetIO cell benchmark runner.

Builds bench/cell (and the library from src/) into the checkout's
.bench_build directory, then runs one workload as a series of cells,
each a fresh fleetio_cellbench process:

    python3 bench/cell/run.py --workload fleetio_pair --seed 1 \
        --seconds 20 --trace 0

A run draws SUB_SEEDS[workload] cell seeds from --seed and runs cells
round-robin over them, each at least once, until --seconds have passed.
Host times are means over all cells; modelled (simulated) outcomes are
medians over the distinct cell seeds. Cells repeated on one seed must
reproduce it bit for bit.
--trace 1 runs untraced/traced pairs instead and reports the per-layer
metrics; the traced cell must reproduce the untraced one.

Every metric is printed by name with its unit; the last stdout line is
the JSON result {correct, attempted, failed, metrics}. See NOTES.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

# Distinct cell seeds per run; modelled outcomes are their median.
# Sized so one pass over them takes 15-35 s on a 2 GHz core.
SUB_SEEDS = {"fleetio_pair": 16, "shared_read": 8, "shared_write": 12,
             "gc_pressure": 10}
# Minimum untraced/traced pairs in a --trace 1 run.
MIN_PAIRS = 2
CELL_TIMEOUT_S = 150
BUILD_TIMEOUT_S = 840
MIN_TRACE_COVERAGE = 0.95

# name -> (unit, kind). A run reports the mean over its cells:
#   "host": wall-clock values, averaged over all cells. On a shared
#       4-core VM the same cell ranged 1.7-2.7 s, in spells from under
#       a second to over a minute. Over ten run seeds the mean spread
#       less than the median, the fastest cell or the lower quartile.
#   "sim": modelled outcomes, deterministic per cell seed; the median
#       over the distinct cell seeds. On fleetio_pair the learned
#       policy differs per seed, and about one cell seed in forty has
#       a VDI-Web P99.9 of 8-25 ms against a typical 2.5-3.5 ms; one
#       such cell moves a mean of sixteen by up to 1.4 ms.
END_TO_END = {
    "cell_s": ("s", "host"),
    "setup_s": ("s", "host"),
    "sim_io_per_host_s": ("req/s", "host"),
    "peak_rss_mb": ("MB", "host"),
    "avg_util": ("fraction", "sim"),
    "write_amp": ("ratio", "sim"),
    "bi_bw_mbps": ("sim_MB/s", "sim"),
    "ls_p99_ms": ("sim_ms", "sim"),
    "ls_p999_ms": ("sim_ms", "sim"),
    "slo_violation": ("fraction", "sim"),
}
# Printed in every run, reported in the JSON result with --trace 1.
OUTCOMES = {
    "train_s": ("s", "host"),
    "ls_p50_ms": ("sim_ms", "sim"),
}

# Per-layer metrics from the traced cell (median over traced cells).
LAYER_UNITS = {
    "harness.calibrate_s": "s", "harness.build_s": "s",
    "harness.collect_s": "s",
    "sim.self_s.warmup": "s", "sim.self_s.prepare": "s",
    "sim.self_s.measure": "s",
    "sim.events.prepare": "count", "sim.events.measure": "count",
    "sim.ns_per_event.prepare": "ns", "sim.ns_per_event.measure": "ns",
    "sim.events_per_s": "1/s", "sim.events_per_io": "ratio",
    "sim.pending_max": "count", "sim.window_self_ms_p99": "ms",
    "sim.schedule_step_ns": "ns",
    "virt.dispatched_ops": "count", "virt.blocked_writes_max": "count",
    "ssd.warmup_fill_s": "s", "ssd.host_reads": "count",
    "ssd.host_writes": "count", "ssd.gc_writes": "count",
    "ssd.erases": "count", "ssd.gc_pages_migrated": "count",
    "ssd.gc_blocks_reclaimed": "count", "ssd.free_blocks_min": "count",
    "ssd.ftl_write_ns": "ns", "ssd.ftl_lookup_ns": "ns",
    "harvest.gsb_created": "count", "harvest.gsb_harvested": "count",
    "harvest.gsb_reclaimed": "count", "harvest.gsb_revoked": "count",
    "core.tick_s.teacher": "s", "core.tick_s.train": "s",
    "core.tick_s.decide": "s", "core.ticks.teacher": "count",
    "core.ticks.train": "count", "core.ticks.decide": "count",
    "core.admission.processed": "count",
    "core.admission.rejected": "count",
    "rl.optimizer_steps": "count", "rl.imitate_us": "us",
    "rl.decide_us": "us", "rl.train_ms": "ms",
    "workloads.issued": "count", "workloads.completed": "count",
    "workloads.ls_requests": "count",
    "workloads.stalled_windows": "count",
}

# Outputs a traced cell must reproduce exactly.
SIM_KEYS = ("digest", "events", "tenant_requests", "avg_util",
            "write_amp", "attempted", "failed", "stalled_windows")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure and build fleetio_cellbench; return it and its dir."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"library sources not found under {ROOT}/src")
    out = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "cell"
    # Keep the compiler's temporary files inside the checkout too.
    env = dict(os.environ, TMPDIR=str(out / "tmp"))
    (out / "tmp").mkdir(parents=True, exist_ok=True)
    if not (out / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, env=env,
                       timeout=BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(out), "-j", jobs], check=True,
                   stdout=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)
    return out / "fleetio_cellbench", out


def run_cell(binary, workload, seed, traced, span_path=None):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed)]
    if traced:
        cmd.append("--traced")
        if span_path is not None:
            cmd += ["--spans", str(span_path)]
    p = subprocess.run(cmd, capture_output=True, text=True,
                       timeout=CELL_TIMEOUT_S)
    if p.returncode != 0:
        raise RuntimeError(f"cell {workload}/{seed} exited {p.returncode}: "
                           f"{p.stderr.strip()}")
    cell = json.loads(p.stdout.strip().splitlines()[-1])
    cell["sim_io_per_host_s"] = cell["completed"] / cell["measure_wall_s"]
    log(f"cell {workload}/{seed}{' traced' if traced else ''}: "
        f"cell_s {cell['cell_s']:.4f} setup_s {cell['setup_s']:.4f} "
        f"measure_wall_s {cell['measure_wall_s']:.4f}")
    return cell


def cell_problems(c):
    """Sanity checks on one cell's outputs; returns what failed."""
    bad = []
    if not (c["attempted"] > 0 and c["completed"] > 0 and c["events"] > 0):
        bad.append("no I/O completed")
    if not 0.0 < c["avg_util"] <= 1.0:
        bad.append(f"avg_util {c['avg_util']} outside (0, 1]")
    if c["write_amp"] < 1.0:
        bad.append(f"write_amp {c['write_amp']} below 1")
    if c["ls_samples"] <= 0 or c["bi_bw_mbps"] <= 0:
        bad.append("a tenant class recorded nothing")
    if not 0 < c["ls_p50_ms"] <= c["ls_p99_ms"] <= c["ls_p999_ms"]:
        bad.append("LS quantiles out of order")
    if not 0.0 <= c["slo_violation"] <= 1.0:
        bad.append("slo_violation outside [0, 1]")
    if c["failed"] > c["attempted"]:
        bad.append("more failures than requests")
    if sum(c["tenant_requests"]) != c["completed"]:
        bad.append("tenant requests do not sum to completions")
    if not c["micro_ok"]:
        bad.append("FTL microbenchmark misbehaved")
    cov = c["layer"].get("trace.coverage")
    if cov is not None and cov < MIN_TRACE_COVERAGE:
        bad.append(f"spans cover {cov:.3f} of the traced cell")
    return bad


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=SUB_SEEDS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        binary, out = build()
    except (RuntimeError, OSError, subprocess.SubprocessError) as e:
        log(f"build failed: {e}")
        return 2

    n_seeds = SUB_SEEDS[args.workload]
    seeds = [args.seed * 16 + j for j in range(n_seeds)]
    problems = []
    plain, traced = [], []
    t0 = time.monotonic()
    try:
        if args.trace == 0:
            while (len(plain) < n_seeds or
                   time.monotonic() - t0 < args.seconds):
                plain.append(run_cell(binary, args.workload,
                                      seeds[len(plain) % n_seeds], False))
        else:
            (out / "spans").mkdir(exist_ok=True)
            while (len(traced) < MIN_PAIRS or
                   time.monotonic() - t0 < args.seconds):
                s = seeds[len(traced) % n_seeds]
                plain.append(run_cell(binary, args.workload, s, False))
                traced.append(run_cell(
                    binary, args.workload, s, True,
                    out / "spans" / f"{args.workload}-{s}.jsonl"))
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        log(f"cell failed: {e}")
        return 1

    # Checks: sanity per cell, bit-identical repeats of one seed, and a
    # traced cell equal to its untraced twin.
    first = {}
    for i, c in enumerate(plain):
        s = seeds[i % n_seeds]
        problems += [f"seed {s}: {p}" for p in cell_problems(c)]
        if s in first and first[s]["digest"] != c["digest"]:
            problems.append(f"seed {s}: repeat cell diverged")
        first.setdefault(s, c)
    for i, c in enumerate(traced):
        s = seeds[i % n_seeds]
        problems += [f"seed {s} traced: {p}" for p in cell_problems(c)]
        diff = [k for k in SIM_KEYS if c[k] != first[s][k]]
        if diff:
            problems.append(f"seed {s}: traced cell differs in {diff}")

    distinct = list(first.values())
    for i, c in enumerate(distinct):
        log(f"cell seed {seeds[i]}: digest {c['digest']} events "
            f"{c['events']} requests {c['tenant_requests']} attempted "
            f"{c['attempted']} failed {c['failed']} stalled_windows "
            f"{c['stalled_windows']} ls_samples {c['ls_samples']} "
            f"ls_p999_ms {c['ls_p999_ms']:.4f}")

    results = {}
    for name, (unit, kind) in {**END_TO_END, **OUTCOMES}.items():
        if kind == "host":
            value = statistics.fmean(c[name] for c in plain)
        else:
            value = statistics.median(c[name] for c in distinct)
        results[name] = (value, unit)
    results["ls_samples"] = (
        statistics.median(c["ls_samples"] for c in distinct), "count")
    if traced:
        for name, unit in LAYER_UNITS.items():
            results[name] = (statistics.median(
                c["layer"][name] for c in traced), unit)
        # Each traced cell runs right after its untraced twin, so the
        # ratio within a pair cancels slow spells of a shared host.
        results["trace_overhead"] = (statistics.median(
            t["cell_s"] / p["cell_s"] for t, p in zip(traced, plain)) - 1.0,
            "ratio")

    print(f"workload {args.workload} seed {args.seed}: {len(plain)} cells "
          f"untraced, {len(traced)} traced, {len(distinct)} cell seeds")
    for name, (value, unit) in results.items():
        print(f"  {name:28s} {value:.6g} {unit}")
    for p in problems:
        print(f"  CHECK FAILED: {p}")

    attempted = sum(c["attempted"] for c in plain)
    correct = not problems
    failed = sum(c["failed"] for c in plain) if correct else attempted
    wanted = list(END_TO_END) if args.trace == 0 else \
        list(OUTCOMES) + list(LAYER_UNITS) + ["trace_overhead"]
    metrics = {n: {"value": results[n][0], "unit": results[n][1]}
               for n in wanted}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
