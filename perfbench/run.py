#!/usr/bin/env python3
"""The repository benchmark: paper-configuration crawls and distillation.

Builds perfbench/ (the focus libraries from src/ plus the measuring
program) into .bench_build/ (or $CARGO_TARGET_DIR), runs one workload, and
prints as its last stdout line one JSON object:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics":
   {"<name>": {"value": ..., "unit": "..."}, ...}}

With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones (see README.md for the catalog).

  python3 perfbench/run.py --workload crawl_pipeline --seed 1 \\
      --seconds 45 --trace 0
  python3 perfbench/run.py --seed 1        # every workload, both modes,
                                           # as a table
  python3 perfbench/run.py --write-manifest  # regenerate BENCHMARK.json

Exits non-zero when the build fails, a run fails, or any output check
fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = "perfbench"
RUN_SECONDS = 45

# name, why, listed in BENCHMARK.json. crawl_serial runs by hand only: its
# fdatasync-bound throughput spread too far between runs on a shared disk
# for any bound the manifest may set (README.md, "Steadiness").
WORKLOADS = [
    ("crawl_pipeline",
     "4-thread WAL crawl with BulkProbe batches and distill boosts: loads "
     "the fetch lock, the crawl-state lock, serialized classify and WAL "
     "commits", True),
    ("crawl_serial",
     "1-thread crawl, same boost schedule: one WAL commit and fdatasync "
     "per page, in-memory judging, no lock contention", False),
    ("distill_query",
     "best hubs and authorities now: refresh + join distiller on a 512-frame "
     "pool over a checkpointed 8000-page graph; misses and readahead", True),
]

# name, unit, better, bound (share of the parent's median it may worsen).
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("pages_per_s", "1/s", "higher", 0.25),
    ("harvest_rate", "ratio", "higher", 0.2),
    ("distill_s", "s", "lower", 0.25),
    ("ok_frac", "ratio", "higher", 0.01),
    ("peak_rss_mb", "MiB", "lower", 0.25),
]

# name, unit, better.
PER_LAYER = [
    ("webgraph.fetch_s", "s", "lower"),
    ("crawl.gather_s", "s", "lower"),
    ("crawl.lock_wait_s", "s", "lower"),
    ("crawl.record_s", "s", "lower"),
    ("crawl.other_s", "s", "lower"),
    ("crawl.batch_occupancy", "pages", "higher"),
    ("crawl.virtual_pages_per_s", "1/s", "higher"),
    ("classify.busy_s", "s", "lower"),
    ("classify.wait_s", "s", "lower"),
    ("classify.batch_ms_p50", "ms", "lower"),
    ("classify.batch_ms_p90", "ms", "lower"),
    ("classify.ms_per_page", "ms", "lower"),
    ("distill.boosts", "count", "lower"),
    ("distill.boost_s", "s", "lower"),
    ("distill.queries", "count", "higher"),
    ("distill.refresh_s", "s", "lower"),
    ("distill.init_s", "s", "lower"),
    ("distill.iter_s", "s", "lower"),
    ("distill.iter_ms_p50", "ms", "lower"),
    ("distill.iter_ms_p90", "ms", "lower"),
    ("distill.topk_s", "s", "lower"),
    ("storage.pool_hit_ratio", "ratio", "higher"),
    ("storage.pool_misses", "count", "lower"),
    ("storage.pool_read_s", "s", "lower"),
    ("storage.readahead_used_frac", "ratio", "higher"),
    ("storage.pages_written", "count", "lower"),
    ("storage.pool_write_s", "s", "lower"),
    ("wal.syncs", "count", "lower"),
    ("wal.sync_s", "s", "lower"),
    ("wal.sync_ms_p99", "ms", "lower"),
    ("wal.commits_per_page", "ratio", "lower"),
    ("wal.log_kib_per_page", "KiB", "lower"),
    ("wal.log_write_s", "s", "lower"),
    ("wal.data_write_s", "s", "lower"),
    ("wal.recover_s", "s", "lower"),
    ("obs.trace_overhead_frac", "ratio", "lower"),
]


def manifest():
    return {
        "command": ["python3", BENCH + "/run.py"],
        "paths": [BENCH],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w}
                      for n, w, listed in WORKLOADS if listed],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": x}
                       for n, u, b, x in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in PER_LAYER],
    }


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures and builds the measuring program; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("focus sources (src/) not found next to " + BENCH)
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_dir)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(ROOT, BENCH), "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target",
                    "focus_perfbench", "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "focus_perfbench")


def run_workload(binary, workload, seed, seconds, trace):
    """Runs one workload; returns the program's raw JSON record."""
    run_dir = os.path.join(".bench_run", "%s-%d" % (workload, os.getpid()))
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--dir", run_dir]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=170)
    finally:
        shutil.rmtree(os.path.join(ROOT, run_dir), ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("%s exited %d with no result"
                           % (workload, proc.returncode))
    raw = json.loads(lines[-1])
    for error in raw.get("errors", []):
        log("CHECK FAILED (%s): %s" % (workload, error))
    return raw


def result(raw, trace):
    """The driver-facing record: every catalog metric of the mode."""
    catalog = PER_LAYER if trace else END_TO_END
    metrics = {}
    for entry in catalog:
        name, unit = entry[0], entry[1]
        if name not in raw["metrics"]:
            raise RuntimeError("metric %s missing from the run" % name)
        metrics[name] = {"value": raw["metrics"][name], "unit": unit}
    return {"correct": bool(raw["correct"]), "attempted": raw["attempted"],
            "failed": raw["failed"], "metrics": metrics}


def run_all(binary, seed, seconds):
    """Every workload in both modes, printed as one table."""
    ok = True
    for workload, why, _ in WORKLOADS:
        print("== %s: %s" % (workload, why))
        for trace in (0, 1):
            rec = result(run_workload(binary, workload, seed, seconds,
                                      trace), trace)
            ok = ok and rec["correct"]
            print("  trace %d: correct=%s attempted=%d failed=%d"
                  % (trace, rec["correct"], rec["attempted"],
                     rec["failed"]))
            for name, m in rec["metrics"].items():
                print("    %-28s %14.6g %s" % (name, m["value"], m["unit"]))
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[w[0] for w in WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-manifest", action="store_true",
                        help="write BENCHMARK.json and exit")
    args = parser.parse_args()

    if args.write_manifest:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as f:
            json.dump(manifest(), f, indent=2)
            f.write("\n")
        return 0
    try:
        binary = build()
        if args.workload is None:
            return 0 if run_all(binary, args.seed, args.seconds) else 1
        rec = result(run_workload(binary, args.workload, args.seed,
                                  args.seconds, args.trace), args.trace)
    except (RuntimeError, subprocess.SubprocessError, OSError,
            ValueError) as e:
        log("perfbench: %s" % e)
        return 2
    print(json.dumps(rec))
    return 0 if rec["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
