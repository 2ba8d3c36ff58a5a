#!/usr/bin/env python3
"""Append one point to BENCH_trajectory.json from bench-run artifacts.

The trajectory file records how the repo's headline numbers move commit to
commit, so a perf regression is visible as a trend break instead of a
guess. Each point stores the *median* across however many repeat runs of
each bench artifact the caller passes (CI runs each bench three times;
locally one run per bench is fine — the median of one value is itself).

Usage:
  python3 scripts/append_bench_trajectory.py \
      --trajectory BENCH_trajectory.json \
      --commit "$(git rev-parse --short HEAD)" --source local \
      --fig8a BENCH_fig8a_run*.json \
      --fig8d BENCH_fig8d_run*.json \
      --throughput BENCH_throughput_run*.json \
      --storage BENCH_storage_run*.json \
      --perfbench distill_query=dq_runs.jsonl crawl_pipeline=cp_runs.jsonl

Any of --fig8a / --fig8d / --throughput / --storage / --perfbench may be
omitted; the point records whichever benches ran.

--perfbench takes WORKLOAD=PATH pairs. PATH holds one JSON line per run:
the last stdout line of `python3 perfbench/run.py --workload WORKLOAD
--seed S ...`. Each workload needs at least five runs (different seeds);
the point records every metric's median, min and max over them, since one
run of the end-to-end benchmark is noise.

Every point also records `src_lines`: the line count of the .cc/.h files
under src/ in the tree this script lives in, so code size is tracked next
to the perf numbers.
"""

import argparse
import datetime
import json
import os
import statistics
import sys

SCHEMA = 1
MIN_PERFBENCH_RUNS = 5
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def src_lines():
    """Lines of .cc/.h under src/ (what `cat | wc -l` reports)."""
    total = 0
    for dirpath, _, names in os.walk(os.path.join(ROOT, "src")):
        for name in names:
            if name.endswith((".cc", ".h")):
                with open(os.path.join(dirpath, name), "rb") as f:
                    total += f.read().count(b"\n")
    return total


def load_all(paths):
    return [json.load(open(p)) for p in paths]


def fig8a_point(runs):
    """variant -> median seconds_per_doc (plus probe_s, the join pass)."""
    by_variant = {}
    for run in runs:
        for row in run:
            by_variant.setdefault(row["variant"], []).append(row)
    return {
        variant: {
            "seconds_per_doc": statistics.median(
                r["seconds_per_doc"] for r in rows
            ),
            "probe_s": statistics.median(r["probe_s"] for r in rows),
        }
        for variant, rows in by_variant.items()
    }


def fig8d_point(runs):
    """variant -> median seconds_per_iter (plus join_s where present)."""
    by_variant = {}
    for run in runs:
        for row in run:
            by_variant.setdefault(row["variant"], []).append(row)
    return {
        variant: {
            "seconds_per_iter": statistics.median(
                r["seconds_per_iter"] for r in rows
            ),
            "join_s": statistics.median(r["join_s"] for r in rows),
        }
        for variant, rows in by_variant.items()
    }


def throughput_point(runs):
    """threads -> median virtual/wall throughput across runs."""
    by_threads = {}
    for run in runs:
        for row in run["rows"]:
            by_threads.setdefault(row["threads"], []).append(row)
    return {
        str(threads): {
            "pages_per_virtual_second": statistics.median(
                r["pages_per_virtual_second"] for r in rows
            ),
            "pages_per_wall_second": statistics.median(
                r["pages_per_wall_second"] for r in rows
            ),
        }
        for threads, rows in sorted(by_threads.items())
    }


def storage_point(runs):
    """workload/frames -> median throughput and pool behaviour.

    The micro_storage --json sweep: one row per (workload, frames)
    configuration; keys look like "seq/256f".
    """
    by_config = {}
    for run in runs:
        for row in run:
            key = f"{row['workload']}/{row['frames']}f"
            by_config.setdefault(key, []).append(row)
    return {
        key: {
            "ops_per_second": statistics.median(
                r["ops_per_second"] for r in rows
            ),
            "hit_ratio": statistics.median(r["hit_ratio"] for r in rows),
            "readahead_used_frac": statistics.median(
                r["readahead_used_frac"] for r in rows
            ),
        }
        for key, rows in sorted(by_config.items())
    }


def perfbench_point(pairs):
    """workload -> metric -> {median, min, max, unit, runs}.

    `pairs` are "WORKLOAD=PATH" strings; PATH holds perfbench/run.py JSON
    lines, one per run.
    """
    runs_by_workload = {}
    for pair in pairs:
        workload, sep, path = pair.partition("=")
        if not sep or not workload or not path:
            sys.exit(f"--perfbench wants WORKLOAD=PATH, got {pair!r}")
        with open(path) as f:
            runs = [json.loads(line) for line in f if line.strip()]
        runs_by_workload.setdefault(workload, []).extend(runs)
    point = {}
    for workload, runs in sorted(runs_by_workload.items()):
        if len(runs) < MIN_PERFBENCH_RUNS:
            sys.exit(f"{workload}: {len(runs)} perfbench run(s), need at "
                     f"least {MIN_PERFBENCH_RUNS}")
        if not all(r["correct"] for r in runs):
            sys.exit(f"{workload}: a perfbench run failed its checks")
        metrics = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            metrics[name] = {
                "median": statistics.median(values),
                "min": min(values),
                "max": max(values),
                "unit": runs[0]["metrics"][name]["unit"],
            }
        point[workload] = {"runs": len(runs), "metrics": metrics}
    return point


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trajectory", required=True)
    parser.add_argument("--commit", required=True)
    parser.add_argument("--source", default="local",
                        help="who measured (local, ci, ...)")
    parser.add_argument("--fig8a", nargs="*", default=[])
    parser.add_argument("--fig8d", nargs="*", default=[])
    parser.add_argument("--throughput", nargs="*", default=[])
    parser.add_argument("--storage", nargs="*", default=[])
    parser.add_argument("--perfbench", nargs="*", default=[],
                        metavar="WORKLOAD=PATH")
    args = parser.parse_args()

    if not (args.fig8a or args.fig8d or args.throughput or args.storage
            or args.perfbench):
        sys.exit("nothing to append: pass at least one bench artifact")

    try:
        trajectory = json.load(open(args.trajectory))
    except FileNotFoundError:
        trajectory = {"schema": SCHEMA, "points": []}
    if trajectory.get("schema") != SCHEMA:
        sys.exit(f"unsupported trajectory schema: {trajectory.get('schema')}")

    point = {
        "commit": args.commit,
        "date": datetime.datetime.now(datetime.timezone.utc)
        .strftime("%Y-%m-%dT%H:%M:%SZ"),
        "source": args.source,
        "src_lines": src_lines(),
    }
    if args.fig8a:
        point["fig8a"] = fig8a_point(load_all(args.fig8a))
    if args.fig8d:
        point["fig8d"] = fig8d_point(load_all(args.fig8d))
    if args.throughput:
        point["tab_throughput"] = throughput_point(load_all(args.throughput))
    if args.storage:
        point["micro_storage"] = storage_point(load_all(args.storage))
    if args.perfbench:
        point["perfbench"] = perfbench_point(args.perfbench)

    trajectory["points"].append(point)
    with open(args.trajectory, "w") as f:
        json.dump(trajectory, f, indent=2)
        f.write("\n")
    runs = max([len(args.fig8a), len(args.fig8d), len(args.throughput),
                len(args.storage)] +
               [w["runs"] for w in point.get("perfbench", {}).values()])
    print(f"appended {args.commit} ({args.source}, median of {runs} run(s)) "
          f"-> {args.trajectory}: {len(trajectory['points'])} points")


if __name__ == "__main__":
    main()
