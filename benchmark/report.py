#!/usr/bin/env python3
"""Run the benchmark command of BENCHMARK.json repeatedly and report, as
Markdown on standard output:

  report.py aa [--seed N]      two runs of every workload in both modes on the
                               same seed: every end-to-end metric against its
                               bound, and the counts that must repeat exactly
  report.py spread [--runs N]  N seeds per workload: quartiles of every
                               end-to-end metric and their distance as a share
                               of the median, against the bound

Run from the repo root (aa.sh does). Exits non-zero if a run fails, reports
failed operations, or a count that must repeat exactly does not.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time

BENCH = json.load(open("BENCHMARK.json"))
END_TO_END = {m["name"]: m for m in BENCH["end_to_end"]}
# With one client and no timers these repeat exactly for a seed.
# (`pagestore.pool_evictions` does not: the store flushes a commit's dirty
# pages in `HashMap` order, which differs per process, and the order decides
# which page the clock hand meets first.)
EXACT = {
    "controller-disk": [
        "store.calls",
        "pagestore.commits",
        "pagestore.write_syscalls",
        "pagestore.disk_bytes",
        "audit.events",
        "audit.bytes",
        "driver.semantic_error_share",
    ]
}
EXACT_END_TO_END = {"controller-disk": ["space_factor"]}


def run(workload, seed, trace):
    command = BENCH["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(BENCH["run_seconds"]), "--trace", str(trace),
    ]
    started = time.time()
    done = subprocess.run(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if done.returncode != 0:
        sys.exit(f"{' '.join(command)} exited {done.returncode}:\n{done.stderr[-2000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"] != 0:
        sys.exit(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} failed")
    values = {name: m["value"] for name, m in result["metrics"].items()}
    print(f"  {workload} seed {seed} trace {trace}: {time.time() - started:.1f} s", file=sys.stderr)
    return values


def worse_by(metric, first, second):
    """Share of `first` by which `second` is worse (negative: better)."""
    if first == 0:
        return 0.0
    change = (second - first) / abs(first)
    return -change if metric["better"] == "higher" else change


def aa(seed):
    print(f"## A/A: two runs of the same commit, seed {seed}\n")
    failures = []
    for workload in (w["name"] for w in BENCH["workloads"]):
        first, second = run(workload, seed, 0), run(workload, seed, 0)
        print(f"### {workload}\n")
        print("| metric | unit | run 1 | run 2 | run 2 worse by | bound | verdict |")
        print("|---|---|---:|---:|---:|---:|---|")
        for name, metric in END_TO_END.items():
            a, b = first[name], second[name]
            worse = worse_by(metric, a, b)
            verdict = "agree" if abs(worse) <= metric["bound"] else "unresolved (wider than the bound)"
            print(f"| {name} | {metric['unit']} | {a:.4f} | {b:.4f} | "
                  f"{100 * worse:+.1f} % | {100 * metric['bound']:.0f} % | {verdict} |")
        for name in EXACT_END_TO_END.get(workload, []):
            if first[name] != second[name]:
                failures.append(f"{workload}: {name} {first[name]} != {second[name]}")
        layers_1, layers_2 = run(workload, seed, 1), run(workload, seed, 1)
        print("\n| per-layer metric | unit | run 1 | run 2 |")
        print("|---|---|---:|---:|")
        for m in BENCH["per_layer"]:
            a, b = layers_1[m["name"]], layers_2[m["name"]]
            if a == 0 and b == 0:
                continue  # a layer this workload does not touch
            exact = m["name"] in EXACT.get(workload, [])
            print(f"| {m['name']}{' (must repeat)' if exact else ''} | {m['unit']} | {a:.4f} | {b:.4f} |")
            if exact and a != b:
                failures.append(f"{workload}: {m['name']} {a} != {b}")
        print()
    if failures:
        sys.exit("counts that must repeat exactly differ:\n" + "\n".join(failures))
    print("Counts marked *must repeat* are equal in both runs.\n")


def spread(runs, only):
    print(f"## Spread over {runs} seeds, `--trace 0`\n")
    print("Quartiles as `statistics.quantiles(values, n=4)` gives them; "
          "spread = (q3 - q1) / median.\n")
    for workload in (w["name"] for w in BENCH["workloads"]):
        if only and workload != only:
            continue
        results = [run(workload, 1000 + i, 0) for i in range(runs)]
        print(f"### {workload}\n")
        print("| metric | unit | q1 | median | q3 | spread | bound | below a third |")
        print("|---|---|---:|---:|---:|---:|---:|---|")
        for name, metric in END_TO_END.items():
            values = [r[name] for r in results]
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            share = (q3 - q1) / median
            third = "yes" if share < metric["bound"] / 3 else ("within bound" if share <= metric["bound"] else "NO")
            print(f"| {name} | {metric['unit']} | {q1:.4f} | {median:.4f} | {q3:.4f} | "
                  f"{100 * share:.2f} % | {100 * metric['bound']:.0f} % | {third} |")
        print()


if __name__ == "__main__":
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=["aa", "spread"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", help="spread: this workload only")
    args = parser.parse_args()
    if args.mode == "aa":
        aa(args.seed)
    else:
        spread(args.runs, args.workload)
