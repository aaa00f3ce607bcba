#!/usr/bin/env python3
"""Repeat perfbench workloads and report how steady each metric is.

Run from the repository root:

    python3 perfbench/steady.py --runs 10
    python3 perfbench/steady.py --workloads catchup-mixed --runs 5 --traced

Each workload runs --runs times with seeds --seed, --seed+1, ... . For every
end-to-end metric the tool prints the median, the first and third quartiles
(statistics.quantiles, n=4) and the spread (Q3 - Q1) / median next to the
metric's bound in BENCHMARK.json. With --traced it also runs each seed with
--trace 1 and prints the tracing overhead, traced median minus untraced
median, for every end-to-end metric.

Every run is recorded with its seed, commit, nproc, GOMAXPROCS and Go
version in .bench_build/steady-<time>.json.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.time()
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    rec = {"workload": workload, "seed": seed, "trace": trace, "exit": out.returncode,
           "wall_s": round(time.time() - t0, 2), "e2e": {}}
    lines = out.stdout.strip().splitlines()
    for line in lines:
        if line.startswith("perfbench "):
            for kv in line.split()[1:]:
                k, _, v = kv.partition("=")
                if k in ("nproc", "gomaxprocs", "go"):
                    rec[k] = v
        elif line.startswith("metric "):
            _, name, value, _unit = line.split()
            rec["e2e"][name] = float(value)
    try:
        rec["result"] = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        rec["result"] = None
        rec["stderr"] = out.stderr[-2000:]
    return rec


def quartiles(values):
    if len(values) < 2:
        v = values[0] if values else float("nan")
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--traced", action="store_true", help="also run --trace 1 and report overhead")
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    records = []
    ok = True
    for w in args.workloads.split(","):
        runs = []
        for i in range(args.runs):
            rec = run_once(w, args.seed + i, args.seconds, 0)
            rec["commit"] = commit()
            records.append(rec)
            runs.append(rec)
            res = rec["result"]
            status = "ok" if res and res["correct"] else "FAILED"
            print(f"{w} seed={rec['seed']} {status} exit={rec['exit']} wall={rec['wall_s']}s", flush=True)
            if status != "ok":
                ok = False
        traced = []
        if args.traced:
            for i in range(args.runs):
                rec = run_once(w, args.seed + i, args.seconds, 1)
                rec["commit"] = commit()
                records.append(rec)
                traced.append(rec)
        print(f"\n{w}: {len(runs)} runs, nproc={runs[0].get('nproc')} "
              f"gomaxprocs={runs[0].get('gomaxprocs')} go={runs[0].get('go')} commit={commit()[:12]}")
        print(f"  {'metric':18} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}"
              + ("  traced-untraced" if traced else ""))
        for name in bounds:
            vals = [r["result"]["metrics"][name]["value"] for r in runs
                    if r["result"] and name in r["result"]["metrics"]]
            if not vals:
                continue
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / med if med else float("inf")
            flag = "" if name == "setup_s" or spread < bounds[name] / 3 else "  <- above bound/3"
            line = f"  {name:18} {med:12.4f} {q1:12.4f} {q3:12.4f} {spread:8.3f} {bounds[name]:6.2f}"
            if traced:
                tv = [r["e2e"][name] for r in traced if name in r["e2e"]]
                if tv:
                    line += f"  {statistics.median(tv) - med:+.4f}"
            print(line + flag)
        print(flush=True)

    os.makedirs(os.path.join(ROOT, ".bench_build"), exist_ok=True)
    path = os.path.join(ROOT, ".bench_build", time.strftime("steady-%Y%m%d-%H%M%S.json"))
    with open(path, "w") as f:
        json.dump(records, f, indent=1)
    print(f"records written to {path}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
