#!/usr/bin/env python3
"""Steadiness report: run the benchmark repeatedly, one seed per run, and
report the median and quartiles of every end-to-end metric.

    python3 perfbench/steady.py --runs 10 --out perfbench/steadiness.json

Run it from the repository root. For each workload in BENCHMARK.json it
runs `<command> --workload W --seed S --seconds <run_seconds> --trace 0`
for S = seed0 .. seed0+runs-1, takes the quartiles of each metric with
statistics.quantiles(values, n=4) and reports the spread (Q3 - Q1) / median
next to the metric's bound. A spread above a third of the bound is flagged;
setup_s is exempt from the spread rule but reported.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(cmd, workload, seed, seconds, trace):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.time()
    p = subprocess.run(args, capture_output=True, text=True, timeout=900)
    wall = time.time() - t0
    lines = [l for l in p.stdout.splitlines() if l.strip()]
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {p.returncode}")
    res = json.loads(lines[-1])
    prov = json.loads(lines[-2]) if len(lines) > 1 else {}
    return res, prov, wall


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--bench", default="BENCHMARK.json")
    ap.add_argument("--workloads", default="", help="comma-separated subset")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out", default="")
    a = ap.parse_args()

    bench = json.load(open(a.bench))
    names = [w["name"] for w in bench["workloads"]]
    if a.workloads:
        names = a.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {"runs": a.runs, "seed0": a.seed0, "run_seconds": bench["run_seconds"],
              "trace": a.trace, "workloads": {}}
    for w in names:
        values, walls, provs = {}, [], []
        for i in range(a.runs):
            res, prov, wall = run_once(bench["command"], w, a.seed0 + i, bench["run_seconds"], a.trace)
            if not res["correct"] or res["failed"]:
                raise SystemExit(f"{w} seed {a.seed0 + i}: correct={res['correct']} failed={res['failed']}")
            walls.append(wall)
            provs.append(prov.get("provenance", {}))
            for k, m in res["metrics"].items():
                values.setdefault(k, []).append(m["value"])
        rows = {}
        for k, vs in sorted(values.items()):
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            row = {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": vs}
            if k in bounds:
                row["bound"] = bounds[k]
                row["steady"] = k == "setup_s" or spread <= bounds[k] / 3
            rows[k] = row
            flag = "" if row.get("steady", True) else "  <-- above bound/3"
            print(f"{w:11s} {k:14s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
                  f"spread {spread:6.3f}  bound {row.get('bound', '-')}{flag}", flush=True)
        report["workloads"][w] = {"metrics": rows, "run_wall_s": walls,
                                  "provenance": provs[0] if provs else {}}
        print(f"{w:11s} run wall median {statistics.median(walls):.1f}s max {max(walls):.1f}s", flush=True)
    if a.out:
        with open(a.out, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
