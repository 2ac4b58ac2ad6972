#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Runs the command in BENCHMARK.json once per (workload, seed) from the
repository root and prints, for each metric, the median of the runs and
the spread: the distance between the first and third quartile
(statistics.quantiles, n=4) as a share of the median. An end-to-end metric
whose spread exceeds a third of its bound is marked, and the script then
exits 1. Run from the repository root:

    python3 perfbench/steadiness.py --workloads planning --seeds 11-15
    python3 perfbench/steadiness.py --seeds 1-10 --trace 0 --json runs.json
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def seed_list(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", help="comma-separated; default: all in BENCHMARK.json")
    ap.add_argument("--seeds", default="1-10", help="range such as 1-10")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--json", help="write every run's result line here")
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs = {}
    ok = True
    for wl in names:
        for seed in seed_list(args.seeds):
            cmd = bench["command"] + ["--workload", wl, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", args.trace]
            t = time.time()
            p = subprocess.run(cmd, capture_output=True, text=True)
            took = time.time() - t
            lines = p.stdout.strip().splitlines()
            if p.returncode != 0 or not lines:
                print(f"{wl} seed {seed}: exit {p.returncode}\n{p.stdout[-2000:]}\n{p.stderr[-2000:]}", file=sys.stderr)
                ok = False
                continue
            res = json.loads(lines[-1])
            diag = next((l for l in lines if l.startswith("diagnostics: ")), "")
            runs.setdefault(wl, []).append({"seed": seed, "took_s": took, "result": res, "diagnostics": diag})
            vals = " ".join(f"{k}={v['value']:.4g}" for k, v in sorted(res["metrics"].items())
                            if args.trace == "0")
            print(f"{wl} seed {seed}: {took:.1f}s correct={res['correct']} {vals}", flush=True)
            ok = ok and res["correct"]
    for wl, rs in runs.items():
        print(f"\n{wl}: {len(rs)} runs")
        for name in sorted(rs[0]["result"]["metrics"]):
            vals = [r["result"]["metrics"][name]["value"] for r in rs]
            med = statistics.median(vals)
            spread = float("nan")
            if len(vals) >= 2 and med:
                q = statistics.quantiles(vals, n=4)
                spread = (q[2] - q[0]) / abs(med)
            mark = ""
            if name in bounds and not spread <= bounds[name] / 3:
                mark = f"  <-- above bound/3 ({bounds[name] / 3:.3f})"
                ok = False
            print(f"  {name:32s} median {med:12.4f}  spread {spread:7.4f}{mark}")
    if args.json:
        json.dump(runs, open(args.json, "w"), indent=1)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
