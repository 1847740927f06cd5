#!/usr/bin/env python3
"""A-A steadiness report: runs one workload several times on the same code and
prints, for every end-to-end metric, the median, the quartiles and the spread
(interquartile range over the median) against the metric's bound.

usage: python3 perfbench/aa.py --workload <name> [--runs 10] [--seed 1]
                               [--vary-seeds] [--sets 1] [--json <file>]

Run from the repository root. By default every run uses --seed (a pure A-A
repeat); --vary-seeds gives run i the seed (seed + i), so the spread covers
the data as well as the noise. With --sets 2 the whole series runs twice and
the second median of each metric is compared with the first, in either
direction. Every end-to-end metric, setup_s included, must keep its spread
and its drift within its bound for the report to pass (exit 0).
Quartiles are Python's statistics.quantiles(values, n=4).
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Reserved for confirming later performance claims: never used while a
# change is being written or tuned.
HELD_OUT_SEED = 20120521


def run_once(manifest, workload, seed, seconds):
    cmd = [*manifest["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().split("\n")
    if done.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"run failed: {' '.join(cmd)} (exit {done.returncode})")
    build = next((line for line in lines if line.startswith("build: ")), "build: unknown")
    return json.loads(lines[-1]), build


def series(manifest, args, label):
    values = {m["name"]: [] for m in manifest["end_to_end"]}
    build = ""
    for i in range(args.runs):
        seed = args.seed + i if args.vary_seeds else args.seed
        result, build = run_once(manifest, args.workload, seed, args.seconds)
        if not result["correct"] or result["failed"] != 0:
            raise RuntimeError(f"{label} run {i + 1} (seed {seed}) reported failures: {result}")
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"{label} run {i + 1}/{args.runs} seed {seed}: attempted {result['attempted']}",
              file=sys.stderr)
    return values, build


def report(manifest, values):
    rows = []
    print(f"{'metric':<18}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}{'bound':>7}  verdict")
    for m in manifest["end_to_end"]:
        v = values[m["name"]]
        q1, med, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0], v[0], v[0])
        spread = (q3 - q1) / med if med else float("inf")
        verdict = ("steady" if spread < m["bound"] / 3 else
                   "within bound" if spread <= m["bound"] else "TOO NOISY")
        print(f"{m['name']:<18}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}{spread:>9.4f}{m['bound']:>7}"
              f"  {verdict}")
        rows.append({"name": m["name"], "median": med, "q1": q1, "q3": q3, "spread": spread,
                     "bound": m["bound"], "values": v})
    return rows


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        manifest = json.load(f)
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=[w["name"] for w in manifest["workloads"]])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--vary-seeds", action="store_true")
    p.add_argument("--sets", type=int, default=1, choices=[1, 2])
    p.add_argument("--seconds", type=int, default=manifest["run_seconds"])
    p.add_argument("--json", help="also write the raw values here")
    args = p.parse_args()

    sets = []
    for s in range(args.sets):
        values, build = series(manifest, args, f"set {s + 1}")
        seeds = (f"{args.seed}..{args.seed + args.runs - 1}" if args.vary_seeds
                 else f"{args.seed} (x{args.runs})")
        print(f"\nA-A report, set {s + 1}: workload={args.workload} seeds={seeds} "
              f"seconds={args.seconds} held-out seed={HELD_OUT_SEED}\n{build}")
        sets.append(report(manifest, values))
    ok = all(r["spread"] <= r["bound"] for rows in sets for r in rows)
    if len(sets) == 2:
        print("\nsecond set vs first (median drift; either direction counts):")
        for a, b in zip(*sets):
            drift = b["median"] / a["median"] - 1 if a["median"] else float("inf")
            within = abs(drift) <= a["bound"]
            ok = ok and within
            print(f"  {a['name']:<18}{drift:>+9.4f}  {'ok' if within else 'OUTSIDE BOUND'}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump({"workload": args.workload, "sets": sets}, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
