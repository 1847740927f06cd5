"""Checks that BENCHMARK.json and the perfbench binary agree on every metric.

usage: check_manifest.py <perfbench binary> <BENCHMARK.json>

The binary's `--list-metrics` prints `name unit end_to_end|per_layer` per
line; the manifest must list the same names, units and kinds, and every
workload the binary accepts.
"""
import json
import subprocess
import sys


def main() -> int:
    binary, manifest_path = sys.argv[1], sys.argv[2]
    with open(manifest_path) as f:
        manifest = json.load(f)
    listed = subprocess.run([binary, "--list-metrics"], check=True, capture_output=True,
                            text=True).stdout.split("\n")
    listed_by_binary = {}
    for line in filter(None, listed):
        name, unit, kind = line.split()
        listed_by_binary[name] = (unit, kind)
    declared = {}
    for kind in ("end_to_end", "per_layer"):
        for metric in manifest[kind]:
            declared[metric["name"]] = (metric["unit"], kind)
    problems = [f"{name}: binary {listed_by_binary.get(name)} vs manifest {declared.get(name)}"
                for name in sorted(set(listed_by_binary) | set(declared))
                if listed_by_binary.get(name) != declared.get(name)]
    workloads = [w["name"] for w in manifest["workloads"]]
    if workloads != ["fig5b-d10", "ooc-indep-d4", "serve-churn"]:
        problems.append(f"unexpected workloads {workloads}")
    setup = [m for m in manifest["end_to_end"] if m["name"] == "setup_s"]
    if not setup or max(m["bound"] for m in manifest["end_to_end"]) != setup[0]["bound"]:
        problems.append("setup_s must carry the largest bound")
    for problem in problems:
        print(problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
