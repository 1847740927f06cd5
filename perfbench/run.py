#!/usr/bin/env python3
"""Builds the benchmark binary from this checkout's sources and runs it.

usage: python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
                                [--scale full|smoke] [--work-dir <dir>]

Run from the repository root. The binary and the library it measures are
built with CMake (Release, MRSKY_NATIVE=OFF) into $CARGO_TARGET_DIR/perfbench,
or .bench_build/perfbench when that is unset; later runs rebuild only what
changed. Build output goes to stderr, so the binary's stdout — whose last line
is the JSON result — passes through untouched. Exits non-zero, printing no
result, when the sources are missing or the build or the run fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def git_sha() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                          text=True)
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def build(build_dir: str) -> str:
    """Configures (once) and builds the binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError(f"library sources not found under {ROOT}/src")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "perfbench")


def main() -> int:
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    try:
        binary = build(os.path.abspath(os.path.join(target, "perfbench")))
    except (RuntimeError, subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    env = dict(os.environ, PERFBENCH_GIT_SHA=git_sha())
    sys.stdout.flush()
    return subprocess.run([binary, *sys.argv[1:]], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
