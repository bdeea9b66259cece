#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload {label|fit|explore|serve} \
        --seed N --seconds S --trace {0|1} [--tiny]

Run from the root of a checkout. The first run configures and builds the
library and the benchmark from source into .bench_build (or
$CARGO_TARGET_DIR when set); later runs only re-check the build. The
benchmark's stdout is passed through; its last line is the JSON result.
Exits non-zero without a result when the sources are missing or the build
fails.
"""
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    out = build_dir()
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cfg = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"] + gen
        if subprocess.run(cfg, stdout=sys.stderr, stderr=sys.stderr).returncode:
            shutil.rmtree(out, ignore_errors=True)
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", out, "--target", "pgbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        return None
    exe = os.path.join(out, "pgbench")
    return exe if os.path.exists(exe) else None


def main():
    exe = build()
    if exe is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    return subprocess.run([exe] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
