#!/usr/bin/env python3
r"""Build and run the libhomp host-time benchmark (README.md in this directory).

Run from the repository root:

    python3 perfbench/run.py --workload sim-sweep --seed 1 --seconds 20 \
        --trace 0

The first call configures and builds perfbench/ (which compiles ../src) into
.bench_build/perfbench with CMake; later calls only rebuild what changed.
Build output goes to stderr. The benchmark's own output goes to stdout, whose
last line is the JSON result. Any failure exits non-zero without a result.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.normpath(os.path.join(HERE, "..", "src"))
BUILD = os.path.join(".bench_build", "perfbench")
WORKLOADS = ["sim-sweep", "real-data", "serve-soak", "fuzz-corpus"]
RUN_TIMEOUT_S = 175


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(SRC, "CMakeLists.txt")):
        fail("libhomp sources not found at " + SRC)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(BUILD, "homp_perfbench")


def source_digest():
    """SHA-256 over the benchmark's and the library's sources."""
    h = hashlib.sha256()
    for top in (SRC, HERE):
        for root, dirs, files in os.walk(top):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(root, name)
                h.update(os.path.relpath(path, os.path.dirname(SRC)).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    if not os.path.isdir(".git"):
        return "none"
    r = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                       text=True)
    return r.stdout.strip() if r.returncode == 0 else "none"


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, choices=["0", "1"])
    a = p.parse_args()
    if a.seed < 0 or a.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    binary = build()
    cmd = [binary, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", a.trace,
           "--out-dir", os.path.join(".bench_build", "perfbench-out"),
           "--git-sha", git_sha(), "--source-digest", source_digest()]
    sys.stdout.flush()
    try:
        r = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    if r.returncode != 0:
        fail("benchmark exited with code %d" % r.returncode)


if __name__ == "__main__":
    main()
