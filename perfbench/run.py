#!/usr/bin/env python3
"""Builds the vsplice benchmark from this checkout and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. It

  1. hashes every file under src/ and the benchmark's own sources;
  2. builds the program's vsplice_* library targets from src/ plus the
     benchmark program vbench into perfbench/.build/ (CMake, Release). The tree
     is wiped and rebuilt whenever that hash changes, and the hash is
     compiled into vbench, which refuses to run under another one,
     so no object file made from other sources can be measured;
  3. runs vbench with every VSPLICE_* variable removed from its
     environment and forwards its output. The last line is the JSON
     result.

It exits non-zero, printing no result, when src/ is missing, the build
fails or vbench fails.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC_DIR = os.path.join(ROOT, "src")
BUILD_DIR = os.path.join(BENCH_DIR, ".build")
STAMP = os.path.join(BUILD_DIR, "source.sha256")
VBENCH = os.path.join(BUILD_DIR, "vbench")
BENCH_SOURCES = ("CMakeLists.txt", "vbench.cc", "checks.cc", "checks.h",
                 "speed.cc", "speed.h")

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def source_digest():
    """SHA-256 over the relative path and bytes of every source file."""
    files = []
    for top, dirs, names in os.walk(SRC_DIR):
        dirs.sort()
        files += [os.path.join(top, n) for n in sorted(names)]
    files += [os.path.join(BENCH_DIR, n) for n in BENCH_SOURCES]
    digest = hashlib.sha256()
    for path in files:
        digest.update(os.path.relpath(path, ROOT).encode() + b"\0")
        with open(path, "rb") as f:
            digest.update(f.read())
        digest.update(b"\0")
    return digest.hexdigest()


def clean_env():
    return {k: v for k, v in os.environ.items() if not k.startswith("VSPLICE_")}


def run_quiet(cmd, timeout):
    """Runs a build step; its output goes to stderr so stdout stays
    vbench's alone."""
    try:
        done = subprocess.run(cmd, env=clean_env(), stdout=sys.stderr,
                              stderr=sys.stderr, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(cmd))
    if done.returncode != 0:
        fail("build step failed: " + " ".join(cmd))


def build(digest):
    stamp = None
    if os.path.exists(STAMP):
        with open(STAMP) as f:
            stamp = f.read().strip()
    if stamp != digest and os.path.exists(BUILD_DIR):
        shutil.rmtree(BUILD_DIR)
    if stamp != digest:
        configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release",
                     "-DVBENCH_SOURCE_DIGEST=" + digest]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        run_quiet(configure, BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    run_quiet(["cmake", "--build", BUILD_DIR, "--target", "vbench",
               "-j", jobs], BUILD_TIMEOUT_S)
    with open(STAMP, "w") as f:
        f.write(digest + "\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC_DIR, "CMakeLists.txt")):
        fail("no program sources under " + SRC_DIR)
    digest = source_digest()
    build(digest)

    cmd = [VBENCH, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--digest", digest]
    try:
        done = subprocess.run(cmd, env=clean_env(), stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("vbench timed out")
    if done.returncode != 0:
        sys.stderr.buffer.write(done.stdout)
        fail("vbench exited with code %d" % done.returncode)
    sys.stdout.buffer.write(done.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
