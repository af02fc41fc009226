#!/usr/bin/env python3
"""Builds the simulator benchmark from source and runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The benchmark is configured and built with CMake (Release) under
.bench_build/perfbench in the checkout; later runs only rebuild what changed.
The last line of standard output is the result JSON printed by the
benchmark binary; its exit status is passed through. Workload names and
metric definitions are in perfbench/README.md.
"""
import argparse
import hashlib
import os
import subprocess
import sys

ROOT = os.getcwd()
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def run_quiet(cmd):
    """Runs a build step, echoing its output to stderr only when it fails."""
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail("build step failed: " + " ".join(cmd))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("run from the root of a checkout: src/CMakeLists.txt not found in " + ROOT)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_quiet(["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs])


def git(*args):
    try:
        proc = subprocess.run(["git", *args], cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
    except OSError:
        return None
    return proc


def source_commit():
    """The git commit when there is one, else a digest of the simulator sources.

    A commit whose src/ or perfbench/ differ from the working tree gets a
    "-dirty" suffix.
    """
    head = git("rev-parse", "HEAD")
    if head is not None and head.returncode == 0 and head.stdout.strip():
        status = git("status", "--porcelain", "--", "src", "perfbench")
        dirty = status is None or status.returncode != 0 or status.stdout.strip()
        return head.stdout.strip() + ("-dirty" if dirty else "")
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        fail("--seed must be >= 0 and --seconds in [1, 600]")
    build()
    sys.stdout.flush()
    proc = subprocess.run([BINARY, "--workload", args.workload, "--seed", str(args.seed),
                           "--seconds", str(args.seconds), "--trace", args.trace,
                           "--commit", source_commit()])
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
