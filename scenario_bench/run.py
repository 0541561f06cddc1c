#!/usr/bin/env python3
"""Builds the scenario benchmark from source and runs one workload.

    python3 scenario_bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. The first call configures and builds the
MilBack libraries plus the benchmark driver under .bench_build/ (or under
$CARGO_TARGET_DIR when that is set); later calls only rebuild what changed.
Build output goes to a log file there, so the driver's standard output, which
ends with one JSON result line, is all this script prints. It exits with the
driver's code: 0 on success, 1 when an output check fails, 2 on a malformed
command line.
"""

import argparse
import multiprocessing
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("loc_stream", "aisle_mesh", "campus_4cell")


def non_negative_int(text):
    if not text.isdigit():
        raise argparse.ArgumentTypeError(
            "must be a non-negative integer, got %r" % text)
    return int(text)


def positive_float(text):
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError("must be a number, got %r" % text)
    if not value > 0 or value == float("inf"):
        raise argparse.ArgumentTypeError("must be positive, got %r" % text)
    return value


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=non_negative_int)
    p.add_argument("--seconds", required=True, type=positive_float)
    p.add_argument("--trace", required=True, choices=("0", "1"))
    return p.parse_args()  # exits 2 on a malformed command line


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "scenario_bench")


def build(out_dir):
    """Configures (once) and builds the driver; returns its path."""
    os.makedirs(out_dir, exist_ok=True)
    tmp = os.path.join(out_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)  # keep compiler scratch in the checkout
    log_path = os.path.join(out_dir, "build.log")
    jobs = str(min(4, multiprocessing.cpu_count()))
    steps = []
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", out_dir, "--target", "scenario_bench",
                  "-j", jobs])
    with open(log_path, "a") as log:
        for cmd in steps:
            rc = subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT,
                                 env=env, cwd=ROOT)
            if rc != 0:
                log.flush()
                with open(log_path) as f:
                    tail = f.read()[-4000:]
                sys.stderr.write(tail + "\nscenario_bench: build failed (%s)\n"
                                 % " ".join(cmd))
                sys.exit(1)
    return os.path.join(out_dir, "scenario_bench")


def git_revision():
    """HEAD with a -dirty suffix, or 'none' outside a git checkout."""
    try:
        top, sha = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, check=True,
            timeout=20).stdout.split()
        if os.path.realpath(top) != os.path.realpath(ROOT):
            return "none"  # a checkout nested in some other repository
        dirty = subprocess.run(["git", "-C", ROOT, "status", "--porcelain",
                                "--untracked-files=no"],
                               capture_output=True, text=True, check=True,
                               timeout=20).stdout.strip()
    except (OSError, subprocess.SubprocessError, ValueError):
        return "none"
    return sha + ("-dirty" if dirty else "")


def main():
    args = parse_args()
    binary = build(build_dir())
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--git", git_revision()]
    sys.stdout.flush()
    return subprocess.call(cmd, cwd=ROOT)


if __name__ == "__main__":
    sys.exit(main())
