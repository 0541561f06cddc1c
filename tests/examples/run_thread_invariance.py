#!/usr/bin/env python3
"""Thread-count invariance and strict arguments of the shipped examples.

Runs every example (one binary per examples/*.cpp, found in the build
directory given as argv[1]) at MILBACK_SIM_THREADS=1 and =4 and asserts the
two stdouts are byte-identical and both runs exit 0. Other MILBACK_*
variables are cleared so no run writes exports. Each example must also
reject a malformed first argument (BAD_ARGS) with exit status 2.

Exit status 0 when every example passes, 1 otherwise.
"""

import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent.parent
WORKERS = ("1", "4")
BAD_ARGS = ("abc", "-3")


def run(binary: Path, workers: str, *args: str) -> subprocess.CompletedProcess:
    env = {k: v for k, v in os.environ.items() if not k.startswith("MILBACK_")}
    env["MILBACK_SIM_THREADS"] = workers
    return subprocess.run([str(binary), *args], env=env, capture_output=True, timeout=120)


def first_difference(a: bytes, b: bytes) -> str:
    for n, (la, lb) in enumerate(zip(a.splitlines(), b.splitlines()), start=1):
        if la != lb:
            return f"line {n}: {la.decode(errors='replace')!r} vs {lb.decode(errors='replace')!r}"
    return f"lengths {len(a)} vs {len(b)} bytes"


def main() -> int:
    if len(sys.argv) != 2:
        print(f"usage: {sys.argv[0]} <build-dir-of-examples>")
        return 1
    build = Path(sys.argv[1])
    names = sorted(p.stem for p in (REPO / "examples").glob("*.cpp"))
    failures = 0
    for name in names:
        binary = build / name
        if not binary.is_file():
            print(f"MISSING  {binary}")
            failures += 1
            continue
        runs = [run(binary, w) for w in WORKERS]
        if any(r.returncode for r in runs):
            print(f"FAILED   {name}: exit {[r.returncode for r in runs]} at workers {WORKERS}")
            failures += 1
        elif runs[0].stdout != runs[1].stdout:
            print(f"DIFFERS  {name} (workers {' vs '.join(WORKERS)}): "
                  f"{first_difference(runs[0].stdout, runs[1].stdout)}")
            failures += 1
        for arg in BAD_ARGS:
            code = run(binary, WORKERS[0], arg).returncode
            if code != 2:
                print(f"ACCEPTS  {name} {arg!r}: exit {code}, expected 2")
                failures += 1
    if failures:
        return 1
    print(f"examples_thread_invariance: {len(names)} example(s) identical at "
          f"{' and '.join(WORKERS)} workers and reject {' and '.join(BAD_ARGS)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
