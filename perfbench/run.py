#!/usr/bin/env python3
"""Build the program from source, then run one benchmark workload.

Usage, from the repository root:
    python3 perfbench/run.py --workload static-fresh --seed 1 --seconds 10 --trace 0

The last line of standard output is the run's JSON result. Everything
the run writes stays under the checkout: dune's _build/ and the
benchmark's scratch directory _perfbench/.

The run, with every process it starts, is confined to one core (the
last one allowed). On the 2-vCPU virtual machine this benchmark was
written on, two busy vCPUs got about 1.3 cores of host time between
them and stalled each other for 4-20 ms at a time, while one busy vCPU
lost 1-3% of its time; confining the run keeps its figures steady.
"""

import os
import subprocess
import sys

WORK = "_perfbench"
MAIN = os.path.join("_build", "default", "perfbench", "main.exe")
PTI = os.path.join("_build", "default", "bin", "pti.exe")


def main():
    root = os.getcwd()
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: run from the repository root (no dune-project/lib here)",
              file=sys.stderr)
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./bin/pti.exe", "./perfbench/main.exe"],
        stdout=sys.stderr, stderr=sys.stderr, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    args = [os.path.join(root, MAIN)] + sys.argv[1:] + [
        "--pti", os.path.join(root, PTI), "--work", os.path.join(root, WORK)]
    cores = sorted(os.sched_getaffinity(0))

    def one_core():
        os.sched_setaffinity(0, {cores[-1]})

    return subprocess.run(args, env=env, preexec_fn=one_core).returncode


if __name__ == "__main__":
    sys.exit(main())
