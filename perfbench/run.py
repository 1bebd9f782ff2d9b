#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload spider-chase --seed 1 --seconds 20 --trace 0

Workloads: spider-chase, audit, serve-mix.  The last line of standard
output is the JSON result; everything above it is the human-readable
report.  Exits non-zero, without a result line, when the repository is
not there to build or an output check fails.
"""

import os
import shutil
import signal
import subprocess
import sys

BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 175


def dune():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    return None


def untraced(argv):
    return "--trace" not in argv or argv[argv.index("--trace") + 1:][:1] != ["1"]


def main(argv):
    if not (os.path.isfile("dune-project") and os.path.isdir("lib") and os.path.isdir("bin")):
        print("perfbench: no repository here to build (run from its root)", file=sys.stderr)
        return 2
    cmd = dune()
    if cmd is None:
        print("perfbench: dune not found", file=sys.stderr)
        return 2
    targets = ["./perfbench/bench.exe", "./bin/redspider.exe"]
    # No shared build cache: the build reads and writes only the checkout.
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        built = subprocess.run(
            cmd + ["build", "--root", "."] + targets,
            stdout=sys.stderr, stderr=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: build timed out", file=sys.stderr)
        return 2
    if built.returncode != 0:
        return 2
    exe = os.path.join("_build", "default", "perfbench", "bench.exe")
    daemon = os.path.join("_build", "default", "bin", "redspider.exe")
    # Untraced (gated) runs use one CPU, for the benchmark and any daemon
    # it starts.  On a shared VM the domains' cross-CPU synchronisation
    # stalls whenever the host steals the other vCPU: unpinned, audit
    # throughput swung 2x between runs.  Traced runs keep every CPU, so
    # the per-layer figures show the parallel paths as deployed,
    # including the pool race that needs two domains running at once.
    if untraced(argv) and hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    # Own process group, so a timed-out run takes its daemons with it.
    proc = subprocess.Popen([exe] + argv + ["--redspider", daemon], start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("perfbench: run timed out", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
