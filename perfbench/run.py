#!/usr/bin/env python3
"""Build and run one workload of the dvbp benchmark.

Run from the root of a dvbp checkout:

    python3 perfbench/run.py --workload sweep|served|replay --seed N \
        --seconds S --trace 0|1

The benchmark is compiled from the checkout's own sources (release
profile, build directory .bench_build) and then run in a process of its
own; the last line of standard output is the JSON result. Build output
goes to standard error.
"""

import os
import shutil
import subprocess
import sys

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "perfbench.exe")
BUILD_TIMEOUT_S = 600
RUN_TIMEOUT_S = 170


def dune_command():
    dune = shutil.which("dune")
    if dune:
        return [dune]
    opam = shutil.which("opam")
    if opam:
        return [opam, "exec", "--", "dune"]
    return None


def run(cmd, timeout, **kwargs):
    """Run cmd to completion; on timeout kill it and wait for it to end."""
    proc = subprocess.Popen(cmd, **kwargs)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: {cmd[0]} timed out after {timeout} s", file=sys.stderr)
        return 124
    except BaseException:
        proc.kill()
        proc.wait()
        raise


def main(argv):
    for need in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(need):
            print(f"perfbench: {need} not found; run from the root of a dvbp checkout",
                  file=sys.stderr)
            return 2
    dune = dune_command()
    if dune is None:
        print("perfbench: dune not found on PATH", file=sys.stderr)
        return 2
    # the shared dune cache lives outside the checkout
    env = dict(os.environ, DUNE_CACHE="disabled")
    rc = run(dune + ["build", "--profile", "release", "--build-dir", BUILD_DIR,
                     "./" + os.path.join("perfbench", "perfbench.exe")],
             BUILD_TIMEOUT_S, env=env, stdout=sys.stderr)
    if rc != 0:
        print(f"perfbench: build failed ({rc})", file=sys.stderr)
        return 3
    sys.stdout.flush()
    return run([EXE] + argv, RUN_TIMEOUT_S, env=env)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
