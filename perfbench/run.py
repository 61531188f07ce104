#!/usr/bin/env python3
"""Build and run the XKBlasSim benchmark.

usage (from the repository root):
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds xkb_perfbench from perfbench/ together with the simulator sources in
src/ (CMake, Release) into .bench_build/, then runs it.  Its last line of
standard output is the JSON result; build output goes to standard error.
The exit code is xkb_perfbench's, or 1 when the build fails.
"""
import argparse
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
EXE = os.path.join(BUILD, "xkb_perfbench")
BUILD_TIMEOUT_S = 850  # the first run in a checkout builds
RUN_TIMEOUT_S = 170


def call(cmd, timeout, **kw):
    """Run cmd in its own process group; on timeout kill the whole group
    (compilers under the build tool included) and wait for it."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        return proc.wait(timeout=timeout)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if call(cmd, BUILD_TIMEOUT_S, stdout=sys.stderr) != 0:
            return False
    return call(["cmake", "--build", BUILD, "--target", "xkb_perfbench",
                 "-j", "4"], BUILD_TIMEOUT_S, stdout=sys.stderr) == 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, choices=["0", "1"])
    a = p.parse_args()
    try:
        if not build():
            print("perfbench: build failed", file=sys.stderr)
            return 1
        sys.stdout.flush()
        return call([EXE, "--workload", a.workload, "--seed", str(a.seed),
                     "--seconds", str(a.seconds), "--trace", a.trace],
                    RUN_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
