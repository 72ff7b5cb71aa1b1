#!/usr/bin/env python3
"""Build the safebarrier benchmark from source and run one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/perfbench.exe with dune (native code, into _build/), then
runs it with the same arguments.  Build output goes to stderr; the last line
of stdout is the benchmark's JSON result.  Exits non-zero, printing no
result, when the program's sources are missing, the build fails, or the run
fails or overruns its time limit.
"""

import os
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def run(cmd, timeout, **kw):
    """Run cmd to completion; on timeout kill it and wait until it has ended."""
    proc = subprocess.Popen(cmd, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("%s did not finish within %ds" % (cmd[0], timeout), 3)
    return proc.returncode, out


def main():
    for needed in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(needed):
            fail("run from the root of a safebarrier checkout (%s is missing)" % needed)
    env = dict(os.environ, DUNE_CACHE="disabled")
    code, _ = run(
        ["dune", "build", "--root", ".", "--display", "quiet", "./perfbench/perfbench.exe"],
        BUILD_TIMEOUT_S,
        stdout=sys.stderr,
        env=env,
    )
    if code != 0:
        fail("build failed (dune exit %d)" % code, 1)
    code, out = run([EXE] + sys.argv[1:], RUN_TIMEOUT_S, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(out)
    sys.stdout.flush()
    if code != 0:
        fail("benchmark exited with %d" % code, code)


if __name__ == "__main__":
    main()
